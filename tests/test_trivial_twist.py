"""A twist field always holds a Cocycle: None on input is the trivial class."""

import itertools

import pytest

from latgauge.gauging import LayerSpec, build_gauging_map
from latgauge.groups import Cocycle, GroupSpec, all_subgroups, enumerate_cocycle_classes, restricted_characters
from latgauge.lattice import (
    CodeSpec,
    GeometryError,
    Lattice2D,
    StabilizerLabel,
    build_boundary_terms,
    build_bulk_stabilizers,
)
from latgauge.operators import ProductOperator, clock_z, projective_x, projective_x_tilde

GROUPS = [GroupSpec(o) for o in [(2,), (3,), (4,), (2, 2), (2, 3)]]
TWIST_FIELDS = ("twist_even", "twist_odd", "boundary_beta")


def _reference_boundary_terms(spec: CodeSpec, which: str) -> list:
    """The boundary terms built without the corner memo: (label, factors) per term.

    West the conjugate projective shift, east the projective shift, both
    twisted by boundary_beta; the inner clock is adjoint at the bottom.
    Only the bottom takes a subgroup; the top takes every character.
    """
    lat, beta = spec.lattice, spec.boundary_beta
    row, inner = (0, 1) if which == "bottom" else (lat.m, lat.m - 1)
    subgroup = spec.subgroup_bottom if which == "bottom" else None
    labels = list(spec.group.characters() if subgroup is None else restricted_characters(spec.group, subgroup))
    out = []
    for k in range(lat.n):
        c = 2 * k + 1
        for chi in labels:
            clock = clock_z(chi).adjoint() if which == "bottom" else clock_z(chi)
            factors = [
                (lat.wrap(row, c - 1), projective_x_tilde(beta, chi)),
                (lat.wrap(row, c + 1), projective_x(beta, chi)),
                ((inner, c), clock),
            ]
            op = ProductOperator.from_factors(factors, spec.group.phase_modulus)
            out.append((StabilizerLabel((row, c), f"boundary_{which}", chi.exps), op.factors))
    return out


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: "x".join(map(str, g.orders)))
@pytest.mark.parametrize("vertical", ["periodic", "open"])
def test_none_is_the_trivial_cocycle(group, vertical):
    lat = Lattice2D(group, 3, 4, vertical)
    trivial = Cocycle.trivial(group)
    spec = CodeSpec(lat)
    explicit = CodeSpec(lat, trivial, trivial, trivial)
    assert spec == explicit
    assert all(isinstance(getattr(spec, f), Cocycle) and getattr(spec, f).is_trivial for f in TWIST_FIELDS)
    assert list(build_bulk_stabilizers(spec)) == list(build_bulk_stabilizers(explicit))
    if vertical == "open":
        for which in ("bottom", "top"):
            assert build_boundary_terms(spec, which) == build_boundary_terms(explicit, which)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: "x".join(map(str, g.orders)))
@pytest.mark.parametrize("index, boundary", [(0, "periodic"), (1, "periodic"), (0, "open"), (1, "open")])
def test_layer_twist_none_gives_the_trivial_map(group, index, boundary):
    plain = LayerSpec(group, index, 2, boundary, None)
    trivial = LayerSpec(group, index, 2, boundary, Cocycle.trivial(group))
    assert plain == trivial and plain.twist == Cocycle.trivial(group)
    gmap = build_gauging_map(plain)
    assert gmap.exact_matrix() == build_gauging_map(trivial).exact_matrix()
    assert plain.exact_cells == gmap.out_dim * gmap.in_dim * group.phase_modulus


@pytest.mark.parametrize("field", TWIST_FIELDS)
def test_code_cocycle_of_another_group_raises(field):
    other = enumerate_cocycle_classes(GroupSpec((2, 2)))[1]
    with pytest.raises(GeometryError, match="different group"):
        CodeSpec(Lattice2D(GroupSpec((4, 2)), 2, 2, "periodic"), **{field: other})
    with pytest.raises(GeometryError, match="different group"):
        CodeSpec(Lattice2D(GroupSpec((2, 2)), 2, 2, "periodic"), **{field: Cocycle.trivial(GroupSpec((2,)))})


def test_layer_cocycle_of_another_group_raises():
    other = enumerate_cocycle_classes(GroupSpec((2, 2)))[1]
    with pytest.raises(ValueError, match="different group"):
        LayerSpec(GroupSpec((4, 2)), 0, 2, "periodic", other)
    with pytest.raises(ValueError, match="different group"):
        LayerSpec(GroupSpec((2, 2)), 0, 2, "periodic", Cocycle.trivial(GroupSpec((2,))))


def _cylinder_cases():
    for group in GROUPS:
        subgroups = [None] + all_subgroups(group)
        for beta, sub in itertools.product([None] + enumerate_cocycle_classes(group), subgroups):
            beta_id = "none" if beta is None else "".join(str(x) for row in beta.pmatrix for x in row)
            sub_id = "all" if sub is None else "|".join("".join(map(str, h.exps)) for h in sub)
            name = f"{'x'.join(map(str, group.orders))}-beta{beta_id}-H{sub_id}"
            yield pytest.param(group, beta, sub, id=name)


@pytest.mark.parametrize("group, beta, subgroup", list(_cylinder_cases()))
def test_boundary_terms_match_the_reference_factor_for_factor(group, beta, subgroup):
    lat = Lattice2D(group, 3, 4, "open")
    spec = CodeSpec(lat, boundary_beta=beta, subgroup_bottom=subgroup)
    for which in ("bottom", "top"):
        got = [(t.label, t.op.factors) for t in build_boundary_terms(spec, which)]
        assert got == _reference_boundary_terms(spec, which)
