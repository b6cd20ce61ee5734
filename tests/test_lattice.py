"""Lattice code: geometry, stabilizers, ground space, logicals."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from latgauge import gauging, lattice
from latgauge.gauging import compose_gauging, initial_state, layer_stack
from latgauge.groups import GroupSpec, enumerate_cocycle_classes, slant_product
from latgauge.lattice import (
    DENSE_ORACLE_CAP,
    CodeSpec,
    GeometryError,
    Lattice2D,
    build_boundary_terms,
    build_bulk_stabilizers,
    check_all_commute,
    ground_space_dimension,
    ground_space_dimension_dense,
    joint_eigenspace_dimension,
    logical_operators,
    orbit_eigenspace_dimension,
)
from latgauge.operators import (
    MonomialOperator,
    ProductOperator,
    SiteKind,
    StateVector,
    clock_z,
    commutation_phase,
    shift_x,
)
from latgauge.suite import GROUPS, TORI
from algebra_reference import to_dense
from test_gauging import traced_peak
from trace_oracle import random_projection_dimension, trace_ground_dimension

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z4 = GroupSpec((4,))
Z22 = GroupSpec((2, 2))


def _oracle_configs():
    """Every suite torus, twist pair and orientation within 2**16 assignments."""
    configs = []
    for orders in GROUPS:
        group = GroupSpec(orders)
        classes = [None if c.is_trivial else c for c in enumerate_cocycle_classes(group)]
        for n, m in TORI:
            if group.size ** (n * m) > 2**16:
                continue
            for even in classes:
                for odd in classes:
                    for orientation in ("standard", "reflected"):
                        spec = CodeSpec(
                            Lattice2D(group, n, m, "periodic"),
                            twist_even=even,
                            twist_odd=odd,
                            orientation=orientation,
                        )
                        twists = f"{even is not None:d}{odd is not None:d}"
                        tag = f"{'x'.join(map(str, orders))}-{n}x{m}-{twists}-{orientation}"
                        configs.append(pytest.param(spec, id=tag))
    return configs


def _suite_dense_configs():
    """The tori on which `gauge suite` runs the dense oracle, with its caps.

    Criterion 2: every GROUPS x TORI torus within DENSE_ORACLE_CAP.
    Criterion 3: the twisted Z2xZ2 tori within that cap, and the 2x4 torus
    it checks up to 2**17 amplitudes.
    """
    configs = []
    for orders in GROUPS:
        group = GroupSpec(orders)
        for n, m in TORI:
            spec = CodeSpec(Lattice2D(group, n, m, "periodic"))
            if spec.lattice.total_dim <= DENSE_ORACLE_CAP:
                tag = f"{'x'.join(map(str, orders))}-{n}x{m}"
                configs.append(pytest.param(spec, DENSE_ORACLE_CAP, id=tag))
    alpha = enumerate_cocycle_classes(Z22)[1]
    for n, m in [(2, 2), (3, 2), (4, 2), (2, 6)]:
        spec = CodeSpec(Lattice2D(Z22, n, m, "periodic"), twist_even=alpha)
        if spec.lattice.total_dim <= DENSE_ORACLE_CAP:
            configs.append(pytest.param(spec, DENSE_ORACLE_CAP, id=f"2x2-{n}x{m}-twisted"))
    spec = CodeSpec(Lattice2D(Z22, 2, 4, "periodic"), twist_even=alpha)
    configs.append(pytest.param(spec, 2**17, id="2x2-2x4-twisted"))
    return configs


class TestGeometry:
    def test_row_kinds_alternate(self):
        lat = Lattice2D(Z2, 3, 4, "periodic")
        assert lat.site_kind(0) == SiteKind.VERTEX_DUAL
        assert lat.site_kind(1) == SiteKind.EDGE_GROUP
        assert lat.row_positions(0) == [0, 2, 4]
        assert lat.row_positions(1) == [1, 3, 5]

    def test_torus_needs_even_rows(self):
        with pytest.raises(GeometryError):
            Lattice2D(Z2, 2, 3, "periodic")

    def test_minimum_sizes(self):
        with pytest.raises(GeometryError):
            Lattice2D(Z2, 1, 2, "periodic")
        with pytest.raises(GeometryError):
            Lattice2D(Z2, 2, 1, "open")

    def test_plaquette_centers(self):
        torus = Lattice2D(Z2, 2, 4, "periodic")
        assert len(torus.plaquette_centers()) == 8
        cylinder = Lattice2D(Z2, 2, 4, "open")
        centers = cylinder.plaquette_centers()
        assert all(1 <= j <= 3 for j, _ in centers)
        assert len(centers) == 6


class TestBulkStabilizers:
    def test_generator_count_z2_2x2(self):
        spec = CodeSpec(Lattice2D(Z2, 2, 2, "periodic"))
        assert len(build_bulk_stabilizers(spec)) == 8

    @pytest.mark.parametrize("group", [Z2, Z3, Z22])
    def test_all_commute_untwisted(self, group):
        spec = CodeSpec(Lattice2D(group, 3, 2, "periodic"))
        rep = check_all_commute(build_bulk_stabilizers(spec))
        assert rep["passed"] and rep["pairs_checked"] > 0

    def test_all_commute_twisted(self):
        alpha = enumerate_cocycle_classes(Z22)[1]
        spec = CodeSpec(Lattice2D(Z22, 2, 2, "periodic"), twist_even=alpha, twist_odd=alpha)
        assert check_all_commute(build_bulk_stabilizers(spec))["passed"]

    def test_untwisted_group_plaquette_product_is_identity(self):
        spec = CodeSpec(Lattice2D(Z3, 3, 2, "periodic"))
        for g in Z3.elements():
            total = ProductOperator.identity_op(Z3.phase_modulus)
            for t in build_bulk_stabilizers(spec):
                if t.label.family == "group" and t.label.exps == g.exps:
                    total = t.op.multiply(total)
            assert total == ProductOperator.identity_op(Z3.phase_modulus)

    def test_twisted_plaquette_product_is_slant_logical(self):
        for orders in [(2, 2), (4, 2)]:
            group = GroupSpec(orders)
            for alpha in enumerate_cocycle_classes(group):
                spec = CodeSpec(
                    Lattice2D(group, 2, 2, "periodic"),
                    twist_even=None if alpha.is_trivial else alpha,
                )
                lat = spec.lattice
                for g in group.elements():
                    total = ProductOperator.identity_op(group.phase_modulus)
                    for t in build_bulk_stabilizers(spec):
                        if t.label.family == "group" and t.label.exps == g.exps:
                            total = t.op.multiply(total)
                    chi = slant_product(alpha, g)
                    factors = [
                        ((j, x2), clock_z(chi))
                        for j in lat.rows
                        if j % 2 == 1
                        for x2 in lat.row_positions(j)
                    ]
                    assert total == ProductOperator.from_factors(factors, group.phase_modulus)

    def test_orientation_variants_commute_and_agree_on_dimension(self):
        alpha = enumerate_cocycle_classes(Z22)[1]
        dims = []
        for orientation in ("standard", "reflected"):
            spec = CodeSpec(
                Lattice2D(Z22, 2, 2, "periodic"), twist_even=alpha, orientation=orientation
            )
            assert check_all_commute(build_bulk_stabilizers(spec))["passed"]
            dims.append(ground_space_dimension(spec))
        assert dims[0] == dims[1]


class TestGroundSpace:
    @pytest.mark.parametrize(
        "group,n,m", [(Z2, 2, 2), (Z2, 3, 2), (Z2, 2, 4), (Z3, 2, 2), (Z22, 2, 2)]
    )
    def test_untwisted_dimension_is_size_squared(self, group, n, m):
        spec = CodeSpec(Lattice2D(group, n, m, "periodic"))
        dim = ground_space_dimension(spec)
        assert dim == group.size**2
        assert ground_space_dimension_dense(spec) == dim

    def test_twisted_dimension_is_group_size(self):
        alpha = enumerate_cocycle_classes(Z22)[1]
        spec = CodeSpec(Lattice2D(Z22, 2, 2, "periodic"), twist_even=alpha)
        assert ground_space_dimension(spec) == 4
        assert ground_space_dimension_dense(spec) == 4

    def test_twisted_degenerate_cocycle_dimension(self):
        # For a cocycle whose slant map has a kernel, the twist kills only
        # |image| of the |G|**2 states; both exact methods agree on 16.
        z42 = GroupSpec((4, 2))
        alpha = enumerate_cocycle_classes(z42)[1]
        spec = CodeSpec(Lattice2D(z42, 2, 2, "periodic"), twist_even=alpha)
        from latgauge.groups import slant_product

        image = {slant_product(alpha, g).exps for g in z42.elements()}
        assert len(image) == 4
        dim = ground_space_dimension(spec)
        assert dim == z42.size**2 // len(image) == 16
        assert ground_space_dimension_dense(spec, dim_cap=2**17) == dim

    @pytest.mark.parametrize("spec", _oracle_configs())
    def test_matches_trace_and_dense_oracles(self, spec):
        dim = ground_space_dimension(spec)
        assert dim == trace_ground_dimension(spec, cap_bits=16.0)
        if spec.lattice.total_dim <= DENSE_ORACLE_CAP:
            assert dim == ground_space_dimension_dense(spec)
        if spec.lattice.total_dim <= 2**12:
            assert dim == random_projection_dimension(spec)

    @pytest.mark.parametrize("spec,cap", _suite_dense_configs())
    def test_dense_oracle_matches_normal_form_on_suite_tori(self, spec, cap):
        assert ground_space_dimension_dense(spec, dim_cap=cap) == ground_space_dimension(spec)

    @pytest.mark.parametrize(
        "spec",
        [pytest.param(p.values[0], id=p.id) for p in _suite_dense_configs() if p.values[1] == DENSE_ORACLE_CAP],
    )
    def test_dense_oracle_matches_normal_form_with_one_phase_shifted(self, spec):
        # w times one non-identity term: the label map stops being a
        # representation, and both counts must see the same consequence.
        ops = [t.op for t in build_bulk_stabilizers(spec)]
        k = next(i for i, op in enumerate(ops) if op.factors)
        (site, mono), *rest = ops[k].factors
        shifted = replace(mono, phase=tuple(p + 1 for p in mono.phase))
        ops[k] = ProductOperator(((site, shifted), *rest), ops[k].modulus)
        sites = [s for s, _ in spec.lattice.sites()]
        assert orbit_eigenspace_dimension(ops, sites, spec.group) == joint_eigenspace_dimension(
            ops, sites, spec.group
        )

    @pytest.mark.parametrize("case", ["clock-string", "shifted-clock-string", "shifted-identity-term"])
    @pytest.mark.parametrize(
        "spec",
        [pytest.param(p.values[0], id=p.id) for p in _suite_dense_configs() if p.values[1] == DENSE_ORACLE_CAP],
    )
    def test_dense_oracle_matches_normal_form_with_a_diagonal_term_shifted(self, spec, case):
        # Every bulk term with factors moves states, so diagonal ones are
        # made here: a clock string along row 1 (a logical, which commutes
        # with every term), that string times w, or the identity-label term
        # times w.  The oracle checks diagonal terms apart from the orbit
        # passes, and must still agree with the normal form.
        ops = [t.op for t in build_bulk_stabilizers(spec)]
        L = spec.group.phase_modulus
        kinds = dict(spec.lattice.sites())
        if case == "shifted-identity-term":
            site = next(iter(kinds))
            identity = MonomialOperator.identity(spec.group.size, L)
            w = replace(identity, phase=(1,) * spec.group.size, kind=kinds[site])
            ops[next(i for i, op in enumerate(ops) if not op.factors)] = ProductOperator(((site, w),), L)
        else:
            z = clock_z(next(chi for chi in spec.group.characters() if not chi.is_identity))
            head, *rest = [(1, x2) for x2 in spec.lattice.row_positions(1)]
            first = replace(z, phase=tuple(p + 1 for p in z.phase)) if case == "shifted-clock-string" else z
            ops.append(ProductOperator.from_factors([(head, first)] + [(s, z) for s in rest], L))
        sites = list(kinds)
        assert orbit_eigenspace_dimension(ops, sites, spec.group) == joint_eigenspace_dimension(
            ops, sites, spec.group
        )

    def test_no_ops_fix_the_whole_space(self):
        assert orbit_eigenspace_dimension([], ["a", "b"], Z3) == 9

    def test_dense_oracle_keeps_one_byte_per_flattened_phase(self):
        # Criterion 3's 2x4 twisted torus: 65536 amplitudes and 32 terms,
        # each flattened to a perm and a phase below the modulus.  With
        # int64 perms and phases the traced peak was 572 bytes per
        # amplitude, with uint8 phases about 350, and with uint16 perms
        # about 156.  Built on the tensor shape, with the perms of the
        # diagonal terms dropped, it is about 104 on a first call and 89
        # after.
        alpha = enumerate_cocycle_classes(Z22)[1]
        spec = CodeSpec(Lattice2D(Z22, 2, 4, "periodic"), twist_even=alpha)
        dim, peak = traced_peak(lambda: ground_space_dimension_dense(spec, dim_cap=2**17))
        assert dim == 16
        assert peak < 130 * spec.lattice.total_dim

    @pytest.mark.parametrize(
        "group,n,m,twisted,expected",
        [
            (Z3, 4, 4, False, 9),  # 3**16 assignments: past the trace formula's reach
            (Z22, 16, 16, True, 16),  # m = 0 mod 4: the twist constraint squares away
            (GroupSpec((2, 3)), 16, 16, False, 36),
        ],
    )
    def test_large_tori(self, group, n, m, twisted, expected):
        alpha = enumerate_cocycle_classes(group)[1] if twisted else None
        spec = CodeSpec(Lattice2D(group, n, m, "periodic"), twist_even=alpha)
        assert ground_space_dimension(spec) == expected

    def test_scalar_relation_gives_zero(self):
        # Z x Z, X x X and -(XZ) x (XZ) commute and multiply to -1, so no
        # state is fixed by all three.
        z = clock_z(Z2.character((1,)))
        x = shift_x(Z2.element((1,)))
        xz = x.multiply(z)
        minus_xz = MonomialOperator(2, xz.perm, tuple(p + 1 for p in xz.phase), 2, xz.kind)
        sites = ["a", "b"]
        ops = [
            ProductOperator.from_factors([("a", a), ("b", b)], 2)
            for a, b in [(z, z), (x, x), (minus_xz, xz)]
        ]
        assert all(commutation_phase(p, q).is_one for p in ops for q in ops)
        assert joint_eigenspace_dimension(ops, sites, Z2) == 0
        assert orbit_eigenspace_dimension(ops, sites, Z2) == 0
        dense = [np.kron(*(to_dense(dict(op.factors)[s]) for s in sites)) for op in ops]
        assert np.allclose(dense[0] @ dense[1] @ dense[2], -np.eye(4))
        proj = np.eye(4)
        for mat in dense:
            proj = proj @ (np.eye(4) + mat) / 2
        assert np.allclose(proj, 0)

    def test_non_weyl_factor_is_refused(self):
        inversion = MonomialOperator(3, (0, 2, 1), (0, 0, 0), 3)
        op = ProductOperator.from_factors([("a", inversion)], 3)
        with pytest.raises(ArithmeticError):
            joint_eigenspace_dimension([op], ["a"], Z3)

    def test_one_cap_error_class(self):
        assert lattice.CapExceededError is gauging.CapExceededError
        spec = CodeSpec(Lattice2D(Z2, 2, 2, "periodic"))
        with pytest.raises(gauging.CapExceededError):
            ground_space_dimension_dense(spec, dim_cap=8)

    @pytest.mark.parametrize(
        "n,m,count",
        [(10, 4, "1099511627776"), (8, 6, "281474976710656"), (14, 4, "2**56"), (40, 40, "2**1600")],
    )
    def test_dense_refusal_names_a_long_count_as_a_power(self, n, m, count):
        # Up to READABLE_DIGITS digits the count is decimal, as the suite
        # report's 13-digit count; past it, |G|**sites.
        spec = CodeSpec(Lattice2D(Z2, n, m, "periodic"))
        with pytest.raises(gauging.CapExceededError) as err:
            ground_space_dimension_dense(spec)
        assert str(err.value) == f"{count} amplitudes exceed the dense oracle's {DENSE_ORACLE_CAP}"

    def test_total_dim_counts_sites_without_listing_them(self, monkeypatch):
        def refuse(self):
            raise AssertionError("sites() listed")

        monkeypatch.setattr(Lattice2D, "sites", refuse)
        assert Lattice2D(Z3, 5, 4, "periodic").total_dim == 3**20
        assert Lattice2D(Z3, 5, 4, "open").total_dim == 3**25
        assert Lattice2D(Z22, 1000, 1000, "periodic").total_dim == 4**1000000

    def test_dense_oracle_on_cylinder(self):
        # Open vertical boundary with no boundary terms kept: the bulk
        # projector alone leaves a larger space than the torus.
        spec = CodeSpec(Lattice2D(Z2, 2, 2, "open"))
        dim = ground_space_dimension_dense(spec)
        assert dim >= 4


class TestLogicals:
    def test_untwisted_logicals_commute(self):
        spec = CodeSpec(Lattice2D(Z3, 2, 2, "periodic"))
        logs = logical_operators(spec)
        assert logs and all(l.commutes for l in logs)

    def test_twisted_excludes_vertical_group_strings(self):
        alpha = enumerate_cocycle_classes(Z22)[1]
        spec = CodeSpec(Lattice2D(Z22, 2, 2, "periodic"), twist_even=alpha)
        logs = logical_operators(spec)
        excluded = {l.name for l in logs if not l.commutes}
        assert excluded == {f"X_col1_g{g.exps}" for g in Z22.elements() if not g.is_identity}
        for l in logs:
            if not l.commutes:
                assert l.witness is not None and l.witness["phase"] not in (None, 0)

    def test_vertical_string_moves_between_orthogonal_ground_states(self):
        # Dense oracle: project a random vector onto the ground space and
        # onto the +1 sector of the horizontal logicals (as the gauged
        # state is); the vertical shift logical then lands in a different
        # eigenvalue sector, so the image is orthogonal.
        group = Z2
        spec = CodeSpec(Lattice2D(group, 2, 2, "periodic"))
        lat = spec.lattice
        sites = lat.sites()
        dims = tuple(group.size for _ in sites)
        rng = np.random.default_rng(5)
        raw = rng.normal(size=lat.total_dim) + 1j * rng.normal(size=lat.total_dim)
        state = StateVector(tuple(s for s, _ in sites), tuple(k for _, k in sites), dims, raw)
        by_center = {}
        for t in build_bulk_stabilizers(spec):
            by_center.setdefault(t.label.center, []).append(t.op)
        for ops in by_center.values():
            acc = np.zeros_like(state.amps)
            for op in ops:
                acc += state.apply(op).amps
            state = StateVector(state.site_ids, state.kinds, state.dims, acc / len(ops))
        logs = logical_operators(spec)
        for l in logs:
            if l.name.startswith("Z_"):
                acc = state.amps + state.apply(l.op).amps
                state = StateVector(state.site_ids, state.kinds, state.dims, acc / 2)
        state = StateVector(state.site_ids, state.kinds, state.dims, state.amps / np.linalg.norm(state.amps))
        for l in logs:
            if l.name.startswith("X_"):
                moved = state.apply(l.op)
                assert abs(np.vdot(state.amps, moved.amps)) < 1e-10


class TestBoundaryTerms:
    def test_commute_with_bulk(self):
        spec = CodeSpec(Lattice2D(Z3, 2, 4, "open"))
        terms = build_bulk_stabilizers(spec)
        bottom = build_boundary_terms(spec, "bottom")
        top = build_boundary_terms(spec, "top")
        assert check_all_commute([*terms, *bottom, *top])["passed"]
        assert len(bottom) == 2 * Z3.size

    def test_restricted_by_subgroup(self):
        sub = (Z4.element((0,)), Z4.element((2,)))
        spec = CodeSpec(Lattice2D(Z4, 2, 4, "open"), subgroup_bottom=sub)
        bottom = build_boundary_terms(spec, "bottom")
        labels = {t.label.exps for t in bottom}
        assert labels == {(0,), (2,)}

    def test_unbroken_subgroup_leaves_only_identity_terms(self):
        sub = tuple(Z2.elements())
        spec = CodeSpec(Lattice2D(Z2, 2, 4, "open"), subgroup_bottom=sub)
        bottom = build_boundary_terms(spec, "bottom")
        assert {t.label.exps for t in bottom} == {(0,)}

    def test_rejected_on_torus(self):
        spec = CodeSpec(Lattice2D(Z2, 2, 4, "periodic"))
        with pytest.raises(GeometryError):
            build_boundary_terms(spec, "bottom")

    def test_beta_twisted_terms_still_commute(self):
        beta = enumerate_cocycle_classes(Z22)[1]
        spec = CodeSpec(Lattice2D(Z22, 2, 4, "open"), boundary_beta=beta)
        terms = [*build_bulk_stabilizers(spec), *build_boundary_terms(spec, "bottom")]
        assert check_all_commute(terms)["passed"]


def _stack_configs():
    """Open lattices and periodic layer stacks: six groups, every twist pair, five sizes."""
    configs = []
    for orders in [(2,), (3,), (4,), (2, 2), (2, 3), (3, 3)]:
        group = GroupSpec(orders)
        classes = enumerate_cocycle_classes(group)
        for (e, even), (o, odd) in itertools.product(enumerate(classes), repeat=2):
            for n, m in [(2, 2), (3, 3), (2, 4), (3, 2), (2, 5)]:
                tag = f"{'x'.join(map(str, orders))}-{n}x{m}-{e}{o}"
                configs.append(pytest.param(group, even, odd, n, m, id=tag))
    return configs


class TestCrossModule:
    @pytest.mark.parametrize("group,twisted", [(Z2, False), (Z22, True)])
    def test_gauged_state_satisfies_lattice_terms(self, group, twisted):
        alpha = enumerate_cocycle_classes(group)[1] if twisted else None
        layers = layer_stack(group, 2, 2, "periodic", twist_even=alpha)
        state = compose_gauging(layers, initial_state(group, layers[0]))
        dense = state.dense()
        norm_sq = dense.norm() ** 2
        spec = CodeSpec(Lattice2D(group, 2, 2, "open"), twist_even=alpha)
        terms = build_bulk_stabilizers(spec)
        assert state.fixed_by([term.op for term in terms]) == [True] * len(terms)
        for term in terms:
            overlap = np.vdot(dense.amps, dense.apply(term.op).amps) / norm_sq
            assert abs(overlap - 1) < 1e-10

    @pytest.mark.parametrize("group,even,odd,n,m", _stack_configs())
    def test_bulk_terms_are_the_stack_symmetries(self, group, even, odd, n, m):
        # Each bulk term of the open lattice is one stack symmetry: a
        # layer's three-body symmetry dressed by the next map's clock.
        # Only the last layer's raw three-body symmetries are left over,
        # and for even m they are the top boundary terms twisted by the
        # odd-layer cocycle.
        spec = CodeSpec(Lattice2D(group, n, m, "open"), twist_even=even, twist_odd=odd, boundary_beta=odd)
        names_of = {}
        stack = gauging.stack_local_symmetry_ops(layer_stack(group, n, m, "periodic", even, odd))
        for name, op in stack:
            names_of.setdefault(op, []).append(name)
        for term in build_bulk_stabilizers(spec):
            assert names_of.get(term.op), term.label
            names_of[term.op].pop(0)
        left = [name for names in names_of.values() for name in names]
        assert all(name.startswith(f"layer{m - 1}/") for name in left)
        if m % 2 == 0:
            last = {op for name, op in stack if name.startswith(f"layer{m - 1}/")}
            assert last == {t.op for t in build_boundary_terms(spec, "top")}
