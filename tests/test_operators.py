"""Weyl operator algebra against dense-matrix oracles."""

import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_compose_oracle
from algebra_reference import character_product, dense_action, dual_identity, evaluate, phase_value, to_dense
import flatten_oracle
import flux_float_oracle
from latgauge.cli import _factor_from_json
from latgauge.gauging import compose_gauging, initial_state, layer_stack, stack_local_symmetry_ops
from latgauge.groups import Cocycle, GroupSpec, enumerate_cocycle_classes, pair, slant_product
from latgauge.operators import (
    MonomialOperator,
    ProductOperator,
    SiteKind,
    StateVector,
    clock_z,
    commutation_phase,
    flatten_product_operator,
    fusion_coefficients,
    irrep_flux_operator,
    projective_x,
    projective_x_tilde,
    shift_x,
)

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z4 = GroupSpec((4,))
Z22 = GroupSpec((2, 2))
Z23 = GroupSpec((2, 3))
SMALL_GROUPS = [Z2, Z3, Z4, Z22, Z23]


def assert_dense_equal(mono, dense, tol=1e-12):
    assert np.max(np.abs(to_dense(mono) - dense)) < tol


class TestClockShift:
    def test_z2_shift_is_bit_flip(self):
        assert_dense_equal(shift_x(Z2.element((1,))), np.array([[0, 1], [1, 0]], dtype=complex))

    def test_identity_cases(self):
        for spec in SMALL_GROUPS:
            assert shift_x(spec.identity()).is_identity
            assert clock_z(dual_identity(spec)).is_identity
            assert shift_x(dual_identity(spec)).is_identity
            assert clock_z(spec.identity()).is_identity

    def test_z2_clock_shift_anticommute(self):
        # Dense 2x2 oracle for the commutation scalar.
        x = shift_x(Z2.element((1,)))
        z = clock_z(Z2.character((1,)))
        lhs = to_dense(x.multiply(z))
        rhs = to_dense(z.multiply(x))
        assert np.max(np.abs(lhs + rhs)) < 1e-12

    def test_z3_clock_shift_scalar(self):
        # Dense 3x3 oracle: clock.shift = w * shift.clock with w = exp(2 pi i/3).
        x = shift_x(Z3.element((1,)))
        z = clock_z(Z3.character((1,)))
        w = np.exp(2j * np.pi / 3)
        dense_cs = np.diag([1, w, w**2]) @ np.roll(np.eye(3), 1, axis=0)
        assert_dense_equal(z.multiply(x), dense_cs)
        assert np.max(np.abs(to_dense(z.multiply(x)) - w * to_dense(x.multiply(z)))) < 1e-12

    def test_shift_is_regular_representation(self):
        for spec in SMALL_GROUPS:
            for g, h in itertools.product(spec.elements(), repeat=2):
                assert shift_x(g).multiply(shift_x(h)) == shift_x(g * h)

    def test_clock_shift_weyl_relation(self):
        # clock(chi) . shift(g) = chi(g) shift(g) . clock(chi), exactly.
        for spec in (Z3, Z22, Z4):
            for chi in spec.characters():
                for g in spec.elements():
                    lhs = clock_z(chi).multiply(shift_x(g))
                    rhs = shift_x(g).multiply(clock_z(chi))
                    assert lhs == replace(rhs, c=rhs.c + pair(chi, g).k)


class TestProjective:
    def test_trivial_cocycle_reduces_to_shifts(self):
        for spec in SMALL_GROUPS:
            triv = Cocycle.trivial(spec)
            for g in spec.elements():
                assert projective_x(triv, g) == shift_x(g)
                assert projective_x_tilde(triv, g) == shift_x(g.inverse())

    def test_projective_multiplication_rule(self):
        for spec in (Z22, Z4, Z23, GroupSpec((4, 2))):
            for alpha in enumerate_cocycle_classes(spec):
                for g, h in itertools.product(spec.elements(), repeat=2):
                    lhs = projective_x(alpha, g).multiply(projective_x(alpha, h))
                    rhs = projective_x(alpha, g * h)
                    assert lhs == replace(rhs, c=rhs.c + evaluate(alpha, g, h).k)

    def test_left_and_right_representations_commute(self):
        for alpha in enumerate_cocycle_classes(Z22):
            for g, h in itertools.product(Z22.elements(), repeat=2):
                a = projective_x(alpha, g)
                b = projective_x_tilde(alpha, h)
                assert a.multiply(b) == b.multiply(a)

    def test_pair_product_is_slant_clock(self):
        # Dense 4x4 oracle: X(g) Xtilde(g) must equal the diagonal clock of
        # the slant-product character.
        alpha = enumerate_cocycle_classes(Z22)[1]
        for g in Z22.elements():
            prod = projective_x(alpha, g).multiply(projective_x_tilde(alpha, g))
            chi = slant_product(alpha, g)
            expected = np.diag(
                [
                    np.exp(2j * np.pi * pair(chi, h).k / Z22.phase_modulus)
                    for h in Z22.elements()
                ]
            )
            assert_dense_equal(prod, expected)
            assert prod == clock_z(chi)

    def test_clock_conjugates_projective_shift(self):
        # clock(chi) X_alpha(g) = chi(g) X_alpha(g) clock(chi)
        for spec in (Z22, Z4):
            for alpha in enumerate_cocycle_classes(spec):
                for chi in spec.characters():
                    for g in spec.elements():
                        lhs = clock_z(chi).multiply(projective_x(alpha, g))
                        rhs = projective_x(alpha, g).multiply(clock_z(chi))
                        assert lhs == replace(rhs, c=rhs.c + pair(chi, g).k)

    def test_character_and_element_with_same_exponents_agree(self):
        # Same Weyl row, different site kind.
        beta = enumerate_cocycle_classes(Z22)[1]
        for chi in Z22.characters():
            g = Z22.element(chi.exps)
            for build in (
                lambda lab: projective_x(beta, lab),
                lambda lab: projective_x_tilde(beta, lab),
                shift_x,
                clock_z,
            ):
                a, b = build(chi), build(g)
                assert (a.a, a.chi, a.c) == (b.a, b.chi, b.c)
                assert {a.kind, b.kind} == {SiteKind.EDGE_GROUP, SiteKind.VERTEX_DUAL}


class TestSiteKind:
    @pytest.mark.parametrize("spec", SMALL_GROUPS)
    def test_constructor_kind_follows_label(self, spec):
        # Shifts act on the site whose basis has the label's type, clocks
        # on the other kind.
        alpha = enumerate_cocycle_classes(spec)[-1]
        for g, chi in zip(spec.elements(), spec.characters()):
            for lab, own, other in (
                (g, SiteKind.EDGE_GROUP, SiteKind.VERTEX_DUAL),
                (chi, SiteKind.VERTEX_DUAL, SiteKind.EDGE_GROUP),
            ):
                assert shift_x(lab).kind == own
                assert projective_x(alpha, lab).kind == own
                assert projective_x_tilde(alpha, lab).kind == own
                assert clock_z(lab).kind == other
                assert clock_z(lab).adjoint().kind == other

    def test_a_weyl_row_equals_its_constructor(self):
        assert MonomialOperator(Z2, 1, 0, 0, SiteKind.EDGE_GROUP) == shift_x(Z2.element((1,)))
        assert MonomialOperator(Z2, 1, 0, 0, SiteKind.VERTEX_DUAL) == shift_x(Z2.character((1,)))
        assert MonomialOperator(Z3, 0, 2, 3, SiteKind.EDGE_GROUP) == clock_z(Z3.character((2,)))

    def test_mixed_kind_product_rejected(self):
        x = shift_x(Z3.element((1,)))
        z = clock_z(Z3.element((1,)))  # a vertex-site clock
        for a, b in ((x, z), (z, x), (x, replace(x, kind=SiteKind.VERTEX_DUAL))):
            with pytest.raises(ValueError, match="site kinds"):
                a.multiply(b)
        with pytest.raises(ValueError, match="site kinds"):
            ProductOperator.from_factors([(0, x), (0, z)], 3)
        pa = ProductOperator.from_factors([(0, x)], 3)
        pb = ProductOperator.from_factors([(0, z)], 3)
        with pytest.raises(ValueError, match="site kinds"):
            pa.multiply(pb)
        with pytest.raises(ValueError, match="site kinds"):
            commutation_phase(pa, pb)


class TestMonomialAlgebra:
    def test_inverse_and_unitarity(self):
        for spec in SMALL_GROUPS:
            gens = [shift_x(g) for g in spec.elements()]
            gens += [clock_z(chi) for chi in spec.characters()]
            for alpha in enumerate_cocycle_classes(spec):
                gens += [projective_x(alpha, g) for g in spec.elements()]
            for m in gens:
                assert m.multiply(m.adjoint()).is_identity
                assert m.adjoint().multiply(m).is_identity

    def test_dense_multiplication_agrees(self):
        rng = np.random.default_rng(3)
        for spec in (Z3, Z22):
            ops = [shift_x(g) for g in spec.elements()] + [
                clock_z(chi) for chi in spec.characters()
            ]
            for _ in range(20):
                a, b = rng.choice(len(ops), size=2)
                prod = ops[a].multiply(ops[b])
                assert_dense_equal(prod, to_dense(ops[a]) @ to_dense(ops[b]))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            shift_x(Z2.element((1,))).multiply(shift_x(Z3.element((1,))))

    @given(st.sampled_from(SMALL_GROUPS + [GroupSpec((6,)), GroupSpec((4, 2))]), st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_random_monomials_unitary(self, group, seed):
        rng = np.random.default_rng(seed)
        a, chi = (int(x) for x in rng.integers(0, group.size, size=2))
        m = MonomialOperator(group, a, chi, int(rng.integers(-20, 20)), SiteKind.EDGE_GROUP)
        assert m.multiply(m.adjoint()).is_identity
        dense = to_dense(m)
        assert np.max(np.abs(dense @ dense.conj().T - np.eye(group.size))) < 1e-12

    @pytest.mark.parametrize(
        "perm,phase", [((0,), (0,)), ((0,), ()), ((0, 0), (0, 0))], ids=["short", "no-phase", "repeat"]
    )
    def test_bad_lengths_checked_before_dim_sizes_anything(self, perm, phase):
        # A factor of an op file may claim any dim; the lengths are checked
        # before a list of dim entries is built.
        op = {"dim": 10**6, "perm": list(perm), "phase": list(phase), "modulus": 2}
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="perm must be a bijection"):
                _factor_from_json(Z2, {"site": [1, 1], "kind": "edge_group", "op": op})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    @pytest.mark.parametrize(
        "field, value",
        [("dim", 2.0), ("modulus", True), ("perm", [1.0, 0]), ("perm", [True, False]), ("phase", [0, 0.5])],
        ids=["float-dim", "bool-modulus", "float-perm", "bool-perm", "fractional-phase"],
    )
    def test_from_json_takes_integers_only(self, field, value):
        op = {"dim": 2, "perm": [1, 0], "phase": [0, 1], "modulus": 2, field: value}
        with pytest.raises(ValueError, match="must be integers"):
            _factor_from_json(Z2, {"site": [1, 1], "kind": "edge_group", "op": op})


class TestProductOperator:
    def test_commutation_phase_single_site(self):
        x = shift_x(Z2.element((1,)))
        z = clock_z(Z2.character((1,)))
        a = ProductOperator.from_factors([(0, x)], 2)
        b = ProductOperator.from_factors([(0, z)], 2)
        ph = commutation_phase(a, b)
        assert ph is not None and ph.k == 1  # the scalar -1

    def test_disjoint_supports_commute(self):
        x = shift_x(Z3.element((1,)))
        z = clock_z(Z3.character((2,)))
        a = ProductOperator.from_factors([(0, x)], 3)
        b = ProductOperator.from_factors([(1, z)], 3)
        assert commutation_phase(a, b).is_one

    def test_projective_shifts_commute_up_to_the_slant_phase(self):
        # X(g) X(h) = alpha(g, h) X(g h) and X(h) X(g) = alpha(h, g) X(g h),
        # so the commutator is the slant character of g at h.
        for spec in (Z22, GroupSpec((4, 2))):
            for alpha in enumerate_cocycle_classes(spec):
                for g, h in itertools.product(spec.elements(), repeat=2):
                    a = ProductOperator.from_factors([(0, projective_x(alpha, g))], spec.phase_modulus)
                    b = ProductOperator.from_factors([(0, projective_x(alpha, h))], spec.phase_modulus)
                    assert commutation_phase(a, b) == pair(slant_product(alpha, g), h)

    def test_multiply_merges_sites(self):
        a = ProductOperator.from_factors([(0, shift_x(Z2.element((1,))))], 2)
        b = ProductOperator.from_factors(
            [(0, shift_x(Z2.element((1,)))), (1, clock_z(Z2.character((1,))))], 2
        )
        prod = a.multiply(b)
        fm = dict(prod.factors)
        assert 0 not in fm  # the shifts cancelled to the identity
        assert 1 in fm

    def test_from_factors_multiplies_in_order_and_drops_identities(self):
        x, z = shift_x(Z3.element((1,))), clock_z(Z3.character((1,)))
        op = ProductOperator.from_factors([(1, x), (0, z), (1, z), (0, z.adjoint())], 3)
        assert op.factors == ((1, z.multiply(x)),)
        assert z.multiply(x) != x.multiply(z)

    @pytest.mark.parametrize("seed", range(6))
    def test_commutation_phase_matches_dense_oracle(self, seed):
        # Independent check of the scalar-commutator kernel: compare the
        # claimed phase against dense matrix products on two shared sites.
        spec = Z22
        alpha = enumerate_cocycle_classes(spec)[1]
        rng = np.random.default_rng(seed)
        pool = (
            [shift_x(g) for g in spec.elements()]
            + [clock_z(chi) for chi in spec.characters()]
            + [projective_x(alpha, g) for g in spec.elements()]
            + [projective_x_tilde(alpha, g) for g in spec.elements()]
        )
        def pick():
            return ProductOperator.from_factors(
                [(0, pool[rng.integers(len(pool))]), (1, pool[rng.integers(len(pool))])],
                spec.phase_modulus,
            )
        for _ in range(10):
            a, b = pick(), pick()
            da = dense_product(a, (0, 1), (4, 4))
            db = dense_product(b, (0, 1), (4, 4))
            ph = commutation_phase(a, b)
            assert np.max(np.abs(da @ db - phase_value(ph) * (db @ da))) < 1e-12


def random_state(sites, dims, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=int(np.prod(dims))) + 1j * rng.normal(size=int(np.prod(dims)))
    return StateVector(
        tuple(s for s, _ in sites), tuple(k for _, k in sites), tuple(dims), raw
    )


def dense_product(op, site_ids, dims):
    """Kronecker-product oracle for a product operator."""
    mats = []
    factor_map = dict(op.factors)
    for s, d in zip(site_ids, dims):
        mats.append(to_dense(factor_map[s]) if s in factor_map else np.eye(d))
    total = np.ones((1, 1), dtype=complex)
    for m in mats:
        total = np.kron(total, m)
    return total


class TestApply:
    SITES = [(("a", 0), SiteKind.EDGE_GROUP), (("a", 1), SiteKind.EDGE_GROUP), (("a", 2), SiteKind.EDGE_GROUP)]

    def test_identity_leaves_state(self):
        st_ = random_state(self.SITES, (3, 3, 3), 0)
        out = st_.apply(ProductOperator.identity_op(3))
        assert np.array_equal(out.amps, st_.amps)

    def test_shift_moves_basis_state(self):
        stv = StateVector((("a", 0),), (SiteKind.EDGE_GROUP,), (3,), np.eye(3)[0])
        op = ProductOperator.from_factors([(("a", 0), shift_x(Z3.element((2,))))], 3)
        out = stv.apply(op)
        assert abs(out.amps[2] - 1) < 1e-15

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_apply_matches_dense_oracle(self, seed):
        spec = Z3
        stv = random_state(self.SITES, (3, 3, 3), seed)
        rng = np.random.default_rng(seed + 100)
        factors = {}
        for s, _ in self.SITES:
            choice = rng.integers(0, 3)
            if choice == 0:
                factors[s] = shift_x(spec.element((int(rng.integers(0, 3)),)))
            elif choice == 1:
                factors[s] = clock_z(spec.character((int(rng.integers(0, 3)),)))
        if not factors:
            factors[("a", 0)] = shift_x(spec.element((1,)))
        op = ProductOperator.from_factors(factors.items(), 3)
        out = stv.apply(op)
        expected = dense_product(op, stv.site_ids, stv.dims) @ stv.amps
        assert np.max(np.abs(out.amps - expected)) < 1e-12
        assert abs(out.norm() - stv.norm()) < 1e-12

    def test_sequential_applications_compose(self):
        stv = random_state(self.SITES, (3, 3, 3), 5)
        a = ProductOperator.from_factors([(("a", 0), shift_x(Z3.element((1,))))], 3)
        b = ProductOperator.from_factors(
            [(("a", 0), clock_z(Z3.character((1,)))), (("a", 2), shift_x(Z3.element((2,))))], 3
        )
        seq = stv.apply(b).apply(a)
        merged = stv.apply(a.multiply(b))
        assert np.max(np.abs(seq.amps - merged.amps)) < 1e-12

    def test_kind_mismatch_rejected(self):
        # The kind is read from the factor: a vertex-site clock or a shift
        # made for a vertex site cannot act on an edge site.
        stv = random_state(self.SITES, (3, 3, 3), 6)
        raw = MonomialOperator(Z3, 1, 0, 0, SiteKind.EDGE_GROUP)
        for mono in (clock_z(Z3.element((1,))), replace(raw, kind=SiteKind.VERTEX_DUAL)):
            op = ProductOperator.from_factors([(("a", 0), mono)], 3)
            with pytest.raises(ValueError, match="site kind mismatch"):
                stv.apply(op)
        stv.apply(ProductOperator.from_factors([(("a", 0), raw)], 3))

    def test_modulus_mismatch_rejected(self):
        # A Z3 factor's phases are cube roots; an operator of modulus 6 would read them as sixth roots.
        stv = random_state(self.SITES, (3, 3, 3), 7)
        op = ProductOperator.from_factors([(("a", 0), shift_x(Z3.element((1,))))], 6)
        with pytest.raises(ValueError, match="operator modulus mismatch"):
            stv.apply(op)


def scatter_apply(state, op):
    """The former StateVector.apply: a full-size phase product per factor,
    then a fancy-index scatter.  Kept as the bitwise oracle of apply's
    walk over the support."""
    out = state.amps
    w = np.exp(2j * np.pi / op.modulus) if op.factors else 1.0
    for site, mono in op.factors:
        axis = state.site_ids.index(site)
        d = state.dims[axis]
        pre = int(np.prod(state.dims[:axis])) if axis else 1
        post = int(np.prod(state.dims[axis + 1:])) if axis + 1 < len(state.dims) else 1
        cur = out.reshape(pre, d, post)
        nxt = np.empty_like(cur)
        perm, phase = dense_action(mono)
        nxt[:, np.array(perm), :] = cur * (w ** np.array(phase))[None, :, None]
        out = nxt.reshape(-1)
    return out


# Sites of three groups of one phase modulus (6), of dimensions 6 and 12.
Z6 = GroupSpec((6,))
Z26 = GroupSpec((2, 6))
MIXED_SITES = [
    (("m", 0), SiteKind.EDGE_GROUP),
    (("m", 1), SiteKind.VERTEX_DUAL),
    (("m", 2), SiteKind.EDGE_GROUP),
    (("m", 3), SiteKind.VERTEX_DUAL),
]
MIXED_GROUPS = (Z6, Z23, Z26, Z6)
MIXED_DIMS = tuple(group.size for group in MIXED_GROUPS)


def mixed_factor(choice, group, kind):
    """A Weyl factor of a modulus-6 group.

    clock: a character; shift: a translation with a character and a
    phase; twisted: the right projective shift of the last cohomology
    class (nontrivial on Z2xZ6).
    """
    if choice == "clock":
        return MonomialOperator(group, 0, 1, 0, kind)
    if choice == "shift":
        return MonomialOperator(group, 1, group.size - 1, 1, kind)
    label = group.element((1,) * len(group.orders)) if kind == SiteKind.EDGE_GROUP else group.character((1,) * len(group.orders))
    return projective_x_tilde(enumerate_cocycle_classes(group)[-1], label)


MIXED_CHOICES = [
    ("clock", "shift", "twisted", "shift"),
    ("shift", "clock", "clock", "twisted"),
    ("twisted", "shift", "shift", "shift"),
    ("clock", None, "clock", None),
    (None, "twisted", None, None),
    (None, None, "shift", "clock"),
    ("twisted", "clock", "twisted", "shift"),
]


def mixed_op(choices):
    pairs = [
        (site, mixed_factor(c, group, kind))
        for (site, kind), group, c in zip(MIXED_SITES, MIXED_GROUPS, choices)
        if c is not None
    ]
    return ProductOperator.from_factors(pairs, 6)


def twisted_ops():
    """Projective shifts, their commuting partners and clocks on Z2xZ2 sites."""
    alpha = enumerate_cocycle_classes(Z22)[1]
    g, h = Z22.element((1, 0)), Z22.element((1, 1))
    return [
        ProductOperator.from_factors(
            [(("a", 0), clock_z(Z22.character((1, 1)))), (("a", 1), projective_x(alpha, g)),
             (("a", 2), projective_x_tilde(alpha, h))],
            2,
        ),
        ProductOperator.from_factors(
            [(("a", 0), projective_x_tilde(alpha, g)), (("a", 2), clock_z(Z22.character((0, 1))))],
            2,
        ),
    ]


TWISTED_SITES = [(("a", k), SiteKind.EDGE_GROUP) for k in range(3)]


# Five spectator qubits after the mixed sites: 82944 amplitudes, three tiles.
TILED_SITES = MIXED_SITES + [(("t", k), SiteKind.EDGE_GROUP) for k in range(5)]
TILED_DIMS = MIXED_DIMS + (2,) * 5


def sparse_state(sites, dims, seed):
    """A normalized random state with about two thirds of its amplitudes zero."""
    stv = random_state(sites, dims, seed)
    stv.amps[np.random.default_rng(seed + 1).random(stv.amps.size) < 2 / 3] = 0
    stv.amps /= np.linalg.norm(stv.amps)
    return stv


def apply_cases():
    """(state, op) pairs covering every branch of StateVector.apply."""
    cases = [
        (random_state(MIXED_SITES, MIXED_DIMS, 10 + k), mixed_op(choices))
        for k, choices in enumerate(MIXED_CHOICES)
    ]
    cases += [(random_state(TWISTED_SITES, (4, 4, 4), 20 + k), op) for k, op in enumerate(twisted_ops())]
    cases.append((random_state(MIXED_SITES, MIXED_DIMS, 30), ProductOperator.identity_op(6)))
    tiled = random_state(TILED_SITES, TILED_DIMS, 40)
    tiled.amps /= np.linalg.norm(tiled.amps)
    cases.append((tiled, mixed_op(MIXED_CHOICES[0])))
    cases.append((sparse_state(MIXED_SITES, MIXED_DIMS, 42), mixed_op(MIXED_CHOICES[6])))
    return cases


class TestSliceWiseApply:
    @pytest.mark.parametrize("case", range(len(apply_cases())))
    def test_apply_equals_the_scatter_formula(self, case):
        stv, op = apply_cases()[case]
        assert np.array_equal(stv.apply(op).amps, scatter_apply(stv, op))

    @pytest.mark.parametrize("case", range(len(apply_cases())))
    def test_expectation_equals_the_inner_product_of_apply(self, case):
        # Mixed dimensions and twisted shifts, on dense states.
        stv, op = apply_cases()[case]
        (value,) = dense_compose_oracle.expectations(stv, [op])
        assert abs(value - np.vdot(stv.amps, stv.apply(op).amps)) < 1e-12

    @pytest.mark.parametrize("case", range(len(apply_cases())))
    def test_flatten_matches_the_dense_product(self, case):
        # On the sites up to the last factor, so the tiled state's operator
        # is compared as a 2592 x 2592 matrix.
        stv, op = apply_cases()[case]
        n = max((stv.site_ids.index(site) + 1 for site, _ in op.factors), default=0)
        ids, dims = stv.site_ids[:n], stv.dims[:n]
        perm, phase = flatten_product_operator(ids, dims, op)
        total = int(np.prod(dims))
        flat = np.zeros((total, total), dtype=complex)
        flat[perm, np.arange(total)] = np.exp(2j * np.pi / op.modulus) ** phase
        assert np.max(np.abs(flat - dense_product(op, ids, dims))) < 1e-12

    @pytest.mark.parametrize("case", range(len(apply_cases())))
    def test_flatten_matches_apply_on_the_whole_space(self, case):
        stv, op = apply_cases()[case]
        perm, phase = flatten_product_operator(stv.site_ids, stv.dims, op)
        moved = stv.apply(op).amps[perm]
        assert np.max(np.abs(moved - np.exp(2j * np.pi / op.modulus) ** phase * stv.amps)) < 1e-12

    def test_real_amplitudes_act_as_their_complex_copy(self):
        ids, kinds = tuple(s for s, _ in MIXED_SITES), tuple(k for _, k in MIXED_SITES)
        amps = np.random.default_rng(70).normal(size=int(np.prod(MIXED_DIMS)))
        twin_amps = amps.astype(complex)
        twin = StateVector(ids, kinds, MIXED_DIMS, twin_amps)
        assert twin.amps is twin_amps
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            real = StateVector(ids, kinds, MIXED_DIMS, amps)
            for choices in MIXED_CHOICES:
                op = mixed_op(choices)
                assert np.array_equal(real.apply(op).amps, twin.apply(op).amps)
                assert dense_compose_oracle.expectations(real, [op]) == dense_compose_oracle.expectations(twin, [op])

    def test_apply_on_a_gauged_stack(self):
        # Interior symmetries are four-body: diagonal, two shifts, diagonal.
        layers = layer_stack(Z3, 3, 3)
        stv = dense_compose_oracle.dense(compose_gauging(layers, initial_state(Z3, layers[0])))
        for _, op in stack_local_symmetry_ops(layers):
            assert np.array_equal(stv.apply(op).amps, scatter_apply(stv, op))

    def test_mismatch_after_a_valid_factor_is_refused(self):
        stv = random_state(MIXED_SITES, MIXED_DIMS, 50)
        before = stv.amps.copy()
        good = (("m", 0), mixed_factor("shift", Z6, SiteKind.EDGE_GROUP))
        bad = [
            ((("m", 1), mixed_factor("shift", Z26, SiteKind.VERTEX_DUAL)), "operator dimension mismatch"),
            ((("m", 2), mixed_factor("twisted", Z26, SiteKind.VERTEX_DUAL)), "site kind mismatch"),
        ]
        for pair_, message in bad:
            op = ProductOperator.from_factors([good, pair_], 6)
            with pytest.raises(ValueError, match=message):
                stv.apply(op)
        assert stv.amps.tobytes() == before.tobytes()

    def test_repeated_site_is_refused(self):
        shift = mixed_factor("shift", Z6, SiteKind.EDGE_GROUP)
        with pytest.raises(ValueError, match="more than one factor"):
            ProductOperator(((("m", 0), shift), (("m", 0), shift)), 6)

    def test_shift_on_every_site_of_a_long_chain(self):
        # Every site carries a phased flip, so each amplitude moves on all
        # fourteen axes and takes fourteen phase products in factor order.
        sites = [(("c", k), SiteKind.EDGE_GROUP) for k in range(14)]
        stv = random_state(sites, (2,) * 14, 60)
        flip = MonomialOperator(Z2, 1, 1, 0, SiteKind.EDGE_GROUP)
        op = ProductOperator.from_factors([(s, flip) for s, _ in sites], 2)
        assert np.array_equal(stv.apply(op).amps, scatter_apply(stv, op))

    @pytest.mark.parametrize("case", range(len(apply_cases())))
    def test_input_is_not_written(self, case):
        stv, op = apply_cases()[case]
        before = stv.amps.copy()
        out = stv.apply(op)
        assert stv.amps.tobytes() == before.tobytes()
        # Only the empty operator hands back the input array.
        if op.factors:
            assert not np.shares_memory(out.amps, stv.amps)
        else:
            assert out.amps is stv.amps


FLATTEN_GROUPS = [GroupSpec(orders) for orders in ((2,), (3,), (4,), (2, 2), (6,), (2, 3), (256,), (257,), (1000,))]


@st.composite
def flatten_cases(draw):
    """(site_ids, dims, op): sites of one group, some with a drawn Weyl factor, in drawn orders, up to 2**18 amplitudes.

    Binary spectator sites push some totals past 2**16, where perm leaves
    uint16; moduli past 256 move phase to uint16.
    """
    group = draw(st.sampled_from(FLATTEN_GROUPS))
    bits = math.ceil(math.log2(group.size))
    dims = [group.size] * draw(st.integers(0, min(5, 18 // bits)))
    for _ in range(draw(st.integers(0, 18 - bits * len(dims)))):
        dims.insert(draw(st.integers(0, len(dims))), 2)
    names = draw(st.permutations(range(len(dims))))
    index = st.integers(0, group.size - 1)
    factors = []
    for site, d in zip(names, dims):
        if d == group.size and draw(st.booleans()):
            c = draw(st.integers(0, 3 * group.phase_modulus))
            factors.append((site, MonomialOperator(group, draw(index), draw(index), c, SiteKind.EDGE_GROUP)))
    order = draw(st.permutations(range(len(dims))))
    site_ids = [names[k] for k in order]
    return site_ids, tuple(dims[k] for k in order), ProductOperator(tuple(draw(st.permutations(factors))), group.phase_modulus)


class TestFlatten:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(flatten_cases())
    @example(([], (), ProductOperator.identity_op(3)))
    @example((list(range(16)), (2,) * 16, ProductOperator(((3, MonomialOperator(Z2, 1, 1, 0, SiteKind.EDGE_GROUP)),), 2)))
    @example((list(range(17)), (2,) * 17, ProductOperator(((16, MonomialOperator(Z2, 1, 0, 1, SiteKind.EDGE_GROUP)),), 2)))
    @example(([0, 1], (6, 2), ProductOperator.identity_op(257)))
    def test_equals_the_tiled_oracle_bit_for_bit(self, case):
        site_ids, dims, op = case
        got = flatten_product_operator(site_ids, dims, op)
        expected = flatten_oracle.flatten_product_operator(site_ids, dims, op)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


S3_PERMS = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]


def s3_table():
    """S3 by permutation composition: identity, the three transpositions, the two 3-cycles."""
    index = {p: i for i, p in enumerate(S3_PERMS)}
    return np.array([[index[tuple(p[q[k]] for k in range(3))] for q in S3_PERMS] for p in S3_PERMS])


S3_CHARS = np.array([[1, 1, 1, 1, 1, 1], [1, -1, -1, -1, 1, 1], [2, 0, 0, 0, -1, -1]])


def z22_table():
    elems = list(Z22.elements())
    return np.array([[Z22.index_of((a * b).exps) for b in elems] for a in elems])


def z22_char_matrix():
    return np.array([[(-1) ** pair(chi, g).k for g in Z22.elements()] for chi in Z22.characters()])


class TestFluxOperators:
    def test_abelian_flux_factorizes(self):
        table = z22_table()
        chars = z22_char_matrix()
        for k, chi in enumerate(Z22.characters()):
            diag = irrep_flux_operator(table, chars[k], 2)
            local = chars[k]
            assert diag.dtype.kind == "i"
            assert np.array_equal(diag, np.kron(local, local))

    def test_trivial_character_gives_identity(self):
        diag = irrep_flux_operator(z22_table(), np.ones(4, dtype=int), 3)
        assert np.array_equal(diag, np.ones(64, dtype=int))

    def test_fusion_coefficients_are_deltas_for_abelian(self):
        n = fusion_coefficients(z22_char_matrix())
        for s, chi_s in enumerate(Z22.characters()):
            for r, chi_r in enumerate(Z22.characters()):
                prod = character_product(chi_s, chi_r)
                for t, chi_t in enumerate(Z22.characters()):
                    assert n[s, r, t] == (1 if chi_t == prod else 0)

    def test_s3_two_dim_irrep_squares_to_all_three(self):
        n = fusion_coefficients(S3_CHARS)
        assert n.dtype.kind == "i" and n[2, 2].tolist() == [1, 1, 1]

    def test_non_class_function_rejected(self):
        bad = np.array([1, 1, -1, 1, 1, 1])  # not constant on the 2-cycles
        with pytest.raises(ValueError, match="class function"):
            irrep_flux_operator(s3_table(), bad, 2)

    @pytest.mark.parametrize(
        "character",
        [S3_CHARS[2].astype(float), S3_CHARS[2].astype(complex), S3_CHARS[2] == 2, [2, 0, 0, 0, -1, "-1"]],
        ids=["float", "complex", "bool", "string"],
    )
    def test_character_that_is_not_integer_rejected(self, character):
        with pytest.raises(ValueError, match="integers"):
            irrep_flux_operator(s3_table(), character, 2)
        with pytest.raises(ValueError, match="integers"):
            fusion_coefficients([character])

    def test_table_with_no_identity_rejected(self):
        # Every product shifted by one label: no row and column are both the identity map.
        table = (z22_table() + 1) % 4
        with pytest.raises(ValueError, match="no identity"):
            irrep_flux_operator(table, np.ones(4, dtype=int), 1)

    def test_table_with_no_inverse_rejected(self):
        # The identity stays at 0, but 3 times anything is 3: 3 has no inverse.
        table = z22_table()
        table[3, :] = 3
        table[:, 3] = 3
        with pytest.raises(ValueError, match="no inverse"):
            irrep_flux_operator(table, np.ones(4, dtype=int), 1)

    @pytest.mark.parametrize("table", [[[0, 1], [1, 2]], [[0, 1], [1, -1]], [[0, 1, 0], [1, 0, 1]]])
    def test_table_that_is_not_square_of_indices_rejected(self, table):
        with pytest.raises(ValueError, match="square table"):
            irrep_flux_operator(table, [1, 1], 1)

    def test_orthogonality_sum_with_a_remainder_raises(self):
        # A class function that is not a character: sum_g chi(g)**2 = 3 is not a multiple of |S3| = 6.
        with pytest.raises(ArithmeticError):
            fusion_coefficients([[1, 1, 1, 1, 1, 1], [1, 0, 0, 0, 1, 1]])

    @pytest.mark.parametrize("name", ["Z2xZ2", "S3"])
    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
    def test_equals_the_float_oracle(self, name, n_sites):
        table, chars = (z22_table(), z22_char_matrix()) if name == "Z2xZ2" else (s3_table(), S3_CHARS)
        oracle_table = flux_float_oracle.FiniteGroupTable(tuple(tuple(int(x) for x in row) for row in table))
        for chi in chars:
            got = irrep_flux_operator(table, chi, n_sites)
            expected = flux_float_oracle.irrep_flux_operator(oracle_table, chi.astype(complex), n_sites)
            assert got.dtype.kind == "i" and np.array_equal(got, expected)
        assert np.array_equal(fusion_coefficients(chars), flux_float_oracle.fusion_coefficients(chars.astype(complex)))
