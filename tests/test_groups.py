"""Group layer: exact pairing, cocycles, slant products, subgroups."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algebra_reference import character_product, dual_identity, evaluate, phase_value, verify_cocycle_condition
from latgauge.groups import (
    Cocycle,
    GroupMismatchError,
    GroupSpec,
    PhaseExponent,
    all_subgroups,
    compose,
    enumerate_cocycle_classes,
    is_subgroup,
    pair,
    restricted_characters,
    slant_product,
    subgroup_generated,
)

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z4 = GroupSpec((4,))
Z22 = GroupSpec((2, 2))
Z23 = GroupSpec((2, 3))
SMALL_GROUPS = [Z2, Z3, Z4, Z22, Z23]


def dense_shift(spec, g_exps):
    """Independent dense-matrix oracle for the shift representation."""
    size = spec.size
    mat = np.zeros((size, size))
    for idx in range(size):
        h = spec.exps_of(idx)
        target = tuple((a + b) % n for a, b, n in zip(g_exps, h, spec.orders))
        mat[spec.index_of(target), idx] = 1.0
    return mat


def dense_clock(spec, chi_exps):
    size = spec.size
    diag = [
        np.exp(2j * np.pi * sum(c * h / n for c, h, n in zip(chi_exps, spec.exps_of(i), spec.orders)))
        for i in range(size)
    ]
    return np.diag(diag)


class TestCompose:
    def test_componentwise_modular_addition(self):
        a, b = Z23.element((1, 2)), Z23.element((1, 2))
        assert compose(a, b).exps == (0, 1)

    def test_identity(self):
        for spec in SMALL_GROUPS:
            e = spec.identity()
            for g in spec.elements():
                assert compose(g, e) == g
                assert compose(e, g) == g

    def test_wraparound(self):
        assert compose(Z4.element((3,)), Z4.element((3,))).exps == (2,)

    def test_mismatched_groups_rejected(self):
        with pytest.raises(GroupMismatchError):
            compose(Z2.element((1,)), Z3.element((1,)))

    def test_associative_commutative(self):
        for a, b, c in itertools.product(Z23.elements(), repeat=3):
            assert compose(compose(a, b), c) == compose(a, compose(b, c))
            assert compose(a, b) == compose(b, a)


class TestPair:
    def test_z3_value_from_dense_commutation(self):
        # Oracle: the scalar in Z X Z^-1 X^-1 for the dense clock and shift.
        chi, g = Z3.character((1,)), Z3.element((2,))
        z = dense_clock(Z3, chi.exps)
        x = dense_shift(Z3, g.exps)
        comm = z @ x @ np.linalg.inv(z) @ np.linalg.inv(x)
        scalar = comm[0, 0]
        assert np.allclose(comm, scalar * np.eye(3))
        assert abs(scalar - np.exp(4j * np.pi / 3)) < 1e-12
        got = pair(chi, g)
        assert got.k == 2 and got.modulus == 3
        assert abs(phase_value(got) - scalar) < 1e-12

    def test_identity_character(self):
        for spec in SMALL_GROUPS:
            for g in spec.elements():
                assert pair(dual_identity(spec), g).is_one

    def test_orthogonal_components(self):
        # Direct evaluation of the pairing sum.
        assert pair(Z22.character((0, 1)), Z22.element((1, 0))).is_one

    def test_bilinear(self):
        for spec in (Z22, Z23):
            for chi in spec.characters():
                for g, h in itertools.product(spec.elements(), repeat=2):
                    assert pair(chi, compose(g, h)) == pair(chi, g) * pair(chi, h)

    def test_perfect_pairing(self):
        # g -> pair(., g) is injective.
        for spec in SMALL_GROUPS:
            seen = set()
            for g in spec.elements():
                profile = tuple(pair(chi, g).k for chi in spec.characters())
                assert profile not in seen
                seen.add(profile)


class TestPhaseExponent:
    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 24))
    def test_multiplication_adds_exponents(self, a, b, modulus):
        pa, pb = PhaseExponent(a, modulus), PhaseExponent(b, modulus)
        assert (pa * pb).k == (a + b) % modulus
        assert (pa * PhaseExponent(-a, modulus)).is_one

    def test_moduli_must_match(self):
        with pytest.raises(GroupMismatchError):
            PhaseExponent(1, 2) * PhaseExponent(1, 3)


class TestCocycles:
    def test_class_counts(self):
        assert len(enumerate_cocycle_classes(Z2)) == 1
        assert len(enumerate_cocycle_classes(Z3)) == 1
        assert len(enumerate_cocycle_classes(Z22)) == 2
        assert len(enumerate_cocycle_classes(Z23)) == 1
        assert len(enumerate_cocycle_classes(GroupSpec((4, 2)))) == 2
        assert len(enumerate_cocycle_classes(GroupSpec((2, 2, 2)))) == 8

    def test_first_class_is_trivial(self):
        for spec in SMALL_GROUPS:
            classes = enumerate_cocycle_classes(spec)
            assert classes[0].is_trivial

    def test_cocycle_condition_exhaustive(self):
        for spec in SMALL_GROUPS:
            for alpha in enumerate_cocycle_classes(spec):
                assert verify_cocycle_condition(alpha)

    def test_nontrivial_class_is_not_a_coboundary(self):
        # Exhaustive search over 1-cochains valued in the L-th roots.
        alpha = enumerate_cocycle_classes(Z22)[1]
        L = Z22.phase_modulus
        elems = list(Z22.elements())
        for mu in itertools.product(range(L), repeat=len(elems)):
            phases = dict(zip(elems, mu))
            if all(
                evaluate(alpha, a, b).k
                == (phases[a] + phases[b] - phases[compose(a, b)]) % L
                for a in elems
                for b in elems
            ):
                pytest.fail("nontrivial representative turned out to be a coboundary")

    def test_pmatrix_must_be_upper_triangular(self):
        with pytest.raises(ValueError):
            Cocycle(Z22, ((0, 0), (1, 0)))


class TestSlantProduct:
    def test_brute_force_ratio_z22(self):
        # Oracle: evaluate alpha(g,h)/alpha(h,g) on every h and match the
        # pairing table of each candidate character.
        alpha = enumerate_cocycle_classes(Z22)[1]
        g = Z22.element((1, 0))
        ratio = {
            h: (evaluate(alpha, g, h).k - evaluate(alpha, h, g).k) % Z22.phase_modulus
            for h in Z22.elements()
        }
        matches = [
            chi
            for chi in Z22.characters()
            if all(pair(chi, h).k == ratio[h] for h in Z22.elements())
        ]
        assert len(matches) == 1 and matches[0].exps == (0, 1)
        assert slant_product(alpha, g) == matches[0]

    def test_trivial_cocycle_gives_identity_character(self):
        for spec in SMALL_GROUPS:
            alpha = Cocycle.trivial(spec)
            for g in spec.elements():
                assert slant_product(alpha, g).is_identity

    def test_identity_element(self):
        alpha = enumerate_cocycle_classes(Z22)[1]
        assert slant_product(alpha, Z22.identity()).is_identity

    def test_homomorphism_in_the_element(self):
        for spec in (Z22, Z4, GroupSpec((4, 2))):
            for alpha in enumerate_cocycle_classes(spec):
                for g, h in itertools.product(spec.elements(), repeat=2):
                    lhs = slant_product(alpha, compose(g, h))
                    rhs = character_product(slant_product(alpha, g), slant_product(alpha, h))
                    assert lhs == rhs


class TestSubgroups:
    def test_generated_closure(self):
        sub = subgroup_generated(Z4, [Z4.element((2,))])
        assert {h.exps for h in sub} == {(0,), (2,)}

    def test_is_subgroup(self):
        assert is_subgroup(Z4, [Z4.element((0,)), Z4.element((2,))])
        assert not is_subgroup(Z4, [Z4.element((0,)), Z4.element((1,))])
        assert not is_subgroup(Z4, [Z4.element((2,))])

    def test_all_subgroups_counts(self):
        assert len(all_subgroups(Z2)) == 2
        assert len(all_subgroups(Z4)) == 3
        assert len(all_subgroups(Z22)) == 5

    def test_restriction_is_annihilator(self):
        for spec in (Z2, Z4, Z22):
            for sub in all_subgroups(spec):
                res = restricted_characters(spec, sub)
                assert len(res) * len(sub) == spec.size
                blocked = {
                    g.exps
                    for g in spec.elements()
                    if all(pair(chi, g).is_one for chi in res)
                }
                assert blocked == {h.exps for h in sub}


@settings(max_examples=40)
@given(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=2))
def test_phase_modulus_covers_all_orders(orders):
    spec = GroupSpec(tuple(orders))
    for n in spec.orders:
        assert spec.phase_modulus % n == 0
