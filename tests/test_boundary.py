"""Fixed-point inputs, string order, and condensation."""

import itertools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import chain_oracle
from algebra_reference import character_product, dual_identity
import dense_compose_oracle
import fourier_oracle
from latgauge.boundary import (
    _expectation,
    build_fixed_point_state,
    condensation_table,
    string_order_operator,
    surviving_boundary_terms,
)
from latgauge.cyclotomic import mono_mul_left, mono_mul_right
from latgauge.gauging import LayerSpec, build_gauging_map, compose_gauging, layer_stack
from latgauge.groups import GroupSpec, all_subgroups, enumerate_cocycle_classes, restricted_characters
from latgauge.lattice import CodeSpec, Lattice2D, build_boundary_terms
from latgauge.operators import ProductOperator, clock_z

Z2 = GroupSpec((2,))
Z4 = GroupSpec((4,))
Z22 = GroupSpec((2, 2))
ORACLE_GROUPS = [(2,), (3,), (4,), (2, 2), (2, 3), (3, 3), (4, 2)]


def string_order_expectation(chain, chi, beta, i, ell) -> complex:
    """<psi|O|psi> of the string order operator, from its root counts."""
    (counts,) = chain.state.root_counts([string_order_operator(chain, chi, beta, i, ell)])
    return _expectation(counts, chain.state.keys.size)


class TestFixedPointStates:
    def test_ghz_for_fully_broken(self):
        # The Fourier image of (|000> + |111>)/sqrt(2): 1/2 on every
        # configuration of even parity.
        chain = build_fixed_point_state(Z2, [(0,)], 3)
        expected = np.array([0.5 if bin(k).count("1") % 2 == 0 else 0.0 for k in range(8)], dtype=complex)
        assert np.array_equal(dense_compose_oracle.dense(chain.state).amps, expected)
        assert chain.state.keys.tolist() == [0, 3, 5, 6] and chain.state.mag_sq == Fraction(1, 4)

    def test_uniform_for_unbroken(self):
        # The Fourier image of the uniform product state is all-identity.
        chain = build_fixed_point_state(Z2, [(0,), (1,)], 3)
        assert chain.state.keys.tolist() == [0] and chain.state.roots.tolist() == [0]
        assert chain.state.mag_sq == 1

    @pytest.mark.parametrize("orders", ORACLE_GROUPS, ids=str)
    def test_support_size_and_exact_zeros(self, orders):
        # |G/H|**(n-1) tuples of characters trivial on H with product 1,
        # each at root 0 with squared magnitude one over their number.
        group = GroupSpec(orders)
        for sub in all_subgroups(group):
            state = build_fixed_point_state(group, sub, 3).state
            assert state.keys.size == (group.size // len(sub)) ** 2
            assert not state.roots.any() and state.mag_sq == Fraction(1, state.keys.size)

    @pytest.mark.parametrize("orders", ORACLE_GROUPS, ids=str)
    def test_keys_match_the_per_tuple_loop(self, orders):
        # Every subgroup, n = 2..5: the numpy digits give the loop's keys.
        group = GroupSpec(orders)
        for sub in all_subgroups(group):
            for n in range(2, 6):
                keys = build_fixed_point_state(group, sub, n).state.keys
                expected = chain_oracle.fixed_point_keys(group, sub, n)
                assert keys.dtype == expected.dtype and np.array_equal(keys, expected)

    def test_chain_past_int64_keys_refused(self):
        # 16**16 = 2**64 basis states; the 2**15 keys would wrap.
        group = GroupSpec((4, 4))
        sub = tuple(g for g in group.elements() if g.exps[0] % 2 == 0)
        with pytest.raises(ValueError, match="int64"):
            build_fixed_point_state(group, sub, 16)
        assert build_fixed_point_state(group, sub, 15).state.keys.size == 2**14

    @pytest.mark.parametrize("group", [Z2, Z4, Z22])
    def test_normalized_and_symmetric_everywhere(self, group):
        for sub in all_subgroups(group):
            chain = build_fixed_point_state(group, sub, 3)
            assert chain.state.norm() == 1.0
            ops = [
                ProductOperator.from_factors(((s, clock_z(g)) for s in chain.state.site_ids), group.phase_modulus)
                for g in group.elements()
            ]
            assert chain.state.fixed_by(ops) == [True] * len(ops)

    def test_open_subgroup_rejected(self):
        with pytest.raises(ValueError):
            build_fixed_point_state(Z4, [(1,)], 3)


class TestStringOrder:
    def test_crisp_zero_one_and_translation_invariance(self):
        for group in (Z2, Z4, Z22):
            for sub in all_subgroups(group):
                chain = build_fixed_point_state(group, sub, 4)
                res = set(restricted_characters(group, sub))
                for chi in group.characters():
                    expected = 1.0 if chi in res else 0.0
                    for i in range(4):
                        for ell in (1, 2, 3):
                            val = string_order_expectation(chain, chi, None, i, ell)
                            assert abs(val - expected) < 1e-12

    @pytest.mark.parametrize("group", [Z4, Z22])
    def test_coset_state_clock_pairs_match_the_chain(self, group):
        # Oracle: the group-label coset state sum_g (gH indicator)**n, built
        # here, and its diagonal pair chi(g_0) conj(chi(g_ell)) averaged over
        # |amplitude|**2; the chain's string order must give the same value.
        n = 4
        labels = list(group.elements())
        for sub in all_subgroups(group):
            cosets = {frozenset((g * h).exps for h in sub) for g in labels}
            configs = list(itertools.product(labels, repeat=n))
            amps = np.array([sum(all(x.exps in c for x in conf) for c in cosets) for conf in configs], float)
            weights = amps**2 / np.sum(amps**2)
            chain = build_fixed_point_state(group, sub, n)
            for chi in group.characters():
                k = np.array([[group.pair_exponent(chi.exps, x.exps) for x in conf] for conf in configs])
                for ell in (1, 2, 3):
                    pair = np.exp(2j * np.pi * (k[:, 0] - k[:, ell]) / group.phase_modulus)
                    oracle = np.sum(weights * pair)
                    assert abs(string_order_expectation(chain, chi, None, 0, ell) - oracle) < 1e-12

    def test_identity_character_always_one(self):
        chain = build_fixed_point_state(Z22, [(0, 0)], 4)
        assert abs(string_order_expectation(chain, dual_identity(Z22), None, 0, 2) - 1) < 1e-12

    def test_bad_geometry_rejected(self):
        chain = build_fixed_point_state(Z2, [(0,)], 3)
        with pytest.raises(ValueError, match="string longer than the chain"):
            string_order_expectation(chain, Z2.character((1,)), None, 1, 3)
        with pytest.raises(ValueError, match="ell must be at least 1"):
            string_order_expectation(chain, Z2.character((1,)), None, 1, 0)


class TestSurvivingTerms:
    @pytest.mark.parametrize("group", [Z2, Z4, Z22])
    def test_matches_restricted_characters(self, group):
        for sub in all_subgroups(group):
            chain = build_fixed_point_state(group, sub, 4)
            surviving, raw = surviving_boundary_terms(chain)
            assert surviving == set(restricted_characters(group, sub))
            for vals in raw.values():
                for v in vals:
                    assert v in (0, 1)

    @pytest.mark.parametrize("group", [Z4, Z22])
    def test_one_changed_root_changes_the_surviving_terms(self, group):
        # Every character survives on the fully broken chain; one key moved
        # to root 1 makes each nonzero character's shifts return it at
        # another root, so only the identity character is left.
        chain = build_fixed_point_state(group, [(0,) * len(group.orders)], 3)
        roots = chain.state.roots.copy()
        roots[1] = 1
        bent = replace(chain, state=replace(chain.state, roots=roots))
        assert surviving_boundary_terms(chain)[0] == set(group.characters())
        assert surviving_boundary_terms(bent)[0] == {dual_identity(group)}
        chi = next(c for c in group.characters() if not c.is_identity)
        assert string_order_expectation(bent, chi, None, 0, 1) != 1

    def test_surviving_set_is_a_subgroup(self):
        for group in (Z4, Z22):
            for sub in all_subgroups(group):
                chain = build_fixed_point_state(group, sub, 4)
                surviving, _ = surviving_boundary_terms(chain)
                exps = {chi.exps for chi in surviving}
                for a in surviving:
                    for b in surviving:
                        assert character_product(a, b).exps in exps


class TestCondensation:
    @pytest.mark.parametrize("group", [Z2, Z4, Z22])
    def test_partition_matches_subgroup(self, group):
        for sub in all_subgroups(group):
            chain = build_fixed_point_state(group, sub, 2)
            spec = CodeSpec(Lattice2D(group, 2, 4, "open"))
            table = condensation_table(spec, chain)
            sub_exps = {h.exps for h in sub}
            for g in group.elements():
                entry = table["group_anyons"][str(g.exps)]
                assert entry["condenses"] == (g.exps in sub_exps)
                if not entry["condenses"]:
                    assert entry["witness"] is not None
            for v in table["dual_anyons"].values():
                assert v["condenses"]

    def test_fully_unbroken_boundary_condenses_everything(self):
        chain = build_fixed_point_state(Z2, [(0,), (1,)], 2)
        spec = CodeSpec(Lattice2D(Z2, 2, 4, "open"))
        table = condensation_table(spec, chain)
        assert all(v["condenses"] for v in table["group_anyons"].values())
        assert [x for x in table["surviving"] if any(x)] == []

    def test_gauged_state_is_fixed_by_surviving_terms_only(self):
        # State-level cross-check of the operator-level table.
        group = Z2
        for sub in all_subgroups(group):
            chain = build_fixed_point_state(group, sub, 2)
            layers = layer_stack(group, 2, 4, "periodic")
            exact = compose_gauging(layers, chain.state)
            state = dense_compose_oracle.compose(layers, dense_compose_oracle.dense(chain.state))
            norm_sq = state.norm() ** 2
            spec = CodeSpec(Lattice2D(group, 2, 4, "open"))
            surviving, _ = surviving_boundary_terms(chain)
            surviving_exps = {chi.exps for chi in surviving}
            terms = build_boundary_terms(spec, "bottom")
            assert exact.fixed_by([term.op for term in terms]) == [t.label.exps in surviving_exps for t in terms]
            for term in terms:
                overlap = np.vdot(state.amps, state.apply(term.op).amps) / norm_sq
                if term.label.exps in surviving_exps:
                    assert abs(overlap - 1) < 1e-10
                else:
                    assert abs(overlap) < 1e-10


class TestTwistedBoundary:
    def test_string_order_operator_concatenates_boundary_terms(self):
        # Product of ell adjacent boundary pairs telescopes into the
        # endpoint pair with the slant-product clock string between.
        beta = enumerate_cocycle_classes(Z22)[1]
        chain = build_fixed_point_state(Z22, [(0, 0)], 4)
        from latgauge.operators import projective_x, projective_x_tilde

        for chi in Z22.characters():
            ell = 3
            total = ProductOperator.identity_op(Z22.phase_modulus)
            for k in range(ell):
                factors = [
                    (chain.site_at(k), projective_x_tilde(beta, chi)),
                    (chain.site_at(k + 1), projective_x(beta, chi)),
                ]
                total = total.multiply(ProductOperator.from_factors(factors, Z22.phase_modulus))
            expected = string_order_operator(chain, chi, beta, 0, ell)
            assert total == expected

    def test_string_order_factors_match_the_chain(self):
        # The slant-product clock on vertex sites takes an element label.
        beta = enumerate_cocycle_classes(Z22)[1]
        for cls_beta in (beta, None):
            chain = build_fixed_point_state(Z22, [(0, 0)], 4)
            kinds = dict(zip(chain.state.site_ids, chain.state.kinds))
            for chi in Z22.characters():
                op = string_order_operator(chain, chi, cls_beta, 0, 3)
                for site, mono in op.factors:
                    assert mono.kind == kinds[site]
                chain.state.root_counts([op])

    def test_beta_twisted_identity_through_the_map(self):
        # Exact operator identity: the three-body boundary term applied on
        # the output of the map equals the projective endpoint pair applied
        # on the input.
        for beta_src, group in [(Z22, Z22)]:
            beta = enumerate_cocycle_classes(beta_src)[1]
            layer = LayerSpec(group, 0, 2, "periodic")
            gmap = build_gauging_map(layer)
            exact = gmap.exact_matrix()
            from latgauge.operators import clock_z, projective_x, projective_x_tilde

            for chi in group.characters():
                eff_factors = [
                    ((0, 0), projective_x_tilde(beta, chi)),
                    ((0, 2), projective_x(beta, chi)),
                ]
                term_factors = eff_factors + [((1, 1), clock_z(chi).adjoint())]
                term = ProductOperator.from_factors(term_factors, group.phase_modulus)
                eff = ProductOperator.from_factors(eff_factors, group.phase_modulus)
                lhs = mono_mul_left(exact, gmap.exact_factors(term), gmap.exact_dims)
                assert lhs == mono_mul_right(exact, gmap.exact_factors(eff, columns=True), gmap.exact_dims)


class TestFourierOracle:
    """The closed form and its counted string orders against the float Fourier construction.

    Every subgroup of each group, chains of 2 to 4 sites, every cocycle
    class and every string of length 1..n-1 from site 0.
    """

    @pytest.mark.parametrize("orders", ORACLE_GROUPS, ids=str)
    def test_states_and_string_orders_match(self, orders):
        group = GroupSpec(orders)
        for sub in all_subgroups(group):
            for n in (2, 3, 4):
                chain = build_fixed_point_state(group, sub, n)
                dense = dense_compose_oracle.dense(chain.state)
                oracle = replace(dense, amps=fourier_oracle.fixed_point_amps(group, sub, n))
                assert np.max(np.abs(dense.amps - oracle.amps)) < 1e-12
                for beta in enumerate_cocycle_classes(group):
                    surviving, raw = surviving_boundary_terms(chain, beta)
                    for chi in group.characters():
                        values = [
                            fourier_oracle.string_order(oracle, string_order_operator(chain, chi, beta, 0, ell))
                            for ell in range(1, n)
                        ]
                        exact = [string_order_expectation(chain, chi, beta, 0, ell) for ell in range(1, n)]
                        assert np.max(np.abs(np.array(exact) - values)) < 1e-12
                        assert raw[chi.exps] == exact[:3]
                        assert (chi in surviving) == all(abs(v - 1) < 1e-9 for v in values[:3])

    def test_cancelling_roots_give_exact_zero(self):
        # Under the twisted Z3xZ3 cocycle every entry of the fully broken
        # chain comes back, a third on each cube root of unity: the string
        # order is exactly 0, not the float residue of the three roots.
        group = GroupSpec((3, 3))
        beta = enumerate_cocycle_classes(group)[1]
        chain = build_fixed_point_state(group, [(0, 0)], 3)
        for chi in group.characters():
            if not chi.is_identity:
                assert [string_order_expectation(chain, chi, beta, 0, ell) for ell in (1, 2)] == [0, 0]
