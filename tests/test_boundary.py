"""Fixed-point inputs, string order, and condensation."""

import math

import numpy as np
import pytest

from latgauge.boundary import (
    CLOCK,
    SHIFT,
    build_fixed_point_state,
    condensation_table,
    string_order_expectation,
    string_order_operator,
    surviving_boundary_terms,
    symmetry_operator,
)
from latgauge.cyclotomic import mono_mul_left, mono_mul_right
from latgauge.gauging import LayerSpec, build_gauging_map, compose_gauging, layer_stack
from latgauge.groups import GroupSpec, all_subgroups, enumerate_cocycle_classes, restricted_characters
from latgauge.lattice import CodeSpec, Lattice2D, build_boundary_terms
from latgauge.operators import ProductOperator, flatten_product_operator

Z2 = GroupSpec((2,))
Z4 = GroupSpec((4,))
Z22 = GroupSpec((2, 2))


class TestFixedPointStates:
    def test_ghz_for_fully_broken(self):
        chain = build_fixed_point_state(Z2, [(0,)], 3, SHIFT)
        expected = np.zeros(8, dtype=complex)
        expected[0] = expected[7] = 1 / math.sqrt(2)
        assert np.max(np.abs(chain.state.amps - expected)) < 1e-12

    def test_uniform_for_unbroken(self):
        chain = build_fixed_point_state(Z2, [(0,), (1,)], 3, SHIFT)
        assert np.max(np.abs(chain.state.amps - np.full(8, 1 / math.sqrt(8)))) < 1e-12

    @pytest.mark.parametrize("group", [Z2, Z4, Z22])
    def test_normalized_and_symmetric_everywhere(self, group):
        for sub in all_subgroups(group):
            for conv in (SHIFT, CLOCK):
                chain = build_fixed_point_state(group, sub, 3, conv)
                assert abs(chain.state.norm() - 1) < 1e-12
                for g in group.elements():
                    moved = chain.state.apply(symmetry_operator(chain, g))
                    assert np.max(np.abs(moved.amps - chain.state.amps)) < 1e-12

    def test_open_subgroup_rejected(self):
        with pytest.raises(ValueError):
            build_fixed_point_state(Z4, [(1,)], 3)


class TestStringOrder:
    def test_crisp_zero_one_and_translation_invariance(self):
        for group in (Z2, Z4, Z22):
            for sub in all_subgroups(group):
                chain = build_fixed_point_state(group, sub, 4, CLOCK)
                res = set(restricted_characters(group, sub))
                for chi in group.characters():
                    expected = 1.0 if chi in res else 0.0
                    for i in range(4):
                        for ell in (1, 2, 3):
                            val = string_order_expectation(chain, chi, None, i, ell)
                            assert abs(val - expected) < 1e-12

    def test_shift_convention_matches_clock_convention(self):
        # The diagonal endpoint pair in the shift picture equals the shifted
        # endpoint pair in the clock picture; both detect the same subgroup.
        for sub in all_subgroups(Z4):
            a = build_fixed_point_state(Z4, sub, 4, SHIFT)
            b = build_fixed_point_state(Z4, sub, 4, CLOCK)
            for chi in Z4.characters():
                va = string_order_expectation(a, chi, None, 0, 2)
                vb = string_order_expectation(b, chi, None, 0, 2)
                assert abs(va - vb) < 1e-12

    def test_identity_character_always_one(self):
        chain = build_fixed_point_state(Z22, [(0, 0)], 4, CLOCK)
        assert abs(string_order_expectation(chain, Z22.dual_identity(), None, 0, 2) - 1) < 1e-12

    def test_bad_geometry_rejected(self):
        chain = build_fixed_point_state(Z2, [(0,)], 3, CLOCK, periodic=False)
        with pytest.raises(ValueError):
            string_order_expectation(chain, Z2.character((1,)), None, 1, 3)


class TestSurvivingTerms:
    @pytest.mark.parametrize("group", [Z2, Z4, Z22])
    def test_matches_restricted_characters(self, group):
        for sub in all_subgroups(group):
            chain = build_fixed_point_state(group, sub, 4, CLOCK)
            surviving, raw = surviving_boundary_terms(chain)
            assert surviving == set(restricted_characters(group, sub))
            for vals in raw.values():
                for v in vals:
                    assert abs(v) < 1e-9 or abs(v - 1) < 1e-9

    def test_surviving_set_is_a_subgroup(self):
        for group in (Z4, Z22):
            for sub in all_subgroups(group):
                chain = build_fixed_point_state(group, sub, 4, CLOCK)
                surviving, _ = surviving_boundary_terms(chain)
                exps = {chi.exps for chi in surviving}
                for a in surviving:
                    for b in surviving:
                        assert (a * b).exps in exps


class TestCondensation:
    @pytest.mark.parametrize("group", [Z2, Z4, Z22])
    def test_partition_matches_subgroup(self, group):
        for sub in all_subgroups(group):
            chain = build_fixed_point_state(group, sub, 2, CLOCK)
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
        chain = build_fixed_point_state(Z2, [(0,), (1,)], 2, CLOCK)
        spec = CodeSpec(Lattice2D(Z2, 2, 4, "open"))
        table = condensation_table(spec, chain)
        assert all(v["condenses"] for v in table["group_anyons"].values())
        assert [x for x in table["surviving"] if any(x)] == []

    def test_gauged_state_is_fixed_by_surviving_terms_only(self):
        # State-level cross-check of the operator-level table.
        group = Z2
        for sub in all_subgroups(group):
            chain = build_fixed_point_state(group, sub, 2, CLOCK)
            layers = layer_stack(group, 2, 4, "periodic")
            state = compose_gauging(layers, chain.state).normalized()
            spec = CodeSpec(Lattice2D(group, 2, 4, "open"))
            surviving, _ = surviving_boundary_terms(chain)
            surviving_exps = {chi.exps for chi in surviving}
            for term in build_boundary_terms(spec, "bottom"):
                overlap = state.inner(state.apply(term.op))
                if term.label.exps in surviving_exps:
                    assert abs(overlap - 1) < 1e-10
                else:
                    assert abs(overlap) < 1e-10


class TestTwistedBoundary:
    def test_string_order_operator_concatenates_boundary_terms(self):
        # Product of ell adjacent boundary pairs telescopes into the
        # endpoint pair with the slant-product clock string between.
        beta = enumerate_cocycle_classes(Z22)[1]
        chain = build_fixed_point_state(Z22, [(0, 0)], 4, CLOCK)
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
        for convention, cls_beta in [(CLOCK, beta), (CLOCK, None), (SHIFT, None)]:
            chain = build_fixed_point_state(Z22, [(0, 0)], 4, convention)
            kinds = dict(zip(chain.state.site_ids, chain.state.kinds))
            for chi in Z22.characters():
                op = string_order_operator(chain, chi, cls_beta, 0, 3)
                for site, mono in op.factors:
                    assert mono.kind == kinds[site]
                chain.state.apply(op)

    def test_beta_twisted_identity_through_the_map(self):
        # Exact operator identity: the three-body boundary term applied on
        # the output of the map equals the projective endpoint pair applied
        # on the input.
        for beta_src, group in [(Z22, Z22)]:
            beta = enumerate_cocycle_classes(beta_src)[1]
            layer = LayerSpec(group, 0, 2, "periodic")
            gmap = build_gauging_map(layer)
            exact = gmap.exact_matrix()
            out_sites = [s for s, _ in gmap.out_sites]
            out_dims = tuple(group.size for _ in out_sites)
            in_sites = [s for s, _ in gmap.matter_sites]
            in_dims = tuple(group.size for _ in in_sites)
            from latgauge.operators import clock_z, projective_x, projective_x_tilde

            for chi in group.characters():
                eff_factors = [
                    ((0, 0), projective_x_tilde(beta, chi)),
                    ((0, 2), projective_x(beta, chi)),
                ]
                term_factors = eff_factors + [((1, 1), clock_z(chi).adjoint())]
                term = ProductOperator.from_factors(term_factors, group.phase_modulus)
                eff = ProductOperator.from_factors(eff_factors, group.phase_modulus)
                perm_o, phase_o = flatten_product_operator(out_sites, out_dims, term)
                perm_i, phase_i = flatten_product_operator(in_sites, in_dims, eff)
                assert mono_mul_left(exact, perm_o, phase_o) == mono_mul_right(exact, perm_i, phase_i)
