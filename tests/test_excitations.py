"""Syndromes, strings, confinement, braiding."""


import numpy as np
import pytest

from algebra_reference import phase_table, violated_labels
from latgauge.excitations import (
    StringSpec,
    braiding_phase,
    confined_string_operator,
    confinement_report,
    dipole_operator,
    horizontal_string_path,
    string_operator,
    syndrome,
    vertical_string_path,
)
from latgauge.groups import GroupSpec, enumerate_cocycle_classes, pair, slant_product
from latgauge.lattice import CodeSpec, Lattice2D, build_bulk_stabilizers
from latgauge.operators import ProductOperator, commutation_phase

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z22 = GroupSpec((2, 2))


def untwisted(group, n=3, m=6):
    return CodeSpec(Lattice2D(group, n, m, "periodic"))


def twisted_z22(n=4, m=8):
    alpha = enumerate_cocycle_classes(Z22)[1]
    return CodeSpec(Lattice2D(Z22, n, m, "periodic"), twist_even=alpha)


class TestSyndrome:
    def test_identity_operator_all_clear(self):
        spec = untwisted(Z2)
        syn = syndrome(build_bulk_stabilizers(spec), ProductOperator.identity_op(2))
        assert not violated_labels(syn)

    @pytest.mark.parametrize("group", [Z2, Z3])
    def test_single_shift_violates_two_plaquettes(self, group):
        spec = untwisted(group)
        g = next(e for e in group.elements() if not e.is_identity)
        op = string_operator(spec, StringSpec(((1, 1),), g, "X"))
        centers = syndrome(build_bulk_stabilizers(spec), op).violated_centers()
        assert centers == {(0, 1), (2, 1)}

    def test_single_twisted_shift_violates_three(self):
        spec = twisted_z22()
        op = confined_string_operator(spec, Z22.element((1, 0)), 1, 1, 1)
        assert len(syndrome(build_bulk_stabilizers(spec), op).violated_centers()) == 3

    def test_syndrome_is_multiplicative(self):
        spec = twisted_z22()
        terms = build_bulk_stabilizers(spec)
        a = confined_string_operator(spec, Z22.element((1, 0)), 1, 1, 2)
        b = dipole_operator(spec, Z22.element((0, 1)), 3, 3, 1)
        sa, sb, sab = (phase_table(terms, op) for op in (a, b, a.multiply(b)))
        for lab in sab:
            assert sab[lab] == sa[lab] * sb[lab]

    def test_twisted_total_group_syndrome_constrained(self):
        # The product of all group plaquettes is the slant-product logical,
        # so any operator's total group-plaquette phase equals its
        # commutation phase with that logical.
        spec = twisted_z22()
        terms = build_bulk_stabilizers(spec)
        alpha = spec.twist_even
        lat = spec.lattice
        for g in Z22.elements():
            chi = slant_product(alpha, g)
            from latgauge.operators import clock_z

            factors = [
                ((j, x2), clock_z(chi))
                for j in lat.rows
                if j % 2 == 1
                for x2 in lat.row_positions(j)
            ]
            logical = ProductOperator.from_factors(factors, Z22.phase_modulus)
            op = confined_string_operator(spec, Z22.element((1, 1)), 1, 3, 2)
            total = None
            for lab, ph in phase_table(terms, op).items():
                if lab.family == "group" and lab.exps == g.exps:
                    total = ph if total is None else total * ph
            assert total == commutation_phase(logical, op)


class TestStrings:
    def test_open_string_has_endpoint_syndromes_only(self):
        spec = untwisted(Z3, 3, 8)
        g = Z3.element((1,))
        path = vertical_string_path(spec, 1, 1, 3)
        op = string_operator(spec, StringSpec(path, g, "X"))
        centers = syndrome(build_bulk_stabilizers(spec), op).violated_centers()
        assert centers == {(0, 1), (6, 1)}

    def test_closed_loop_is_logical(self):
        spec = untwisted(Z3, 3, 6)
        path = vertical_string_path(spec, 1, 1, 3)
        op = string_operator(spec, StringSpec(path, Z3.element((1,)), "X"))
        assert not violated_labels(syndrome(build_bulk_stabilizers(spec), op))

    def test_identity_label_gives_identity(self):
        spec = untwisted(Z2)
        op = string_operator(
            spec, StringSpec(vertical_string_path(spec, 1, 1, 2), Z2.identity(), "X")
        )
        assert op == ProductOperator.identity_op(2)

    def test_disconnected_path_rejected(self):
        spec = untwisted(Z2)
        with pytest.raises(ValueError):
            string_operator(spec, StringSpec(((1, 1), (3, 3)), Z2.element((1,)), "X"))

    def test_wrong_kind_rejected(self):
        spec = untwisted(Z2)
        with pytest.raises(ValueError):
            string_operator(spec, StringSpec(((0, 0),), Z2.element((1,)), "X"))


class TestConfinement:
    def test_report_values(self):
        rep = confinement_report(twisted_z22(), Z22.element((1, 0)))
        assert rep["single_violations"] == 3
        assert rep["string_counts"] == {1: 3, 2: 6, 3: 9}
        assert rep["string_strictly_increasing"]
        assert rep["dipole_counts"] == {1: 4, 2: 4, 3: 4}
        assert rep["dipole_constant"]
        assert rep["dipole_braids_trivially"]
        assert rep["bend_homomorphic"] and rep["bend_relocates"]

    def test_every_nontrivial_charge_is_confined(self):
        spec = twisted_z22()
        for g in Z22.elements():
            if g.is_identity:
                continue
            rep = confinement_report(spec, g)
            assert rep["string_strictly_increasing"]
            assert rep["dipole_constant"]

    @pytest.mark.parametrize("vertical", ["periodic", "open"])
    def test_height_bound_on_torus_and_cylinder(self, vertical):
        alpha = enumerate_cocycle_classes(Z22)[1]
        for m in (4, 6):
            spec = CodeSpec(Lattice2D(Z22, 4, m, vertical), twist_even=alpha)
            with pytest.raises(ValueError, match="too small"):
                confinement_report(spec)
        rep = confinement_report(CodeSpec(Lattice2D(Z22, 4, 8, vertical), twist_even=alpha))
        assert rep["string_strictly_increasing"] and rep["dipole_constant"]

    def test_trivial_twist_rejected(self):
        with pytest.raises(ValueError):
            confinement_report(untwisted(Z22, 4, 8))

    def test_untwisted_dipole_reduces_to_adjacent_pair(self):
        # With a trivial cocycle the same construction is a shift and its
        # inverse on adjacent edges: two-clock-violation pairs per row end.
        spec = CodeSpec(Lattice2D(Z22, 4, 8, "periodic"))
        op = dipole_operator(spec, Z22.element((1, 0)), 1, 1, 1)
        centers = syndrome(build_bulk_stabilizers(spec), op).violated_centers()
        assert len(centers) == 4 and all(j % 2 == 0 for j, _ in centers)


class TestBraiding:
    def test_single_crossing_z2_is_minus_one(self):
        spec = untwisted(Z2, 3, 6)
        xs = StringSpec(vertical_string_path(spec, 1, 1, 2), Z2.element((1,)), "X")
        zs = StringSpec(horizontal_string_path(spec, 1, 1, 3), Z2.character((1,)), "Z")
        ph = braiding_phase(spec, zs, xs)
        assert ph is not None and ph.k * 2 == ph.modulus

    @pytest.mark.parametrize("group", [Z3, Z22, GroupSpec((4,))])
    def test_single_crossing_is_the_pairing(self, group):
        spec = untwisted(group, 3, 6)
        for g in group.elements():
            for chi in group.characters():
                xs = StringSpec(vertical_string_path(spec, 1, 1, 2), g, "X")
                zs = StringSpec(horizontal_string_path(spec, 1, 1, 3), chi, "Z")
                assert braiding_phase(spec, zs, xs) == pair(chi, g)

    def test_double_crossing_squares(self):
        spec = untwisted(Z2, 3, 6)
        g, chi = Z2.element((1,)), Z2.character((1,))
        both = string_operator(
            spec, StringSpec(vertical_string_path(spec, 1, 1, 2), g, "X")
        ).multiply(
            string_operator(spec, StringSpec(vertical_string_path(spec, 3, 1, 2), g, "X"))
        )
        loop = string_operator(spec, StringSpec(horizontal_string_path(spec, 1, 1, 3), chi, "Z"))
        assert commutation_phase(loop, both).is_one

    def test_dipole_crossing_trivial(self):
        spec = twisted_z22()
        dip = dipole_operator(spec, Z22.element((1, 0)), 1, 1, 2)
        for chi in Z22.characters():
            zs = string_operator(
                spec,
                StringSpec(horizontal_string_path(spec, 1, 1, spec.lattice.n), chi, "Z"),
            )
            assert commutation_phase(zs, dip).is_one
