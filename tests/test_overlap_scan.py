"""Overlap-only commutation scans against the full-scan oracle.

`check_all_commute`, `first_violation` and `syndrome` compare only terms
that share a site with the op (or with each other).  On every suite torus
in both orientations, and on a cylinder with its boundary terms, they must
give what `scan_oracle` gives by comparing everything; a term broken by
one wrong phase must give the same violations; a modulus mismatch must
still raise; and commutation_phase must run exactly once per visited
overlapping pair.
"""

from dataclasses import replace

import pytest

import scan_oracle
from latgauge import excitations, lattice
from latgauge.excitations import confined_string_operator, confinement_report, dipole_operator, syndrome
from latgauge.groups import GroupSpec, enumerate_cocycle_classes
from latgauge.lattice import (
    CodeSpec,
    Lattice2D,
    build_boundary_terms,
    build_bulk_stabilizers,
    check_all_commute,
    first_violation,
    logical_operators,
)
from latgauge.operators import ProductOperator, clock_z, shift_x
from latgauge.suite import GROUPS, TORI, _twist_combinations

CYLINDER = (3, 4)  # (n, m); the top boundary row m must be even


def _specs(vertical, sizes, orientations):
    params = []
    for orders in GROUPS:
        group = GroupSpec(orders)
        for even, odd in _twist_combinations(group):
            for n, m in sizes:
                for orientation in orientations:
                    lat = Lattice2D(group, n, m, vertical)
                    spec = CodeSpec(lat, twist_even=even, twist_odd=odd, orientation=orientation)
                    twists = f"{not even.is_trivial:d}{not odd.is_trivial:d}"
                    name = f"{'x'.join(map(str, orders))}-{vertical}-{n}x{m}-{twists}-{orientation}"
                    params.append(pytest.param(spec, id=name))
    return params


TORUS_SPECS = _specs("periodic", TORI, ("standard", "reflected"))
CYLINDER_SPECS = _specs("open", [CYLINDER], ("standard",))


def _terms(spec):
    terms = build_bulk_stabilizers(spec)
    if spec.lattice.vertical == "open":
        terms += build_boundary_terms(spec, "bottom") + build_boundary_terms(spec, "top")
    return terms


def _string_ops(spec):
    """The logical strings, confined strings and dipoles of every non-identity label.

    The logical strings are built as logical_operators builds them, so the
    cylinder gets them too; on a torus they are logical_operators' ops.
    """
    lat, group = spec.lattice, spec.group
    L = group.phase_modulus
    ops = []
    if lat.vertical == "periodic":
        ops += [lo.op for lo in logical_operators(spec)]
    else:
        for chi in group.characters():
            if not chi.is_identity:
                ops.append(ProductOperator.from_factors((((1, x2), clock_z(chi)) for x2 in lat.row_positions(1)), L))
                ops.append(ProductOperator.from_factors((((j, 0), shift_x(chi)) for j in lat.rows if j % 2 == 0), L))
        for g in group.elements():
            if not g.is_identity:
                ops.append(ProductOperator.from_factors((((0, x2), clock_z(g)) for x2 in lat.row_positions(0)), L))
                ops.append(ProductOperator.from_factors((((j, 1), shift_x(g)) for j in lat.rows if j % 2 == 1), L))
    for g in group.elements():
        if g.is_identity:
            continue
        ops += [confined_string_operator(spec, g, 1, 1, length) for length in range(1, lat.n + 1)]
        ops += [dipole_operator(spec, g, 1, 1, height) for height in range(1, lat.m // 2 + 1)]
    return ops


def _assert_scans_match(terms, ops):
    """Every scan equals the oracle; returns the number of violating (term, op) pairs."""
    assert check_all_commute(terms) == scan_oracle.check_all_commute(terms)
    violating = 0
    for op in ops:
        expected = scan_oracle.syndrome_phases(terms, op)
        got = syndrome(None, op, terms).phases
        assert list(got) == list(expected)
        assert list(got.values()) == list(expected.values())
        assert first_violation(terms, op) == scan_oracle.first_violation(terms, op)
        # From each violating term on, that term must be the witness.
        for i, t in enumerate(terms):
            ph = expected[t.label]
            if ph is None or not ph.is_one:
                violating += 1
                assert first_violation(terms[i:], op) == scan_oracle.first_violation(terms[i:], op)
    return violating


def _break_one_phase(terms):
    """Copy of terms with one basis-state phase of one factor shifted by 1; (copy, index)."""
    k = next(i for i, t in enumerate(terms) if t.op.factors)
    (site, mono), *rest = terms[k].op.factors
    shifted = replace(mono, phase=(mono.phase[0] + 1,) + mono.phase[1:])
    broken = list(terms)
    broken[k] = replace(terms[k], op=ProductOperator(((site, shifted), *rest), terms[k].op.modulus))
    return broken, k


class TestAgainstFullScan:
    @pytest.mark.parametrize("spec", TORUS_SPECS + CYLINDER_SPECS)
    def test_scans_match(self, spec):
        terms = _terms(spec)
        ops = _string_ops(spec)
        assert ops
        _assert_scans_match(terms, ops)

    def test_some_ops_violate(self):
        # The comparisons above are only as strong as their violations: a
        # twisted code's confined strings must excite terms.
        spec = CodeSpec(Lattice2D(GroupSpec((2, 2)), 4, 4, "periodic"), twist_even=enumerate_cocycle_classes(GroupSpec((2, 2)))[1])
        assert _assert_scans_match(_terms(spec), _string_ops(spec)) > 0

    @pytest.mark.parametrize("spec", _specs("periodic", TORI, ("standard",)) + CYLINDER_SPECS)
    def test_one_wrong_phase_gives_the_oracle_violations(self, spec):
        terms, k = _break_one_phase(_terms(spec))
        report = check_all_commute(terms)
        assert report == scan_oracle.check_all_commute(terms)
        assert not report["passed"]
        site = terms[k].op.factors[0][0]
        ops = _string_ops(spec) + [
            ProductOperator.from_factors([(site, mono)], spec.group.phase_modulus)
            for _, mono in terms[k].op.factors[:1]
        ]
        _assert_scans_match(terms, ops)
        phases = [syndrome(None, op, terms).phases[terms[k].label] for op in ops]
        assert any(ph is None or not ph.is_one for ph in phases)


class TestModulusMismatch:
    def _terms_and_ops(self):
        spec = CodeSpec(Lattice2D(GroupSpec((2,)), 3, 4, "periodic"))
        far = ProductOperator.from_factors([(("far", 0), shift_x(GroupSpec((3,)).element((1,))))], 3)
        near = ProductOperator.from_factors([((1, 1), shift_x(GroupSpec((3,)).element((1,))))], 3)
        return build_bulk_stabilizers(spec), far, near

    def test_disjoint_op_of_another_modulus_raises(self):
        terms, far, _ = self._terms_and_ops()
        assert not any(t.op.overlaps(far) for t in terms)
        with pytest.raises(ValueError):
            scan_oracle.first_violation(terms, far)
        with pytest.raises(ValueError):
            first_violation(terms, far)
        with pytest.raises(ValueError):
            syndrome(None, far, terms)

    def test_overlapping_op_of_another_modulus_raises(self):
        terms, _, near = self._terms_and_ops()
        with pytest.raises(ValueError):
            first_violation(terms, near)
        with pytest.raises(ValueError):
            syndrome(None, near, terms)


def _shares_site(a, b) -> bool:
    return bool(set(a.support) & set(b.support))


class TestWorkIsOnePerOverlappingPair:
    """Twisted Z2xZ2 on a 16x16 torus: commutation_phase runs once per visited overlapping pair."""

    Z22 = GroupSpec((2, 2))

    @pytest.fixture
    def spec(self):
        return CodeSpec(Lattice2D(self.Z22, 16, 16, "periodic"), twist_even=enumerate_cocycle_classes(self.Z22)[1])

    @staticmethod
    def _count(monkeypatch, *modules):
        calls = []
        for module in modules:
            original = module.commutation_phase

            def counting(a, b, original=original):
                calls.append((a, b))
                return original(a, b)

            monkeypatch.setattr(module, "commutation_phase", counting)
        return calls

    def test_check_all_commute(self, spec, monkeypatch):
        terms = build_bulk_stabilizers(spec)
        calls = self._count(monkeypatch, lattice)
        report = check_all_commute(terms)
        assert report["passed"]
        assert len(calls) == report["pairs_checked"] == len(scan_oracle.candidate_pairs(terms))

    def test_logical_operators(self, spec, monkeypatch):
        calls = self._count(monkeypatch, lattice)
        logicals = logical_operators(spec)
        terms = build_bulk_stabilizers(spec)
        expected = 0
        for lo in logicals:
            # first_violation stops at its witness; up to there it visits
            # every term that shares a site with the string.
            for t in terms:
                if _shares_site(t.op, lo.op):
                    expected += 1
                    if lo.witness is not None and t.label.as_json() == lo.witness["term"]:
                        break
        assert any(not lo.commutes for lo in logicals)
        assert len(calls) == expected
        assert all(_shares_site(a, b) for a, b in calls)

    def test_confinement_report(self, spec, monkeypatch):
        # syndrome's scan goes through lattice.overlap_phases; the braid
        # checks call commutation_phase from excitations.
        calls = self._count(monkeypatch, excitations, lattice)
        scans = []
        original_syndrome = excitations.syndrome

        def recording(spec_, op, terms=None):
            scans.append((op, terms))
            return original_syndrome(spec_, op, terms)

        monkeypatch.setattr(excitations, "syndrome", recording)
        report = confinement_report(spec, self.Z22.element((1, 0)))
        overlapping = sum(_shares_site(t.op, op) for op, terms in scans for t in terms)
        assert scans and overlapping
        assert len(calls) == overlapping + len(report["dipole_braiding_phases"])
