"""Overlap-only commutation scans against the full-scan oracle.

`check_all_commute`, `overlap_phases` and `syndrome` compare only terms
that share a site with the op (or with each other).  On every suite torus
in both orientations, and on a cylinder with its boundary terms, they must
give what `scan_oracle` gives by comparing everything; a term broken by
one extra clock must give the same violations; a modulus mismatch must
still raise; and one batched pass must count every overlapping pair and
give the oracle's witnesses.  The algebra path (check_all_commute, logical_operators and
confinement_report on a large twisted torus) must not import numpy.ma.
"""

import functools
import os
import pathlib
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latgauge
import scan_oracle
from algebra_reference import phase_table
from latgauge import excitations, lattice
from latgauge.excitations import confined_string_operator, confinement_report, dipole_operator, syndrome, syndromes
from latgauge.groups import GroupSpec, enumerate_cocycle_classes
from latgauge.lattice import (
    CodeSpec,
    Lattice2D,
    PlacedTerms,
    StabilizerLabel,
    StabilizerTerm,
    build_boundary_terms,
    build_bulk_stabilizers,
    check_all_commute,
    logical_operators,
    overlap_phases,
    witness,
)
from latgauge.operators import MonomialOperator, ProductOperator, clock_z, place, shift_x
from latgauge.suite import GROUPS, TORI, _twist_combinations

CYLINDER = (3, 4)  # (n, m); the top boundary row m must be even


def first_violation(terms, op) -> dict | None:
    """The witness of one op's overlap_phases, as condensation_table and logical_operators take it."""
    return witness(overlap_phases(terms, [op])[0])


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
        terms = [*terms, *build_boundary_terms(spec, "bottom"), *build_boundary_terms(spec, "top")]
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
    """Every scan equals the oracle; returns the number of violating (term, op) pairs.

    The library scans the terms as given, placed or listed; the oracle
    walks them built once, as a list.
    """
    listed = list(terms)
    assert check_all_commute(terms) == scan_oracle.check_all_commute(listed)
    violating = 0
    for op in ops:
        expected = scan_oracle.syndrome_phases(listed, op)
        got = phase_table(terms, op)
        assert list(got) == list(expected)
        assert list(got.values()) == list(expected.values())
        assert first_violation(terms, op) == scan_oracle.first_violation(listed, op)
        # From each violating term on, that term must be the witness.
        for i, t in enumerate(listed):
            ph = expected[t.label]
            if not ph.is_one:
                violating += 1
                assert first_violation(listed[i:], op) == scan_oracle.first_violation(listed[i:], op)
    return violating


def _extra_clock(mono, x: int = 1):
    """mono times the clock of character index x, on the same site."""
    return replace(mono, chi=int(mono.group.add[mono.chi, x]))


def _break_one_factor(terms):
    """Copy of terms with one factor times a clock; (copy, index)."""
    k = next(i for i, t in enumerate(terms) if t.op.factors)
    (site, mono), *rest = terms[k].op.factors
    shifted = _extra_clock(mono)
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
    def test_one_extra_clock_gives_the_oracle_violations(self, spec):
        terms, k = _break_one_factor(_terms(spec))
        report = check_all_commute(terms)
        assert report == scan_oracle.check_all_commute(terms)
        assert not report["passed"]
        site = terms[k].op.factors[0][0]
        ops = _string_ops(spec) + [
            ProductOperator.from_factors([(site, mono)], spec.group.phase_modulus)
            for _, mono in terms[k].op.factors[:1]
        ]
        _assert_scans_match(terms, ops)
        phases = [phase_table(terms, op)[terms[k].label] for op in ops]
        assert any(not ph.is_one for ph in phases)


SPECS = [param.values[0] for param in TORUS_SPECS + CYLINDER_SPECS]


@functools.cache
def _pool(index):
    """(spec, terms, string ops) of SPECS[index], built once per process."""
    spec = SPECS[index]
    return spec, _terms(spec), _string_ops(spec)


@st.composite
def scan_cases(draw):
    """Terms and ops with a broken factor and a raw Weyl factor.

    A random subset of one spec's terms, in random order, with one factor
    times a drawn clock, and one term and one op that are a drawn Weyl
    operator (a, chi, c) on a site, next to up to three of the spec's
    string ops.
    """
    spec, pool, strings = _pool(draw(st.integers(0, len(SPECS) - 1)))
    order = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=len(pool), unique=True))
    terms = [pool[i] for i in order]
    k = draw(st.integers(0, len(terms) - 1))
    factors = list(terms[k].op.factors)
    if factors:
        f = draw(st.integers(0, len(factors) - 1))
        site, mono = factors[f]
        factors[f] = (site, _extra_clock(mono, draw(st.integers(0, mono.dim - 1))))
        terms[k] = replace(terms[k], op=ProductOperator(tuple(factors), terms[k].op.modulus))
    site, mono = draw(st.sampled_from([f for t in pool for f in t.op.factors]))
    index, c = st.integers(0, mono.dim - 1), st.integers(0, mono.modulus - 1)
    weyl = MonomialOperator(mono.group, draw(index), draw(index), draw(c), mono.kind)
    raw = ProductOperator(((site, weyl),), spec.group.phase_modulus)
    terms.insert(draw(st.integers(0, len(terms))), StabilizerTerm(StabilizerLabel((-1, -1), "raw", ()), raw))
    ops = draw(st.lists(st.sampled_from(strings), max_size=3)) + [raw]
    return terms, draw(st.permutations(ops))


@st.composite
def placed_cases(draw):
    """A slice of one spec's bulk terms, placed again, and ops that mix raw factors with term ops.

    operators.place puts the slice's ops into arrays, kept as PlacedTerms,
    so check_all_commute and the term side of syndromes read them
    directly; the ops are ProductOperators that operators.place puts into
    arrays one by one: up to three string ops, the ops of up to three of
    the spec's terms, and a raw op of one factor times a drawn clock.
    """
    spec, _, strings = _pool(draw(st.integers(0, len(SPECS) - 1)))
    placed = build_bulk_stabilizers(spec)
    size = len(placed)
    part = slice(
        draw(st.integers(-size, size)), draw(st.integers(-size, size)), draw(st.sampled_from([1, 1, 2, 3, -1, -4]))
    )
    ops = draw(st.lists(st.sampled_from(strings), max_size=3))
    ops += [placed[i].op for i in draw(st.lists(st.integers(0, size - 1), max_size=3))]
    site, mono = draw(st.sampled_from([f for t in placed for f in t.op.factors]))
    shifted = _extra_clock(mono, draw(st.integers(0, mono.dim - 1)))
    ops.append(ProductOperator(((site, shifted),), spec.group.phase_modulus))
    index = np.arange(size)[part]
    ops_at = place([placed[i].op for i in index])
    sliced = PlacedTerms(ops_at, placed.centers[index], placed.label_id[index], placed.label_table)
    return sliced, draw(st.permutations(ops))


class TestRandomSubsets:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(scan_cases())
    def test_scans_match_the_full_scan(self, case):
        terms, ops = case
        assert check_all_commute(terms) == scan_oracle.check_all_commute(terms)
        batch = syndromes(terms, ops)
        for op, got in zip(ops, batch):
            expected = scan_oracle.syndrome_phases(terms, op)
            assert list(phase_table(terms, op, got).items()) == list(expected.items())
            assert phase_table(terms, op) == phase_table(terms, op, got)
            assert first_violation(terms, op) == scan_oracle.first_violation(terms, op)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(placed_cases())
    def test_placed_slices_match_the_full_scan(self, case):
        terms, ops = case
        listed = list(terms)
        assert check_all_commute(terms) == check_all_commute(listed) == scan_oracle.check_all_commute(listed)
        for op, got in zip(ops, syndromes(terms, ops)):
            expected = scan_oracle.syndrome_phases(listed, op)
            assert list(phase_table(terms, op, got).items()) == list(expected.items())
            assert first_violation(terms, op) == scan_oracle.first_violation(listed, op)


def _dense_json(terms, op) -> dict:
    """SyndromeMap.as_json as the full label -> phase dict of the scan oracle gives it."""
    hits = [(lab, ph) for lab, ph in scan_oracle.syndrome_phases(terms, op).items() if not ph.is_one]
    return {
        "violated_centers": sorted({lab.center for lab, _ in hits}),
        "violations": [{"label": lab.as_json(), "phase": ph.k} for lab, ph in hits],
    }


class TestSyndromesStaySparse:
    """A SyndromeMap stores the violated terms only; the label of every term is read only for a full phase table."""

    def test_confinement_report_reads_no_label_table(self, monkeypatch):
        calls = []
        labels = PlacedTerms.labels

        def counted(self):
            calls.append(len(self))
            return labels.func(self)

        monkeypatch.setattr(PlacedTerms, "labels", property(counted))
        z22 = GroupSpec((2, 2))
        spec = CodeSpec(Lattice2D(z22, 16, 16, "periodic"), twist_even=enumerate_cocycle_classes(z22)[1])
        report = confinement_report(spec)
        assert report["single_violations"] == 3 and report["bend_homomorphic"] and report["dipole_constant"]
        assert calls == []
        # The count is live: one map's full phase table builds the labels once.
        terms = build_bulk_stabilizers(spec)
        dipole = dipole_operator(spec, z22.element((1, 0)), 1, 1)
        (syn,) = syndromes(terms, [dipole])
        assert calls == [] and len(phase_table(terms, dipole, syn)) == len(terms)
        assert calls == [len(terms)]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(scan_cases())
    def test_json_is_the_dense_violations(self, case):
        terms, ops = case
        for op, got in zip(ops, syndromes(terms, ops)):
            assert got.as_json() == _dense_json(terms, op)


class TestMemory:
    """Peak traced memory of the scans on the Z2xZ3 16x16 torus, caches warm.

    tracemalloc sees the Python and numpy allocations.  The first call of a
    numpy routine in a process also maps its code pages, which tracemalloc
    cannot see; the benchmark's peak_rss_mb covers that cost.
    """

    def test_scans_peak_small(self):
        spec = CodeSpec(Lattice2D(GroupSpec((2, 3)), 16, 16, "periodic"))
        terms = build_bulk_stabilizers(spec)
        check_all_commute(terms)
        logical_operators(spec)
        tracemalloc.start()
        try:
            assert check_all_commute(terms)["passed"]
            commute_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert all(lo.commutes for lo in logical_operators(spec))
            logical_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert commute_peak < 2**20
        assert logical_peak < 1.5 * 2**20


class TestModulusMismatch:
    def _terms_and_ops(self):
        spec = CodeSpec(Lattice2D(GroupSpec((2,)), 3, 4, "periodic"))
        far = ProductOperator.from_factors([(("far", 0), shift_x(GroupSpec((3,)).element((1,))))], 3)
        near = ProductOperator.from_factors([((1, 1), shift_x(GroupSpec((3,)).element((1,))))], 3)
        return build_bulk_stabilizers(spec), far, near

    def test_disjoint_op_of_another_modulus_raises(self):
        terms, far, _ = self._terms_and_ops()
        assert not any(_shares_site(t.op, far) for t in terms)
        with pytest.raises(ValueError):
            scan_oracle.first_violation(terms, far)
        with pytest.raises(ValueError):
            first_violation(terms, far)
        with pytest.raises(ValueError):
            syndrome(terms, far)

    def test_overlapping_op_of_another_modulus_raises(self):
        terms, _, near = self._terms_and_ops()
        with pytest.raises(ValueError):
            first_violation(terms, near)
        with pytest.raises(ValueError):
            syndrome(terms, near)


def _shares_site(a, b) -> bool:
    return bool(dict(a.factors).keys() & dict(b.factors).keys())


class TestWorkIsOnePerOverlappingPair:
    """Twisted Z2xZ2 on a 16x16 torus: one batched pass per scan.

    The pass counts every overlapping pair and gives the full-scan
    oracle's witnesses.
    """

    Z22 = GroupSpec((2, 2))

    @pytest.fixture
    def spec(self):
        return CodeSpec(Lattice2D(self.Z22, 16, 16, "periodic"), twist_even=enumerate_cocycle_classes(self.Z22)[1])

    def test_check_all_commute(self, spec):
        # The direct pass; a torus this large takes the template pass, which
        # tests/test_routes.py compares with it.
        terms = build_bulk_stabilizers(spec)
        report = lattice._directly(terms)
        assert report["passed"]
        assert report["pairs_checked"] == len(scan_oracle.candidate_pairs(terms))

    def test_logical_operators(self, spec):
        logicals = logical_operators(spec)
        terms = build_bulk_stabilizers(spec)
        assert any(not lo.commutes for lo in logicals)
        for lo in logicals:
            assert lo.witness == scan_oracle.first_violation(terms, lo.op)

    def test_confinement_report(self, spec, monkeypatch):
        # Every syndrome runs in one batched pass; the braid checks then
        # call commutation_phase from excitations, once per character.
        braids = []
        original_phase = excitations.commutation_phase

        def braid(a, b):
            braids.append((a, b))
            return original_phase(a, b)

        monkeypatch.setattr(excitations, "commutation_phase", braid)
        passes = []
        original_syndromes = excitations.syndromes

        def recording(terms, ops):
            out = original_syndromes(terms, ops)
            passes.append((ops, terms))
            return out

        monkeypatch.setattr(excitations, "syndromes", recording)
        report = confinement_report(spec, self.Z22.element((1, 0)))
        assert len(passes) == 1
        ops, terms = passes[0]
        assert len(braids) == len(report["dipole_braiding_phases"])
        for op, got in zip(ops, original_syndromes(terms, ops)):
            assert phase_table(terms, op, got) == scan_oracle.syndrome_phases(terms, op)


def test_algebra_path_never_imports_numpy_ma():
    # np.unique reaches numpy.ma through np.ma.is_masked, about 1 MB of
    # resident memory; the template pass and the scans count without it.
    src = str(pathlib.Path(latgauge.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from latgauge import excitations, lattice\n"
        "from latgauge.groups import GroupSpec, enumerate_cocycle_classes\n"
        "group = GroupSpec((2, 2))\n"
        "spec = lattice.CodeSpec(lattice.Lattice2D(group, 16, 16), twist_even=enumerate_cocycle_classes(group)[1])\n"
        "assert lattice.check_all_commute(lattice.build_bulk_stabilizers(spec))['passed']\n"
        "assert any(not lo.commutes for lo in lattice.logical_operators(spec))\n"
        "assert excitations.confinement_report(spec, group.element((1, 0)))['single_violations'] == 3\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
