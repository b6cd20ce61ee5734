"""The two routes of lattice.check_all_commute give one report.

A torus code's placed terms with at least TEMPLATE_TRANSLATES translates
take the template pass, which compares one unit cell of terms with every
term; term lists, cylinders, small tori and everything the template pass
cannot tell take the direct pass over every pair.  Each route is forced
here and the report dicts compared: on drawn tori (group, twist classes,
orientation, size), on the benchmark's algebra tori, and on mutants.  A
term that stops being a translate of its unit-cell term, by a wrong phase
or a factor moved by one site, makes the template pass give up, and a
mutant that stays translation invariant but breaks commutation does too,
so every mutant gets the direct pass's violations.
"""

import functools
import importlib.util
import pathlib
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgauge import lattice
from latgauge.groups import GroupSpec, enumerate_cocycle_classes
from latgauge.lattice import CodeSpec, Lattice2D, build_bulk_stabilizers, check_all_commute

GROUPS = [(2,), (3,), (4,), (2, 2), (3, 3), (4, 2)]
BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@functools.cache
def _classes(orders):
    return enumerate_cocycle_classes(GroupSpec(orders))


@st.composite
def tori(draw):
    """A torus code: group, (even, odd) cocycle classes, orientation, n in 2..6, m in {2, 4, 6, 8}."""
    orders = draw(st.sampled_from(GROUPS))
    classes = _classes(orders)
    even, odd = draw(st.sampled_from(classes)), draw(st.sampled_from(classes))
    lat = Lattice2D(GroupSpec(orders), draw(st.integers(2, 6)), draw(st.sampled_from([2, 4, 6, 8])))
    return CodeSpec(lat, twist_even=even, twist_odd=odd, orientation=draw(st.sampled_from(["standard", "reflected"])))


def _cell(terms) -> set:
    """Indices of the unit-cell terms: the first center of each row parity."""
    n, size = terms.lattice.n, terms.lattice.group.size
    return set(range(size)) | set(range(n * size, (n + 1) * size))


def _with_factor(terms, entry: int, mono):
    """terms with the factor of one entry replaced by mono, under a new factor id."""
    placed = terms.placement
    fid = placed.fid.copy()
    fid[entry] = len(placed.factors)
    return replace(terms, placement=replace(placed, fid=fid, factors=[*placed.factors, mono]))


def _wrong_phase(mono):
    """mono times the clock of character index 1: its phase is off on every basis state that clock moves."""
    return replace(mono, chi=int(mono.group.add[mono.chi, 1]))


def _term_entries(terms, t: int) -> range:
    return range(terms.placement.start[t], terms.placement.start[t + 1])


def _assert_direct(mutant) -> dict:
    """check_all_commute of a mutant is the direct pass's report; the template pass gives up on it."""
    direct = lattice._directly(mutant)
    assert check_all_commute(mutant) == direct
    assert lattice._by_template(mutant) is None
    return direct


class TestForcedRoutesAgree:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(tori())
    def test_template_report_is_the_direct_report(self, spec):
        terms = build_bulk_stabilizers(spec)
        template = lattice._by_template(terms)
        assert template == lattice._directly(terms) == check_all_commute(terms)
        assert template["passed"] and template["pairs_checked"] > 0

    def test_cylinders_and_term_lists_take_the_direct_pass(self):
        group = GroupSpec((2, 2))
        cylinder = build_bulk_stabilizers(CodeSpec(Lattice2D(group, 8, 8, "open")))
        torus = build_bulk_stabilizers(CodeSpec(Lattice2D(group, 8, 8)))
        assert lattice._by_template(cylinder) is None
        assert lattice._by_template(list(torus)) is None
        assert check_all_commute(cylinder) == lattice._directly(cylinder)
        assert check_all_commute(list(torus)) == check_all_commute(torus)

    def test_terms_that_do_not_fit_their_lattice_take_the_direct_pass(self):
        # Another term count, other centers, or other site ids than the
        # lattice gives: the template pass cannot place the terms.
        group = GroupSpec((2, 2))
        terms = build_bulk_stabilizers(CodeSpec(Lattice2D(group, 8, 8)))
        placed = terms.placement
        # Every term a copy of its unit-cell term at the cell's center: each
        # is its cell term translated by zero, but they are no translates.
        cell = np.array([t % 4 + (t // 32 % 2) * 32 for t in range(len(terms))])
        count = np.diff(placed.start)[cell]
        entries = np.concatenate([np.arange(placed.start[t], placed.start[t + 1]) for t in cell])
        stacked = replace(
            placed, start=np.concatenate(([0], np.cumsum(count))), site=placed.site[entries], fid=placed.fid[entries]
        )
        for odd in (
            replace(terms, lattice=Lattice2D(group, 8, 10)),
            replace(terms, centers=np.roll(terms.centers, 4, axis=0)),
            replace(terms, placement=replace(placed, sites=placed.sites[::-1])),
            replace(terms, placement=stacked, centers=terms.centers[cell]),
        ):
            assert lattice._by_template(odd) is None
            assert check_all_commute(odd) == lattice._directly(odd)

    def test_selection_follows_the_translate_count(self, monkeypatch):
        # At TEMPLATE_TRANSLATES translates the template pass runs; one row
        # pair fewer, the direct pass alone.
        taken = []
        original = lattice._by_template
        monkeypatch.setattr(lattice, "_by_template", lambda terms: taken.append(terms) or original(terms))
        group = GroupSpec((2, 2))
        n = 4
        at = lattice.TEMPLATE_TRANSLATES * 2 // n
        for m, calls in ((at - 2, 0), (at, 1)):
            taken.clear()
            terms = build_bulk_stabilizers(CodeSpec(Lattice2D(group, n, m)))
            assert check_all_commute(terms) == lattice._directly(terms)
            assert len(taken) == calls


def _algebra_tori():
    """The benchmark's algebra tori, each twisted one under every nontrivial class."""
    spec = importlib.util.spec_from_file_location("_bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    params = []
    for orders, n, m, twisted in workloads.TORI:
        for alpha in _classes(orders)[1:] if twisted else [None]:
            code = CodeSpec(Lattice2D(GroupSpec(orders), n, m), twist_even=alpha)
            params.append(pytest.param(code, id=f"{'x'.join(map(str, orders))}-{n}x{m}-{twisted:d}"))
    return params


@pytest.mark.parametrize("spec", _algebra_tori())
def test_algebra_tori_take_the_template_pass(spec, monkeypatch):
    terms = build_bulk_stabilizers(spec)
    direct = lattice._directly(terms)
    monkeypatch.setattr(lattice, "_directly", None)
    assert check_all_commute(terms) == direct


@st.composite
def mutants(draw):
    """A torus code's placed terms, one term t with factors, and one entry of t's factors."""
    terms = build_bulk_stabilizers(draw(tori()))
    cell = sorted(_cell(terms))
    others = [t for t in range(len(terms)) if t not in cell]
    t = draw(st.sampled_from(cell if draw(st.booleans()) else others).filter(lambda t: _term_entries(terms, t)))
    return terms, t, draw(st.sampled_from(_term_entries(terms, t)))


class TestMutantsGetTheDirectViolations:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(mutants())
    def test_one_wrong_phase(self, case):
        terms, _, entry = case
        mono = terms.placement.factors[terms.placement.fid[entry]]
        _assert_direct(_with_factor(terms, entry, _wrong_phase(mono)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(mutants())
    def test_a_factor_moved_by_one_site(self, case):
        # Moved one site along its row; the term commutes or not, but it is
        # no longer its unit-cell term translated.
        terms, t, _ = case
        placed, n = terms.placement, terms.lattice.n
        j = terms.centers[t][0]
        entry = next((e for e in _term_entries(terms, t) if placed.site[e] // n != j), None)
        if entry is None:
            return
        site = placed.site.copy()
        row, col = divmod(int(site[entry]), n)
        site[entry] = row * n + (col + 1) % n
        _assert_direct(replace(terms, placement=replace(placed, site=site)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mutants())
    def test_a_wrong_phase_on_every_translate(self, case):
        # Every entry of one factor id gets the wrong phase: still
        # translation invariant, so only a commutator other than 1 can
        # send it to the direct pass.
        terms, _, entry = case
        placed = terms.placement
        f = placed.fid[entry]
        fid = np.where(placed.fid == f, len(placed.factors), placed.fid)
        mutant = replace(terms, placement=replace(placed, fid=fid, factors=[*placed.factors, _wrong_phase(placed.factors[f])]))
        direct = lattice._directly(mutant)
        assert check_all_commute(mutant) == direct
        if not direct["passed"]:
            assert lattice._by_template(mutant) is None

    def test_a_representative_and_another_term_break_commutation(self):
        # Twisted Z2xZ2 on a 16x16 torus: both mutants fail, and neither
        # takes the template's report.
        group = GroupSpec((2, 2))
        terms = build_bulk_stabilizers(CodeSpec(Lattice2D(group, 16, 16), twist_even=_classes((2, 2))[1]))
        for t in (1, len(terms) - 3):
            entry = _term_entries(terms, t)[0]
            mono = terms.placement.factors[terms.placement.fid[entry]]
            report = _assert_direct(_with_factor(terms, entry, _wrong_phase(mono)))
            assert not report["passed"]
            assert report["pairs_checked"] == check_all_commute(terms)["pairs_checked"]
