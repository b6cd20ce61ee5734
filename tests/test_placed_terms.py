"""Placed terms against the builder they replaced.

`build_bulk_stabilizers` places every term of a code by index arithmetic
and builds a `StabilizerTerm` only when one is indexed or iterated.
`term_oracle` keeps the builder that made each term as a Python object.
On every suite torus and cylinder, both orientations, and every twist
pair of Z2xZ2, Z3xZ3 and Z4xZ2, the two must give the same terms, term
for term; a wrong corner factor must break commutation through the placed
arrays and through the terms alike; and building and commuting a torus
must build no `ProductOperator`.  The terms are built once per `CodeSpec`
object, held read-only on it, and go when it goes.
"""

import contextlib
import gc
import importlib.util
import itertools
import pathlib
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

import scan_oracle
import term_oracle
from algebra_reference import term_labels, violated_labels
from latgauge import lattice, operators
from latgauge.cli import main
from latgauge.excitations import confinement_report, syndromes
from latgauge.groups import GroupSpec, enumerate_cocycle_classes
from latgauge.lattice import (
    CodeSpec,
    Lattice2D,
    PlacedTerms,
    build_bulk_stabilizers,
    check_all_commute,
    ground_space_dimension,
    ground_space_dimension_dense,
    logical_operators,
)
from latgauge.operators import ProductOperator, clock_z, overlap_exponents, place
from latgauge.suite import GROUPS, TORI, _twist_combinations

CYLINDERS = [(3, 4), (2, 2), (3, 3)]  # (n, m) of open lattices
PAIR_GROUPS = [(2, 2), (3, 3), (4, 2)]  # every class pair, on PAIR_SIZES
PAIR_SIZES = [("periodic", 2, 2), ("periodic", 3, 4), ("open", 3, 3)]


def _spec_params():
    params = []

    def add(orders, even, odd, vertical, n, m):
        group = GroupSpec(orders)
        for orientation in ("standard", "reflected"):
            spec = CodeSpec(Lattice2D(group, n, m, vertical), even, odd, orientation=orientation)
            twists = f"{not even.is_trivial:d}{not odd.is_trivial:d}"
            name = f"{'x'.join(map(str, orders))}-{vertical}-{n}x{m}-{twists}-{orientation}"
            params.append(pytest.param(spec, id=name))

    for orders in GROUPS:
        for even, odd in _twist_combinations(GroupSpec(orders)):
            for n, m in TORI:
                add(orders, even, odd, "periodic", n, m)
            for n, m in CYLINDERS:
                add(orders, even, odd, "open", n, m)
    for orders in PAIR_GROUPS:
        classes = enumerate_cocycle_classes(GroupSpec(orders))
        for (e, even), (o, odd) in itertools.product(enumerate(classes), repeat=2):
            for vertical, n, m in PAIR_SIZES:
                if orders in GROUPS and (n, m) in (TORI if vertical == "periodic" else CYLINDERS):
                    continue
                add(orders, even, odd, vertical, n, m)
    return params


SPECS = _spec_params()


class TestAgainstTheOracle:
    @pytest.mark.parametrize("spec", SPECS)
    def test_term_for_term(self, spec):
        placed = build_bulk_stabilizers(spec)
        expected = term_oracle.build_bulk_stabilizers(spec)
        assert isinstance(placed, PlacedTerms)
        assert len(placed) == len(expected)
        for got, want in zip(placed, expected):
            assert got.label == want.label
            assert [s for s, _ in got.op.factors] == [s for s, _ in want.op.factors]
            assert got.op.factors == want.op.factors
            assert got.op.modulus == want.op.modulus
        assert list(placed) == expected
        assert placed.labels == term_labels(expected) == [t.label for t in expected]

    @pytest.mark.parametrize("spec", SPECS[:: len(SPECS) // 12])
    def test_indices_and_slices(self, spec):
        placed = build_bulk_stabilizers(spec)
        expected = term_oracle.build_bulk_stabilizers(spec)
        size = len(expected)
        assert placed[-1] == expected[-1]
        assert placed[size // 2] == expected[size // 2]
        with pytest.raises(IndexError):
            placed[size]
        for part in (slice(1, size // 2), slice(None, None, -3), slice(size, None), slice(2, -1, 5)):
            with pytest.raises(TypeError):
                placed[part]

    def test_terms_are_read_only(self):
        placed = build_bulk_stabilizers(CodeSpec(Lattice2D(GroupSpec((2,)), 2, 2, "periodic")))
        with pytest.raises(TypeError):
            placed[0] = placed[1]


class TestWrongCornerFactor:
    """One label's east factor times a clock, through both builders."""

    @pytest.mark.parametrize(
        "orders,n,m,vertical",
        [((3,), 3, 4, "periodic"), ((2, 2), 2, 2, "periodic"), ((4, 2), 3, 3, "open")],
    )
    def test_fails_commutation_on_both_routes(self, orders, n, m, vertical, monkeypatch):
        group = GroupSpec(orders)
        wrong_label = next(g for g in group.elements() if not g.is_identity)
        original = operators.corner_factors

        def corners(twist, label):
            west, east, north, south = original(twist, label)
            if label == wrong_label:
                east = replace(east, chi=int(east.group.add[east.chi, 1]))
            return west, east, north, south

        monkeypatch.setattr(lattice, "corner_factors", corners)
        monkeypatch.setattr(term_oracle, "corner_factors", corners)
        spec = CodeSpec(Lattice2D(group, n, m, vertical))
        placed = build_bulk_stabilizers(spec)
        expected = term_oracle.build_bulk_stabilizers(spec)
        assert list(placed) == expected
        report = check_all_commute(placed)
        assert not report["passed"]
        assert report == check_all_commute(list(placed)) == scan_oracle.check_all_commute(expected)


class TestNoOperatorObjects:
    @pytest.mark.parametrize("twisted", [False, True])
    def test_build_and_commute_build_no_product_operator(self, twisted, monkeypatch):
        group = GroupSpec((4, 2))
        alpha = enumerate_cocycle_classes(group)[1] if twisted else None
        spec = CodeSpec(Lattice2D(group, 12, 12, "periodic"), twist_even=alpha)
        built = []
        original = ProductOperator.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(ProductOperator, "__post_init__", counting)
        terms = build_bulk_stabilizers(spec)
        report = check_all_commute(terms)
        assert report["passed"] and report["pairs_checked"] > 0
        assert len(terms) == 12 * 12 * group.size
        assert built == []
        # Syndromes read the labels of the terms the op violates without
        # building any term.
        chi = next(c for c in group.characters() if not c.is_identity)
        clock = ProductOperator((((1, 1), clock_z(chi)),), group.phase_modulus)
        built.clear()
        (syn,) = syndromes(terms, [clock])
        assert violated_labels(syn) and built == []


class TestBothProducers:
    """overlap_exponents gives the same arrays whichever producer placed each side."""

    @pytest.mark.parametrize("spec", SPECS[:: len(SPECS) // 8])
    def test_placed_and_listed_sides_agree(self, spec):
        placed = build_bulk_stabilizers(spec)
        ops = [t.op for t in placed]

        def scan(rows, cols=None):
            found = [np.stack(tile) for tile in overlap_exponents(rows, cols)]
            return np.concatenate(found, axis=1) if found else np.zeros((3, 0), dtype=np.int64)

        assert np.array_equal(scan(placed.placement), scan(ops))
        half = ops[: len(ops) // 2]
        assert np.array_equal(scan(placed.placement, half), scan(ops, half))
        assert np.array_equal(scan(half, placed.placement), scan(half, ops))
        assert np.array_equal(scan(placed.placement, placed.placement), scan(ops, ops))


def _arrays(terms) -> list:
    """Every array of placed terms: their own, their placement's and its Weyl rows."""
    placed = terms.placement
    return [terms.centers, terms.label_id, placed.start, placed.site, placed.fid, *placed.weyl]


def _twisted_z22(n, m) -> CodeSpec:
    group = GroupSpec((2, 2))
    return CodeSpec(Lattice2D(group, n, m, "periodic"), twist_even=enumerate_cocycle_classes(group)[1])


@pytest.fixture
def builds(monkeypatch):
    """The specs the inner builder is called with, in order, from here on."""
    calls = []
    inner = lattice._build_bulk_stabilizers

    def counting(spec):
        calls.append(spec)
        return inner(spec)

    monkeypatch.setattr(lattice, "_build_bulk_stabilizers", counting)
    return calls


class TestOneBuildPerSpec:
    """build_bulk_stabilizers builds a spec's terms once and holds them, read-only, on that spec object."""

    def test_the_same_spec_gets_the_same_terms(self, builds):
        spec = _twisted_z22(4, 8)
        assert build_bulk_stabilizers(spec) is build_bulk_stabilizers(spec)
        assert builds == [spec]

    def test_an_equal_spec_builds_equal_arrays(self, builds):
        spec, again = _twisted_z22(4, 8), _twisted_z22(4, 8)
        assert spec == again and spec is not again
        terms, other = build_bulk_stabilizers(spec), build_bulk_stabilizers(again)
        assert terms is not other and len(builds) == 2
        assert all(np.array_equal(a, b) for a, b in zip(_arrays(terms), _arrays(other), strict=True))
        assert terms.label_table == other.label_table and terms.placement.factors == other.placement.factors

    @pytest.mark.parametrize("source", ["built", "placed"])
    def test_every_array_refuses_writes(self, source):
        terms = build_bulk_stabilizers(_twisted_z22(4, 8))
        if source == "placed":
            placed = place([t.op for t in terms])
            arrays = [placed.start, placed.site, placed.fid, *placed.weyl]
        else:
            placed, arrays = terms.placement, _arrays(terms)
        assert isinstance(placed.factors, tuple)
        assert len(arrays) == (9 if source == "built" else 7)
        for array in arrays:
            with pytest.raises(ValueError):
                array.flat[0] = 0

    def test_the_readers_build_nothing_more(self, builds):
        spec = _twisted_z22(4, 8)
        build_bulk_stabilizers(spec)
        logical_operators(spec)
        confinement_report(spec)
        ground_space_dimension(spec)
        small = _twisted_z22(2, 2)
        ground_space_dimension(small)
        ground_space_dimension_dense(small)
        assert builds == [spec, small]

    @pytest.mark.parametrize(
        "args",
        [["code", "--group", "2,2", "--twist-even", "1"], ["confine", "--group", "2,2", "--twist-even", "1"]],
        ids=["code", "confine"],
    )
    def test_a_command_builds_its_code_once(self, builds, args):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        assert len(builds) == 1

    def test_the_terms_go_with_their_spec(self):
        spec = _twisted_z22(4, 8)
        terms = weakref.ref(build_bulk_stabilizers(spec))
        assert terms() is not None
        del spec
        gc.collect()
        assert terms() is None

    def test_an_algebra_pass_builds_each_torus_once(self, builds):
        # The benchmark's algebra workload: 7 tori, each read by
        # check_all_commute, logical_operators and, twisted, confinement_report.
        path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("_bench_workloads", path)
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        cases = workloads.prepare_algebra(11, None, lambda name: contextlib.nullcontext())
        checks = [check for case in cases for check in case.run().checks]
        assert checks and all(passed for _, passed in checks)
        assert len(builds) == len(cases) == len(workloads.TORI) == 7
