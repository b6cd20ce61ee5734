"""Acceptance battery: one test per criterion, at the pinned tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output) and asserts the criterion at its stated tolerance:
exact integer or operator identities where promised, exact support-state
checks for the composed states, 1e-10 for the dense state fidelity and
norm left, wall-clock bounds where stated.
"""

import time

import numpy as np
import pytest
from click.testing import CliRunner

from algebra_reference import phase_value
from latgauge import suite
from latgauge.cli import main
from latgauge.groups import GroupSpec, pair
from report_schema import validate_report

RESULTS = {}


def record(num, name, passed):
    line = f"criterion {num:>2} [{'PASS' if passed else 'FAIL'}] {name}"
    print(line)
    RESULTS[num] = passed
    assert passed, line


def test_criterion_01_stabilizer_commutation():
    t0 = time.time()
    rep = suite.criterion_commutation()
    elapsed = time.time() - t0
    ok = rep["passed"] and rep["instances"] >= 48 and elapsed < 10.0
    record(1, f"stabilizer commutation ({rep['instances']} instances, {elapsed:.1f}s)", ok)


def test_criterion_02_ground_degeneracy_untwisted():
    rep = suite.criterion_ground_untwisted()
    groups_seen = {tuple(e["group"]) for e in rep["instances"]}
    dense_checked = [e for e in rep["instances"] if "dense" in e]
    exact_ok = all(
        e["dimension"] == GroupSpec(tuple(e["group"])).size ** 2 for e in rep["instances"]
    )
    dense_ok = all(e["dense"] == e["dimension"] for e in dense_checked)
    # every group and torus of the battery is counted, none skipped
    all_counted = sorted((tuple(e["group"]), e["n"], e["m"]) for e in rep["instances"]) == sorted(
        (orders, n, m) for orders in suite.GROUPS for n, m in suite.TORI
    )
    ok = (
        rep["passed"]
        and exact_ok
        and dense_ok
        and all_counted
        and groups_seen == {(2,), (3,), (4,), (2, 2), (2, 3)}
        and len(dense_checked) >= 10
    )
    record(2, f"untwisted degeneracy |G|^2 ({len(rep['instances'])} tori, "
               f"{len(dense_checked)} dense cross-checks)", ok)


def test_criterion_03_ground_degeneracy_twisted():
    rep = suite.criterion_ground_twisted()
    ok = rep["passed"] and all(e["dimension"] == 4 for e in rep["instances"])
    record(3, f"twisted degeneracy |G| (reported m=4k value: "
               f"{rep['m_divisible_by_four_dimension_reported']})", ok)


def test_criterion_04_frustration_freeness():
    rep = suite.criterion_frustration_free()
    ok = rep["passed"] and rep["worst_deviation"] == 0.0
    record(4, f"gauged states frustration free (worst dev {rep['worst_deviation']:.2e})", ok)


def test_criterion_05_emergent_symmetry():
    rep = suite.criterion_emergent_symmetry()
    record(5, f"emergent dual symmetry exact ({rep['instances']} maps)", rep["passed"])


def test_criterion_06_string_order_mapping():
    rep = suite.criterion_string_order_mapping()
    record(6, f"string order mapping exact ({rep['instances']} identities)", rep["passed"])


def test_criterion_07_twisted_plaquette_product():
    rep = suite.criterion_twisted_plaquette_product()
    record(7, f"twisted plaquette product identity ({rep['instances']} cases)", rep["passed"])


def test_criterion_08_confinement():
    rep = suite.criterion_confinement()
    ok = (
        rep["passed"]
        and rep["single_violations"] == 3
        and rep["string_counts"] == {1: 3, 2: 6, 3: 9}
        and rep["dipole_counts"] == {1: 4, 2: 4, 3: 4}
    )
    record(8, f"confinement (string {rep['string_counts']}, dipole {rep['dipole_counts']})", ok)


def test_criterion_09_braiding():
    rep = suite.criterion_braiding()
    # plus the explicit order-two value: one crossing braids by -1
    from latgauge.excitations import StringSpec, braiding_phase, horizontal_string_path, vertical_string_path
    from latgauge.lattice import CodeSpec, Lattice2D

    z2 = GroupSpec((2,))
    spec = CodeSpec(Lattice2D(z2, 3, 6, "periodic"))
    ph = braiding_phase(
        spec,
        StringSpec(horizontal_string_path(spec, 1, 1, 3), z2.character((1,)), "Z"),
        StringSpec(vertical_string_path(spec, 1, 1, 2), z2.element((1,)), "X"),
    )
    minus_one = ph is not None and abs(phase_value(ph) + 1) < 1e-15
    record(9, "braiding equals the character pairing", rep["passed"] and minus_one)


def test_criterion_10_boundary_condensation():
    rep = suite.criterion_condensation()
    groups_seen = {tuple(e["group"]) for e in rep["instances"]}
    ok = rep["passed"] and groups_seen == {(2,), (4,), (2, 2)}
    record(10, f"boundary condensation ({len(rep['instances'])} subgroup cases)", ok)


def test_criterion_11_tensor_network():
    rep = suite.criterion_tensor_network()
    ok = (
        rep["passed"]
        and rep["pull_through_groups_passed"]
        and rep["mpo_layers_checked"] >= 30
        and rep["trapezoid_row_sizes"] == [2, 3, 4, 5]
    )
    record(11, f"tensor network equivalences ({rep['mpo_layers_checked']} MPO layers)", ok)


def test_criterion_12_flux_fusion():
    rep = suite.criterion_flux_fusion()
    ok = rep["passed"] and rep["two_dim_irrep_square"] == [1, 1, 1]
    record(12, "flux operator fusion (including the two-dimensional irrep)", ok)


@pytest.mark.parametrize("shift", [1, 2])
@pytest.mark.parametrize("row", [0, 1, 2], ids=["trivial", "sign", "two-dim"])
@pytest.mark.parametrize("cls", [[0], [1, 2, 3], [4, 5]], ids=["identity", "transpositions", "three-cycles"])
def test_flux_fusion_catches_one_wrong_class_value(monkeypatch, shift, row, cls):
    # One S3 character wrong on one class: criterion 12 fails (a shift by 2 on
    # the transpositions keeps the multiplicities integral) or raises.
    mult, chars = suite._s3_table()
    chars[row, cls] += shift
    monkeypatch.setattr(suite, "_s3_table", lambda: (mult, chars))
    try:
        passed = suite.criterion_flux_fusion()["passed"]
    except ArithmeticError:
        passed = False
    assert not passed


def test_criterion_13_rainbow_pairs():
    rep = suite.criterion_rainbow()
    record(13, f"nested pair gauging ({rep['instances']} checks)", rep["passed"])


def test_criterion_14_full_suite_under_five_minutes():
    runner = CliRunner()
    t0 = time.time()
    result = runner.invoke(main, ["suite"])
    elapsed = time.time() - t0
    ok = result.exit_code == 0 and elapsed < 300.0
    if ok:
        import json

        text = result.output
        rep = json.loads(text[text.index("{"):])
        validate_report(rep)
        ok = rep["passed"]
    record(14, f"full suite via the command line ({elapsed:.1f}s)", ok)
