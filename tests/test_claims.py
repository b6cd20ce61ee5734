"""Each paper claim has one function, shared by its subcommand and its suite criteria.

A claim made to fail must fail both the subcommand (exit 1) and every
criterion that runs it, so neither side keeps its own copy of the rule.
A check past a claim's size limit is reported `skipped`, never left out,
and never changes an exit code.
"""

import json

import pytest
from click.testing import CliRunner

from latgauge import claims, suite
from latgauge.cli import main
from latgauge.operators import StateVector
from report_schema import validate_report


def run(args):
    result = CliRunner().invoke(main, args)
    text = result.output
    report = json.loads(text[text.index("{"):])
    validate_report(report)
    return result, report


def failing(original):
    """The claim with the same configuration and data, but every check failed."""

    def failed(checks):
        return [{**c, "status": "failed", "passed": False} for c in checks]

    def fake(*args, **kwargs):
        result = original(*args, **kwargs)
        return (result[0], failed(result[1])) if isinstance(result, tuple) else failed(result)

    return fake


CODE = ["code", "--group", "2", "--n", "2", "--m", "2"]
COMPOSE = ["compose", "--group", "2", "--n", "2", "--layers", "2"]


@pytest.mark.parametrize(
    "claim, args, criterion",
    [
        ("commutation", CODE, "criterion_commutation"),
        ("ground_dimension", CODE, "criterion_ground_untwisted"),
        ("ground_dimension", CODE, "criterion_ground_twisted"),
        ("stack_symmetries", COMPOSE, "criterion_frustration_free"),
        ("emergent_symmetry", COMPOSE, "criterion_emergent_symmetry"),
        ("confinement", ["confine", "--group", "2,2", "--twist-even", "p12=1"], "criterion_confinement"),
        ("boundary_condensation", ["boundary", "--group", "2", "--subgroup", "e"], "criterion_condensation"),
        ("tensor_identities", ["tn", "--group", "2", "--mpo-layers"], "criterion_tensor_network"),
    ],
)
def test_a_failed_claim_fails_its_subcommand_and_criterion(monkeypatch, claim, args, criterion):
    monkeypatch.setattr(claims, claim, failing(getattr(claims, claim)))
    result, report = run(args)
    assert result.exit_code == 1, result.output
    assert not report["passed"]
    rep = getattr(suite, criterion)()
    assert rep["passed"] is False and rep["status"] == "failed"


def test_code_past_the_dense_cap_skips_the_oracle():
    result, report = run(["code", "--group", "2", "--n", "4", "--m", "4"])
    assert result.exit_code == 0, result.output
    (dense,) = [c for c in report["checks"] if c["name"] == "ground_dimension_matches_dense"]
    assert dense["status"] == "skipped" and dense["passed"] is False and dense["dense"] is None
    assert dense["normal_form"] == report["ground_dimension"] == 4
    assert report["passed"]
    assert "[SKIP] ground_dimension_matches_dense" in result.output


def test_compose_past_the_map_cap_skips_the_emergent_check():
    result, report = run(["compose", "--group", "2", "--n", "9", "--layers", "1"])
    assert result.exit_code == 0, result.output
    emergent = [c for c in report["checks"] if c["name"].startswith("emergent_symmetry_layer")]
    assert [(c["name"], c["status"]) for c in emergent] == [("emergent_symmetry_layer0", "skipped")]
    assert report["passed"]


def test_twisted_degeneracy_lists_its_two_dense_skips():
    rep = suite.criterion_ground_twisted()
    assert rep["passed"] and rep["status"] == "passed"
    skipped = rep["skipped_over_cap"]
    assert [(s["check"], s["config"]) for s in skipped] == [
        ("ground_dimension_matches_dense", {"n": 4, "m": 2}),
        ("ground_dimension_matches_dense", {"n": 2, "m": 6}),
    ]
    assert [e["dense"] for e in rep["instances"]].count(None) == len(skipped)


def test_tensor_network_lists_its_four_mpo_skips():
    rep = suite.criterion_tensor_network()
    assert rep["passed"] and rep["mpo_layers_checked"] == 36
    skipped = rep["skipped_over_cap"]
    assert len(skipped) == 4
    assert {(tuple(s["config"]["group"]), s["config"]["n"]) for s in skipped} == {((2, 3), 3)}
    assert {(s["config"]["layer"], s["config"]["boundary"]) for s in skipped} == {
        (i, bc) for i in (0, 1) for bc in ("periodic", "open")
    }


def test_suite_counts_and_prints_its_skips():
    result, report = run(["suite"])
    assert result.exit_code == 0, result.output
    per_criterion = [len(c.get("skipped_over_cap", ())) for c in report["checks"]]
    assert report["skipped"] == sum(per_criterion) == result.output.count("[SKIP] ")
    assert per_criterion[2] == 2 and per_criterion[10] == 4


def test_frustration_free_reads_every_overlap_on_the_support(monkeypatch):
    # Criterion 4's bulk terms are checked on the exact support state, as
    # the stack symmetries are: no dense apply.
    calls = []
    original = StateVector.apply

    def counted(self, *args, **kwargs):
        calls.append("apply")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(StateVector, "apply", counted)
    rep = suite.criterion_frustration_free()
    assert calls == []
    assert rep["passed"] and rep["checked"] == 237
