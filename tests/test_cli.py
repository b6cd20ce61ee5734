"""Command line interface: configs, reports, exit codes, determinism."""

import json
import os
import pathlib
import resource
import subprocess
import sys
from dataclasses import replace

import pytest
from click.testing import CliRunner

import latgauge
from latgauge.cli import main, parse_group, parse_subgroup, parse_twist
from latgauge.excitations import StringSpec, string_operator, syndrome
from latgauge.gauging import GaugingMap
from latgauge.groups import Cocycle, GroupSpec
from latgauge.lattice import CodeSpec, Lattice2D, build_bulk_stabilizers
from latgauge.operators import ProductOperator, clock_z, shift_x
from report_schema import validate_report


Z3_SHIFT = {"dim": 3, "perm": [1, 2, 0], "phase": [0, 0, 0], "modulus": 3}
Z2_SHIFT = {"dim": 2, "perm": [1, 0], "phase": [0, 0], "modulus": 2}


@pytest.fixture()
def runner():
    return CliRunner()


# One command in a child interpreter: [exit code, seconds, tracemalloc peak
# bytes, output] of the invocation.  The child's address space is capped
# at 1 GiB, so a command that builds a huge state fails in the child
# instead of taking the machine's memory.
PROBE = """
import json, sys, time, tracemalloc
from click.testing import CliRunner
from latgauge.cli import main
tracemalloc.start()
start = time.perf_counter()
result = CliRunner().invoke(main, sys.argv[1:])
print(json.dumps([result.exit_code, time.perf_counter() - start, tracemalloc.get_traced_memory()[1], result.output]))
"""


def probe(args, timeout=60):
    src = str(pathlib.Path(latgauge.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "GAUGE_MAX_DIM"}
    env.update(PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *args], capture_output=True, text=True, timeout=timeout, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
    )
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def report_from(result):
    text = result.output
    start = text.index("{")
    return json.loads(text[start:])


class TestParsing:
    def test_group(self):
        assert parse_group("2,2").orders == (2, 2)
        with pytest.raises(Exception):
            parse_group("1")
        with pytest.raises(Exception):
            parse_group("x")

    def test_twist_pij_and_row_major(self):
        group = GroupSpec((2, 2))
        a = parse_twist(group, "p12=1")
        b = parse_twist(group, "1")
        assert a == b and a is not None
        assert parse_twist(group, "p12=0") is None
        assert parse_twist(group, None) is None
        with pytest.raises(Exception):
            parse_twist(group, "p21=1")
        with pytest.raises(Exception):
            parse_twist(group, "1,2")

    def test_subgroup(self):
        group = GroupSpec((4,))
        assert parse_subgroup(group, "e") == (group.identity(),)
        assert len(parse_subgroup(group, "all")) == 4
        assert len(parse_subgroup(group, "0;2")) == 2
        with pytest.raises(Exception):
            parse_subgroup(group, "1")


class TestCodeCommand:
    def test_untwisted_torus(self, runner):
        result = runner.invoke(main, ["code", "--group", "2", "--n", "2", "--m", "2"])
        assert result.exit_code == 0, result.output
        rep = report_from(result)
        validate_report(rep)
        assert rep["ground_dimension"] == 4
        assert rep["generators"] == 8
        assert any(c["name"] == "all_commute" and c["passed"] for c in rep["checks"])

    def test_twisted_torus(self, runner):
        result = runner.invoke(
            main, ["code", "--group", "2,2", "--n", "2", "--m", "2", "--twist-even", "p12=1"]
        )
        assert result.exit_code == 0, result.output
        assert report_from(result)["ground_dimension"] == 4

    def test_torus_past_the_old_cap(self, runner):
        result = runner.invoke(main, ["code", "--group", "2,2", "--n", "4", "--m", "4"])
        assert result.exit_code == 0, result.output
        rep = report_from(result)
        assert rep["ground_dimension"] == 16
        assert not any("skipped" in c for c in rep["checks"])

    def test_dense_skip_prints_a_long_count_as_a_power(self, runner):
        # 2**1600 amplitudes: the skip line names the count as |G|**sites,
        # not in 482 decimal digits.
        result = runner.invoke(main, ["code", "--group", "2", "--n", "40", "--m", "40"])
        assert result.exit_code == 0, result.output
        skip = next(line for line in result.output.splitlines() if line.startswith("[SKIP]"))
        assert skip == "[SKIP] ground_dimension_matches_dense: 2**1600 amplitudes exceed the dense oracle's 16384"
        (dense,) = [c for c in report_from(result)["checks"] if c["name"] == "ground_dimension_matches_dense"]
        assert dense["reason"] == "2**1600 amplitudes exceed the dense oracle's 16384"

    def test_cap_bits_option_is_gone(self, runner):
        args = ["code", "--group", "2", "--n", "2", "--m", "2", "--cap-bits", "10"]
        assert runner.invoke(main, args).exit_code == 2

    def test_seed_option_is_gone(self, runner):
        args = ["code", "--group", "2", "--n", "2", "--m", "2", "--seed", "7"]
        assert runner.invoke(main, args).exit_code == 2
        assert "--seed" not in runner.invoke(main, ["code", "--help"]).output

    def test_cylinder_includes_boundary_checks(self, runner):
        result = runner.invoke(
            main, ["code", "--group", "2", "--n", "2", "--m", "2", "--bc", "cylinder"]
        )
        assert result.exit_code == 0, result.output
        rep = report_from(result)
        assert any(c["name"] == "bulk_and_boundary_commute" for c in rep["checks"])

    def test_invalid_subgroup_is_config_error(self, runner):
        result = runner.invoke(
            main,
            ["code", "--group", "4", "--n", "2", "--m", "2", "--bc", "cylinder", "--subgroup", "1"],
        )
        assert result.exit_code == 2
        assert "not closed" in result.output

    def test_invalid_size_is_config_error(self, runner):
        result = runner.invoke(main, ["code", "--group", "2", "--n", "1", "--m", "2"])
        assert result.exit_code == 2

    def test_deterministic_reports(self, runner, tmp_path):
        args = ["code", "--group", "3", "--n", "2", "--m", "2"]
        a = runner.invoke(main, args + ["--report", str(tmp_path / "a.json")])
        b = runner.invoke(main, args + ["--report", str(tmp_path / "b.json")])
        assert a.exit_code == 0 and b.exit_code == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestComposeCommand:
    def test_verification_report(self, runner):
        result = runner.invoke(
            main,
            ["compose", "--group", "2", "--layers", "3", "--n", "3", "--bc", "periodic"],
        )
        assert result.exit_code == 0, result.output
        rep = report_from(result)
        validate_report(rep)
        assert rep["dimensions"]["amplitudes"] == 2**12

    def test_twisted_compose(self, runner):
        result = runner.invoke(
            main,
            ["compose", "--group", "2,2", "--layers", "2", "--n", "2", "--twist-even", "p12=1"],
        )
        assert result.exit_code == 0, result.output

    def test_cap_is_config_error(self, runner):
        result = runner.invoke(
            main,
            ["compose", "--group", "3", "--layers", "4", "--n", "3"],
            env={"GAUGE_MAX_DIM": "1000"},
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("message", ["Unable to allocate 8.00 GiB for an array with shape (1073741824,)", ""])
    def test_memory_error_is_config_error(self, runner, monkeypatch, message):
        # What a raised GAUGE_MAX_DIM lets through to numpy, without allocating it.
        def out_of_memory(gmap, state):
            raise MemoryError(message)

        monkeypatch.setattr(GaugingMap, "apply", out_of_memory)
        result = runner.invoke(main, ["compose", "--group", "2", "--layers", "2", "--n", "2"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == [f"Error: the compose checks do not fit in memory: {message or 'MemoryError'}"], result.output

    def test_env_cap_override(self, runner):
        result = runner.invoke(
            main,
            ["compose", "--group", "2", "--layers", "2", "--n", "2"],
            env={"GAUGE_MAX_DIM": "10"},
        )
        assert result.exit_code == 2


class TestAnyonsCommand:
    def test_syndrome_tables(self, runner, tmp_path):
        spec_path = tmp_path / "code.json"
        spec_path.write_text(
            json.dumps({"group": [2, 2], "n": 4, "m": 8, "bc": "torus", "twist_even": [1]})
        )
        ops_path = tmp_path / "ops.json"
        ops_path.write_text(
            json.dumps(
                [
                    {
                        "name": "confined",
                        "factors": [
                            {
                                "site": [1, 1],
                                "kind": "edge_group",
                                "op": {
                                    "dim": 4,
                                    "perm": [2, 3, 0, 1],
                                    "phase": [0, 0, 0, 0],
                                    "modulus": 2,
                                },
                            }
                        ],
                    },
                    {
                        "name": "plain_string",
                        "string": {
                            "path": [[1, 1], [3, 1]],
                            "label": [1, 0],
                            "family": "group",
                            "flavor": "X",
                        },
                    },
                ]
            )
        )
        result = runner.invoke(
            main, ["anyons", "--spec", str(spec_path), "--op-file", str(ops_path)]
        )
        assert result.exit_code == 0, result.output
        rep = report_from(result)
        names = {t["name"] for t in rep["syndromes"]}
        assert names == {"confined", "plain_string"}
        confined = next(t for t in rep["syndromes"] if t["name"] == "confined")
        assert len({tuple(c) for c in confined["violated_centers"]}) == 3

    def test_bad_spec_is_config_error(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        ops = tmp_path / "ops.json"
        ops.write_text("[]")
        result = runner.invoke(main, ["anyons", "--spec", str(bad), "--op-file", str(ops)])
        assert result.exit_code == 2

    def test_spec_orientation_and_subgroup_are_read(self, runner, tmp_path):
        # A one-site Z(chi) string on a Z3 cylinder: reflecting the plaquettes
        # conjugates the syndrome phase of label (1,) at center (1, 0).  The
        # subgroup needs the cylinder; a torus spec with one exits 2.
        group = GroupSpec((3,))
        ops_path = tmp_path / "ops.json"
        string = {"path": [[1, 1]], "label": [1], "family": "dual", "flavor": "Z"}
        ops_path.write_text(json.dumps([{"name": "z", "string": string}]))
        for orientation, phase in [("standard", 2), ("reflected", 1)]:
            spec_path = tmp_path / f"{orientation}.json"
            spec_path.write_text(
                json.dumps(
                    {
                        "group": [3], "n": 3, "m": 4, "bc": "cylinder",
                        "orientation": orientation, "subgroup": "e",
                    }
                )
            )
            result = runner.invoke(
                main, ["anyons", "--spec", str(spec_path), "--op-file", str(ops_path)]
            )
            assert result.exit_code == 0, result.output
            table = report_from(result)["syndromes"][0]
            spec = CodeSpec(
                Lattice2D(group, 3, 4, "open"),
                subgroup_bottom=parse_subgroup(group, "e"),
                orientation=orientation,
            )
            op = string_operator(spec, StringSpec(((1, 1),), group.character((1,)), "Z"))
            expected = json.loads(json.dumps(syndrome(build_bulk_stabilizers(spec), op).as_json()))
            assert table["violations"] == expected["violations"]
            at_center = {
                v["phase"]
                for v in table["violations"]
                if v["label"]["center"] == [1, 0] and v["label"]["element"] == [1]
            }
            assert at_center == {phase}

    @pytest.mark.parametrize(
        "factor, exit_code",
        [
            ({"site": [1, 1], "kind": "edge_group", "op": Z3_SHIFT}, 0),
            ({"site": [1, 1], "kind": "edge_group", "op": Z2_SHIFT}, 2),
            ({"site": [1, 1], "kind": "edge_group", "op": {**Z3_SHIFT, "modulus": 6}}, 2),
            ({"site": [9, 9], "kind": "edge_group", "op": Z3_SHIFT}, 2),
            ({"site": [1, 1], "kind": "vertex_dual", "op": Z3_SHIFT}, 2),
            ({"site": 7, "kind": "edge_group", "op": Z3_SHIFT}, 2),
            ({"site": [1, 1], "kind": "edge_group", "op": {**Z3_SHIFT, "perm": [1.0, 2.0, 0.0]}}, 2),
            ({"site": [1, 1], "kind": "edge_group", "op": {**Z3_SHIFT, "phase": [0.5, 0, 0]}}, 2),
            ({"site": [1, 1], "kind": "edge_group", "op": {**Z3_SHIFT, "modulus": 3.0}}, 2),
        ],
        ids=[
            "valid", "dim", "modulus", "off-lattice", "wrong-kind", "not-a-site",
            "float-perm", "fractional-phase", "float-modulus",
        ],
    )
    def test_raw_factors_are_checked_against_the_spec(self, runner, tmp_path, factor, exit_code):
        spec_path = tmp_path / "code.json"
        spec_path.write_text(json.dumps({"group": [3], "n": 2, "m": 2}))
        ops_path = tmp_path / "ops.json"
        ops_path.write_text(json.dumps([{"name": "raw", "factors": [factor]}]))
        result = runner.invoke(
            main, ["anyons", "--spec", str(spec_path), "--op-file", str(ops_path)]
        )
        assert result.exit_code == exit_code, result.output
        assert "Traceback" not in result.output
        if exit_code == 2:
            assert result.output.count("Error:") == 1 and "Error: bad operator entry 0:" in result.output

    @pytest.mark.parametrize(
        "orders, op",
        [
            ([4], {"dim": 4, "perm": [0, 3, 2, 1], "phase": [0, 0, 0, 0], "modulus": 4}),
            ([3], {"dim": 3, "perm": [0, 1, 2], "phase": [0, 0, 1], "modulus": 3}),
        ],
        ids=["Z4-reflection", "Z3-partial-clock"],
    )
    def test_a_factor_that_is_not_a_weyl_operator_exits_2(self, runner, tmp_path, orders, op):
        spec_path = tmp_path / "code.json"
        spec_path.write_text(json.dumps({"group": orders, "n": 2, "m": 2}))
        ops_path = tmp_path / "ops.json"
        ops_path.write_text(json.dumps([{"name": "raw", "factors": [{"site": [1, 1], "kind": "edge_group", "op": op}]}]))
        result = runner.invoke(main, ["anyons", "--spec", str(spec_path), "--op-file", str(ops_path)])
        assert result.exit_code == 2, result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == ["Error: bad operator entry 0: factor at (1, 1) is not a Weyl operator of the group"]

    def test_raw_factors_give_the_tables_of_their_weyl_operators(self, runner, tmp_path):
        # A Z2xZ2 translation with a character and a phase, on an edge and
        # a vertex site, and the library's own factors for the same rows.
        group = GroupSpec((2, 2))
        spec = CodeSpec(Lattice2D(group, 4, 8, "periodic"), twist_even=Cocycle(group, ((0, 1), (0, 0))))
        spec_path = tmp_path / "code.json"
        spec_path.write_text(json.dumps({"group": [2, 2], "n": 4, "m": 8, "twist_even": [1]}))
        raw = [
            ([1, 1], "edge_group", {"dim": 4, "perm": [1, 0, 3, 2], "phase": [1, 0, 0, 1], "modulus": 2}),
            ([0, 0], "vertex_dual", {"dim": 4, "perm": [3, 2, 1, 0], "phase": [0, 1, 1, 0], "modulus": 2}),
        ]
        ops_path = tmp_path / "ops.json"
        factors = [{"site": site, "kind": kind, "op": op} for site, kind, op in raw]
        ops_path.write_text(json.dumps([{"name": "raw", "factors": factors}]))
        result = runner.invoke(main, ["anyons", "--spec", str(spec_path), "--op-file", str(ops_path)])
        assert result.exit_code == 0, result.output
        edge = replace(shift_x(group.element((0, 1))).multiply(clock_z(group.character((1, 1)))), c=1)
        vertex = shift_x(group.character((1, 1))).multiply(clock_z(group.element((1, 1))))
        op = ProductOperator.from_factors([((1, 1), edge), ((0, 0), vertex)], 2)
        expected = json.loads(json.dumps(syndrome(build_bulk_stabilizers(spec), op).as_json()))
        table = report_from(result)["syndromes"][0]
        assert table["violations"] == expected["violations"] and table["violations"]

    @pytest.mark.parametrize(
        "family, exit_code", [(None, 0), ("group", 0), ("dual", 0), ("bogus", 2), (1, 2)]
    )
    def test_string_family_is_group_or_dual(self, runner, tmp_path, family, exit_code):
        spec_path = tmp_path / "code.json"
        spec_path.write_text(json.dumps({"group": [3], "n": 3, "m": 4}))
        # A group X string and a dual Z string both act on the edge (1, 1);
        # other families get the flavor a dual label would need.
        flavor = "X" if family in (None, "group") else "Z"
        string = {"path": [[1, 1]], "label": [1], "flavor": flavor}
        if family is not None:
            string["family"] = family
        ops_path = tmp_path / "ops.json"
        ops_path.write_text(json.dumps([{"name": "s", "string": string}]))
        result = runner.invoke(
            main, ["anyons", "--spec", str(spec_path), "--op-file", str(ops_path)]
        )
        assert result.exit_code == exit_code, result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "label, path, exit_code",
        [
            ([1], [[1, 1]], 0),
            ([1.5], [[1, 1]], 2),
            ([1.0], [[1, 1]], 2),
            (["1"], [[1, 1]], 2),
            ([True], [[1, 1]], 2),
            ([1], [[1.0, 1]], 2),
            ([1], [[1, True]], 2),
            ([1], [["1", 1]], 2),
        ],
        ids=[
            "valid", "fractional-label", "float-label", "string-label", "bool-label",
            "float-path", "bool-path", "string-path",
        ],
    )
    def test_string_label_and_path_take_integers_only(self, runner, tmp_path, label, path, exit_code):
        # As for raw factors: a label or path entry that is not an int is
        # refused, not rounded or read as the integer it spells.
        spec_path = tmp_path / "code.json"
        spec_path.write_text(json.dumps({"group": [3], "n": 3, "m": 4}))
        ops_path = tmp_path / "ops.json"
        ops_path.write_text(json.dumps([{"name": "s", "string": {"path": path, "label": label, "flavor": "X"}}]))
        result = runner.invoke(
            main, ["anyons", "--spec", str(spec_path), "--op-file", str(ops_path)]
        )
        assert result.exit_code == exit_code, result.output
        if exit_code == 2:
            errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
            assert len(errors) == 1 and errors[0].startswith("Error: bad operator entry 0:"), result.output

    @pytest.mark.parametrize("bc, exit_code", [("torus", 0), ("cylinder", 0), ("tours", 2)])
    def test_spec_bc_is_torus_or_cylinder(self, runner, tmp_path, bc, exit_code):
        spec_path = tmp_path / "code.json"
        spec_path.write_text(json.dumps({"group": [3], "n": 3, "m": 4, "bc": bc}))
        ops_path = tmp_path / "ops.json"
        ops_path.write_text("[]")
        result = runner.invoke(
            main, ["anyons", "--spec", str(spec_path), "--op-file", str(ops_path)]
        )
        assert result.exit_code == exit_code, result.output

    @pytest.mark.parametrize(
        "extra", [{"orientation": "sideways"}, {"subgroup": "1"}, {"subgroup": [[0]]}]
    )
    def test_bad_orientation_or_subgroup_is_config_error(self, runner, tmp_path, extra):
        spec_path = tmp_path / "code.json"
        spec_path.write_text(json.dumps({"group": [3], "n": 3, "m": 4, **extra}))
        ops_path = tmp_path / "ops.json"
        ops_path.write_text("[]")
        result = runner.invoke(
            main, ["anyons", "--spec", str(spec_path), "--op-file", str(ops_path)]
        )
        assert result.exit_code == 2


    @pytest.mark.parametrize("command", ["anyons", "confine"])
    @pytest.mark.parametrize(
        "spec",
        [
            {"group": [2, 2], "n": 4, "m": 8, "twist_even": 1},
            {"group": [2, 2], "n": 4, "m": 8, "twist_even": True},
            {"group": [2, 2], "n": 4, "m": 8, "twist_even": {"a": 1}},
            [1, 2],
            {"group": [2, 2], "n": None, "m": 8, "twist_even": "p12=1"},
            {"group": 5, "n": 4, "m": 8, "twist_even": "p12=1"},
        ],
        ids=["twist-number", "twist-bool", "twist-object", "top-level-list", "n-null", "group-number"],
    )
    def test_spec_of_the_wrong_json_type_is_config_error(self, runner, tmp_path, command, spec):
        spec_path = tmp_path / "code.json"
        spec_path.write_text(json.dumps(spec))
        ops_path = tmp_path / "ops.json"
        ops_path.write_text("[]")
        args = [command, "--spec", str(spec_path)]
        if command == "anyons":
            args += ["--op-file", str(ops_path)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert len([line for line in result.output.splitlines() if line.startswith("Error:")]) == 1

    @pytest.mark.parametrize("command", ["anyons", "confine"])
    @pytest.mark.parametrize(
        "field, value",
        [("n", 2.7), ("n", 4.9), ("n", "3"), ("m", True), ("m", 8.0), ("group", [2.9]), ("group", "22"), ("group", [True, 2])],
        ids=["n-float", "n-float-4.9", "n-string", "m-bool", "m-integral-float", "group-float", "group-string", "group-bool"],
    )
    def test_spec_group_n_and_m_take_json_integers_only(self, runner, tmp_path, command, field, value):
        spec_path = tmp_path / "code.json"
        spec_path.write_text(json.dumps({"group": [2, 2], "n": 4, "m": 8, "twist_even": "p12=1", field: value}))
        ops_path = tmp_path / "ops.json"
        ops_path.write_text("[]")
        args = [command, "--spec", str(spec_path)] + (["--op-file", str(ops_path)] if command == "anyons" else [])
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        message = "group must be a JSON list of integers, and n and m JSON integers"
        assert errors == [f"Error: bad code spec {str(spec_path)!r}: {message}"], result.output

    @pytest.mark.parametrize("ops", [5, {"factors": []}, "ops"], ids=["number", "object", "string"])
    def test_op_file_must_hold_a_list(self, runner, tmp_path, ops):
        spec_path = tmp_path / "code.json"
        spec_path.write_text(json.dumps({"group": [2], "n": 2, "m": 2}))
        ops_path = tmp_path / "ops.json"
        ops_path.write_text(json.dumps(ops))
        result = runner.invoke(main, ["anyons", "--spec", str(spec_path), "--op-file", str(ops_path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert len([line for line in result.output.splitlines() if line.startswith("Error:")]) == 1


class TestOtherCommands:
    def test_confine(self, runner):
        result = runner.invoke(
            main, ["confine", "--group", "2,2", "--twist-even", "p12=1"]
        )
        assert result.exit_code == 0, result.output
        rep = report_from(result)
        assert rep["single_violations"] == 3

    def test_confine_needs_twist(self, runner):
        result = runner.invoke(main, ["confine", "--group", "2,2", "--twist-even", "p12=0"])
        assert result.exit_code == 2

    def test_confine_spec_with_misspelt_bc_is_config_error(self, runner, tmp_path):
        spec_path = tmp_path / "code.json"
        spec_path.write_text(
            json.dumps({"group": [2, 2], "n": 4, "m": 8, "bc": "tours", "twist_even": [1]})
        )
        result = runner.invoke(main, ["confine", "--spec", str(spec_path)])
        assert result.exit_code == 2, result.output

    @pytest.mark.parametrize("command", ["confine", "anyons"])
    @pytest.mark.parametrize(
        "extra",
        [{"beta": "p12=1", "subgroup": "e"}, {"beta": "p12=1"}, {"beta": "p12=0"}, {"subgroup": "all"}],
        ids=["both", "beta", "trivial-beta", "subgroup"],
    )
    def test_torus_spec_with_bottom_boundary_is_config_error(self, runner, tmp_path, command, extra):
        spec_path = tmp_path / "code.json"
        spec_path.write_text(
            json.dumps({"group": [2, 2], "n": 4, "m": 8, "twist_even": "p12=1", **extra})
        )
        ops_path = tmp_path / "ops.json"
        ops_path.write_text("[]")
        args = [command, "--spec", str(spec_path)]
        if command == "anyons":
            args += ["--op-file", str(ops_path)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and "a torus has none" in errors[0]

    def test_confine_from_spec_file(self, runner, tmp_path):
        spec_path = tmp_path / "code.json"
        spec_path.write_text(
            json.dumps({"group": [2, 2], "n": 4, "m": 8, "bc": "torus", "twist_even": [1]})
        )
        result = runner.invoke(main, ["confine", "--spec", str(spec_path)])
        assert result.exit_code == 0, result.output
        assert report_from(result)["single_violations"] == 3

    @pytest.mark.parametrize("m, exit_code", [(4, 2), (6, 2), (8, 0)])
    def test_confine_spec_cylinder_height(self, runner, tmp_path, m, exit_code):
        spec_path = tmp_path / "code.json"
        spec_path.write_text(
            json.dumps(
                {"group": [2, 2], "n": 4, "m": m, "bc": "cylinder", "twist_even": "p12=1"}
            )
        )
        result = runner.invoke(main, ["confine", "--spec", str(spec_path)])
        assert result.exit_code == exit_code, result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == (1 if exit_code == 2 else 0)

    def test_boundary(self, runner):
        result = runner.invoke(main, ["boundary", "--group", "2", "--subgroup", "e", "--n", "4"])
        assert result.exit_code == 0, result.output
        rep = report_from(result)
        assert rep["surviving"] == [[0], [1]]
        assert rep["condensation"]["group_anyons"] == {"(0,)": True, "(1,)": False}

    def test_boundary_unbroken(self, runner):
        result = runner.invoke(main, ["boundary", "--group", "2", "--subgroup", "all", "--n", "4"])
        assert result.exit_code == 0, result.output
        rep = report_from(result)
        assert all(rep["condensation"]["group_anyons"].values())

    def test_boundary_trivial_beta_runs(self, runner):
        args = ["boundary", "--group", "2,2", "--subgroup", "all", "--n", "4", "--beta", "p12=0"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert all(c["passed"] for c in report_from(result)["checks"])

    def test_tn(self, runner):
        result = runner.invoke(main, ["tn", "--group", "2,2", "--mpo-layers"])
        assert result.exit_code == 0, result.output
        rep = report_from(result)
        validate_report(rep)


class TestConfigErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["compose", "--group", "2", "--n", "1"],
            ["boundary", "--group", "2", "--subgroup", "e", "--n", "1"],
            ["code", "--group", "2", "--bc", "cylinder", "--m", "3"],
            ["tn", "--group", "2", "--check-pull-through"],
            ["tn", "--group", "2", "--n", "1", "--mpo-layers"],
            ["tn", "--group", "2", "--n", "0"],
            ["tn", "--group", "2", "--n", "8", "--mpo-layers"],
            # --tol is gone: any value is an unknown option.
            ["compose", "--group", "2", "--tol", "-1"],
            ["compose", "--group", "2", "--tol", "0"],
            ["compose", "--group", "2", "--tol", "nan"],
            ["compose", "--group", "2", "--tol", "inf"],
            ["confine", "--group", "2,2", "--twist-even", "p12=1", "--n", "1"],
            ["boundary", "--group", "2,2", "--subgroup", "all", "--n", "4", "--beta", "p12=1"],
            ["code", "--group", "2,2", "--beta", "p12=1"],
            ["code", "--group", "2,2", "--beta", "p12=0"],
            ["code", "--group", "2,2", "--subgroup", "e"],
            ["code", "--group", "2", "--bc", "torus", "--subgroup", "all"],
        ],
        ids=[
            "compose-one-site",
            "boundary-one-site",
            "code-odd-cylinder",
            "tn-dead-flag",
            "tn-one-site",
            "tn-zero-sites-without-mpo",
            "tn-mpo-too-large",
            "compose-negative-tol",
            "compose-zero-tol",
            "compose-nan-tol",
            "compose-infinite-tol",
            "confine-one-site",
            "boundary-nontrivial-beta",
            "code-torus-beta",
            "code-torus-trivial-beta",
            "code-torus-subgroup",
            "code-torus-whole-group",
        ],
    )
    def test_exit_two_with_one_line_message(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert len([line for line in result.output.splitlines() if line.startswith("Error:")]) == 1

    @pytest.mark.parametrize(
        "args, target",
        [
            (["compose", "--group", "2", "--layers", "2", "--n", "2"], "claims.stack_symmetries"),
            (["code", "--group", "2"], "claims.commutation"),
            (["anyons", "--spec", "code.json", "--op-file", "ops.json"], "cli.syndrome"),
            (["confine", "--group", "2,2", "--twist-even", "p12=1"], "claims.confinement"),
            (["boundary", "--group", "2", "--subgroup", "e"], "claims.boundary_condensation"),
            (["tn", "--group", "2"], "claims.tensor_identities"),
            (["suite"], "cli.run_suite"),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_memory_error_in_the_checks_is_config_error(self, runner, tmp_path, monkeypatch, args, target):
        # What a raised GAUGE_MAX_DIM can let through to numpy, in every subcommand, without allocating it.
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.22 GiB")

        monkeypatch.chdir(tmp_path)
        (tmp_path / "code.json").write_text(json.dumps({"group": [2], "n": 2, "m": 2}))
        (tmp_path / "ops.json").write_text(json.dumps([{"factors": [{"site": [1, 1], "kind": "edge_group", "op": Z2_SHIFT}]}]))
        monkeypatch.setattr(f"latgauge.{target}", out_of_memory)
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == [f"Error: the {args[0]} checks do not fit in memory: Unable to allocate 1.22 GiB"], result.output

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5", "\u00b2"])
    @pytest.mark.parametrize(
        "args",
        [
            ["compose", "--group", "2", "--layers", "2", "--n", "2"],
            ["boundary", "--group", "2", "--subgroup", "e", "--n", "4"],
            ["suite"],
            ["tn", "--group", "2", "--mpo-layers"],
            ["tn", "--group", "2"],
            ["code", "--group", "2"],
            ["anyons", "--spec", "code.json", "--op-file", "ops.json"],
            ["confine", "--group", "2,2", "--twist-even", "p12=1"],
        ],
        ids=["compose", "boundary", "suite", "tn", "tn-no-mpo-layers", "code", "anyons", "confine"],
    )
    def test_bad_env_cap_is_named(self, runner, args, value):
        result = runner.invoke(main, args, env={"GAUGE_MAX_DIM": value})
        assert result.exit_code == 2, result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == [f"Error: GAUGE_MAX_DIM must be a positive integer, not {value!r}"], result.output

    @pytest.mark.parametrize(
        "args, error",
        [
            (["boundary", "--group", "2", "--subgroup", "e", "--n", "40"], f"the chain would need {2**40} amplitudes"),
            (["compose", "--group", "2", "--n", "40", "--layers", "1"], f"output would need {2**80} amplitudes"),
            # Counts past Python's 4300-digit int-to-str limit.
            (
                ["compose", "--group", "2", "--n", "10000", "--layers", "1"],
                "output would need at least 2**20000 amplitudes",
            ),
            (
                ["boundary", "--group", "2", "--subgroup", "e", "--n", "20000"],
                "the chain would need at least 2**20000 amplitudes",
            ),
            # Widths whose counts are never formed: each is refused by its site count.
            (
                ["compose", "--group", "2", "--n", "100000000", "--layers", "1"],
                "output would need at least 2**200000000 amplitudes",
            ),
            # 6**50000000 >= 4**50000000 = 2**100000000.
            (
                ["compose", "--group", "6", "--n", "10000000", "--layers", "4"],
                "output would need at least 2**100000000 amplitudes",
            ),
            (
                ["boundary", "--group", "6", "--subgroup", "e", "--n", "10000000"],
                "the chain would need at least 2**20000000 amplitudes",
            ),
            # The exact tensor of a periodic layer: 2n + n sites times the phase modulus 6.
            (
                ["tn", "--group", "6", "--n", "3000000", "--mpo-layers"],
                "the exact tensor of layer 0 (periodic) would need at least 2**18000002 amplitudes",
            ),
            # The symbolic commands count the factors their terms would store, 4 per plaquette
            # and label, at seven amplitudes each.
            (
                ["code", "--group", "2", "--n", "100000000", "--m", "2"],
                "the stabilizer terms, 7 amplitudes per factor, would need 11200000000 amplitudes",
            ),
            (
                ["confine", "--group", "2,2", "--twist-even", "1", "--n", "100000000", "--m", "8"],
                "the stabilizer terms, 7 amplitudes per factor, would need 89600000000 amplitudes",
            ),
            (
                ["anyons", "--spec", "wide.json", "--op-file", "ops.json"],
                "bad code spec 'wide.json': the stabilizer terms, 7 amplitudes per factor,"
                " would need 11200000000 amplitudes",
            ),
            # 8,000,000 factors: under the cap one by one, but about 0.4 GB to build
            # (about 4,000,000 stored, at 106 traced bytes each).
            (
                ["code", "--group", "2", "--bc", "cylinder", "--n", "1000", "--m", "1000"],
                "the stabilizer terms, 7 amplitudes per factor, would need 56000000 amplitudes",
            ),
            # The torus's normal form: 20001 x 20000 int64 cells, about 3.2 GB.
            (
                ["code", "--group", "2", "--n", "100", "--m", "100"],
                "the ground-space normal form, one amplitude per cell, would need 400020000 amplitudes",
            ),
        ],
        ids=[
            "boundary", "compose", "compose-past-str-limit", "boundary-past-str-limit",
            "compose-hundred-million-sites", "compose-z6-four-layers", "boundary-z6", "tn-z6-mpo-layers",
            "code-hundred-million-wide", "confine-hundred-million-wide", "anyons-hundred-million-wide",
            "code-cylinder-thousand-square", "code-torus-normal-form",
        ],
    )
    def test_over_cap_width_refused_before_anything_is_built(self, args, error, tmp_path, monkeypatch):
        # The default cap, 2**24, against a chain, input or exact tensor of 2**40 amplitudes or more,
        # or against stabilizer terms or a normal form of 2**26 amplitudes or more.  anyons reads its
        # files from the working directory, which the child inherits.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "wide.json").write_text(json.dumps({"group": [2], "n": 100000000, "m": 2}))
        (tmp_path / "ops.json").write_text("[]")
        code, seconds, peak, output = probe(args)
        errors = [line for line in output.splitlines() if line.startswith("Error:")]
        assert (code, errors) == (2, [f"Error: {error}"]), output
        assert seconds < 5
        assert peak < 2**20

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bad_max_dim_is_named(self, runner, value):
        # The maximum dimension is set by GAUGE_MAX_DIM alone.
        result = runner.invoke(main, ["compose", "--group", "2"], env={"GAUGE_MAX_DIM": value})
        assert result.exit_code == 2, result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and "GAUGE_MAX_DIM" in errors[0], result.output

    @pytest.mark.parametrize("option, value", [("--tol", "1e-3"), ("--max-dim", "64")])
    def test_removed_compose_options_are_unknown(self, runner, option, value):
        # GAUGE_MAX_DIM is the only cap setting and gauging.STATE_TOL the only tolerance.
        result = runner.invoke(main, ["compose", "--group", "2", option, value])
        assert result.exit_code == 2, result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and errors[0].startswith("Error: No such option") and option in errors[0], result.output

    @pytest.mark.parametrize(
        "args, cap",
        [
            (["compose", "--group", "2", "--layers", "2", "--n", "2"], "100"),
            (["suite"], "1000"),
            (["suite"], "2000000"),
        ],
        ids=["compose-exact-map", "suite", "suite-mpo-layer"],
    )
    def test_env_cap_below_the_checks_is_config_error(self, runner, args, cap):
        result = runner.invoke(main, args, env={"GAUGE_MAX_DIM": cap})
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert len([line for line in result.output.splitlines() if line.startswith("Error:")]) == 1

    def test_suite_cap_below_an_exact_map_names_its_layer(self, runner):
        result = runner.invoke(main, ["suite"], env={"GAUGE_MAX_DIM": "65536"})
        assert result.exit_code == 2, result.output
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert errors == [
            "Error: the exact tensor of layer 0 (periodic) would need 1048576 amplitudes;"
            " the suite needs a larger GAUGE_MAX_DIM"
        ], result.output


class TestSchema:
    REPORT = {
        "schema_version": 2, "command": "x", "config": {}, "passed": True,
        "checks": [{"name": "a", "claim": "c", "status": "skipped", "passed": False, "reason": "r"}],
    }

    def test_validate_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            validate_report({"schema_version": 2})
        with pytest.raises(ValueError):
            validate_report(
                {"schema_version": 3, "command": "x", "config": {}, "checks": [], "passed": True}
            )

    def test_schema_two_with_a_skip_is_valid(self):
        validate_report(self.REPORT)

    @pytest.mark.parametrize(
        "change",
        [
            {"schema_version": 1},
            {"checks": [{"name": "a", "passed": True}]},
            {"checks": [{"name": "a", "status": "ok", "passed": False}]},
            {"checks": [{"name": "a", "status": "skipped", "passed": True}]},
            {"checks": [{"name": "a", "status": "passed", "passed": False}]},
            {"checks": [{"name": "a", "status": "failed", "passed": False}]},
            {"passed": False},
        ],
        ids=["schema-1", "no-status", "unknown-status", "skip-passes", "pass-fails", "failed-passes", "skip-fails"],
    )
    def test_validate_rejects(self, change):
        with pytest.raises(ValueError):
            validate_report({**self.REPORT, **change})
