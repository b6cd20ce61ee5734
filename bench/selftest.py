"""Self-test of the benchmark.

    python3 bench/selftest.py

Checks that BENCHMARK.json has the benchmark's shape, that traced spans
nest (a suite criterion contains its lattice and gauging spans, which
contain operators spans), that tracing leaves the original functions in
place, that both trace modes of run.py emit every declared metric with
its unit, and that run.py fails without a result when the library is
missing.  Takes about a minute; exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from spans import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check(cond, message: str) -> None:
    if not cond:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def check_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json has exactly the six expected keys",
    )
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds is 1..60")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(all(NAME.fullmatch(n) for n in names) and len(names) == len(set(names)), "names are valid and unique")
    check(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"]), "workloads have a short why")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, f"{m['name']} has a bound")
    check(
        all(set(m) == {"name", "unit", "better"} and UNIT.fullmatch(m["unit"]) for m in spec["per_layer"]),
        "per-layer metrics are well formed",
    )
    check(
        {"name": "setup_s", "unit": "s", "better": "lower"}.items()
        <= next(m for m in spec["end_to_end"] if m["name"] == "setup_s").items(),
        "setup_s is declared",
    )
    return spec


def _ancestors(spans, idx):
    out = []
    parent = spans[idx].parent
    while parent is not None:
        out.append(spans[parent].name)
        parent = spans[parent].parent
    return out


def check_tracer() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from latgauge import suite

    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("latgauge")}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    classes = {cls: dict(vars(cls)) for cls in (sys.modules["latgauge.gauging"].GaugingMap, sys.modules["latgauge.operators"].StateVector)}
    criteria = list(suite.CRITERIA)

    tracer = Tracer("selftest")
    tracer.install()
    check(suite.CRITERIA[0] is not criteria[0], "the criteria list is wrapped")
    try:
        suite.criterion_commutation()
        for fn in suite.CRITERIA:
            if fn.__name__ == "criterion_frustration_free":
                fn()
    finally:
        tracer.uninstall()
    tracer.check_restored()
    check(
        all(vars(mod)[k] is v for name, mod in modules.items() for k, v in before[name].items()),
        "every module attribute is the original again",
    )
    check(all(vars(cls)[k] is v for cls, attrs in classes.items() for k, v in attrs.items()), "every method is the original again")
    check(all(a is b for a, b in zip(suite.CRITERIA, criteria)), "the criteria list holds the originals again")

    spans = tracer.closed_spans()

    def nested(name, *outer):
        return any(sp.name == name and set(outer) <= set(_ancestors(spans, i)) for i, sp in enumerate(spans))

    check(nested("operators.commutation_phase", "lattice.check_all_commute", "suite.stabilizer_commutation"),
          "commutation_phase nests in check_all_commute in its criterion")
    check(nested("lattice.build_bulk_stabilizers", "suite.frustration_free"), "lattice spans nest in their criterion")
    check(nested("operators.StateVector.apply", "gauging.GaugingMap.apply", "suite.frustration_free"),
          "StateVector.apply nests in GaugingMap.apply in its criterion")
    check(nested("operators.StateVector.apply", "gauging.verify_local_symmetry"), "StateVector.apply nests in verify_local_symmetry")
    own = tracer.self_times()
    roots = sum(sp.end - sp.start for sp in spans if sp.parent is None)
    check(min(own) >= -1e-9 and abs(sum(own) - roots) < 1e-6, "self times are non-negative and add up to the root spans")
    metrics = tracer.layer_metrics()
    check(metrics["gauging.layer0.s"] > 0 and metrics["operators.StateVector.apply.bytes"] > 0, "layer aliases and counts are recorded")


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_runs(spec) -> None:
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "algebra", "--seed", "5", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        result = _last_json(proc.stdout)
        check(proc.returncode == 0 and result is not None, f"run.py --trace {trace} exits 0 with a result")
        check(set(result) == {"correct", "attempted", "failed", "metrics"} and result["correct"], f"--trace {trace} result is correct")
        check(
            {k: v["unit"] for k, v in result["metrics"].items()} == {d["name"]: d["unit"] for d in declared},
            f"--trace {trace} emits every declared metric with its unit",
        )
        if trace == 0:
            check(all(v["value"] > 0 for v in result["metrics"].values()), "end-to-end metrics are positive")


def check_bare_directory(spec) -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "compose", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and _last_json(proc.stdout) is None, "without the library run.py fails and prints no result")


def main() -> int:
    spec = check_spec()
    check_tracer()
    check_bare_directory(spec)
    check_runs(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
