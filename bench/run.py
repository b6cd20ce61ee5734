"""latgauge benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload {suite,compose,algebra} --seed N --seconds S --trace {0,1}

Each iteration runs in a fresh interpreter (bench/worker.py), one after
another, until ``--seconds`` have passed.  With ``--trace 0`` the last line
of standard output holds the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` untraced and traced iterations alternate and the last line
holds the per-layer metrics.  Earlier lines give each iteration, the
failed fraction, skipped checks and provenance.  The full result and the
traced spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# Set-up-only processes before each untraced iteration, so setup_s is a
# median of samples spread over the whole run even when one iteration
# takes most of it.
SETUP_SAMPLES_PER_ITERATION = 2
# Every run must end within 180 s; iterations stop being started so that
# the one in flight still finishes before this many seconds.
DEADLINE_S = 170.0

sys.path.insert(0, str(BENCH_DIR))
from worker import OUT_DIR, ROOT, SETUP_FAILED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SetupFailed(RuntimeError):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _worker_env() -> dict:
    # One BLAS thread (at most nproc): latgauge's hot paths are single-threaded
    # Python and numpy, and idle BLAS threads only spin and add noise.  A fixed
    # hash seed makes every iteration order its sets and dicts the same way.
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"nproc": _nproc(), "seed": seed, "commit": commit, "src_sha256": digest.hexdigest()}


def _run_worker(workload: str, seed: int, run_id: str, timeout: float, *, trace=False, setup_only=False) -> dict | None:
    """Result dict of one worker, or None if it crashed or gave no result."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", str(seed), "--run-id", run_id]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{run_id}: timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode == SETUP_FAILED:
        raise SetupFailed(f"{run_id}: set-up failed")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{run_id}: exit code {proc.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"{run_id}: unreadable result {lines[-1][:200]!r}", file=sys.stderr)
        return None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run iterations for ``seconds``; returns samples and check totals."""
    OUT_DIR.mkdir(exist_ok=True)
    begin = time.perf_counter()
    samples = {"untraced": [], "traced": []}
    setups: list[float] = []
    attempted = failed = skipped = 0
    failures: list[str] = []
    meta: dict = {}
    last_wall = 0.0
    i = 0
    while True:
        elapsed = time.perf_counter() - begin
        done = samples["untraced"] and (samples["traced"] or not trace)
        if elapsed + last_wall > DEADLINE_S or (elapsed >= seconds and (done or failures)):
            break
        traced = trace and bool(samples["untraced"]) and len(samples["traced"]) < len(samples["untraced"])
        run_id = f"{workload}-{seed}-{i}" + ("-traced" if traced else "")
        for k in range(0 if trace else SETUP_SAMPLES_PER_ITERATION):
            res = _run_worker(workload, seed, f"{run_id}-setup{k}", max(10.0, DEADLINE_S - elapsed), setup_only=True)
            if res is not None:
                setups.append(res["setup_s"])
        t0 = time.perf_counter()
        res = _run_worker(workload, seed, run_id, max(10.0, DEADLINE_S - elapsed), trace=traced)
        last_wall = time.perf_counter() - t0
        i += 1
        if res is None:
            attempted += 1
            failed += 1
            failures.append(f"{run_id}: worker failed")
            continue
        attempted += res["attempted"]
        failed += len(res["failed"])
        failures += [f"{run_id}: {name}" for name in res["failed"]]
        skipped += res["skipped"]
        meta = {"python": res["python"], "numpy": res["numpy"]}
        setups.append(res["setup_s"])
        samples["traced" if traced else "untraced"].append(res)
        print(
            f"{run_id}: run_s={res['run_s']:.4f} setup_s={res['setup_s']:.4f} "
            f"peak_rss_mb={res['peak_rss_mb']:.1f} checks={res['attempted']} failed={len(res['failed'])} "
            f"skipped={res['skipped']}",
            flush=True,
        )
    return {
        "samples": samples,
        "setups": setups,
        "attempted": attempted,
        "failed": failed,
        "skipped": skipped,
        "failures": failures,
        "meta": meta,
    }


def end_to_end(m: dict) -> dict:
    runs = m["samples"]["untraced"]
    return {
        "run_s": statistics.median(r["run_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "setup_s": statistics.median(m["setups"]),
    }


def per_layer(m: dict, names) -> dict:
    traced = m["samples"]["traced"]
    values = {name: statistics.median(r["layers"].get(name, 0) for r in traced) for name in names}
    values["trace.overhead_s"] = statistics.median(r["run_s"] for r in traced) - statistics.median(
        r["run_s"] for r in m["samples"]["untraced"]
    )
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (ROOT / "src" / "latgauge").is_dir():
        print("no latgauge sources under src/; nothing to measure", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        m = measure(args.workload, args.seed, args.seconds, trace)
    except SetupFailed as exc:
        print(exc, file=sys.stderr)
        return 2
    if not m["samples"]["untraced"] or (trace and not m["samples"]["traced"]):
        print("no iteration completed", file=sys.stderr)
        return 1

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer(m, [d["name"] for d in declared]) if trace else end_to_end(m)
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "iterations": {k: len(v) for k, v in m["samples"].items()},
        "run_s_max": max(r["run_s"] for r in m["samples"]["untraced"]),
        "failed_frac": m["failed"] / m["attempted"],
        "skipped": m["skipped"],
        "failures": m["failures"][:20],
        **_provenance(args.seed),
        **m["meta"],
    }
    print("summary: " + json.dumps(summary))
    result = {"correct": m["failed"] == 0, "attempted": m["attempted"], "failed": m["failed"], "metrics": metrics}
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**result, "summary": summary, "samples": m["samples"], "setups": m["setups"]}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
