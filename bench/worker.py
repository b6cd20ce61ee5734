"""One timed iteration of a workload, in a fresh interpreter.

    python3 bench/worker.py --workload compose --seed 3 --run-id compose-3-0 [--trace] [--setup-only]

Set-up (importing latgauge from this checkout's ``src`` and building the
inputs) is timed first, then the cases run and are checked.  The last line
of standard output is one JSON object.  Exit code 3 means set-up failed,
for instance because the library is missing; the benchmark then stops.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_FAILED = 3


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import latgauge

    if not Path(latgauge.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"latgauge imported from {latgauge.__file__}, not from this checkout")
    return latgauge


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--run-id", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer(args.run_id) if args.trace else None
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    OUT_DIR.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    try:
        _import_library()
        cases = WORKLOADS[args.workload](args.seed, OUT_DIR, span)
    except Exception:
        traceback.print_exc()
        return SETUP_FAILED
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer:
        tracer.install()
    checks: list[tuple[str, bool]] = []
    skipped = 0
    start = time.perf_counter()
    for case in cases:
        try:
            outcome = case.run()
        except Exception:
            traceback.print_exc()
            checks.append((case.name, False))
            continue
        checks.extend(outcome.checks)
        skipped += outcome.skipped
    run_s = time.perf_counter() - start
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(checks),
        "failed": [name for name, ok in checks if not ok],
        "skipped": skipped,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer:
        tracer.uninstall()
        tracer.check_restored()
        result["layers"] = tracer.layer_metrics()
        tracer.write(OUT_DIR / f"spans-{args.run_id}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
