"""suite.run_suite on a pool of forked workers and in one process.

The report must be the same bytes on one CPU and on two; one CPU must
start no process; an error must be the one a serial run would raise,
with the same `Error:` line; a worker that dies must exit 2; and no
worker may outlive the run.
"""

import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

import latgauge
from latgauge import suite
from latgauge.claims import check
from latgauge.cli import main
from latgauge.operators import CapExceededError

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
ONE_CPU, TWO_CPUS = {0}, {0, 1}


@pytest.fixture(autouse=True)
def no_worker_left():
    yield
    assert multiprocessing.active_children() == []


def _cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


def _stub(index, action=None):
    """A criterion that runs action (if any), then passes as `stub<index>`."""

    def criterion():
        if action is not None:
            action()
        return check(f"stub{index}", "a stand-in criterion", True)

    return criterion


def _stubs(monkeypatch, **actions):
    """Replace CRITERIA by as many stubs; actions maps 'at<i>' to what stub i does first."""
    monkeypatch.setattr(suite, "CRITERIA", [_stub(i, actions.get(f"at{i}")) for i in range(len(suite.CRITERIA))])


def _errors(output: str) -> list[str]:
    return [line for line in output.splitlines() if line.startswith("Error:")]


def _without_times(output: str) -> list[str]:
    """The echoed lines with each criterion's time cut off."""
    return [line.rsplit(" (", 1)[0] if line.startswith("[PASS]") else line for line in output.splitlines()]


def test_submission_order_is_a_permutation_heaviest_first():
    order = suite.submission_order()
    assert sorted(order) == list(range(len(suite.CRITERIA)))
    heavy = len(suite.HEAVIEST)
    assert [suite.CRITERIA[i] for i in order[:heavy]] == list(suite.HEAVIEST)
    assert order[heavy:] == sorted(order[heavy:])


def test_pool_is_handed_the_heaviest_first(monkeypatch):
    from concurrent.futures import ProcessPoolExecutor

    submitted = []
    original = ProcessPoolExecutor.submit

    def recorded(self, fn, *args, **kwargs):
        submitted.append(args[0])
        return original(self, fn, *args, **kwargs)

    _cpus(monkeypatch, TWO_CPUS)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", recorded)
    assert suite.run_suite()["passed"]
    assert submitted == suite.submission_order()
    assert [suite.CRITERIA[i] for i in submitted[:3]] == list(suite.HEAVIEST)


@pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS], ids=["one-cpu", "two-cpus"])
def test_report_is_byte_identical(monkeypatch, tmp_path, cpus):
    _cpus(monkeypatch, cpus)
    out = tmp_path / "suite.json"
    result = CliRunner().invoke(main, ["suite", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (GOLDEN / "suite.json").read_bytes()
    report = json.loads(out.read_text())
    passed = [line.split()[1] for line in result.output.splitlines() if line.startswith("[PASS]")]
    assert passed == [c["name"] for c in report["checks"]] and len(passed) == len(suite.CRITERIA)
    assert result.output.count("[SKIP] ") == report["skipped"]


def test_echo_is_the_same_on_one_cpu_and_two(monkeypatch):
    outputs = []
    for cpus in (ONE_CPU, TWO_CPUS):
        _cpus(monkeypatch, cpus)
        lines = []
        suite.run_suite(echo=lines.append)
        outputs.append(_without_times("\n".join(lines)))
    assert outputs[0] == outputs[1]


def test_one_cpu_starts_no_process(monkeypatch):
    def no_fork():
        raise AssertionError("a process was started")

    _cpus(monkeypatch, ONE_CPU)
    monkeypatch.setattr(os, "fork", no_fork)
    assert suite.run_suite()["passed"]
    # The patch is live: on two CPUs the pool forks, and the run stops.
    _cpus(monkeypatch, TWO_CPUS)
    with pytest.raises(AssertionError, match="a process was started"):
        suite.run_suite()


def test_no_fork_runs_in_process(monkeypatch):
    _cpus(monkeypatch, TWO_CPUS)
    monkeypatch.delattr(os, "fork")
    _stubs(monkeypatch)
    report = suite.run_suite()
    assert [c["name"] for c in report["checks"]] == [f"stub{i}" for i in range(len(suite.CRITERIA))]


def test_workers_do_not_outnumber_the_criteria(monkeypatch):
    pids = []
    _cpus(monkeypatch, range(64))
    _stubs(monkeypatch, at0=lambda: time.sleep(0.2))
    monkeypatch.setattr(suite, "CRITERIA", suite.CRITERIA[:2])
    original = os.fork

    def counted():
        pids.append(None)
        return original()

    monkeypatch.setattr(os, "fork", counted)
    assert suite.run_suite()["passed"]
    assert len(pids) == 2


def _memory_error():
    raise MemoryError("Unable to allocate 1.22 GiB")


def _cap_error():
    raise CapExceededError("the exact tensor of layer 0 (periodic) would need 1048576 amplitudes")


def _late(action, seconds=0.3):
    def run():
        time.sleep(seconds)
        action()

    return run


MEMORY_LINE = "Error: the suite checks do not fit in memory: Unable to allocate 1.22 GiB"
CAP_LINE = (
    "Error: the exact tensor of layer 0 (periodic) would need 1048576 amplitudes;"
    " the suite needs a larger GAUGE_MAX_DIM"
)


@pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS], ids=["one-cpu", "two-cpus"])
@pytest.mark.parametrize(
    "actions, line",
    [
        # The lower index raises later in time, yet its error is the one reported.
        ({"at2": _late(_memory_error), "at9": _cap_error}, MEMORY_LINE),
        ({"at2": _late(_cap_error), "at9": _memory_error}, CAP_LINE),
        ({"at4": _memory_error, "at11": _late(_cap_error)}, MEMORY_LINE),
    ],
    ids=["memory-before-cap", "cap-before-memory", "memory-first-in-time"],
)
def test_lowest_index_error_wins(monkeypatch, cpus, actions, line):
    _cpus(monkeypatch, cpus)
    _stubs(monkeypatch, **actions)
    result = CliRunner().invoke(main, ["suite"])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert _errors(result.output) == [line], result.output
    first = min(int(key[2:]) for key in actions)
    assert [line.split()[1] for line in result.output.splitlines() if line.startswith("[PASS]")] == [
        f"stub{i}" for i in range(first)
    ]


@pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS], ids=["one-cpu", "two-cpus"])
def test_error_keeps_its_type_and_message(monkeypatch, cpus):
    _cpus(monkeypatch, cpus)
    _stubs(monkeypatch, at3=_cap_error, at5=_memory_error)
    with pytest.raises(CapExceededError) as info:
        suite.run_suite()
    assert type(info.value) is CapExceededError
    assert str(info.value) == "the exact tensor of layer 0 (periodic) would need 1048576 amplitudes"


def test_criteria_not_started_are_cancelled(monkeypatch, tmp_path):
    # Criterion 0 raises at once while every other one takes 0.2 s: the pool
    # runs at most the ones already handed to a worker.
    _cpus(monkeypatch, TWO_CPUS)

    def mark(i):
        def run():
            (tmp_path / f"started{i}").touch()
            time.sleep(0.2)

        return run

    actions = {f"at{i}": mark(i) for i in range(1, len(suite.CRITERIA))}
    _stubs(monkeypatch, at0=_memory_error, **actions)
    with pytest.raises(MemoryError):
        suite.run_suite()
    started = len(list(tmp_path.glob("started*")))
    assert started <= 5 < len(suite.CRITERIA) - 1


@pytest.mark.parametrize(
    "death",
    [lambda: os._exit(1), lambda: os.kill(os.getpid(), signal.SIGKILL)],
    ids=["exit", "sigkill"],
)
def test_dead_worker_exits_two_with_one_error_line(monkeypatch, death):
    _cpus(monkeypatch, TWO_CPUS)
    _stubs(monkeypatch, at4=death)
    result = CliRunner().invoke(main, ["suite"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert _errors(result.output) == [
        "Error: a suite worker process ended before it returned its report (it exited or was killed,"
        " for instance by the out-of-memory killer)"
    ], result.output


def test_suite_never_imports_numpy_ma():
    # np.unique reaches numpy.ma through np.ma.is_masked; the suite counts without it.
    src = str(pathlib.Path(latgauge.__file__).resolve().parents[1])
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "from latgauge import suite\n"
        "assert suite.run_suite()['passed']\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
