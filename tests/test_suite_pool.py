"""suite.run_suite on forked workers and in one process.

The report must be the same bytes on one CPU and on two; one CPU must
start no process; an error must be the one a serial run would raise,
with the same `Error:` line; a worker that dies must exit 2; and no
worker may outlive the run.
"""

import contextlib
import fcntl
import json
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
    # No child at all, running or unreaped: waitpid finds none to wait for.
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def test_submission_order_is_longest_first():
    order = suite.submission_order()
    assert sorted(order) == list(range(len(suite.CRITERIA)))
    assert sorted(suite.LONGEST_FIRST, key=suite.CRITERIA.index) == suite.CRITERIA
    assert [suite.CRITERIA[i].__name__.removeprefix("criterion_") for i in order] == [
        "tensor_network",
        "ground_untwisted",
        "ground_twisted",
        "commutation",
        "frustration_free",
        "condensation",
        "emergent_symmetry",
        "string_order_mapping",
        "twisted_plaquette_product",
        "braiding",
        "confinement",
        "rainbow",
        "flux_fusion",
    ]


def test_unlisted_criteria_come_last_in_criteria_order(monkeypatch):
    _stubs(monkeypatch)
    assert suite.submission_order() == list(range(len(suite.CRITERIA)))
    monkeypatch.setattr(suite, "CRITERIA", [*suite.CRITERIA[:2], suite.criterion_braiding, suite.CRITERIA[3]])
    assert suite.submission_order() == [2, 0, 1, 3]


def test_workers_take_the_longest_first(monkeypatch, tmp_path):
    # Each worker holds a lock from before it reads a task until it has
    # logged it, so the log holds the order in which the tasks were taken.
    log, lock = tmp_path / "taken", tmp_path / "lock"
    fork, timed = os.fork, suite._timed
    held = {}

    def locked_fork():
        pid = fork()
        if pid == 0:
            held["fd"] = os.open(lock, os.O_CREAT | os.O_RDWR)
            fcntl.flock(held["fd"], fcntl.LOCK_EX)
        return pid

    def logged(index):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {index}\n")
        fcntl.flock(held["fd"], fcntl.LOCK_UN)
        try:
            return timed(index)
        finally:
            fcntl.flock(held["fd"], fcntl.LOCK_EX)

    _cpus(monkeypatch, TWO_CPUS)
    monkeypatch.setattr(os, "fork", locked_fork)
    monkeypatch.setattr(suite, "_timed", logged)
    assert suite.run_suite()["passed"]
    pids, taken = zip(*(map(int, line.split()) for line in log.read_text().splitlines()))
    assert list(taken) == suite.submission_order()
    assert [suite.CRITERIA[i] for i in taken] == list(suite.LONGEST_FIRST)
    assert len(set(pids)) == 2  # both workers took criteria


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
    # The patch is live: on two CPUs the runner forks, and the run stops.
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


def test_worker_traceback_comes_back_as_a_note(monkeypatch):
    _cpus(monkeypatch, TWO_CPUS)
    _stubs(monkeypatch, at3=_cap_error)
    with pytest.raises(CapExceededError) as info:
        suite.run_suite()
    (note,) = info.value.__notes__
    assert note.startswith("Traceback") and "in _cap_error" in note


def test_criteria_not_started_are_cancelled(monkeypatch, tmp_path):
    # Criterion 0 raises at once while every other one takes 0.2 s: the
    # workers are killed with at most the ones they already took started.
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


class _Deadline(Exception):
    pass


@contextlib.contextmanager
def _deadline(seconds):
    """Raise _Deadline in this process once the block has run `seconds`; forked workers inherit no timer."""

    def expire(signum, frame):
        raise _Deadline(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_large_reports_come_back_whole(monkeypatch):
    # Four reports of about 1 MB each, far past a pipe's capacity, from both workers at once.
    def large(i):
        return lambda: check(f"large{i}", "a stand-in criterion", True, detail=[f"{i}:{k}" for k in range(2**17)])

    monkeypatch.setattr(suite, "CRITERIA", [large(i) for i in range(4)])
    reports = []
    for cpus in (ONE_CPU, TWO_CPUS):
        _cpus(monkeypatch, cpus)
        with _deadline(30):
            reports.append(suite.run_suite())
    assert reports[1] == reports[0]
    assert [c["detail"][-1] for c in reports[1]["checks"]] == [f"{i}:{2**17 - 1}" for i in range(4)]


class _Unpicklable(Exception):
    """An exception that holds a lambda, which pickle refuses."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


class _Unbuildable(Exception):
    """An exception that pickles but cannot be rebuilt: its args hold one value, its constructor wants two."""

    def __init__(self, what, why):
        super().__init__(f"{what} {why}")


@pytest.mark.parametrize(
    "error, message",
    [
        (lambda: _Unpicklable("the disk is on fire"), "_Unpicklable: the disk is on fire"),
        (lambda: _Unbuildable("the disk", "is on fire"), "_Unbuildable: the disk is on fire"),
    ],
    ids=["unpicklable", "unbuildable"],
)
def test_error_that_cannot_be_sent_is_named(monkeypatch, error, message):
    def raise_it():
        raise error()

    _cpus(monkeypatch, TWO_CPUS)
    _stubs(monkeypatch, at3=raise_it)
    with _deadline(30), pytest.raises(RuntimeError, match=message):
        suite.run_suite()


def _sleepy(seconds):
    """Stubs 1 on sleep `seconds` each, so both workers are busy for a while."""
    return {f"at{i}": lambda: time.sleep(seconds) for i in range(1, len(suite.CRITERIA))}


def test_echo_that_raises_leaves_no_worker(monkeypatch):
    def echo(line):
        raise BrokenPipeError("the reader of the report went away")

    _cpus(monkeypatch, TWO_CPUS)
    _stubs(monkeypatch, **_sleepy(0.2))
    with _deadline(30), pytest.raises(BrokenPipeError):
        suite.run_suite(echo=echo)


def test_interrupt_while_waiting_leaves_no_worker(monkeypatch):
    # A signal handler that raises while run_suite waits, as Ctrl-C raises KeyboardInterrupt.
    _cpus(monkeypatch, TWO_CPUS)
    _stubs(monkeypatch, **_sleepy(5))
    start = time.perf_counter()
    with pytest.raises(_Deadline), _deadline(0.3):
        suite.run_suite()
    assert time.perf_counter() - start < 3


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
