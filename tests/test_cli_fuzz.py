"""Fuzzing the command line: every input ends in exit 0, 1 or 2, never a traceback.

Configurations are small (cyclic orders up to 3, at most two of them, up
to three sites per row, at most two layers) so each run is cheap; options
are sometimes left out so the defaults are exercised too.  Confinement
needs a torus of at least 4x8, so confine spec files may ask for one.
Invalid values (order 1, malformed twists, misplaced factors) are drawn
on purpose but less often than valid ones.  Reports of runs that exit 0
or 1 must pass the schema check, and a run exits 0 exactly when no check
of its report failed.
"""

import json
import math

from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from latgauge.cli import main
from report_schema import validate_report

ORDERS = st.lists(st.sampled_from([2, 2, 3, 3, 1]), min_size=1, max_size=2)
GROUP = ORDERS.map(lambda o: ",".join(map(str, o)))
SIZE = st.integers(1, 3)
TWIST = st.sampled_from(["p12=1", "p12=1", "1", "p12=2", "p21=1", "x"])
SUBGROUP = st.sampled_from(["e", "all", "1", "0;1", "1,1", "x"])


def opt(flag, values):
    """Either no option at all or the flag with one drawn value."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def command(name, *parts, env=st.just({})):
    """(args, files, env) with the parts' argument lists concatenated after the name."""
    return st.tuples(env, *parts).map(lambda drawn: ([name] + sum(drawn[1:], []), {}, drawn[0]))


COMPOSE = command(
    "compose",
    GROUP.map(lambda g: ["--group", g]),
    opt("--layers", st.integers(0, 2)),
    opt("--n", SIZE),
    opt("--bc", st.sampled_from(["periodic", "open"])),
    opt("--twist-even", TWIST),
    opt("--twist-odd", TWIST),
    # A small amplitude cap keeps every stack cheap; larger ones exit 2.
    env=st.sampled_from([65536, 64, 0]).map(lambda cap: {"GAUGE_MAX_DIM": str(cap)}),
)
CODE = command(
    "code",
    GROUP.map(lambda g: ["--group", g]),
    opt("--n", SIZE),
    opt("--m", st.integers(1, 4)),
    opt("--bc", st.sampled_from(["torus", "cylinder"])),
    opt("--twist-even", TWIST),
    opt("--twist-odd", TWIST),
    opt("--beta", TWIST),
    opt("--subgroup", SUBGROUP),
    opt("--orientation", st.sampled_from(["standard", "reflected"])),
)
BOUNDARY = command(
    "boundary",
    GROUP.map(lambda g: ["--group", g]),
    SUBGROUP.map(lambda s: ["--subgroup", s]),
    opt("--n", SIZE),
    opt("--m", st.integers(1, 4)),
    opt("--beta", TWIST),
)
TN = command(
    "tn", GROUP.map(lambda g: ["--group", g]), opt("--n", SIZE), st.sampled_from([[], ["--mpo-layers"]])
)
CONFINE_FLAGS = command(
    "confine",
    opt("--group", GROUP),
    opt("--twist-even", TWIST),
    opt("--n", SIZE),
    opt("--m", st.integers(1, 4)),
    opt("--element", st.sampled_from(["1,0", "0,1", "1", "x"])),
)
SPEC = st.fixed_dictionaries(
    {
        "group": ORDERS,
        "n": st.integers(1, 4),
        "m": st.sampled_from([1, 2, 4, 8]),
        "bc": st.sampled_from(["torus", "torus", "cylinder", "tours"]),
    },
    optional={"twist_even": st.sampled_from(["p12=1", [1], [2]])},
)
CONFINE_SPEC = SPEC.map(lambda spec: (["confine", "--spec", "spec.json"], {"spec.json": spec}, {}))


@st.composite
def raw_factor(draw, spec):
    """A cyclic-shift factor, usually sized and placed to fit the spec's lattice."""
    size = modulus = 1
    for order in spec["group"]:
        size *= order
        modulus = modulus * order // math.gcd(modulus, order)
    dim = draw(st.sampled_from([size, size, 2]))
    j = draw(st.integers(0, spec["m"]))
    x2 = j % 2 + 2 * draw(st.integers(0, spec["n"]))
    return {
        "site": [j, x2],
        "kind": draw(st.sampled_from(["vertex_dual" if j % 2 == 0 else "edge_group", "edge_group"])),
        "op": {
            "dim": dim,
            "perm": [(i + 1) % dim for i in range(dim)],
            "phase": [0] * dim,
            "modulus": draw(st.sampled_from([modulus, modulus, 2])),
        },
    }


@st.composite
def anyons(draw):
    spec = draw(SPEC)
    factors = draw(st.lists(raw_factor(spec), min_size=1, max_size=2))
    files = {"spec.json": spec, "ops.json": [{"name": "raw", "factors": factors}]}
    return ["anyons", "--spec", "spec.json", "--op-file", "ops.json"], files, {}


Z3_SPEC = {"group": [3], "n": 2, "m": 2}
EDGE_SHIFT_Z2 = {"dim": 2, "perm": [1, 0], "phase": [0, 0], "modulus": 2}


def run(args, files, env):
    runner = CliRunner()
    with runner.isolated_filesystem():
        for name, content in files.items():
            with open(name, "w", encoding="utf-8") as fh:
                json.dump(content, fh)
        return runner.invoke(main, args, env=env)


@given(case=st.one_of(COMPOSE, CODE, BOUNDARY, TN, CONFINE_FLAGS, CONFINE_SPEC, anyons()))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(case=(["tn", "--group", "2", "--n", "8", "--mpo-layers"], {}, {}))
@example(
    case=(
        ["confine", "--spec", "spec.json"],
        {"spec.json": {"group": [2, 2], "n": 4, "m": 8, "bc": "tours", "twist_even": [1]}},
        {},
    )
)
@example(case=(["compose", "--group", "2", "--tol", "-1"], {}, {}))
@example(
    case=(
        ["anyons", "--spec", "spec.json", "--op-file", "ops.json"],
        {
            "spec.json": Z3_SPEC,
            "ops.json": [{"factors": [{"site": [1, 1], "kind": "edge_group", "op": EDGE_SHIFT_Z2}]}],
        },
        {},
    )
)
def test_cli_exit_codes(case):
    args, files, env = case
    result = run(args, files, env)
    assert result.exit_code in (0, 1, 2), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (args, result.exception)
    assert "Traceback" not in result.output
    if result.exit_code in (0, 1):
        text = result.output
        report = json.loads(text[text.index("{"):])
        validate_report(report)
        # A skipped check never changes the exit code; only a failed one does.
        assert (result.exit_code == 0) == all(c["status"] != "failed" for c in report["checks"]), args
