"""Command line front end.

Every subcommand validates its configuration, runs the requested checks,
prints a short human summary, and writes (or prints) a JSON report with a
versioned schema:

    {"schema_version": 2, "command": ..., "config": {...},
     "checks": [{"name", "claim", "status", "passed", ...}], "passed": bool}

A check's `status` is "passed", "failed" or "skipped", and its `passed`
is true exactly when the status is "passed".  A check is skipped, with a
`reason`, when its configuration is past one of the claim's own size
limits (see claims.py); the summary prints it as SKIP.  The report's
`passed` is true when no check failed.  Exit codes: 0 no check failed, 1
at least one check failed, 2 bad configuration.  Reports contain no
timings or other nondeterministic fields, so identical configurations
produce byte-identical output.  GAUGE_MAX_DIM sets the amplitude cap
(default 2**24), which gauging.check_cap alone compares, in sites, term
factors, group-table entries, overlapping term pairs or normal-form cells,
before anything is built.  A value that is
not a positive integer, a cap too small for the checks, and a MemoryError
in any subcommand (a raised cap can admit more than the machine holds)
each exit 2 with one `Error:` line, and so does a `suite` worker process
that dies.  A code spec file's `group` is a JSON
list of integers, and its `n` and `m` are JSON integers.  STATE_TOL is
`compose`'s `tol`.
"""

from __future__ import annotations

import contextlib
import json
import math
import re
import sys

import click
import numpy as np

from . import claims
from .boundary import build_fixed_point_state
from .claims import check, envelope
from .excitations import StringSpec, string_operator, syndrome
from .gauging import STATE_TOL, CapExceededError, check_cap, dimension_cap, layer_stack
from .groups import Cocycle, GroupSpec, is_subgroup
from .lattice import CodeSpec, Lattice2D, build_boundary_terms, build_bulk_stabilizers, logical_operators
from .operators import MonomialOperator, ProductOperator, SiteKind
from .suite import WorkerDiedError, run_suite
from .tensors import mpo_layers


class ConfigError(click.ClickException):
    exit_code = 2


@contextlib.contextmanager
def building_config():
    """Report a ValueError raised while building specs or inputs as a bad configuration.

    Wrap only construction, never the checks: a check that raises must
    not be mistaken for a bad configuration.  GeometryError is a
    ValueError.
    """
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


class _CheckedCommand(click.Command):
    """Exit 2 on a bad GAUGE_MAX_DIM once the arguments are parsed (so --help works), on a cap or memory
    overrun, and when a suite worker process dies."""

    def invoke(self, ctx):
        with building_config():
            dimension_cap()
        try:
            return super().invoke(ctx)
        except (CapExceededError, WorkerDiedError) as exc:
            raise ConfigError(str(exc)) from exc
        except MemoryError as exc:  # a raised GAUGE_MAX_DIM can admit a configuration past the machine's memory
            raise ConfigError(f"the {ctx.info_name} checks do not fit in memory: {str(exc) or 'MemoryError'}") from exc


def parse_group(text: str) -> GroupSpec:
    try:
        orders = tuple(int(x) for x in text.split(","))
        return GroupSpec(orders)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad group {text!r}: expected comma separated orders >= 2 ({exc})")


def parse_twist(group: GroupSpec, text: str | None) -> Cocycle | None:
    """Cocycle from 'p12=1,p13=0' pairs or row-major upper-triangle entries."""
    if text is None or text.strip() == "":
        return None
    k = len(group.orders)
    rows = [[0] * k for _ in range(k)]
    text = text.strip()
    try:
        if "=" in text:
            for item in text.split(","):
                m = re.fullmatch(r"\s*p(\d)(\d)\s*=\s*(-?\d+)\s*", item)
                if not m:
                    raise ValueError(f"bad entry {item!r}")
                i, j, v = int(m.group(1)) - 1, int(m.group(2)) - 1, int(m.group(3))
                if not 0 <= i < j < k:
                    raise ValueError(f"indices out of range in {item!r}")
                rows[i][j] = v
        else:
            values = [int(x) for x in text.split(",")]
            slots = [(i, j) for i in range(k) for j in range(i + 1, k)]
            if len(values) != len(slots):
                raise ValueError(f"expected {len(slots)} row-major entries, got {len(values)}")
            for (i, j), v in zip(slots, values):
                rows[i][j] = v
        cocycle = Cocycle(group, tuple(tuple(r) for r in rows))
    except ValueError as exc:
        raise ConfigError(f"bad twist {text!r}: {exc}")
    return None if cocycle.is_trivial else cocycle


def parse_subgroup(group: GroupSpec, text: str | None):
    if text is None:
        return None
    text = text.strip()
    if text in ("e", "trivial"):
        return (group.identity(),)
    if text in ("all", "G"):
        return tuple(group.elements())
    try:
        elems = tuple(group.element(tuple(int(x) for x in part.split(","))) for part in text.split(";"))
    except ValueError as exc:
        raise ConfigError(f"bad subgroup {text!r}: {exc}")
    if not is_subgroup(group, elems):
        raise ConfigError(f"subgroup {text!r} is not closed under the group law")
    return elems


def emit(report: dict, out: str | None) -> None:
    payload = json.dumps(report, indent=2, sort_keys=True, default=_json_default)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        click.echo(f"report written to {out}")
    else:
        click.echo(payload)


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def finish(report: dict, out: str | None) -> None:
    for chk in report["checks"]:
        reason = f": {chk['reason']}" if chk["status"] == "skipped" else ""
        click.echo(f"[{chk['status'][:4].upper()}] {chk['name']}{reason}")
    emit(report, out)
    sys.exit(0 if report["passed"] else 1)


@click.group()
def main() -> None:
    """Exact checks for iteratively gauged 2D codes."""


main.command_class = _CheckedCommand


@main.command()
@click.option("--group", "group_text", required=True, help="cyclic orders, e.g. 2,2")
@click.option("--layers", "num_layers", type=int, default=2, show_default=True)
@click.option("--n", type=int, default=2, show_default=True, help="sites per row")
@click.option("--bc", type=click.Choice(["periodic", "open"]), default="periodic", show_default=True)
@click.option("--twist-even", default=None, help="cocycle for even layers, p12=1 or row-major")
@click.option("--twist-odd", default=None, help="cocycle for odd layers")
@click.option("--out", default=None, help="report path (stdout when omitted)")
def compose(group_text, num_layers, n, bc, twist_even, twist_odd, out):
    """Compose gauging layers and verify all emergent identities."""
    group = parse_group(group_text)
    te = parse_twist(group, twist_even)
    to = parse_twist(group, twist_odd)
    if num_layers < 1:
        raise ConfigError("need at least one layer")
    with building_config():
        layers = layer_stack(group, n, num_layers, bc, twist_even=te, twist_odd=to)
    state, checks = claims.stack_symmetries(layers)
    for layer in layers:
        checks += claims.emergent_symmetry(layer)
    config = {
        "group": list(group.orders),
        "layers": num_layers,
        "n": n,
        "bc": bc,
        "twist_even": twist_even,
        "twist_odd": twist_odd,
        "tol": STATE_TOL,
    }
    dimensions = {"amplitudes": math.prod(state.dims), "sites": len(state.site_ids)}
    finish(envelope("compose", config, checks, dimensions=dimensions), out)


@main.command()
@click.option("--group", "group_text", required=True)
@click.option("--n", type=int, default=2, show_default=True)
@click.option("--m", type=int, default=2, show_default=True)
@click.option("--bc", type=click.Choice(["torus", "cylinder"]), default="torus", show_default=True)
@click.option("--twist-even", default=None)
@click.option("--twist-odd", default=None)
@click.option("--beta", default=None, help="boundary cocycle (cylinder only)")
@click.option("--subgroup", default=None, help="bottom boundary subgroup (cylinder only), e.g. 'e' or '0,0;1,1'")
@click.option("--orientation", type=click.Choice(["standard", "reflected"]), default="standard", show_default=True)
@click.option("--report", "out", default=None, help="report path")
def code(group_text, n, m, bc, twist_even, twist_odd, beta, subgroup, orientation, out):
    """Build the 2D code, check commutation, and compute the ground space."""
    group = parse_group(group_text)
    with building_config():
        spec = _code_spec(group, n, m, bc, twist_even, twist_odd, beta, subgroup, orientation)
        boundary_terms = []
        if bc == "cylinder":
            boundary_terms = build_boundary_terms(spec, "bottom") + build_boundary_terms(spec, "top")
        else:
            # lattice.joint_eigenspace_dimension's int64 matrix: a row per term and a spare, 2k columns per site.
            rows, columns = n * m * group.size + 1, 2 * len(group.orders) * n * m
            check_cap("the ground-space normal form, one amplitude per cell,", rows, 1, columns)
    terms = build_bulk_stabilizers(spec)
    checks = claims.commutation(terms, boundary_terms)
    ground = None
    logicals = []
    if bc == "torus":
        checks += claims.ground_dimension(spec)
        ground = checks[-1]["normal_form"]
        logicals = [
            {"name": l.name, "commutes": l.commutes, "witness": l.witness}
            for l in logical_operators(spec)
        ]
    violations = [v for chk in checks for v in chk.get("violations", [])]
    config = {
        "group": list(group.orders),
        "n": n,
        "m": m,
        "bc": bc,
        "twist_even": twist_even,
        "twist_odd": twist_odd,
        "beta": beta,
        "subgroup": subgroup,
        "orientation": orientation,
    }
    report = envelope(
        "code",
        config,
        checks,
        generators=len(terms) + len(boundary_terms),
        commutation_matrix_ok=checks[0]["passed"],
        ground_dimension=ground,
        logicals=logicals,
        violations=violations,
    )
    finish(report, out)


def _code_spec(group, n, m, bc, twist_even, twist_odd, beta, subgroup, orientation) -> CodeSpec:
    """The code of `gauge code` and of a spec file, from the texts of its twists and subgroup.

    beta and subgroup set the bottom boundary, so only a cylinder takes
    them.  A bad value raises ValueError, or ConfigError from a parser.
    """
    if bc not in ("torus", "cylinder"):
        raise ValueError(f"bc must be 'torus' or 'cylinder', not {bc!r}")
    if bc == "torus" and (beta is not None or subgroup is not None):
        raise ValueError("beta and subgroup set the cylinder's bottom boundary; a torus has none")
    lattice = _lattice(group, n, m, "periodic" if bc == "torus" else "open")  # before a subgroup's |H|**2 closure check
    twists = [parse_twist(group, text) for text in (twist_even, twist_odd, beta)]
    sub = parse_subgroup(group, subgroup)
    return CodeSpec(lattice, *twists, subgroup_bottom=sub, orientation=orientation)


# Placed as arrays, the terms trace a peak of 106, 58 and 40 bytes per stored
# factor while they are built (on the Z2 100x100, Z2xZ2 50x50 and Z3xZ3 30x30
# tori, constructors warm): at most seven 16-byte amplitudes.
TERM_FACTOR_AMPLITUDES = 7
# Term pairs that share a site, per plaquette and per |G|**2: check_all_commute
# counts under 4.5 (n m (|G| - 1)**2 pairs on Z7, Z11 and Z17 tori up to 6x6).
PAIRS_PER_PLAQUETTE = 5


def _lattice(group, n, m, vertical) -> Lattice2D:
    """Lattice2D once check_cap allows what its code reads, before any of it is built.

    Its terms' factors (n*m plaquettes, |G| labels, up to 4 factors each),
    the group's add and pair tables (|G|**2 entries each), and the term
    pairs that share a site, which check_all_commute compares.
    """
    check_cap(
        f"the stabilizer terms, {TERM_FACTOR_AMPLITUDES} amplitudes per factor,",
        group.size, 1, TERM_FACTOR_AMPLITUDES * 4 * n * m,
    )
    check_cap("the group's add and pair tables, one amplitude per entry,", group.size, 2, 2)
    check_cap("the overlapping term pairs, one amplitude per pair,", group.size, 2, PAIRS_PER_PLAQUETTE * n * m)
    return Lattice2D(group, n, m, vertical)


def _load_code_spec(path: str) -> CodeSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("a code spec is a JSON object")

        def text_of(key):
            raw = data.get(key)
            if raw is not None and not isinstance(raw, (str, list)):
                raise ValueError(f"{key} must be a string, a list or null")
            return ",".join(str(x) for x in raw) if isinstance(raw, list) else raw

        subgroup = data.get("subgroup")
        if subgroup is not None and not isinstance(subgroup, str):
            raise ValueError("subgroup must be a string such as 'e' or '0,0;1,1'")
        orders, n, m = data["group"], data["n"], data["m"]
        if not isinstance(orders, list) or not all(type(v) is int for v in (*orders, n, m)):
            raise ValueError("group must be a JSON list of integers, and n and m JSON integers")
        return _code_spec(
            GroupSpec(tuple(orders)), n, m, data.get("bc", "torus"),
            text_of("twist_even"), text_of("twist_odd"), text_of("beta"), subgroup,
            data.get("orientation", "standard"),
        )
    except (OSError, KeyError, TypeError, ValueError, CapExceededError) as exc:
        raise ConfigError(f"bad code spec {path!r}: {exc}")


def _op_from_json(spec: CodeSpec, data: dict) -> ProductOperator:
    group = spec.group
    if "string" in data:
        s = data["string"]
        label_exps, path = tuple(s["label"]), tuple(tuple(p) for p in s["path"])
        if not all(type(v) is int for v in (*label_exps, *(x for p in path for x in p))):
            raise ValueError("label and path entries must be integers")
        family = s.get("family", "group")
        if family not in ("group", "dual"):
            raise ValueError(f"string family must be 'group' or 'dual', not {family!r}")
        label = group.element(label_exps) if family == "group" else group.character(label_exps)
        sspec = StringSpec(path, label, s["flavor"])
        return string_operator(spec, sspec)
    pairs = [_factor_from_json(group, item) for item in data["factors"]]
    sites = dict(spec.lattice.sites())
    for site, mono in pairs:
        if sites.get(site) != mono.kind:
            raise ValueError(f"site {site!r} is not a {mono.kind.value} site of the lattice")
    return ProductOperator.from_factors(pairs, group.phase_modulus)


def _factor_from_json(group: GroupSpec, item: dict) -> tuple:
    """(site, factor) of one op-file factor entry, its perm and phase read as a Weyl operator of group.

    Entries must be ints, not bools, and the lengths are checked before
    dim sizes anything.  |0> goes to w**c |a>, so a is perm[0], c is
    phase[0] and chi the character phase - c; anything else raises
    ValueError.  A list site becomes a tuple.
    """
    site = tuple(item["site"]) if isinstance(item["site"], list) else item["site"]
    data = item["op"]
    dim, perm, phase, modulus = data["dim"], tuple(data["perm"]), tuple(data["phase"]), data["modulus"]
    if not all(type(v) is int for v in (dim, modulus, *perm, *phase)):
        raise ValueError("dim, modulus, perm and phase entries must be integers")
    if len(perm) != dim or sorted(perm) != list(range(dim)):
        raise ValueError("perm must be a bijection on basis indices")
    if len(phase) != dim:
        raise ValueError("one phase exponent per basis state required")
    if (dim, modulus) != (group.size, group.phase_modulus):
        raise ValueError(f"factor at {site!r} needs dim {group.size} and modulus {group.phase_modulus}")
    a, c = perm[0], phase[0] % modulus
    try:
        if perm != tuple(group.add[a].tolist()):
            raise ArithmeticError
        chi = group.character_of([(p - c) % modulus for p in phase])
    except ArithmeticError:
        raise ValueError(f"factor at {site!r} is not a Weyl operator of the group") from None
    return site, MonomialOperator(group, a, group.index_of(chi.exps), c, SiteKind(item["kind"]))


@main.command()
@click.option("--spec", "spec_path", required=True, help="code spec JSON")
@click.option("--op-file", "op_path", required=True, help="operators JSON")
@click.option("--out", default=None)
def anyons(spec_path, op_path, out):
    """Syndrome tables for a list of operators."""
    spec = _load_code_spec(spec_path)
    try:
        with open(op_path, encoding="utf-8") as fh:
            ops_data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad op file {op_path!r}: {exc}")
    if not isinstance(ops_data, list):
        raise ConfigError(f"bad op file {op_path!r}: it must hold a JSON list of operators")
    terms = build_bulk_stabilizers(spec)
    tables = []
    for k, data in enumerate(ops_data):
        try:
            op = _op_from_json(spec, data)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad operator entry {k}: {exc}")
        syn = syndrome(terms, op)
        tables.append({"name": data.get("name", f"op{k}"), **syn.as_json()})
    checks = [check("syndromes_computed", "every operator has a syndrome table", True, count=len(tables))]
    finish(envelope("anyons", {"spec": spec_path, "op_file": op_path}, checks, syndromes=tables), out)


@main.command()
@click.option("--group", "group_text", default=None)
@click.option("--twist-even", default=None, help="nontrivial even-layer cocycle")
@click.option("--spec", "spec_path", default=None, help="code spec JSON instead of flags")
@click.option("--n", type=int, default=4, show_default=True)
@click.option("--m", type=int, default=8, show_default=True)
@click.option("--element", default=None, help="confined charge, e.g. 1,0")
@click.option("--out", default=None)
def confine(group_text, twist_even, spec_path, n, m, element, out):
    """Confinement analysis for a twisted code."""
    if spec_path is not None:
        spec = _load_code_spec(spec_path)
        group = spec.group
    else:
        if group_text is None or twist_even is None:
            raise ConfigError("provide either --spec or both --group and --twist-even")
        group = parse_group(group_text)
        alpha = parse_twist(group, twist_even)
        if alpha is None:
            raise ConfigError("confinement needs a nontrivial even-layer twist")
        with building_config():
            spec = CodeSpec(_lattice(group, n, m, "periodic"), twist_even=alpha)
    g = None
    if element is not None:
        try:
            g = group.element(tuple(int(x) for x in element.split(",")))
        except ValueError as exc:
            raise ConfigError(f"bad element {element!r}: {exc}")
    try:
        rep, checks = claims.confinement(spec, g)
    except ValueError as exc:
        raise ConfigError(str(exc))
    config = {"group": list(group.orders), "twist_even": twist_even, "spec": spec_path,
              "n": spec.lattice.n, "m": spec.lattice.m, "element": element}
    finish(envelope("confine", config, checks, single_violations=rep["single_violations"]), out)


@main.command()
@click.option("--group", "group_text", required=True)
@click.option("--subgroup", required=True, help="unbroken subgroup of the 1D input")
@click.option("--n", type=int, default=4, show_default=True)
@click.option("--m", type=int, default=4, show_default=True)
@click.option("--beta", default=None, help="boundary cocycle; a nontrivial one exits 2")
@click.option("--out", default=None)
def boundary(group_text, subgroup, n, m, beta, out):
    """Surviving boundary terms and anyon condensation for a 1D input phase."""
    group = parse_group(group_text)
    with building_config():
        check_cap("the chain", group.size, n)
        lattice = _lattice(group, n, m, "open")
    # After the caps: checking a subgroup's closure takes |H|**2 products.
    sub = parse_subgroup(group, subgroup)
    if parse_twist(group, beta) is not None:
        raise ConfigError("a nontrivial --beta needs symmetry-protected fixed points, which are not built yet")
    with building_config():
        chain = build_fixed_point_state(group, sub, n)
        spec = CodeSpec(lattice)
    table, checks = claims.boundary_condensation(spec, chain, sub)
    report = envelope(
        "boundary",
        {"group": list(group.orders), "subgroup": subgroup, "n": n, "m": m, "beta": beta},
        checks,
        surviving=table["surviving"],
        condensation={
            "group_anyons": {k: v["condenses"] for k, v in table["group_anyons"].items()},
            "dual_anyons": {k: v["condenses"] for k, v in table["dual_anyons"].items()},
        },
        raw_expectations=table["raw_expectations"],
    )
    finish(report, out)


@main.command()
@click.option("--group", "group_text", required=True)
@click.option("--mpo-layers", "check_mpo", is_flag=True, help="also compare MPO layers with the dense maps")
@click.option("--n", type=click.IntRange(min=2), default=2, show_default=True, help="sites per row")
@click.option("--out", default=None)
def tn(group_text, check_mpo, n, out):
    """Tensor identities and MPO equivalence."""
    group = parse_group(group_text)
    checks = claims.tensor_identities(group, mpo_layers(group, n) if check_mpo else ())
    finish(envelope("tn", {"group": list(group.orders), "n": n, "mpo_layers": bool(check_mpo)}, checks), out)


@main.command()
@click.option("--out", default=None)
def suite(out):
    """Run the complete verification battery."""
    try:
        report = run_suite(echo=click.echo)
    except CapExceededError as exc:
        raise ConfigError(f"{exc}; the suite needs a larger GAUGE_MAX_DIM")
    emit(report, out)
    sys.exit(0 if report["passed"] else 1)


if __name__ == "__main__":
    main()
