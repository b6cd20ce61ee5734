"""Spans around latgauge's public functions, installed from outside the library.

A :class:`Tracer` replaces each target function with a wrapper in every
``latgauge`` module namespace (and module-level list) that holds it, so a
call made through any import path is recorded.  Spans stay in memory until
:meth:`Tracer.write` dumps them; :meth:`Tracer.uninstall` puts the original
objects back and :meth:`Tracer.check_restored` proves it.

Every ``<name>.s`` metric is self time: a span's duration minus the time
covered by its child spans.  Counts are taken from arguments and return
values at the same boundary.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    alias: str | None = None
    counts: dict | None = None


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module`` is relative to the latgauge package.

    ``attr`` is a function name or ``Class.method``.  ``counts`` maps
    (args, result, exc) to a dict of work counts; ``alias`` maps args to a
    second metric prefix that also receives the span's self time.
    """

    module: str
    attr: str
    name: str
    counts: Callable | None = None
    alias: Callable | None = None


def _ground_counts(args, result, exc):
    from latgauge.lattice import CapExceededError

    if isinstance(exc, CapExceededError):
        return {"skipped": 1}
    spec = args[0]
    return {"assignments": spec.group.size ** len(spec.lattice.plaquette_centers())}


def _dense_counts(args, result, exc):
    return None if exc else {"amplitudes": args[0].lattice.total_dim}


def _len_counts(key):
    return lambda args, result, exc: None if exc else {key: len(result)}


def _key_counts(key, field):
    return lambda args, result, exc: None if exc else {key: result[field]}


def _state_apply_counts(args, result, exc):
    # Computed traffic: each site factor reads and writes the whole array once.
    state, op = args[0], args[1]
    return {"bytes": 2 * state.amps.nbytes * len(op.factors)}


def _map_apply_counts(args, result, exc):
    return None if exc else {"amplitudes_out": result.amps.size}


def _exact_counts(args, result, exc):
    return None if exc else {"entries": result.counts.size}


TARGETS = (
    Target("lattice", "ground_space_dimension", "lattice.ground_space_dimension", _ground_counts),
    Target("lattice", "ground_space_dimension_dense", "lattice.ground_space_dimension_dense", _dense_counts),
    Target("lattice", "build_bulk_stabilizers", "lattice.build_bulk_stabilizers", _len_counts("terms")),
    Target("lattice", "check_all_commute", "lattice.check_all_commute", _key_counts("pairs", "pairs_checked")),
    Target("lattice", "logical_operators", "lattice.logical_operators"),
    Target("operators", "commutation_phase", "operators.commutation_phase"),
    Target("operators", "StateVector.apply", "operators.StateVector.apply", _state_apply_counts),
    Target("excitations", "confinement_report", "excitations.confinement_report"),
    Target("excitations", "syndrome", "excitations.syndrome"),
    Target(
        "gauging",
        "GaugingMap.apply",
        "gauging.GaugingMap.apply",
        _map_apply_counts,
        alias=lambda args: f"gauging.layer{args[0].layer.index}",
    ),
    Target(
        "gauging",
        "verify_local_symmetry",
        "gauging.verify_local_symmetry",
        _key_counts("ops_checked", "num_checked"),
    ),
    Target("gauging", "GaugingMap.exact_matrix", "gauging.GaugingMap.exact_matrix", _exact_counts),
    Target("gauging", "verify_emergent_symmetry", "gauging.verify_emergent_symmetry"),
    Target("gauging", "verify_string_order_mapping", "gauging.verify_string_order_mapping"),
    Target("cyclotomic", "mono_mul_left", "cyclotomic.mono_mul"),
    Target("cyclotomic", "mono_mul_right", "cyclotomic.mono_mul"),
    Target("tensors", "contract_mpo_layer", "tensors.contract_mpo_layer"),
    Target("tensors", "contract_pepes", "tensors.contract_pepes"),
    Target("tensors", "pull_through_check", "tensors.pull_through_check"),
    Target("boundary", "condensation_table", "boundary.condensation_table"),
)


def _criterion_targets():
    """One target per suite criterion; the span takes the report's name."""
    from latgauge import suite

    return tuple(
        Target("suite", fn.__name__, "suite." + fn.__name__.removeprefix("criterion_"))
        for fn in suite.CRITERIA
    )


def _resolve(target: Target):
    """(owner, key, original) for a target; owner is a module or class."""
    owner = importlib.import_module(f"latgauge.{target.module}")
    *path, key = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, key, vars(owner)[key]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, start, end, alias=None, counts=None) -> None:
        self._stack.pop()
        self.spans[idx] = Span(name, start, end, parent, self.run_id, alias, counts)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a block."""
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, start, time.perf_counter())

    def _wrap(self, fn, target: Target):
        tracer = self
        is_criterion = target.module == "suite"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent = tracer._open()
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                name = target.name
                if is_criterion and isinstance(result, dict) and "name" in result:
                    name = f"suite.{result['name']}"
                counts = target.counts(args, result, exc) if target.counts else None
                alias = target.alias(args) if target.alias else None
                tracer._close(idx, parent, name, start, end, alias, counts)

        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever a latgauge namespace or list holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for target in TARGETS + _criterion_targets():
            owner, key, original = _resolve(target)
            wrapper = self._wrap(original, target)
            if isinstance(owner, type):
                self._patches.append(("attr", owner, key, original))
                setattr(owner, key, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "latgauge" or mod_name.startswith("latgauge.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append(("attr", mod, attr, original))
                        setattr(mod, attr, wrapper)
                    elif isinstance(value, list):
                        for i, item in enumerate(value):
                            if item is original:
                                self._patches.append(("item", value, i, original))
                                value[i] = wrapper

    def uninstall(self) -> None:
        for kind, owner, key, original in reversed(self._patches):
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original

    def check_restored(self) -> None:
        """Raise unless every patched slot holds its original object again."""
        for kind, owner, key, original in self._patches:
            current = vars(owner)[key] if kind == "attr" else owner[key]
            if current is not original:
                raise RuntimeError(f"{key!r} was not restored after tracing")

    # -- results -------------------------------------------------------------

    def closed_spans(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans still open")
        return self.spans

    def self_times(self) -> list[float]:
        spans = self.closed_spans()
        covered = [0.0] * len(spans)
        for sp in spans:
            if sp.parent is not None:
                covered[sp.parent] += sp.end - sp.start
        return [sp.end - sp.start - c for sp, c in zip(spans, covered)]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals: ``<name>.s`` self time, ``.calls`` and counts."""
        out: dict[str, float] = {}
        for sp, own in zip(self.closed_spans(), self.self_times()):
            for prefix in (sp.name, sp.alias):
                if prefix is not None:
                    out[f"{prefix}.s"] = out.get(f"{prefix}.s", 0.0) + own
            out[f"{sp.name}.calls"] = out.get(f"{sp.name}.calls", 0) + 1
            for key, value in (sp.counts or {}).items():
                out[f"{sp.name}.{key}"] = out.get(f"{sp.name}.{key}", 0) + value
        return out

    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one row per span."""
        spans = self.closed_spans()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "fields": ["name", "start", "end", "parent", "alias", "counts"]}))
            fh.write("\n")
            for sp in spans:
                fh.write(json.dumps([sp.name, sp.start, sp.end, sp.parent, sp.alias, sp.counts]))
                fh.write("\n")
