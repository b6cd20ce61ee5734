"""The benchmark's workloads: inputs made from a seed, library calls, output checks.

Library functions are called through their modules (``lattice.f(...)``),
never through names bound at set-up, so a traced run sees every call.

``prepare(seed, work_dir, span)`` is the set-up step: it imports what the
workload needs and builds its inputs.  It returns a list of cases; calling
a case runs the library and returns the outcome of every check it makes.
Sizes are fixed, so every seed does the same amount of work; the seed only
picks the twist class, the twist placement or confined charge, and (on
``algebra``) the case order.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

STATE_TOL = 1e-10
# Same limit as `gauge compose`: the exact emergent-symmetry check runs only
# where the map tensor has at most this many entries.
EMERGENT_MAX_ENTRIES = 2**22


@dataclass
class Outcome:
    checks: list[tuple[str, bool]] = field(default_factory=list)
    skipped: int = 0

    def check(self, name: str, passed) -> None:
        self.checks.append((name, bool(passed)))


@dataclass
class Case:
    name: str
    run: Callable[[], Outcome]


# -- suite ------------------------------------------------------------------


def prepare_suite(seed: int, work_dir, span) -> list[Case]:
    """`gauge suite --out FILE` in-process; the seed is not used."""
    from latgauge import cli

    out = os.path.join(work_dir, f"suite-{os.getpid()}.json")

    def run() -> Outcome:
        code = 0
        try:
            with span("cli"):
                cli.main(["suite", "--out", out])
        except SystemExit as exc:
            code = exc.code
        result = Outcome()
        result.check("exit_code_0", code == 0)
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(out)
        result.check("report_passed", report.get("passed") is True)
        for chk in report["checks"]:
            result.check(chk["name"], chk.get("passed") is True)
            result.skipped += len(chk.get("skipped_over_cap", ()))
        return result

    return [Case("suite", run)]


# -- compose ----------------------------------------------------------------

# (group orders, sites per row, layers, boundary, twisted): 0.5M to 2.1M
# amplitudes each, all below the 2**24 cap.  The order is fixed: peak RSS
# depends on it through the allocator's state (191 MB when the six-layer
# stack runs first, 210 MB in this order), so a seeded order would make
# the memory metric depend on the seed.
STACKS = (
    ((2,), 4, 4, "periodic", False),
    ((2,), 3, 6, "periodic", False),
    ((3,), 3, 3, "periodic", False),
    ((2, 2), 2, 4, "periodic", True),
    ((2,), 2, 4, "open", False),
    ((2, 3), 2, 3, "periodic", False),
)


def _nontrivial_classes(group):
    from latgauge.groups import enumerate_cocycle_classes

    return [c for c in enumerate_cocycle_classes(group) if not c.is_trivial]


def prepare_compose(seed: int, work_dir, span) -> list[Case]:
    """Dense gauging stacks checked as `gauge compose` checks them."""
    from latgauge import gauging
    from latgauge.groups import GroupSpec

    rng = random.Random(seed)
    cases = []
    for orders, n, num_layers, bc, twisted in STACKS:
        group = GroupSpec(orders)
        even = odd = None
        tag = ""
        if twisted:
            alpha = rng.choice(_nontrivial_classes(group))
            placement = rng.choice(("even", "odd", "both"))
            even = alpha if placement in ("even", "both") else None
            odd = alpha if placement in ("odd", "both") else None
            tag = f"-twist-{placement}"
        layers = gauging.layer_stack(group, n, num_layers, bc, twist_even=even, twist_odd=odd)
        name = f"Z{'xZ'.join(map(str, orders))}-n{n}-x{num_layers}-{bc}{tag}"

        def run(group=group, layers=layers, name=name) -> Outcome:
            result = Outcome()
            norms: list[float] = []
            state = gauging.compose_gauging(layers, gauging.initial_state(group, layers[0]), norms_out=norms)
            result.check(f"{name}/layer_norms_unit", len(norms) == len(layers) and all(abs(x - 1) < STATE_TOL for x in norms))
            local = gauging.verify_local_symmetry(state, layers, tol=STATE_TOL)
            expected_ops = sum(layer.n for layer in layers) * group.size
            result.check(f"{name}/local_symmetry", local["passed"] and local["num_checked"] == expected_ops)
            for layer in layers:
                gmap = gauging.build_gauging_map(layer)
                if gmap.out_dim * gmap.in_dim * group.phase_modulus <= EMERGENT_MAX_ENTRIES:
                    rep = gauging.verify_emergent_symmetry(gmap)
                    result.check(f"{name}/emergent_symmetry_layer{layer.index}", rep["passed"])
            return result

        cases.append(Case(name, run))
    return cases


# -- algebra ----------------------------------------------------------------

# (group orders, n, m, twisted): tori the trace formula cannot reach
# (|G|**(n*m) assignments), handled by symbolic operator algebra alone.
TORI = (
    ((2, 2), 16, 16, False),
    ((2, 2), 16, 16, True),
    ((2, 3), 16, 16, False),
    ((3,), 8, 8, False),
    ((4,), 16, 16, False),
    ((4, 2), 12, 12, False),
    ((4, 2), 8, 8, True),
)


def _confined(alpha, g) -> bool:
    """True when alpha(g, h) != alpha(h, g) for some h: g's shift is confined."""
    group = alpha.group
    return any(
        (alpha.exponent(g.exps, h.exps) - alpha.exponent(h.exps, g.exps)) % group.phase_modulus
        for h in group.elements()
    )


def prepare_algebra(seed: int, work_dir, span) -> list[Case]:
    """Stabilizers, commutation, logicals and confinement on 8x8 to 16x16 tori."""
    from latgauge import excitations, lattice
    from latgauge.groups import GroupSpec

    rng = random.Random(seed)
    cases = []
    for orders, n, m, twisted in TORI:
        group = GroupSpec(orders)
        alpha = charge = None
        flagged = set()
        if twisted:
            alpha = rng.choice(_nontrivial_classes(group))
            confined = [g for g in group.elements() if _confined(alpha, g)]
            charge = rng.choice(confined)
            flagged = {f"X_col1_g{g.exps}" for g in confined}
        spec = lattice.CodeSpec(lattice.Lattice2D(group, n, m, "periodic"), twist_even=alpha)
        name = f"Z{'xZ'.join(map(str, orders))}-{n}x{m}" + (f"-twisted-g{''.join(map(str, charge.exps))}" if twisted else "")

        def run(spec=spec, charge=charge, flagged=flagged, name=name) -> Outcome:
            result = Outcome()
            size = spec.group.size
            terms = lattice.build_bulk_stabilizers(spec)
            rep = lattice.check_all_commute(terms)
            result.check(
                f"{name}/all_commute",
                len(terms) == spec.lattice.n * spec.lattice.m * size and rep["passed"] and rep["pairs_checked"] > 0,
            )
            logicals = lattice.logical_operators(spec)
            failing = {lo.name for lo in logicals if not lo.commutes}
            result.check(f"{name}/logicals", len(logicals) == 4 * (size - 1) and failing == flagged)
            if charge is not None:
                conf = excitations.confinement_report(spec, charge)
                result.check(
                    f"{name}/confinement",
                    conf["single_violations"] == 3
                    and conf["string_strictly_increasing"]
                    and conf["dipole_constant"]
                    and conf["dipole_braids_trivially"]
                    and conf["bend_homomorphic"],
                )
            return result

        cases.append(Case(name, run))
    rng.shuffle(cases)
    return cases


WORKLOADS = {
    "suite": prepare_suite,
    "compose": prepare_compose,
    "algebra": prepare_algebra,
}
