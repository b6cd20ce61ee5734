"""The full verification battery behind `gauge suite` and the acceptance tests.

Each criterion returns one check (see claims.check) with at least
{"name", "claim", "status", "passed"}; run_suite collects them all with
timings.  A criterion built on a shared claim runs it over its
configuration list and lists the claim's skips under `skipped_over_cap`.
Sizes are chosen so the whole battery stays exact yet finishes in well
under five minutes.
"""

from __future__ import annotations

import functools
import itertools
import os
import pickle
import time
from fractions import Fraction

import numpy as np

from . import claims
from .boundary import build_fixed_point_state
from .claims import check, envelope
from .excitations import (
    StringSpec,
    braiding_phase,
    horizontal_string_path,
    string_operator,
    vertical_string_path,
)
from .gauging import (
    LayerSpec,
    build_gauging_map,
    compose_gauging,
    initial_state,
    layer_stack,
    verify_string_order_mapping,
    zero_dim_gauge,
)
from .groups import GroupSpec, all_subgroups, enumerate_cocycle_classes, pair, slant_product
from .lattice import CodeSpec, Lattice2D, build_bulk_stabilizers, ground_space_dimension
from .operators import (
    ProductOperator,
    SiteKind,
    SupportState,
    clock_z,
    commutation_phase,
    fusion_coefficients,
    irrep_flux_operator,
)
from .tensors import contract_pepes, mpo_layers

GROUPS = [(2,), (3,), (4,), (2, 2), (2, 3)]
TORI = [(2, 2), (3, 2), (4, 2), (2, 4), (3, 4), (4, 4)]  # (n, m)
PEPES_GROUPS = [(2,), (3,)]  # groups whose stacked network criterion 11 contracts


def _twist_combinations(group: GroupSpec):
    """Every (even, odd) pair of cocycle classes, the trivial class first."""
    return list(itertools.product(enumerate_cocycle_classes(group), repeat=2))


def _none_failed(checks, skipped: list, **config) -> bool:
    """True unless a check failed; each skipped check joins `skipped` with its configuration."""
    for c in checks:
        if c["status"] == "skipped":
            skipped.append({"check": c["name"], "config": config, "reason": c["reason"]})
    return all(c["status"] != "failed" for c in checks)


def criterion_commutation() -> dict:
    """Every stabilizer pair commutes exactly, all groups, tori, twist classes."""
    failures = []
    instances = 0
    for orders in GROUPS:
        group = GroupSpec(orders)
        for even, odd in _twist_combinations(group):
            for n, m in TORI:
                spec = CodeSpec(Lattice2D(group, n, m, "periodic"), twist_even=even, twist_odd=odd)
                (chk,) = claims.commutation(build_bulk_stabilizers(spec))
                instances += 1
                if not chk["passed"]:
                    failures.append({"group": orders, "n": n, "m": m, "violations": chk["violations"][:3]})
    return check(
        "stabilizer_commutation", "all plaquette terms commute pairwise, untwisted and twisted",
        not failures, instances=instances, failures=failures,
    )


def criterion_ground_untwisted() -> dict:
    """Normal-form ground dimension equals |G|**2 on every torus."""
    results, skipped = [], []
    ok = True
    for orders in GROUPS:
        group = GroupSpec(orders)
        for n, m in TORI:
            (chk,) = claims.ground_dimension(CodeSpec(Lattice2D(group, n, m, "periodic")))
            entry = {"group": orders, "n": n, "m": m, "dimension": chk["normal_form"], "expected": group.size**2}
            if chk["status"] != "skipped":
                entry["dense"] = chk["dense"]
            ok = _none_failed([chk], skipped, group=orders, n=n, m=m) and chk["normal_form"] == group.size**2 and ok
            results.append(entry)
    return check(
        "ground_degeneracy_untwisted", "the untwisted torus code has |G|**2 ground states",
        ok, instances=results, skipped_over_cap=skipped,
    )


def criterion_ground_twisted() -> dict:
    """Twisted degeneracy |G| on tori whose row count is 2 mod 4.

    The product of all twisted group plaquettes equals a horizontal
    logical; with m/2 odd that forces the logical to +1 and cuts the
    degeneracy to |G|.  With m/2 even the constraint squares away for
    this exponent-two group, so those dimensions are reported, not
    asserted against the |G| value.
    """
    group = GroupSpec((2, 2))
    alpha = next(c for c in enumerate_cocycle_classes(group) if not c.is_trivial)
    entries, skipped = [], []
    ok = True
    for n, m in [(2, 2), (3, 2), (4, 2), (2, 6)]:
        (chk,) = claims.ground_dimension(CodeSpec(Lattice2D(group, n, m, "periodic"), twist_even=alpha))
        entries.append({"n": n, "m": m, "dimension": chk["normal_form"], "dense": chk["dense"]})
        ok = _none_failed([chk], skipped, n=n, m=m) and chk["normal_form"] == group.size and ok
    (m4,) = claims.ground_dimension(CodeSpec(Lattice2D(group, 2, 4, "periodic"), twist_even=alpha), dense_cap=2**17)
    gamma_spec = CodeSpec(Lattice2D(group, 2, 2, "periodic"), twist_odd=alpha)
    both_spec = CodeSpec(Lattice2D(group, 2, 2, "periodic"), twist_even=alpha, twist_odd=alpha)
    return check(
        "ground_degeneracy_twisted", "an even-layer twist reduces the torus degeneracy to |G|",
        ok and m4["passed"],
        instances=entries,
        skipped_over_cap=skipped,
        m_divisible_by_four_dimension_reported=m4["normal_form"],
        odd_layer_twist_dimension_reported=ground_space_dimension(gamma_spec),
        both_layers_twisted_dimension_reported=ground_space_dimension(both_spec),
    )


def criterion_frustration_free() -> dict:
    """Composed gauged states are +1 eigenstates of every bulk term, built apart from the stack."""
    name, claim = "frustration_free", "gauged states satisfy every bulk stabilizer"
    cases = {
        (2,): [(2, 2), (2, 3), (3, 2), (4, 2), (4, 3)],
        (3,): [(2, 2), (2, 3), (3, 2), (4, 2)],
    }
    checked = 0
    for orders, mns in cases.items():
        group = GroupSpec(orders)
        for m, n in mns:
            layers = layer_stack(group, n, m, "periodic")
            state, (norms, local) = claims.stack_symmetries(layers)
            checked += local["num_checked"]
            if not (norms["passed"] and local["passed"]):
                return check(name, claim, False, norms=norms["norms"], violations=local["violations"][:5])
            terms = build_bulk_stabilizers(CodeSpec(Lattice2D(group, n, m, "open")))
            unfixed = state.fixed_by([term.op for term in terms]).count(False)
            if unfixed:
                return check(name, claim, False, group=list(orders), m=m, n=n, unfixed_terms=unfixed)
            checked += len(terms)
    # Every term fixes every state exactly, so no overlap deviates from 1.
    return check(name, claim, True, checked=checked, worst_deviation=0.0)


def criterion_emergent_symmetry() -> dict:
    instances, failures, skipped = 0, [], []
    for orders in [(2,), (3,), (4,), (2, 2)]:
        group = GroupSpec(orders)
        for twist in enumerate_cocycle_classes(group):
            for index in (0, 1):
                for n in (2, 3):
                    config = {"group": orders, "layer": index, "n": n, "twisted": not twist.is_trivial}
                    checks = claims.emergent_symmetry(LayerSpec(group, index, n, "periodic", twist))
                    instances += 1
                    if not _none_failed(checks, skipped, **config):
                        failures.append({**config, "passed": False})
    return check(
        "emergent_symmetry", "the dual symmetry on the new row fixes every map exactly",
        not failures, instances=instances, failures=failures, skipped_over_cap=skipped,
    )


def criterion_string_order_mapping() -> dict:
    checks = []
    for orders in [(2,), (3,), (2, 2)]:
        group = GroupSpec(orders)
        for index in (0, 1):
            rep = verify_string_order_mapping(build_gauging_map(LayerSpec(group, index, 3, "periodic")))
            checks += [c["passed"] for c in rep["checks"]]
    return check(
        "string_order_mapping", "two-point symmetric operators map to string order operators",
        all(checks), instances=len(checks),
    )


def criterion_twisted_plaquette_product() -> dict:
    failures = []
    instances = 0
    for orders in [(2, 2), (4, 2)]:
        group = GroupSpec(orders)
        for alpha in enumerate_cocycle_classes(group):
            for n, m in [(2, 2), (3, 2)]:
                spec = CodeSpec(Lattice2D(group, n, m, "periodic"), twist_even=alpha)
                terms = list(build_bulk_stabilizers(spec))  # built once, read once per element
                for g in group.elements():
                    total = ProductOperator.identity_op(group.phase_modulus)
                    for t in terms:
                        if t.label.family == "group" and t.label.exps == g.exps:
                            total = t.op.multiply(total)
                    chi = slant_product(alpha, g)
                    lat = spec.lattice
                    edges = [(j, x2) for j in lat.rows if j % 2 == 1 for x2 in lat.row_positions(j)]
                    expected = ProductOperator.from_factors(
                        ((site, clock_z(chi)) for site in edges), group.phase_modulus
                    )
                    instances += 1
                    if total != expected:
                        failures.append({"group": orders, "n": n, "m": m, "g": g.exps})
    return check(
        "twisted_plaquette_product", "the product of all twisted group plaquettes is the slant-product logical",
        not failures, instances=instances, failures=failures,
    )


def criterion_confinement() -> dict:
    group = GroupSpec((2, 2))
    alpha = next(c for c in enumerate_cocycle_classes(group) if not c.is_trivial)
    spec = CodeSpec(Lattice2D(group, 4, 8, "periodic"), twist_even=alpha)
    rep, checks = claims.confinement(spec, group.element((1, 0)))
    return check(
        "confinement", "twisted shifts are confined; their dipoles move vertically for free",
        rep["single_violations"] == 3 and all(c["passed"] for c in checks), **rep,
    )


def criterion_braiding() -> dict:
    checks = []
    for orders in [(2,), (3,), (4,), (2, 2)]:
        group = GroupSpec(orders)
        spec = CodeSpec(Lattice2D(group, 3, 6, "periodic"))
        for g in group.elements():
            for chi in group.characters():
                xs = StringSpec(vertical_string_path(spec, 1, 1, 2), g, "X")
                zs = StringSpec(horizontal_string_path(spec, 1, 1, 3), chi, "Z")
                checks.append(braiding_phase(spec, zs, xs) == pair(chi, g))
        # two crossings square the phase away for order-two labels
        g = next(e for e in group.elements() if not e.is_identity)
        chi = next(c for c in group.characters() if not c.is_identity)
        double = string_operator(
            spec, StringSpec(vertical_string_path(spec, 1, 1, 2), g, "X")
        ).multiply(
            string_operator(spec, StringSpec(vertical_string_path(spec, 3, 1, 2), g, "X"))
        )
        zs_op = string_operator(spec, StringSpec(horizontal_string_path(spec, 1, 1, 3), chi, "Z"))
        ph2 = commutation_phase(zs_op, double)
        checks.append(ph2 == pair(chi, g) * pair(chi, g))
    return check(
        "braiding", "one crossing of a vertical shift string and a horizontal clock string braids by the pairing",
        all(checks), instances=len(checks),
    )


def criterion_condensation() -> dict:
    entries = []
    ok = True
    for orders in [(2,), (4,), (2, 2)]:
        group = GroupSpec(orders)
        for sub in all_subgroups(group):
            table, (res, cond) = claims.boundary_condensation(
                CodeSpec(Lattice2D(group, 2, 4, "open")), build_fixed_point_state(group, sub, 2), sub,
                restriction_chain=build_fixed_point_state(group, sub, 4),
            )
            dual_ok = all(v["condenses"] for v in table["dual_anyons"].values())
            full_ok = True
            if len(sub) == group.size:
                nontrivial = [x for x in table["surviving"] if any(x)]
                full_ok = not nontrivial
            entries.append(
                {
                    "group": orders,
                    "subgroup": sorted(h.exps for h in sub),
                    "res_matches": res["passed"],
                    "condensation_matches": cond["passed"],
                    "dual_condense": dual_ok,
                    "empty_boundary_when_unbroken": full_ok,
                }
            )
            ok = ok and res["passed"] and cond["passed"] and dual_ok and full_ok
    return check(
        "boundary_condensation", "surviving boundary terms are the characters trivial on H; anyons in H condense",
        ok, instances=entries,
    )


def _network_matches_composition(layers) -> bool:
    """True when the network of the layers is compose_gauging's state from the product input exactly."""
    st = initial_state(layers[0].group, layers[0])
    direct = compose_gauging(layers, st)
    try:
        via_tn = contract_pepes(layers, st)
    except ValueError:
        return False
    same_entries = np.array_equal(direct.keys, via_tn.keys) and np.array_equal(direct.roots, via_tn.roots)
    return direct.site_ids == via_tn.site_ids and same_entries and direct.mag_sq == via_tn.mag_sq


def criterion_tensor_network() -> dict:
    """Tensor identities and MPO layers as exact PhaseTensor equalities; the network as compose_gauging's state."""
    pull_ok = mpo_ok = pepes_ok = True
    mpo_checked = 0
    skipped = []
    for orders in GROUPS:
        group = GroupSpec(orders)
        layers, candidates = [], mpo_layers(group, 2) + mpo_layers(group, 3)
        for layer in candidates:
            if not (reason := claims.exact_skip(layer)):
                layers.append(layer)
                continue
            config = {"group": orders, "n": layer.n, "layer": layer.index, "boundary": layer.boundary}
            skipped.append({"check": "mpo_equals_dense", "config": config, "reason": reason})
        pull, mpo = claims.tensor_identities(group, layers)
        pull_ok, mpo_ok = pull_ok and pull["passed"], mpo_ok and mpo["passed"]
        mpo_checked += len(layers)
        if orders in PEPES_GROUPS:
            # The periodic n = 2 pair of the group's MPO layers, whose map
            # tensors and MPOs the check above left built on those specs.
            pair = [layer for layer in candidates if layer.n == 2 and layer.boundary == "periodic"]
            pepes_ok = _network_matches_composition(pair) and pepes_ok
    layers = layer_stack(GroupSpec((2,)), 2, 3, "open")
    trapezoid = [layers[0].n] + [len(layer.new_positions()) for layer in layers]
    return check(
        "tensor_network", "tensor identities hold exactly and the MPO path equals the dense path",
        pull_ok and mpo_ok and pepes_ok and trapezoid == [2, 3, 4, 5],
        pull_through_groups_passed=pull_ok,
        mpo_layers_checked=mpo_checked,
        skipped_over_cap=skipped,
        pepes_fidelity_ok=pepes_ok,
        trapezoid_row_sizes=trapezoid,
    )


def _s3_table() -> tuple[np.ndarray, np.ndarray]:
    """The symmetric group on three letters: its multiplication table and character table.

    Elements ordered: identity, the three transpositions, the two
    3-cycles.  Characters per element: trivial, sign, two-dimensional.
    """
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    index = {p: i for i, p in enumerate(perms)}
    mult = np.array([[index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms])
    return mult, np.array([[1, 1, 1, 1, 1, 1], [1, -1, -1, -1, 1, 1], [2, 0, 0, 0, -1, -1]])


def _fusion_checks(ops: np.ndarray, coeffs: np.ndarray) -> list[bool]:
    """ops[s] * ops[r] == sum_t coeffs[s, r, t] ops[t], exactly, for every ordered pair (s, r)."""
    fused = np.einsum("srt,tx->srx", coeffs, ops)
    return [np.array_equal(ops[s] * ops[r], fused[s, r]) for s, r in itertools.product(range(len(ops)), repeat=2)]


def criterion_flux_fusion() -> dict:
    checks = []
    # Abelian: one-dimensional characters fuse by multiplication and factorize.
    # The phase modulus of Z2xZ2 is 2, so chi(g) = w**k is (-1)**k.
    group = GroupSpec((2, 2))
    chars, table = (-1) ** group.pair, group.add
    coeffs = fusion_coefficients(chars)
    for n_sites in (2, 3):
        ops = np.array([irrep_flux_operator(table, chi, n_sites) for chi in chars])
        checks += _fusion_checks(ops, coeffs)
        # factorization into site-local clocks
        checks += [np.array_equal(op, functools.reduce(np.kron, [chi] * n_sites)) for chi, op in zip(chars, ops)]
    s3, s3_chars = _s3_table()
    s3_coeffs = fusion_coefficients(s3_chars)
    for n_sites in (2, 3):
        checks += _fusion_checks(np.array([irrep_flux_operator(s3, chi, n_sites) for chi in s3_chars]), s3_coeffs)
    return check(
        "flux_fusion", "diagonal flux operators fuse with the character multiplicities",
        all(checks), instances=len(checks), two_dim_irrep_square=s3_coeffs[2, 2].tolist(),
    )


def _trivial_site(group: GroupSpec) -> SupportState:
    """One vertex site on the trivial character: the key 0 at root 0."""
    zero = np.zeros(1, dtype=np.int64)
    return SupportState((("m", 0),), (SiteKind.VERTEX_DUAL,), (group.size,), group.phase_modulus, zero, zero)


def criterion_rainbow() -> dict:
    """Nested pairs, judged exactly across the cut after the n left pair sites.

    Each left configuration holds exactly one key, no right configuration
    two, and every key the input's root 0: a flat Schmidt spectrum of rank
    |G|**n, so the entropy is n log|G|.  The norm must be exactly 1.0.
    """
    checks = []
    for orders in [(2,), (3,), (2, 2)]:
        group = GroupSpec(orders)
        size = group.size
        for n_pairs in (0, 1, 2, 3):
            out = zero_dim_gauge(group, _trivial_site(group), n_pairs)
            left, right = np.divmod(out.keys, size ** (n_pairs + 1))  # keys are sorted, so left is too
            one_each = np.array_equal(left, np.arange(size**n_pairs)) and np.bincount(right).max() == 1
            checks.append(one_each and not out.roots.any())
            checks.append(out.norm() == 1.0)
    # the two-site pair for the order-two group is the uniform diagonal pair |000> + |101>
    out = zero_dim_gauge(GroupSpec((2,)), _trivial_site(GroupSpec((2,))), 1)
    checks.append(out.keys.tolist() == [0, 5] and out.roots.tolist() == [0, 0] and out.mag_sq == Fraction(1, 2))
    return check(
        "rainbow_pairs", "iterated zero-dimensional gauging yields nested maximally entangled pairs",
        all(checks), instances=len(checks),
    )


CRITERIA = [
    criterion_commutation,
    criterion_ground_untwisted,
    criterion_ground_twisted,
    criterion_frustration_free,
    criterion_emergent_symmetry,
    criterion_string_order_mapping,
    criterion_twisted_plaquette_product,
    criterion_confinement,
    criterion_braiding,
    criterion_condensation,
    criterion_tensor_network,
    criterion_flux_fusion,
    criterion_rainbow,
]


# Every criterion, longest first, as timed one after another in one process
# (best of three, ms, on a shared 2-CPU host): 97, 82, 63, 24, 22, 20, 16, 14,
# 9, 8, then 2 or less.  The workers take them in this order, so the run
# ends on the short ones, not on one long criterion left to run alone while
# the other CPUs idle.
LONGEST_FIRST = (
    criterion_tensor_network,
    criterion_ground_untwisted,
    criterion_ground_twisted,
    criterion_commutation,
    criterion_frustration_free,
    criterion_condensation,
    criterion_emergent_symmetry,
    criterion_string_order_mapping,
    criterion_twisted_plaquette_product,
    criterion_braiding,
    criterion_confinement,
    criterion_rainbow,
    criterion_flux_fusion,
)


class WorkerDiedError(RuntimeError):
    """A worker process of the suite ended before it returned its criterion's report."""


def submission_order() -> list[int]:
    """Indices into CRITERIA in LONGEST_FIRST order; a criterion not listed there comes last, in CRITERIA order."""
    rank = {fn: k for k, fn in enumerate(LONGEST_FIRST)}
    return sorted(range(len(CRITERIA)), key=lambda i: rank.get(CRITERIA[i], len(LONGEST_FIRST)))


def _timed(index: int) -> tuple[dict, float]:
    """The report of CRITERIA[index] and the seconds it took."""
    t0 = time.perf_counter()
    return CRITERIA[index](), time.perf_counter() - t0


# A task is one criterion index in this many bytes, far below PIPE_BUF, so
# each read of one record from the task pipe is atomic; a result frame is a
# pickle behind its length in _SIZE_BYTES bytes.
_INDEX_BYTES = 2
_SIZE_BYTES = 8


def _frame(index: int, ok: bool, value) -> bytes:
    """(index, ok, report or exception) as a length-prefixed pickle.

    An exception that does not survive the trip, because it cannot be
    pickled or rebuilt, goes as a RuntimeError naming its type and message.
    """
    try:
        data = pickle.dumps((index, ok, value))
        if not ok:
            pickle.loads(data)
    except Exception:
        if ok:
            raise
        data = pickle.dumps((index, False, RuntimeError(f"a suite criterion raised {type(value).__name__}: {value}")))
    return len(data).to_bytes(_SIZE_BYTES, "little") + data


def _serve(tasks: int, out: int, inherited: list[int]) -> None:
    """A forked worker: run each index read from `tasks`, one record at a time, and send its frame to `out`.

    An exception carries the worker's traceback as a note, which Python
    prints under the one raised again in the parent.  The worker closes the
    parent's pipes it inherited and leaves only through os._exit, so it
    never flushes the parent's stdio buffers or runs its atexit hooks; it
    exits 0 once the task pipe is empty.
    """
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        while record := os.read(tasks, _INDEX_BYTES):
            index = int.from_bytes(record, "little")
            try:
                ok, value = True, _timed(index)
            except Exception as exc:
                import traceback  # only a failing worker pays for the import

                ok, value = False, exc
                exc.__notes__ = [*getattr(exc, "__notes__", ()), "".join(traceback.format_exception(exc))]
            view = memoryview(_frame(index, ok, value))
            while view:
                view = view[os.write(out, view) :]
        status = 0
    finally:
        os._exit(status)


def _receive(ready: list[int], live: dict, inbox: dict, results: dict) -> None:
    """Read each ready pipe and put every whole frame that came in into results, index -> (ok, value).

    A worker whose pipe ends is reaped.  If it failed, or no worker is
    left, every criterion still without a result gets WorkerDiedError.
    """
    for reader in ready:
        if chunk := os.read(reader, 1 << 16):
            buf = inbox[reader]
            buf += chunk
            while len(buf) >= _SIZE_BYTES:
                end = _SIZE_BYTES + int.from_bytes(buf[:_SIZE_BYTES], "little")
                if len(buf) < end:
                    break
                index, ok, value = pickle.loads(buf[_SIZE_BYTES:end])
                results[index] = ok, value
                del buf[:end]
            continue
        status = os.waitpid(live.pop(reader), 0)[1]
        del inbox[reader]
        os.close(reader)
        if status or not live:
            died = WorkerDiedError(
                "a suite worker process ended before it returned its report (it exited or was killed,"
                " for instance by the out-of-memory killer)"
            )
            for index in range(len(CRITERIA)):
                results.setdefault(index, (False, died))


def _run_workers(workers: int, record) -> None:
    """Run every criterion in `workers` forked processes and record the reports in CRITERIA order.

    The indices go in submission order into one task pipe, which each
    worker reads one record at a time, so the longest criteria start first
    and a free worker takes the next.  Each worker sends its frames on its
    own pipe, and select reads whichever pipe has data, so no worker blocks
    on a full pipe while this process waits on another.  On any exception,
    an error report or one from `record` alike, the workers still running
    are killed, which cancels the criteria not yet started; every worker
    is reaped before this returns.  Forked, not spawned: a spawned worker
    would import numpy and the library again, about 0.2 s, most of a run.
    """
    # Imported here, as only a run that forks needs them: set-up, a one-CPU
    # run and every other command never pay their 0.8 ms.
    import select
    import signal

    tasks, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(_INDEX_BYTES, "little") for i in submission_order()))
    os.close(feed)
    live, inbox, results = {}, {}, {}  # result pipe -> worker pid; -> bytes not yet framed; index -> (ok, value)
    try:
        for _ in range(workers):
            reader, writer = os.pipe()
            inbox[reader] = bytearray()
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(tasks, writer, list(inbox))
            finally:
                os.close(writer)
            live[reader] = pid
        for index in range(len(CRITERIA)):
            while index not in results:
                _receive(select.select(list(live), [], [])[0], live, inbox, results)
            ok, value = results[index]
            if not ok:
                raise value
            record(*value)
    except BaseException:
        for pid in live.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid in live.values():
            os.waitpid(pid, 0)
        for fd in [tasks, *inbox]:
            os.close(fd)


def run_suite(echo=None) -> dict:
    """Run every criterion and return the report, which counts the skipped checks.

    The criteria share no state, so they run in forked worker processes,
    one per usable CPU (the affinity mask) and at most one per criterion,
    handed out one at a time in LONGEST_FIRST order.  On one usable CPU,
    or on a platform without an affinity mask or os.fork, they run in this
    process instead.  Either way the reports come back in CRITERIA order,
    and echo prints each with the time its own process measured.  As in a
    serial run, the exception of the lowest-index criterion that raised is
    raised, with its type and message; the criteria not yet started are
    cancelled, and a worker that dies raises WorkerDiedError.  No worker
    outlives the call.

    Reports are fully deterministic: timings are echoed for humans but
    kept out of the returned dict, so identical configurations serialize
    byte-identically.
    """
    results = []

    def record(rep: dict, seconds: float) -> None:
        results.append(rep)
        if echo is not None:
            echo(f"[{rep['status'][:4].upper()}] {rep['name']} ({seconds:.2f}s)")
            for skip in rep.get("skipped_over_cap", ()):
                config = " ".join(f"{k}={v}" for k, v in skip["config"].items())
                echo(f"[SKIP] {rep['name']}: {skip['check']} at {config}: {skip['reason']}")

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(CRITERIA))
    if workers < 2 or not hasattr(os, "fork"):
        for index in range(len(CRITERIA)):
            record(*_timed(index))
    else:
        _run_workers(workers, record)
    return envelope("suite", {}, results, skipped=sum(len(r.get("skipped_over_cap", ())) for r in results))
