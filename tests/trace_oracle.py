"""Slow-path oracles for the ground-space dimension: trace formula and random projection.

Expands tr prod_p Pi_p over all |G|**plaquettes label assignments.  Each
assignment contributes a product of single-site traces, each of which is
either zero or |G| times a root of unity for these plaquette algebras; the
assignment histogram over phases is converted to an exact integer by
reducing it against the cyclotomic polynomial.  The enumeration is
exponential, so it refuses inputs over its assignment cap; tests compare
lattice.ground_space_dimension against it at small sizes.

random_projection_dimension is the floating-point oracle the dense orbit
count replaced: the numerical rank of random states after every plaquette
projector.  Tests compare lattice.ground_space_dimension_dense against it
on small spaces.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from latgauge.lattice import CodeSpec, GeometryError, build_bulk_stabilizers
from latgauge.operators import CapExceededError, MonomialOperator, StateVector, corner_factors
from term_oracle import _plaquette_sites


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the cyclotomic polynomial Phi_order."""
    if order < 1:
        raise ValueError("order must be positive")
    # x**order - 1 divided by the product of Phi_d over proper divisors d.
    poly = [-1] + [0] * (order - 1) + [1]
    for d in range(1, order):
        if order % d == 0:
            poly = _polydiv_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _polydiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials; remainder must vanish."""
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("inexact polynomial division")
        q = c // den[-1]
        quot[k] = q
        for i, dc in enumerate(den):
            num[k + i] -= q * dc
    if any(num):
        raise ArithmeticError("nonzero remainder in exact polynomial division")
    return quot


def phase_counts_as_integer(counts: np.ndarray) -> int:
    """Exact integer value of sum_k counts[k] * w**k, or raise.

    The value is an integer iff the count polynomial is congruent to a
    constant modulo Phi_L.  Raises ArithmeticError otherwise.
    """
    counts = np.asarray(counts, dtype=object)
    modulus = counts.shape[-1]
    phi = list(cyclotomic_polynomial(modulus))
    rem = [int(c) for c in counts]
    # Reduce modulo Phi_L by exact long division (quotient discarded).
    for k in range(len(rem) - 1, len(phi) - 2, -1):
        c = rem[k]
        if c == 0:
            continue
        # Phi_L is monic, so the division is always exact.
        for i, pc in enumerate(phi):
            rem[k - len(phi) + 1 + i] -= c * pc
    if any(rem[1:]):
        raise ArithmeticError("phase sum is not a rational integer")
    return rem[0]


def trace_counts(op: MonomialOperator) -> np.ndarray:
    """Exact trace of a monomial as a count vector over phase exponents."""
    counts = np.zeros(op.modulus, dtype=np.int64)
    for i, p in enumerate(op.perm):
        if p == i:
            counts[op.phase[i]] += 1
    return counts


def _plaquette_term_table(spec: CodeSpec):
    """Per plaquette, the list of corner ops for every label, plus geometry."""
    lat = spec.lattice
    centers = lat.plaquette_centers()
    per_plaquette = []
    for center in centers:
        group_family = center[0] % 2 == 1
        labels = list(spec.group.elements()) if group_family else list(spec.group.characters())
        ops = [_corner_map(spec, center, lab) for lab in labels]
        per_plaquette.append((center, ops))
    return centers, per_plaquette


def _corner_map(spec: CodeSpec, center, label) -> dict:
    """Site -> corner factor of one plaquette term, identity factors kept."""
    twist = spec.twist_even if center[0] % 2 == 1 else spec.twist_odd
    west, east, north, south = corner_factors(twist, label)
    if spec.orientation == "reflected":
        west, east, north, south = east, west, south, north
    factors = (west, east, north, south)
    corners: dict = {}
    for site, positions in _plaquette_sites(spec.lattice, center):
        for p in positions:
            corners[site] = factors[p].multiply(corners[site]) if site in corners else factors[p]
    return corners


def _first_label(spec: CodeSpec, center):
    return (
        next(iter(spec.group.elements()))
        if center[0] % 2 == 1
        else next(iter(spec.group.characters()))
    )


def trace_ground_dimension(spec: CodeSpec, cap_bits: float = 20.0) -> int:
    """Exact dimension of the joint +1 eigenspace on the torus, by trace."""
    lat = spec.lattice
    if lat.vertical != "periodic":
        raise GeometryError("the trace formula is implemented for the torus")
    size = spec.group.size
    centers, per_plaquette = _plaquette_term_table(spec)
    num_p = len(centers)
    if num_p * math.log2(size) > cap_bits:
        raise CapExceededError(
            f"{num_p} plaquettes over Z_{size} exceeds the {cap_bits}-bit assignment cap"
        )
    L = spec.group.phase_modulus
    sites = [s for s, _ in lat.sites()]
    kinds = dict(lat.sites())
    site_index = {s: i for i, s in enumerate(sites)}
    # Which plaquettes touch each site, in global plaquette order.
    touching: list[list[int]] = [[] for _ in sites]
    for p, (center, _) in enumerate(per_plaquette):
        for site in _corner_map(spec, center, _first_label(spec, center)):
            touching[site_index[site]].append(p)
    ident = MonomialOperator.identity(size, L)
    # Local trace tables: per site, over joint labels of its plaquettes.
    dead_tables = []
    phase_tables = []
    for s_idx, site in enumerate(sites):
        plqs = touching[s_idx]
        shape = (size,) * len(plqs)
        dead = np.zeros(shape, dtype=bool)
        phases = np.zeros(shape, dtype=np.int64)
        for local in itertools.product(range(size), repeat=len(plqs)):
            op = ident.with_kind(kinds[site])
            for p, lab_idx in zip(plqs, local):
                corner = per_plaquette[p][1][lab_idx].get(site)
                op = corner.multiply(op)
            counts = trace_counts(op)
            nz = np.nonzero(counts)[0]
            if len(nz) == 0:
                dead[local] = True
            elif len(nz) == 1 and counts[nz[0]] == size:
                phases[local] = nz[0]
            elif phase_counts_as_integer(counts) == 0:
                # Full character sums vanish exactly.
                dead[local] = True
            else:
                raise ArithmeticError("site trace is not 0 or |G| times a phase")
        dead_tables.append(dead)
        phase_tables.append(phases)
    # Enumerate assignments, vectorized over a flat index.
    total = size**num_p
    idx = np.arange(total, dtype=np.int64)
    digits = []
    for p in range(num_p):
        digits.append((idx // (size ** (num_p - 1 - p))) % size)
    alive = np.ones(total, dtype=bool)
    phase_sum = np.zeros(total, dtype=np.int64)
    for s_idx in range(len(sites)):
        plqs = touching[s_idx]
        local_flat = np.zeros(total, dtype=np.int64)
        for p in plqs:
            local_flat = local_flat * size + digits[p]
        dead = dead_tables[s_idx].reshape(-1)[local_flat]
        alive &= ~dead
        phase_sum = (phase_sum + phase_tables[s_idx].reshape(-1)[local_flat]) % L
    counts = np.bincount(phase_sum[alive], minlength=L).astype(np.int64)
    # Each alive assignment contributes |G|**num_sites w**phase; dividing by
    # |G|**num_p with num_sites == num_p leaves the bare phase histogram.
    if len(sites) != num_p:
        raise GeometryError("torus site and plaquette counts must match")
    value = phase_counts_as_integer(counts)
    if value < 0:
        raise ArithmeticError("trace produced a negative dimension")
    return int(value)


def random_projection_dimension(
    spec: CodeSpec, seed: int = 7, tol: float = 1e-8, dim_cap: int = 2**14
) -> int:
    """Independent oracle: rank of the projected image of random vectors.

    Applies every plaquette projector to a batch of random states and
    counts the numerical rank, growing the batch until it exceeds the
    rank found.  Works for any boundary supported by the term builders.
    """
    lat = spec.lattice
    if lat.total_dim > dim_cap:
        raise CapExceededError("dense oracle dimension cap exceeded")
    terms = build_bulk_stabilizers(spec)
    by_center: dict = {}
    for t in terms:
        by_center.setdefault(t.label.center, []).append(t.op)
    sites = lat.sites()
    dims = tuple(spec.group.size for _ in sites)
    rng = np.random.default_rng(seed)
    batch = 8
    while True:
        vecs = []
        for _ in range(batch):
            raw = rng.normal(size=lat.total_dim) + 1j * rng.normal(size=lat.total_dim)
            st = StateVector(
                tuple(s for s, _ in sites), tuple(k for _, k in sites), dims, raw
            )
            for ops in by_center.values():
                acc = np.zeros_like(st.amps)
                for op in ops:
                    acc += st.apply(op).amps
                st = StateVector(st.site_ids, st.kinds, st.dims, acc / len(ops))
            vecs.append(st.amps)
        mat = np.array(vecs)
        sv = np.linalg.svd(mat, compute_uv=False)
        rank = int(np.sum(sv > tol * max(1.0, sv[0] if len(sv) else 1.0)))
        if rank < batch:
            return rank
        batch *= 2
        if batch > 4 * lat.total_dim:
            raise ArithmeticError("dense oracle failed to converge")
