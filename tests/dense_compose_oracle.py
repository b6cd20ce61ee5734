"""Float oracle for the gauged states of gauging.py.

This is the route compose_gauging took before it built exact support
states: np.bincount sums each cell's term roots from
GaugingMap._row_entries into a dense complex row kernel K[m, e], scaled
by |G|**(scale_power - n); a layer multiplies the dense state psi[a, m]
by it in one broadcast; and an expectation value sums conj(psi[y(x)])
w**phase(x) psi[x] over the nonzero amplitudes only.  It takes any dense
StateVector, symmetric or not, so the tests run it on random inputs and
require the exact states to agree with it; dense copies an exact
SupportState into a StateVector for it.
"""

from __future__ import annotations

import math

import numpy as np

from latgauge.gauging import build_gauging_map, check_cap, gauged_layout
from latgauge.operators import SUPPORT_TILE, StateVector, SupportState, flat_action, placed_factors


def dense(state: SupportState) -> StateVector:
    """A dense copy of an exact state: its amplitudes at its keys, exact zeros elsewhere."""
    amps = np.zeros(math.prod(state.dims), dtype=complex)
    amps[state.keys] = state.amps
    return StateVector(state.site_ids, state.kinds, state.dims, amps)


def row_kernel(gmap) -> np.ndarray:
    """K[m, e], matter by new-row configurations: the map on the all-ones matter row."""
    L = gmap.group.phase_modulus
    flat, root = gmap._row_entries()
    w = np.exp(2j * np.pi * np.arange(L) / L)
    kernel = np.empty(gmap.out_dim, dtype=complex)
    kernel.real = np.bincount(flat, weights=w.real[root], minlength=gmap.out_dim)
    kernel.imag = np.bincount(flat, weights=w.imag[root], minlength=gmap.out_dim)
    kernel *= float(gmap.group.size) ** (gmap.layer.scale_power - gmap.layer.n)
    return kernel.reshape(gmap.in_dim, -1)


def apply(gmap, state: StateVector) -> StateVector:
    """The gauged dense state: one broadcast multiply of the state by the row kernel, within check_cap."""
    site_ids, kinds, dims = gauged_layout(state, gmap.layer)
    check_cap("output", gmap.group.size, len(gmap.new_sites), state.amps.size)
    out = state.amps.reshape(-1, gmap.in_dim, 1) * row_kernel(gmap)
    return StateVector(site_ids, kinds, dims, out.reshape(-1))


def compose(layers, state: StateVector, norms_out: list | None = None) -> StateVector:
    """apply for each layer in order; norms_out collects np.linalg.norm of each output."""
    for layer in layers:
        state = apply(build_gauging_map(layer), state)
        if norms_out is not None:
            norms_out.append(state.norm())
    return state


def expectations(state: StateVector, ops) -> list[complex]:
    """Unnormalized <psi|O|psi> of each product operator in ops, summed over the support in tiles."""
    placed = [(np.exp(2j * np.pi / op.modulus) ** np.arange(op.modulus), placed_factors(state, op)) for op in ops]
    totals = [0j] * len(placed)
    support = np.flatnonzero(state.amps)
    for start in range(0, support.size, SUPPORT_TILE):
        x = support[start : start + SUPPORT_TILE]
        psi = state.amps[x]
        for k, (roots, factors) in enumerate(placed):
            y, phases = flat_action(state.dims, factors, x)
            totals[k] += complex(np.vdot(state.amps[y], roots[sum(phases) % roots.size] * psi))
    return totals
