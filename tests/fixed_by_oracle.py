"""The per-operator route SupportState.fixed_by took before it split the keys once.

For every operator it moves all the stored keys with
operators.flat_action, which splits each key into its digit on each
factor's axis afresh, and looks the targets up among the sorted keys
with np.searchsorted.  Tests require the library's booleans and error
messages to match it on the same states and operators.  root_counts
counts SupportState.root_counts's relative roots one key at a time, with
a dict from each stored key to its root in place of the search.
"""

from __future__ import annotations

import numpy as np

from latgauge.operators import SupportState, flat_action, placed_factors


def fixed_by(state: SupportState, ops) -> list[bool]:
    """Whether each product operator in ops maps the state exactly to itself."""
    fixed = []
    for op in ops:
        factors = placed_factors(state, op)
        if op.modulus != state.modulus:
            raise ValueError(f"operator modulus {op.modulus} is not the state's {state.modulus}")
        y, phases = flat_action(state.dims, factors, state.keys)
        at = np.minimum(np.searchsorted(state.keys, y), state.keys.size - 1)
        moved = (state.roots + sum(phases, np.zeros_like(state.roots))) % state.modulus
        fixed.append(bool(np.array_equal(state.keys[at], y) and np.array_equal(state.roots[at], moved)))
    return fixed


def root_counts(state: SupportState, ops) -> list[np.ndarray]:
    """counts[k] per op: the keys x whose target y is stored, at roots[x] + phase(x) - roots[y] = k mod L."""
    root_at = dict(zip(state.keys.tolist(), state.roots.tolist()))
    counts = []
    for op in ops:
        y, phases = flat_action(state.dims, placed_factors(state, op), state.keys)
        moved = state.roots + sum(phases, np.zeros_like(state.roots))
        count = np.zeros(state.modulus, dtype=np.int64)
        for target, root in zip(y.tolist(), moved.tolist()):
            if target in root_at:
                count[(root - root_at[target]) % state.modulus] += 1
        counts.append(count)
    return counts
