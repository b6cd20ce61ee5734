"""The per-operator route SupportState.fixed_by took before it split the keys once.

For every operator it moves all the stored keys with
operators.flat_action, which splits each key into its digit on each
factor's axis afresh, and looks the targets up among the sorted keys
with np.searchsorted.  Tests require the library's booleans and error
messages to match it on the same states and operators.
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
