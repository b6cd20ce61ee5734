"""Tiled oracle for operators.flatten_product_operator.

This is the flatten the library used before it built the arrays on the
tensor shape: basis indices are walked in tiles of SUPPORT_TILE from a
fresh int64 arange, and operators.flat_action splits each index into
digits by division and modulo, one factor at a time.  The tests require
the library's result to equal it bit for bit, dtypes included.
"""

from __future__ import annotations

import numpy as np

from latgauge.operators import SUPPORT_TILE, ProductOperator, flat_action


def flatten_product_operator(site_ids, dims, op: ProductOperator):
    """(perm, phase) with op|x> = w**phase[x] |perm[x]>, each in its smallest unsigned dtype."""
    factors = [(site_ids.index(site), mono) for site, mono in op.factors]
    total = int(np.prod(dims))
    perm = np.empty(total, dtype=np.min_scalar_type(total - 1))
    phase = np.empty(total, dtype=np.min_scalar_type(op.modulus - 1))
    for start in range(0, total, SUPPORT_TILE):
        x = np.arange(start, min(start + SUPPORT_TILE, total), dtype=np.int64)
        perm[x], phases = flat_action(dims, factors, x)
        phase[x] = sum(phases) % op.modulus
    return perm, phase
