"""The fixed-point chain's keys, one character tuple at a time.

`boundary.build_fixed_point_state` builds the keys as mixed-radix digits
in numpy; this is the per-tuple loop it replaced: every (n-1)-tuple of
characters trivial on H, closed by the inverse of their product, read as
one basis index.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from algebra_reference import character_product, dual_identity
from latgauge.groups import GroupSpec, restricted_characters


def fixed_point_keys(group: GroupSpec, subgroup, n: int) -> np.ndarray:
    """Sorted int64 keys of the chain's support."""
    support = []
    for head in itertools.product(restricted_characters(group, subgroup), repeat=n - 1):
        flat = 0
        for chi in (*head, functools.reduce(character_product, head, dual_identity(group)).inverse()):
            flat = flat * group.size + group.index_of(chi.exps)
        support.append(flat)
    return np.sort(np.array(support, dtype=np.int64))
