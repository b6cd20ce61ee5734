"""Exact tensors whose entries are sums of roots of unity.

A phase is a power of the primitive L-th root of unity w = exp(2*pi*i/L),
stored as an integer exponent mod L.  A sum of such phases is stored as an
integer count vector c of length L, meaning sum_k c[k] * w**k, so exact
equality of two tensors is integer array equality.  Monomial operators
act on them by permuting entries and rotating the count vectors; no
floating point enters these checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass
class PhaseTensor:
    """Exact tensor whose entries are integer combinations of L-th roots.

    counts has shape (*dims, L); entry(i) = scale * sum_k counts[i, k] w**k.
    Used for operator-level identity checks where zero tolerance is
    required: equality is integer array equality.
    """

    counts: np.ndarray
    scale: Fraction = Fraction(1)

    @property
    def modulus(self) -> int:
        return self.counts.shape[-1]

    @classmethod
    def zeros(cls, shape: tuple[int, ...], modulus: int) -> "PhaseTensor":
        return cls(np.zeros(shape + (modulus,), dtype=np.int64))

    def copy(self) -> "PhaseTensor":
        return PhaseTensor(self.counts.copy(), self.scale)

    def mul_root(self, k: int) -> "PhaseTensor":
        """Multiply every entry by w**k."""
        return PhaseTensor(np.roll(self.counts, k % self.modulus, axis=-1), self.scale)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseTensor):
            return NotImplemented
        return self.scale == other.scale and np.array_equal(self.counts, other.counts)

    def proportional(self, other: "PhaseTensor") -> Fraction | None:
        """Return r with self = r * other entrywise (exact), else None.

        Only count-identical tensors up to the scalar prefactor are
        recognised, which covers the term-by-term constructions used here.
        """
        if self.counts.shape != other.counts.shape:
            return None
        if not np.array_equal(self.counts, other.counts):
            return None
        if other.scale == 0:
            return None
        return self.scale / other.scale

    def to_complex(self) -> np.ndarray:
        roots = np.exp(2j * np.pi * np.arange(self.modulus) / self.modulus)
        return float(self.scale) * np.tensordot(
            self.counts.astype(float), roots, axes=1
        )


def mono_mul_left(tensor: PhaseTensor, perm: np.ndarray, phase: np.ndarray) -> PhaseTensor:
    """Exact product M . T for a matrix-shaped tensor T.

    M is the monomial matrix M|o> = w**phase[o] |perm[o]>, acting on the
    first (row) index of T.
    """
    counts = tensor.counts
    modulus = tensor.modulus
    rows = counts.shape[0]
    k = np.arange(modulus)
    gather = (k[None, :] - np.asarray(phase)[:, None]) % modulus
    rolled = np.take_along_axis(
        counts.reshape(rows, -1, modulus),
        gather[:, None, :].repeat(counts.reshape(rows, -1, modulus).shape[1], axis=1),
        axis=2,
    ).reshape(counts.shape)
    out = np.empty_like(rolled)
    out[np.asarray(perm)] = rolled
    return PhaseTensor(out, tensor.scale)


def mono_mul_right(tensor: PhaseTensor, perm: np.ndarray, phase: np.ndarray) -> PhaseTensor:
    """Exact product T . M on the second (column) index of T."""
    counts = tensor.counts
    modulus = tensor.modulus
    perm = np.asarray(perm)
    phase = np.asarray(phase)
    # (T.M)[o, i] = w**phase[i] T[o, perm[i]]
    picked = counts[:, perm, :]
    k = np.arange(modulus)
    gather = (k[None, :] - phase[:, None]) % modulus
    out = np.take_along_axis(picked, gather[None, :, :].repeat(counts.shape[0], axis=0), axis=2)
    return PhaseTensor(out, tensor.scale)
