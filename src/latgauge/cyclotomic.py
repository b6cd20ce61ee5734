"""Exact tensors whose entries are sums of roots of unity.

A phase is a power of the primitive L-th root of unity w = exp(2*pi*i/L),
stored as an integer exponent mod L.  A sum of such phases is stored as an
integer count vector c of length L, meaning sum_k c[k] * w**k, so exact
equality of two tensors is integer array equality.  Monomial operators
act on them by permuting entries along one index and rotating the count
vectors, and two tensors contract by a tensordot in which root exponents
add mod L; no floating point enters these checks.
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


def mono_mul_left(
    tensor: PhaseTensor, perm: np.ndarray, phase: np.ndarray, axis: int = 0
) -> PhaseTensor:
    """Exact product M . T with M acting on one index of T (the first by default).

    M is the monomial matrix M|o> = w**phase[o] |perm[o]>, so for a
    matrix-shaped T the default is the product on the row index.
    """
    counts = np.moveaxis(tensor.counts, axis, 0)
    modulus = tensor.modulus
    flat = counts.reshape(counts.shape[0], -1, modulus)
    k = np.arange(modulus)
    gather = (k[None, :] - np.asarray(phase)[:, None]) % modulus
    rolled = np.take_along_axis(flat, np.broadcast_to(gather[:, None, :], flat.shape), axis=2)
    out = np.empty_like(rolled)
    out[np.asarray(perm)] = rolled
    return PhaseTensor(np.moveaxis(out.reshape(counts.shape), 0, axis), tensor.scale)


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


def contract(a: PhaseTensor, b: PhaseTensor, axes: tuple[int, int]) -> PhaseTensor:
    """Exact tensordot of a and b over one index each, axes = (index of a, index of b).

    Root exponents of the two factors add mod L, so the count vectors
    convolve cyclically.  Free indices come out as in numpy.tensordot:
    those of a, then those of b.
    """
    if a.modulus != b.modulus:
        raise ValueError("tensors have different root moduli")
    full = np.tensordot(a.counts, b.counts, axes=axes)
    # full has a's root axis after a's free indices and b's root axis last.
    full = np.moveaxis(full, a.counts.ndim - 2, -2)
    out = np.zeros(full.shape[:-1], dtype=np.int64)
    for i in range(a.modulus):
        out += np.roll(full[..., i, :], i, axis=-1)
    return PhaseTensor(out, a.scale * b.scale)
