"""Exact sparse tensors whose entries are sums of roots of unity.

A phase is a power of the primitive L-th root of unity w = exp(2*pi*i/L),
stored as an integer exponent mod L.  An entry of a tensor is a sum of
such phases, sum_k c[k] * w**k with integer counts c.  Only the nonzero
counts are stored, in one canonical form: the keys flat_index * L + k,
sorted and unique, each with its nonzero multiplicity c[k].  Two tensors
are equal when their shapes, moduli, scales and both arrays are equal;
that compares the count vectors exactly, without reducing them by
cyclotomic relations.

Monomial operators act on one index by remapping that coordinate of every
key and adding its phase to the root, and two tensors contract by a join
on the contracted index in which root exponents add mod L and
multiplicities multiply.  A trace keeps the entries whose two traced
coordinates agree, which closes a ring of contracted tensors exactly.
Each operation costs time in the number of nonzero entries, not in the
size of the dense array, and no floating point enters these checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True, eq=False)
class PhaseTensor:
    """Exact sparse tensor whose entries are integer combinations of L-th roots.

    entry(i) = scale * sum of mults[j] * w**(keys[j] % L) over the j with
    keys[j] // L == i, for i the row-major flat index into `shape`.  Build
    one with from_entries, which puts the entries in canonical form.
    """

    shape: tuple[int, ...]
    modulus: int
    keys: np.ndarray
    mults: np.ndarray
    scale: Fraction = Fraction(1)

    @classmethod
    def from_entries(
        cls, shape, modulus: int, flat, roots, mults=None, scale=Fraction(1)
    ) -> "PhaseTensor":
        """Canonical tensor from (flat index, root exponent, multiplicity) triples.

        Sorts the keys, merges duplicates by summing their multiplicities
        and drops zeros.  mults defaults to one per triple; roots are taken
        mod L.
        """
        keys = np.asarray(flat, dtype=np.int64) * modulus + np.asarray(roots, dtype=np.int64) % modulus
        if mults is None:
            mults = np.ones(keys.size, dtype=np.int64)
        mults = np.asarray(mults, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        keys, mults = keys[order], mults[order]
        if keys.size > 1 and np.any(keys[1:] == keys[:-1]):
            starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
            keys, mults = keys[starts], np.add.reduceat(mults, starts)
        nonzero = mults != 0
        if not nonzero.all():
            keys, mults = keys[nonzero], mults[nonzero]
        return cls(tuple(int(d) for d in shape), int(modulus), keys, mults, Fraction(scale))

    @property
    def nnz(self) -> int:
        return int(self.keys.size)

    @property
    def flat_indices(self) -> np.ndarray:
        return self.keys // self.modulus

    @property
    def roots(self) -> np.ndarray:
        return self.keys % self.modulus

    @property
    def counts(self) -> np.ndarray:
        """The dense (*shape, L) count array, built on demand (read-only)."""
        out = np.zeros(math.prod(self.shape) * self.modulus, dtype=np.int64)
        out[self.keys] = self.mults
        out.flags.writeable = False
        return out.reshape(*self.shape, self.modulus)

    def _same_entries(self, other: "PhaseTensor") -> bool:
        return (
            self.shape == other.shape
            and self.modulus == other.modulus
            and np.array_equal(self.keys, other.keys)
            and np.array_equal(self.mults, other.mults)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseTensor):
            return NotImplemented
        return self.scale == other.scale and self._same_entries(other)

    def proportional(self, other: "PhaseTensor") -> Fraction | None:
        """Return r with self = r * other entrywise (exact), else None.

        Only count-identical tensors up to the scalar prefactor are
        recognised, which covers the term-by-term constructions used here.
        """
        if not self._same_entries(other) or other.scale == 0:
            return None
        return self.scale / other.scale

    def to_complex(self) -> np.ndarray:
        """Dense complex array of the entries, scale included."""
        roots = np.exp(2j * np.pi * np.arange(self.modulus) / self.modulus)
        values = self.mults * roots[self.roots]
        size = math.prod(self.shape)
        flat = self.flat_indices
        dense = np.bincount(flat, weights=values.real, minlength=size) + 1j * np.bincount(
            flat, weights=values.imag, minlength=size
        )
        return float(self.scale) * dense.reshape(self.shape)

    def transpose(self, axes) -> "PhaseTensor":
        """The same tensor with its indices reordered as numpy.transpose(axes)."""
        index = np.unravel_index(self.flat_indices, self.shape)
        shape = tuple(self.shape[a] for a in axes)
        flat = np.ravel_multi_index(tuple(index[a] for a in axes), shape)
        return PhaseTensor.from_entries(shape, self.modulus, flat, self.roots, self.mults, self.scale)

    def trace(self, a: int, b: int) -> "PhaseTensor":
        """The sum over the diagonal of indices a and b, as numpy.trace(axis1=a, axis2=b)."""
        if self.shape[a] != self.shape[b]:
            raise ValueError("traced indices have different dimensions")
        index = np.unravel_index(self.flat_indices, self.shape)
        keep = index[a] == index[b]
        rest = [k for k in range(len(self.shape)) if k not in (a, b)]
        shape = tuple(self.shape[k] for k in rest)
        flat = np.ravel_multi_index(tuple(index[k][keep] for k in rest), shape)
        return PhaseTensor.from_entries(shape, self.modulus, flat, self.roots[keep], self.mults[keep], self.scale)


def _split_axis(tensor: PhaseTensor, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """(index along axis, flat index over the other axes) of every entry."""
    stride = math.prod(tensor.shape[axis + 1 :])
    dim = tensor.shape[axis]
    flat = tensor.flat_indices
    high, low = np.divmod(flat, stride)
    high, along = np.divmod(high, dim)
    return along, high * stride + low


def _remap(tensor: PhaseTensor, perm: np.ndarray, phase: np.ndarray, axis: int) -> PhaseTensor:
    """Move index o on `axis` to perm[o] and add phase[o] to the root, entry by entry."""
    stride = math.prod(tensor.shape[axis + 1 :])
    flat = tensor.flat_indices
    along = flat // stride % tensor.shape[axis]
    moved = flat + (perm[along] - along) * stride
    return PhaseTensor.from_entries(
        tensor.shape, tensor.modulus, moved, tensor.roots + phase[along], tensor.mults, tensor.scale
    )


def mono_mul_left(
    tensor: PhaseTensor, perm: np.ndarray, phase: np.ndarray, axis: int = 0
) -> PhaseTensor:
    """Exact product M . T with M acting on one index of T (the first by default).

    M is the monomial matrix M|o> = w**phase[o] |perm[o]>, so for a
    matrix-shaped T the default is the product on the row index.  Each
    entry keeps its multiplicity: index o on the axis moves to perm[o] and
    its root gains phase[o].
    """
    return _remap(tensor, np.asarray(perm, dtype=np.int64), np.asarray(phase, dtype=np.int64), axis)


def mono_mul_right(tensor: PhaseTensor, perm: np.ndarray, phase: np.ndarray) -> PhaseTensor:
    """Exact product T . M on the second (column) index of T.

    (T.M)[o, i] = w**phase[i] T[o, perm[i]], so this is the remap of axis
    1 by the inverse permutation, with the phases carried along.
    """
    perm = np.asarray(perm, dtype=np.int64)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    return _remap(tensor, inverse, np.asarray(phase, dtype=np.int64)[inverse], 1)


def contract(a: PhaseTensor, b: PhaseTensor, axes: tuple[int, int]) -> PhaseTensor:
    """Exact tensordot of a and b over one index each, axes = (index of a, index of b).

    Every pair of entries that agree on the contracted index gives one
    entry: root exponents add mod L and multiplicities multiply.  Free
    indices come out as in numpy.tensordot: those of a, then those of b.
    """
    if a.modulus != b.modulus:
        raise ValueError("tensors have different root moduli")
    axis_a, axis_b = axes
    if a.shape[axis_a] != b.shape[axis_b]:
        raise ValueError("contracted indices have different dimensions")
    along_a, free_a = _split_axis(a, axis_a)
    along_b, free_b = _split_axis(b, axis_b)
    order = np.argsort(along_b, kind="stable")
    sorted_b = along_b[order]
    lo = np.searchsorted(sorted_b, along_a, side="left")
    hi = np.searchsorted(sorted_b, along_a, side="right")
    runs = hi - lo
    ia = np.repeat(np.arange(a.nnz), runs)
    # Entry j of the join takes b's partner lo + (offset of j within its run).
    offsets = np.arange(ia.size) - np.repeat(np.cumsum(runs) - runs, runs)
    ib = order[np.repeat(lo, runs) + offsets]
    shape_b = tuple(d for k, d in enumerate(b.shape) if k != axis_b)
    shape = tuple(d for k, d in enumerate(a.shape) if k != axis_a) + shape_b
    return PhaseTensor.from_entries(
        shape,
        a.modulus,
        free_a[ia] * math.prod(shape_b) + free_b[ib],
        a.roots[ia] + b.roots[ib],
        a.mults[ia] * b.mults[ib],
        a.scale * b.scale,
    )
