"""Exact sparse tensors whose entries are sums of roots of unity.

A phase is a power of the primitive L-th root of unity w = exp(2*pi*i/L),
stored as an integer exponent mod L.  An entry of a tensor is a sum of
such phases, sum_k c[k] * w**k with integer counts c.  Only the nonzero
counts are stored, in one canonical form: the keys flat_index * L + k,
sorted and unique, each with its nonzero multiplicity c[k].  Two tensors
are equal when their shapes, moduli, scales and both arrays are equal;
that compares the count vectors exactly, without reducing them by
cyclotomic relations.

Monomial operators act as (axis, MonomialOperator) pairs on the axes of
the tensor, or of a finer split of its flat index such as one axis per
site.  operators.flat_action, the basis-digit walk that states use too,
moves every stored entry's flat index and adds the factors' phases to its
root.  Two tensors contract by a join on the contracted index in which
root exponents add mod L and multiplicities multiply.  A trace keeps the
entries whose two traced coordinates agree, which closes a ring of
contracted tensors exactly.
Each operation costs time in the number of nonzero entries, not in the
size of the dense array, and no floating point enters these checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .operators import flat_action


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


def mono_mul_left(tensor: PhaseTensor, factors, dims=None) -> PhaseTensor:
    """Exact product M . T, with M the (axis, MonomialOperator) pairs on the axes of dims.

    dims defaults to tensor.shape; finer dims split the row-major flat
    index into more axes, such as one per site.  operators.flat_action
    moves each stored entry's flat index and gives the factors' phases,
    which add to its root; its multiplicity is kept.  Factors sit on
    distinct axes; a repeated axis raises ValueError.
    """
    flat, phases = flat_action(tensor.shape if dims is None else dims, factors, tensor.flat_indices)
    return PhaseTensor.from_entries(
        tensor.shape, tensor.modulus, flat, tensor.roots + sum(phases), tensor.mults, tensor.scale
    )


def mono_mul_right(tensor: PhaseTensor, factors, dims=None) -> PhaseTensor:
    """Exact product T . M, with M the (axis, MonomialOperator) pairs on the axes of dims.

    (T.M)[o, i] = w**phase[i] T[o, perm[i]], so an entry at perm[i] moves
    to i, which is where the adjoint of M sends it, and gains phase[i],
    the negated phase of that adjoint.  A repeated axis raises ValueError.
    """
    adjoints = [(axis, mono.adjoint()) for axis, mono in factors]
    flat, phases = flat_action(tensor.shape if dims is None else dims, adjoints, tensor.flat_indices)
    return PhaseTensor.from_entries(
        tensor.shape, tensor.modulus, flat, tensor.roots - sum(phases), tensor.mults, tensor.scale
    )


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
