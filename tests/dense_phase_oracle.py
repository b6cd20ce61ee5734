"""Dense oracle for the sparse exact phase tensors of latgauge.cyclotomic.

A tensor is held here as its dense (*shape, L) integer count array, with
counts[i, k] the multiplicity of w**k in entry i.  Monomial products
permute one index and rotate the count vectors with np.take_along_axis,
contraction is a tensordot followed by a cyclic convolution of the root
axes, and equality is integer array equality.  These are the dense kernels
the library used before its tensors became sparse; the tests compare the
sparse results against them entry by entry.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def mono_mul_left(counts: np.ndarray, perm, phase, axis: int = 0) -> np.ndarray:
    """Counts of M . T, with M|o> = w**phase[o] |perm[o]> acting on one index of T."""
    moved = np.moveaxis(counts, axis, 0)
    modulus = counts.shape[-1]
    flat = moved.reshape(moved.shape[0], -1, modulus)
    k = np.arange(modulus)
    gather = (k[None, :] - np.asarray(phase)[:, None]) % modulus
    rolled = np.take_along_axis(flat, np.broadcast_to(gather[:, None, :], flat.shape), axis=2)
    out = np.empty_like(rolled)
    out[np.asarray(perm)] = rolled
    return np.moveaxis(out.reshape(moved.shape), 0, axis)


def mono_mul_right(counts: np.ndarray, perm, phase) -> np.ndarray:
    """Counts of T . M on the second (column) index: (T.M)[o, i] = w**phase[i] T[o, perm[i]]."""
    modulus = counts.shape[-1]
    picked = counts[:, np.asarray(perm), :]
    k = np.arange(modulus)
    gather = (k[None, :] - np.asarray(phase)[:, None]) % modulus
    return np.take_along_axis(picked, gather[None, :, :].repeat(counts.shape[0], axis=0), axis=2)


def contract(a: np.ndarray, b: np.ndarray, axes: tuple[int, int]) -> np.ndarray:
    """Counts of the tensordot of a and b over one index each; root exponents add mod L."""
    full = np.tensordot(a, b, axes=axes)
    # full has a's root axis after a's free indices and b's root axis last.
    full = np.moveaxis(full, a.ndim - 2, -2)
    modulus = a.shape[-1]
    out = np.zeros(full.shape[:-1], dtype=np.int64)
    for i in range(modulus):
        out += np.roll(full[..., i, :], i, axis=-1)
    return out


def trace(counts: np.ndarray, a: int, b: int) -> np.ndarray:
    """Counts of the trace over indices a and b; the root axis stays last."""
    return np.trace(counts, axis1=a, axis2=b)


def equal(a: np.ndarray, b: np.ndarray, scale_a=Fraction(1), scale_b=Fraction(1)) -> bool:
    """Exact equality of two count tensors with their scalar prefactors."""
    return scale_a == scale_b and np.array_equal(a, b)


def proportional(a: np.ndarray, b: np.ndarray, scale_a, scale_b) -> Fraction | None:
    """r with a = r * b for count-identical tensors, else None."""
    if a.shape != b.shape or not np.array_equal(a, b) or scale_b == 0:
        return None
    return Fraction(scale_a) / Fraction(scale_b)
