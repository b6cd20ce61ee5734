"""Small reference forms of library objects that only the tests read.

A cocycle's value as a PhaseExponent, a PhaseExponent's complex value,
the exhaustive cocycle condition, a monomial's dense complex matrix and a
PhaseTensor's dense complex array: each restates the library's integer
data in the form a textbook check compares against.
"""

from __future__ import annotations

import math

import numpy as np

from latgauge.cyclotomic import PhaseTensor
from latgauge.groups import Cocycle, PhaseExponent
from latgauge.operators import MonomialOperator


def evaluate(alpha: Cocycle, a, b) -> PhaseExponent:
    """alpha(a, b) as a PhaseExponent of the group's modulus."""
    return PhaseExponent(alpha.exponent(a.exps, b.exps), alpha.group.phase_modulus)


def phase_value(p: PhaseExponent) -> complex:
    """w**k as a complex number, w = exp(2 pi i / modulus)."""
    return complex(np.exp(2j * np.pi * p.k / p.modulus))


def verify_cocycle_condition(alpha: Cocycle) -> bool:
    """Exhaustive alpha(g,h) alpha(gh,k) = alpha(h,k) alpha(g,hk)."""
    spec = alpha.group
    L = spec.phase_modulus
    for g in spec.elements():
        for h in spec.elements():
            gh = spec.add_exps(g.exps, h.exps)
            for f in spec.elements():
                hf = spec.add_exps(h.exps, f.exps)
                lhs = (alpha.exponent(g.exps, h.exps) + alpha.exponent(gh, f.exps)) % L
                rhs = (alpha.exponent(h.exps, f.exps) + alpha.exponent(g.exps, hf)) % L
                if lhs != rhs:
                    return False
    return True


def to_dense(mono: MonomialOperator) -> np.ndarray:
    """The dim x dim complex matrix of mono: column i holds w**phase[i] in row perm[i]."""
    mat = np.zeros((mono.dim, mono.dim), dtype=complex)
    w = np.exp(2j * np.pi / mono.modulus)
    for i in range(mono.dim):
        mat[mono.perm[i], i] = w ** mono.phase[i]
    return mat


def to_complex(tensor: PhaseTensor) -> np.ndarray:
    """Dense complex array of the tensor's entries, scale included."""
    roots = np.exp(2j * np.pi * np.arange(tensor.modulus) / tensor.modulus)
    values = tensor.mults * roots[tensor.roots]
    size = math.prod(tensor.shape)
    dense = np.bincount(tensor.flat_indices, weights=values.real, minlength=size) + 1j * np.bincount(
        tensor.flat_indices, weights=values.imag, minlength=size
    )
    return float(tensor.scale) * dense.reshape(tensor.shape)
