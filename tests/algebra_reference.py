"""Small reference forms of library objects that only the tests read.

A cocycle's value as a PhaseExponent, a PhaseExponent's complex value,
the exhaustive cocycle condition, the slant product's closed form, a
Weyl factor's action and dense complex matrix, each constructor's matrix
from its definition, a PhaseTensor's dense complex array, the trivial
character, the product of two characters, the labels of a list of terms
and a syndrome's full label -> phase table: each restates the library's
integer data in the form a textbook check compares against.  The factor
forms are built from the scalar helpers (add_exps, pair_exponent,
Cocycle.exponent), never from the group's tables.
"""

from __future__ import annotations

import math

import numpy as np

from latgauge.cyclotomic import PhaseTensor
from latgauge.excitations import SyndromeMap, syndrome
from latgauge.groups import Cocycle, DualCharacter, GroupMismatchError, GroupSpec, PhaseExponent
from latgauge.lattice import PlacedTerms, StabilizerLabel
from latgauge.operators import MonomialOperator, ProductOperator


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


def slant_closed_form(alpha: Cocycle, g) -> DualCharacter:
    """alpha(g, .) / alpha(., g) from the bilinear representative's p matrix, factor by factor.

    Entry k gains p[k][j] g[j] n_k / gcd(n_k, n_j) for each j > k and loses
    p[i][k] g[i] n_k / gcd(n_i, n_k) for each i < k, mod n_k.
    """
    orders = alpha.group.orders
    chi = []
    for k, n in enumerate(orders):
        acc = sum(n // math.gcd(n, orders[j]) * alpha.pmatrix[k][j] * g.exps[j] for j in range(k + 1, len(orders)))
        acc -= sum(n // math.gcd(orders[i], n) * alpha.pmatrix[i][k] * g.exps[i] for i in range(k))
        chi.append(acc % n)
    return alpha.group.character(chi)


def dense_action(mono: MonomialOperator) -> tuple[list[int], list[int]]:
    """(perm, phase) with mono|i> = w**phase[i] |perm[i]>: perm[h] = h + a and phase[h] = c + chi(h) mod L."""
    group = mono.group
    a, chi = group.exps_of(mono.a), group.exps_of(mono.chi)
    perm, phase = [], []
    for i in range(group.size):
        h = group.exps_of(i)
        perm.append(group.index_of(group.add_exps(h, a)))
        phase.append((mono.c + group.pair_exponent(chi, h)) % group.phase_modulus)
    return perm, phase


def dense_from(perm, phase, modulus: int) -> np.ndarray:
    """The complex matrix whose column i holds w**phase[i] in row perm[i]."""
    mat = np.zeros((len(perm), len(perm)), dtype=complex)
    mat[list(perm), range(len(perm))] = np.exp(2j * np.pi * np.asarray(phase) / modulus)
    return mat


def to_dense(mono: MonomialOperator) -> np.ndarray:
    """The dim x dim complex matrix of mono, from dense_action."""
    return dense_from(*dense_action(mono), mono.modulus)


def constructor_dense(name: str, label, alpha: Cocycle | None = None) -> np.ndarray:
    """The matrix of operators.<name>(...) from the constructor's definition on the label's group.

    shift_x: |h> -> |g + h>; clock_z: |h> -> label(h) |h>; projective_x:
    |h> -> alpha(g, h) |g + h>; projective_x_tilde: |h> -> alpha(h - g, g)^-1 |h - g>.
    """
    group, g = label.group, label.exps
    perm, phase = [], []
    for i in range(group.size):
        h = group.exps_of(i)
        if name == "clock_z":
            target, k = h, group.pair_exponent(g, h)
        elif name == "projective_x_tilde":
            target = group.add_exps(h, group.neg_exps(g))
            k = -alpha.exponent(target, g)
        else:
            target = group.add_exps(g, h)
            k = alpha.exponent(g, h) if name == "projective_x" else 0
        perm.append(group.index_of(target))
        phase.append(k)
    return dense_from(perm, phase, group.phase_modulus)


def to_complex(tensor: PhaseTensor) -> np.ndarray:
    """Dense complex array of the tensor's entries, scale included."""
    roots = np.exp(2j * np.pi * np.arange(tensor.modulus) / tensor.modulus)
    values = tensor.mults * roots[tensor.roots]
    size = math.prod(tensor.shape)
    dense = np.bincount(tensor.flat_indices, weights=values.real, minlength=size) + 1j * np.bincount(
        tensor.flat_indices, weights=values.imag, minlength=size
    )
    return float(tensor.scale) * dense.reshape(tensor.shape)


def dual_identity(group: GroupSpec) -> DualCharacter:
    """The trivial character of group: every exponent 0."""
    return group.character((0,) * len(group.orders))


def character_product(chi: DualCharacter, psi: DualCharacter) -> DualCharacter:
    """The pointwise product chi psi; characters of different groups raise GroupMismatchError."""
    if chi.group != psi.group:
        raise GroupMismatchError("characters from different groups")
    return chi.group.character(chi.group.add_exps(chi.exps, psi.exps))


def term_labels(terms) -> list[StabilizerLabel]:
    """The labels of terms, in order; placed terms build them without building a term."""
    return terms.labels if isinstance(terms, PlacedTerms) else [t.label for t in terms]


def phase_table(terms, op: ProductOperator, syn: SyndromeMap | None = None) -> dict:
    """StabilizerLabel -> PhaseExponent | None for every term, in term order, on op.

    syn, syndrome(terms, op) when not given, lists the violated terms; every
    other term has phase one.
    """
    syn = syndrome(terms, op) if syn is None else syn
    phases = dict.fromkeys(term_labels(terms), PhaseExponent.one(op.modulus))
    phases.update(syn.violations)
    return phases


def violated_labels(syn: SyndromeMap) -> list[StabilizerLabel]:
    """The labels of the terms syn lists as violated, in term order."""
    return [label for label, _ in syn.violations]
