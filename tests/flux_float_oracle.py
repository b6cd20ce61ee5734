"""Float oracle for the flux operators and fusion multiplicities of operators.py.

This is the route criterion 12 took before it worked in integers: the
group is a tuple-of-tuples table scanned in Python for its identity and
inverses, characters are complex vectors checked for being class
functions with np.isclose, and the multiplicities are a complex einsum
rounded back with np.rint under allclose(atol=1e-9).  The tests require
the integer route to give the same diagonals and multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FiniteGroupTable:
    """A finite group given by its multiplication table.

    mult[i][j] is the index of g_i g_j.  The identity index is located by
    scanning for a left and right unit; associativity is assumed.
    """

    mult: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.mult)

    @property
    def identity_index(self) -> int:
        n = self.size
        for e in range(n):
            if all(self.mult[e][j] == j and self.mult[j][e] == j for j in range(n)):
                return e
        raise ValueError("multiplication table has no identity")

    def inverse_index(self, i: int) -> int:
        e = self.identity_index
        for j in range(self.size):
            if self.mult[i][j] == e:
                return j
        raise ValueError("element has no inverse; not a group table")

    def is_class_function(self, values) -> bool:
        n = self.size
        for g in range(n):
            ginv = self.inverse_index(g)
            for h in range(n):
                conj = self.mult[self.mult[g][h]][ginv]
                if not np.isclose(values[conj], values[h]):
                    return False
        return True


def irrep_flux_operator(table: FiniteGroupTable, character, n_sites: int) -> np.ndarray:
    """Diagonal of the operator weighting each configuration by chi(g_1 ... g_n).

    character is a length |G| vector of character values per element and
    must be a class function.  For one-dimensional characters the result
    factorizes into a product of site-local clocks; in general it does not.
    """
    values = np.asarray(character, dtype=complex)
    if values.shape != (table.size,):
        raise ValueError("character must assign one value per group element")
    if not table.is_class_function(values):
        raise ValueError("character values are not a class function")
    n = table.size
    prod_index = np.zeros(1, dtype=np.int64) + table.identity_index
    for _ in range(n_sites):
        # prod_index[c] holds the index of the ordered product over the
        # configuration c; extend one site at a time.
        prod_index = np.array(
            [table.mult[p][g] for p in prod_index for g in range(n)], dtype=np.int64
        )
    return values[prod_index]


def fusion_coefficients(characters) -> np.ndarray:
    """Multiplicities N[s, r, t] from character orthogonality.

    characters is a matrix (n_irreps, |G|) of per-element values;
    N[s, r, t] = (1/|G|) sum_g chi_s(g) chi_r(g) conj(chi_t(g)).
    """
    chars = np.asarray(characters, dtype=complex)
    size = chars.shape[1]
    n = np.einsum("sg,rg,tg->srt", chars, chars, chars.conj()) / size
    rounded = np.rint(n.real).astype(int)
    if not np.allclose(n, rounded, atol=1e-9):
        raise ArithmeticError("fusion multiplicities are not integers")
    return rounded
