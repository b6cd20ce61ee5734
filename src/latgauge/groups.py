"""Finite Abelian groups, their character duals, and bilinear 2-cocycles.

A group is a product of cyclic factors Z_n1 x ... x Z_nk.  Elements and
irreducible characters are both encoded as exponent tuples, one entry per
factor, reduced modulo the factor order.  The pairing between a character
chi and an element g is

    chi(g) = exp(2 pi i sum_i chi[i] g[i] / n_i).

Every phase produced by this module is an exact power of the primitive
L-th root of unity with L = lcm(n_1, ..., n_k); phases are represented by
their integer exponent mod L (PhaseExponent) and never touch floating
point.  Second cohomology classes are represented by the standard bilinear
cocycles

    alpha(a, b) = prod_{i<j} exp(2 pi i p[i][j] a[j] b[i] / gcd(n_i, n_j)),

one representative per class, with p strictly upper triangular.

Routines over every element read the law off read-only int64 tables on
index_of's numbering, built once per group (add, neg, pair) and once per
cocycle class (table); the scalar helpers combine one pair of elements.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np


class GroupMismatchError(ValueError):
    """Operands belong to different group specifications."""


@dataclass(frozen=True)
class GroupSpec:
    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        try:  # int() would turn 2.7 or "3" into another group; operator.index refuses them
            object.__setattr__(self, "orders", tuple(operator.index(n) for n in self.orders))
        except TypeError:
            raise ValueError(f"cyclic factor orders must be integers, not {self.orders!r}") from None
        if not self.orders:
            raise ValueError("at least one cyclic factor is required")
        if any(n < 2 for n in self.orders):
            raise ValueError("cyclic factor orders must be >= 2")
        # strides[i]: the index of factor i's unit element, so index_of(exps) = exps . strides.
        object.__setattr__(self, "strides", tuple(math.prod(self.orders[i + 1 :]) for i in range(len(self.orders))))

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    @property
    def phase_modulus(self) -> int:
        """Common modulus L for all phases attached to this group.

        lcm of the factor orders; every gcd(n_i, n_j) divides it, so the
        bilinear cocycle phases land in the same Z_L.
        """
        return functools.reduce(math.lcm, self.orders)

    # -- element and character encodings ---------------------------------

    def reduce_exps(self, exps) -> tuple[int, ...]:
        if len(exps) != len(self.orders):
            raise ValueError("exponent tuple has wrong length")
        return tuple(int(e) % n for e, n in zip(exps, self.orders))

    def element(self, exps) -> "GroupElement":
        return GroupElement(self, self.reduce_exps(exps))

    def character(self, exps) -> "DualCharacter":
        return DualCharacter(self, self.reduce_exps(exps))

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * len(self.orders))

    def index_of(self, exps: tuple[int, ...]) -> int:
        return sum(map(operator.mul, exps, self.strides))

    def exps_of(self, index: int) -> tuple[int, ...]:
        return tuple(int(e) for e in np.unravel_index(index, self.orders))

    def elements(self):
        for exps in itertools.product(*(range(n) for n in self.orders)):
            yield GroupElement(self, exps)

    def characters(self):
        for exps in itertools.product(*(range(n) for n in self.orders)):
            yield DualCharacter(self, exps)

    def add_exps(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def neg_exps(self, a: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((-x) % n for x, n in zip(a, self.orders))

    def pair_exponent(self, chi_exps: tuple[int, ...], g_exps: tuple[int, ...]) -> int:
        """Exponent k mod L with chi(g) = w**k."""
        L = self.phase_modulus
        k = 0
        for c, g, n in zip(chi_exps, g_exps, self.orders):
            k += (L // n) * c * g
        return k % L

    # -- the group law as tables, one row per element index --------------------

    @property
    @functools.cache
    def digits(self) -> np.ndarray:
        """digits[a] = exps_of(a), shape (size, k)."""
        return _read_only(np.indices(self.orders).reshape(len(self.orders), -1).T)

    @property
    @functools.cache
    def add(self) -> np.ndarray:
        """add[a, b]: the index of a + b."""
        return _read_only((self.digits[:, None] + self.digits) % self.orders @ self.strides)

    @property
    @functools.cache
    def neg(self) -> np.ndarray:
        """neg[a]: the index of -a."""
        return _read_only(-self.digits % self.orders @ self.strides)

    @property
    @functools.cache
    def pair(self) -> np.ndarray:
        """pair[chi, g]: the exponent k mod L with chi(g) = w**k."""
        weights = self.phase_modulus // np.array(self.orders)
        return _read_only(self.digits * weights @ self.digits.T % self.phase_modulus)

    def character_of(self, values) -> "DualCharacter":
        """The chi with chi(g) = w**values[g] mod L on every element index g: read at the
        unit elements, then checked on every element, so other values raise ArithmeticError."""
        L = self.phase_modulus
        values = np.asarray(values) % L
        exps = tuple(int(values[u]) // (L // n) for u, n in zip(self.strides, self.orders))
        if not np.array_equal(self.pair[self.index_of(exps)], values):
            raise ArithmeticError("values are not a character")
        return DualCharacter(self, exps)


def _read_only(table: np.ndarray) -> np.ndarray:
    """table as int64, with writes refused: the cached tables are shared."""
    table = table.astype(np.int64)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class GroupElement:
    group: GroupSpec
    exps: tuple[int, ...]

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return compose(self, other)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, self.group.neg_exps(self.exps))

    @property
    def is_identity(self) -> bool:
        return all(e == 0 for e in self.exps)


@dataclass(frozen=True)
class DualCharacter:
    group: GroupSpec
    exps: tuple[int, ...]

    def inverse(self) -> "DualCharacter":
        return DualCharacter(self.group, self.group.neg_exps(self.exps))

    @property
    def is_identity(self) -> bool:
        return all(e == 0 for e in self.exps)


@dataclass(frozen=True)
class PhaseExponent:
    """Exact phase w**k with w = exp(2 pi i / modulus)."""

    k: int
    modulus: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", int(self.k) % int(self.modulus))

    def __mul__(self, other: "PhaseExponent") -> "PhaseExponent":
        if self.modulus != other.modulus:
            raise GroupMismatchError("phases with different moduli")
        return PhaseExponent(self.k + other.k, self.modulus)

    @property
    def is_one(self) -> bool:
        return self.k == 0

    @classmethod
    def one(cls, modulus: int) -> "PhaseExponent":
        return cls(0, modulus)


def compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """Componentwise modular addition; the group law."""
    if a.group != b.group:
        raise GroupMismatchError("elements from different groups")
    return GroupElement(a.group, a.group.add_exps(a.exps, b.exps))


def pair(chi: DualCharacter, g: GroupElement) -> PhaseExponent:
    """Exact value of the character pairing chi(g)."""
    if chi.group != g.group:
        raise GroupMismatchError("character and element from different groups")
    spec = chi.group
    return PhaseExponent(spec.pair_exponent(chi.exps, g.exps), spec.phase_modulus)


@dataclass(frozen=True)
class Cocycle:
    """Bilinear representative of a class in second cohomology.

    pmatrix is strictly upper triangular with pmatrix[i][j] reduced modulo
    gcd(n_i, n_j).  The trivial class is the all-zero matrix.
    """

    group: GroupSpec
    pmatrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        k = len(self.group.orders)
        if len(self.pmatrix) > k:
            raise ValueError(f"pmatrix has {len(self.pmatrix)} rows for {k} cyclic factors")
        rows = []
        for i in range(k):
            row = list(self.pmatrix[i]) if i < len(self.pmatrix) else [0] * k
            if len(row) != k:
                raise ValueError("pmatrix must be square")
            for j in range(k):
                if j <= i and row[j] != 0:
                    raise ValueError("pmatrix must be strictly upper triangular")
                if j > i:
                    row[j] %= math.gcd(self.group.orders[i], self.group.orders[j])
            rows.append(tuple(row))
        object.__setattr__(self, "pmatrix", tuple(rows))

    @classmethod
    def trivial(cls, group: GroupSpec) -> "Cocycle":
        k = len(group.orders)
        return cls(group, tuple((0,) * k for _ in range(k)))

    @property
    def is_trivial(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.pmatrix)

    def exponent(self, a_exps: tuple[int, ...], b_exps: tuple[int, ...]) -> int:
        """Exponent k mod L with alpha(a, b) = w**k, on raw exponent tuples."""
        orders = self.group.orders
        L = self.group.phase_modulus
        k = 0
        for i in range(len(orders)):
            for j in range(i + 1, len(orders)):
                p = self.pmatrix[i][j]
                if p:
                    d = math.gcd(orders[i], orders[j])
                    k += (L // d) * p * a_exps[j] * b_exps[i]
        return k % L

    @property
    @functools.cache
    def table(self) -> np.ndarray:
        """table[a, b]: exponent(exps_of(a), exps_of(b)) for every pair of element indices."""
        orders, L, digits = self.group.orders, self.group.phase_modulus, self.group.digits
        weights = np.zeros((len(orders),) * 2, dtype=np.int64)
        for i, j in itertools.combinations(range(len(orders)), 2):
            weights[j, i] = L // math.gcd(orders[i], orders[j]) * self.pmatrix[i][j]
        return _read_only(digits @ weights @ digits.T % L)


def slant_product(alpha: Cocycle, g: GroupElement) -> DualCharacter:
    """The character h -> alpha(g, h) / alpha(h, g), read off the cocycle's table.

    character_of raises ArithmeticError if the ratio is not a character.
    """
    if alpha.group != g.group:
        raise GroupMismatchError("cocycle and element from different groups")
    i = alpha.group.index_of(g.exps)
    return alpha.group.character_of(alpha.table[i] - alpha.table[:, i])


def enumerate_cocycle_classes(group: GroupSpec) -> list[Cocycle]:
    """One bilinear representative per cohomology class; trivial first.

    The class count for a product of cyclic groups is
    prod_{i<j} gcd(n_i, n_j).
    """
    orders = group.orders
    k = len(orders)
    ranges = []
    positions = []
    for i in range(k):
        for j in range(i + 1, k):
            ranges.append(range(math.gcd(orders[i], orders[j])))
            positions.append((i, j))
    reps = []
    for values in itertools.product(*ranges) if ranges else [()]:
        rows = [[0] * k for _ in range(k)]
        for (i, j), v in zip(positions, values):
            rows[i][j] = v
        reps.append(Cocycle(group, tuple(tuple(r) for r in rows)))
    return reps


# -- subgroups and restriction -------------------------------------------


def subgroup_generated(group: GroupSpec, generators) -> tuple[GroupElement, ...]:
    """Closure of a generating set, sorted by element index."""
    seen = {group.identity()}
    frontier = [group.identity()]
    gens = [g if isinstance(g, GroupElement) else group.element(g) for g in generators]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = compose(cur, g)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return tuple(sorted(seen, key=lambda e: group.index_of(e.exps)))


def is_subgroup(group: GroupSpec, elements) -> bool:
    elems = {e if isinstance(e, GroupElement) else group.element(e) for e in elements}
    if group.identity() not in elems:
        return False
    return all(compose(a, b) in elems for a in elems for b in elems)


def all_subgroups(group: GroupSpec) -> list[tuple[GroupElement, ...]]:
    """Every subgroup of a small group, found by closing generator sets.

    A subgroup of a product of k cyclic groups needs at most k generators,
    so closing all generator sets of size <= k is exhaustive.
    """
    found = set()
    elems = list(group.elements())
    for r in range(len(group.orders) + 1):
        for gens in itertools.combinations(elems, r):
            found.add(subgroup_generated(group, gens))
    return sorted(found, key=lambda sub: (len(sub), [group.index_of(e.exps) for e in sub]))


def restricted_characters(group: GroupSpec, subgroup) -> tuple[DualCharacter, ...]:
    """Characters trivial on the given subgroup (a subgroup of the dual)."""
    subgroup = [h if isinstance(h, GroupElement) else group.element(h) for h in subgroup]
    trivial = (group.pair[:, [group.index_of(h.exps) for h in subgroup]] == 0).all(axis=1)
    return tuple(chi for chi, keep in zip(group.characters(), trivial) if keep)
