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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce


class GroupMismatchError(ValueError):
    """Operands belong to different group specifications."""


@dataclass(frozen=True)
class GroupSpec:
    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "orders", tuple(int(n) for n in self.orders))
        if not self.orders:
            raise ValueError("at least one cyclic factor is required")
        if any(n < 2 for n in self.orders):
            raise ValueError("cyclic factor orders must be >= 2")

    @property
    def size(self) -> int:
        return math.prod(self.orders)

    @property
    def phase_modulus(self) -> int:
        """Common modulus L for all phases attached to this group.

        lcm of the factor orders; every gcd(n_i, n_j) divides it, so the
        bilinear cocycle phases land in the same Z_L.
        """
        return reduce(math.lcm, self.orders)

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

    def dual_identity(self) -> "DualCharacter":
        return DualCharacter(self, (0,) * len(self.orders))

    def index_of(self, exps: tuple[int, ...]) -> int:
        idx = 0
        for e, n in zip(exps, self.orders):
            idx = idx * n + e
        return idx

    def exps_of(self, index: int) -> tuple[int, ...]:
        exps = []
        for n in reversed(self.orders):
            exps.append(index % n)
            index //= n
        return tuple(reversed(exps))

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

    def __mul__(self, other: "DualCharacter") -> "DualCharacter":
        if self.group != other.group:
            raise GroupMismatchError("characters from different groups")
        return DualCharacter(self.group, self.group.add_exps(self.exps, other.exps))

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


def slant_product(alpha: Cocycle, g: GroupElement) -> DualCharacter:
    """The character h -> alpha(g, h) / alpha(h, g).

    Closed form for the bilinear representatives; the result is checked
    against the defining ratio on every element before being returned.
    """
    if alpha.group != g.group:
        raise GroupMismatchError("cocycle and element from different groups")
    spec = alpha.group
    orders = spec.orders
    chi = []
    for k in range(len(orders)):
        acc = 0
        for j in range(k + 1, len(orders)):
            d = math.gcd(orders[k], orders[j])
            acc += (orders[k] // d) * alpha.pmatrix[k][j] * g.exps[j]
        for i in range(k):
            d = math.gcd(orders[i], orders[k])
            acc -= (orders[k] // d) * alpha.pmatrix[i][k] * g.exps[i]
        chi.append(acc % orders[k])
    result = DualCharacter(spec, tuple(chi))
    for h in spec.elements():
        lhs = (alpha.exponent(g.exps, h.exps) - alpha.exponent(h.exps, g.exps)) % spec.phase_modulus
        if lhs != spec.pair_exponent(result.exps, h.exps):
            raise ArithmeticError("slant product is not a character; bad cocycle representative")
    return result


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
    subgroup = tuple(h if isinstance(h, GroupElement) else group.element(h) for h in subgroup)
    out = []
    for chi in group.characters():
        if all(pair(chi, h).is_one for h in subgroup):
            out.append(chi)
    return tuple(out)
