"""Exact Weyl-operator algebra on group-labelled local spaces.

Two kinds of local space occur, both of dimension |G|:

  EDGE_GROUP   basis |h> labelled by group elements h,
  VERTEX_DUAL  basis |chi> labelled by characters chi.

Every site factor is a Weyl operator of the group,

  M|h> = w**(c + chi(h)) |h + a>,

held as the integers (a, chi, c): a and chi are indices on the group's
index_of numbering, c an exponent mod L.  Products, adjoints and
commutators are integer laws read off the group's add and pair tables,
so they stay exact.  The character group is isomorphic to G, so one
constructor serves both site kinds, and the label type (GroupElement or
DualCharacter) names the site kind: shifts act on the site whose basis
has the label's type, clocks on the other kind.  Each constructor records
that kind on the factor.  On EDGE_GROUP sites the generalized clock and
shift act as

  shift_x(g)   |h>   -> |g h>
  clock_z(chi) |h>   -> chi(h) |h>

and on VERTEX_DUAL sites with the roles of labels exchanged

  shift_x(chi) |k>  -> |chi k>
  clock_z(g)   |k>  -> k(g) |k>.

The projective variants twist the shifts by a 2-cocycle and act on the
same site kind as shift_x:

  projective_x(alpha, g)       |h> -> alpha(g, h) |g h>
  projective_x_tilde(alpha, g) |h> -> conj(alpha)(h g^-1, g) |h g^-1>

which form commuting left and right projective regular representations.
Multiplying factors of different groups or kinds is refused, and so is
applying a factor to a site of another kind.  ProductOperator tensors
site-local factors over named sites and is the workhorse for
stabilizers, strings and logicals; a Placement holds many of them as
integer arrays of site numbers and factor ids, with the factors' Weyl
rows a, chi, c and kind, which the batched commutation pass
overlap_exponents reads.  Every dense route (flat_action,
flatten_product_operator, SupportState and StateVector) reads each
factor's target and phase per basis state from MonomialOperator.action.
Every state the library builds is a SupportState: sorted basis keys with
integer root exponents and a rational squared magnitude.  From one walk
over the keys' digits it checks exactly which product operators fix it
(fixed_by) and counts the roots each one returns onto the support
(root_counts).  StateVector holds dense complex amplitudes; nothing in
the library builds one, but bench/spans.py times StateVector.apply by
name, which tests/test_bench_contract.py checks, so it stays.  A flux
operator of a finite group, abelian or not, is the integer diagonal
chi(g_1 ... g_n) read off an integer multiplication table and an integer
character, and fusion_coefficients divides the orthogonality sums by |G|
exactly.  Every check on operators and on states is exact.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .groups import (
    Cocycle,
    DualCharacter,
    GroupElement,
    GroupMismatchError,
    GroupSpec,
    PhaseExponent,
)


SUPPORT_TILE = 2**15  # basis indices each flat_action call walks


class CapExceededError(RuntimeError):
    """A requested computation would exceed the configured size cap."""


class SiteKind(enum.Enum):
    EDGE_GROUP = "edge_group"
    VERTEX_DUAL = "vertex_dual"


@dataclass(frozen=True)
class MonomialOperator:
    """The Weyl operator M|h> = w**(c + chi(h)) |h + a> on one site, w = exp(2 pi i / modulus).

    a and chi index the group's elements and characters, c is reduced
    mod the group's phase modulus on construction.
    """

    group: GroupSpec
    a: int
    chi: int
    c: int
    kind: SiteKind

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", self.c % self.group.phase_modulus)

    @property
    def dim(self) -> int:
        return self.group.size

    @property
    def modulus(self) -> int:
        return self.group.phase_modulus

    @property
    def is_identity(self) -> bool:
        return not (self.a or self.chi or self.c)

    @classmethod
    def identity(cls, group: GroupSpec, kind: SiteKind) -> "MonomialOperator":
        return cls(group, 0, 0, 0, kind)

    def multiply(self, other: "MonomialOperator") -> "MonomialOperator":
        """Exact composition self . other (self applied second): (a1 + a2, chi1 + chi2, c1 + c2 + chi1(a2))."""
        if self.group != other.group:
            raise ValueError("operator dimensions or moduli differ")
        if self.kind != other.kind:
            raise ValueError("factors act on different site kinds")
        g = self.group
        c = self.c + other.c + int(g.pair[self.chi, other.a])
        return MonomialOperator(g, int(g.add[self.a, other.a]), int(g.add[self.chi, other.chi]), c, self.kind)

    def adjoint(self) -> "MonomialOperator":
        """(-a, -chi, chi(a) - c)."""
        g = self.group
        c = int(g.pair[self.chi, self.a]) - self.c
        return MonomialOperator(g, int(g.neg[self.a]), int(g.neg[self.chi]), c, self.kind)

    def action(self) -> tuple[np.ndarray, np.ndarray]:
        """(target, phase) with M|h> = w**phase[h] |target[h]> on every element index h, phase mod L."""
        g = self.group
        return g.add[self.a], (g.pair[self.chi] + self.c) % g.phase_modulus


# -- clock / shift constructors -------------------------------------------
#
# _shift, clock_z and projective_x_tilde are memoized, each built once per
# (label, cocycle) from the label's index and a row of the cocycle's table.
# clock_z(label.inverse()) is the adjoint of clock_z(label).


def _site_kind(label: GroupElement | DualCharacter, shift: bool) -> SiteKind:
    """A shift acts on the site whose basis has the label's type, a clock on the other."""
    on_edge = isinstance(label, GroupElement) == shift
    return SiteKind.EDGE_GROUP if on_edge else SiteKind.VERTEX_DUAL


@functools.cache
def _shift(label: GroupElement | DualCharacter, alpha: Cocycle | None = None) -> MonomialOperator:
    """|h> -> alpha(g, h) |g + h>: chi is the row alpha(g, .) of the cocycle's table."""
    spec = label.group
    g = spec.index_of(label.exps)
    chi = 0 if alpha is None else spec.index_of(spec.character_of(alpha.table[g]).exps)
    return MonomialOperator(spec, g, chi, 0, _site_kind(label, shift=True))


def shift_x(label: GroupElement | DualCharacter) -> MonomialOperator:
    """|h> -> |label h>."""
    return _shift(label)


@functools.cache
def clock_z(label: GroupElement | DualCharacter) -> MonomialOperator:
    """Diagonal |h> -> label(h) |h>, with h of the other label type."""
    spec = label.group
    return MonomialOperator(spec, 0, spec.index_of(label.exps), 0, _site_kind(label, shift=False))


def projective_x(alpha: Cocycle, label: GroupElement | DualCharacter) -> MonomialOperator:
    """Left projective shift, X(g) X(h) = alpha(g, h) X(g h)."""
    if alpha.group != label.group:
        raise GroupMismatchError("cocycle and label from different groups")
    return _shift(label, alpha)


@functools.cache
def projective_x_tilde(alpha: Cocycle, label: GroupElement | DualCharacter) -> MonomialOperator:
    """Commuting right projective shift |h> -> conj(alpha)(h g^-1, g)|h g^-1>.

    The cocycle is bilinear, so the phase is alpha(g, g) / alpha(h, g):
    c is alpha(g, g) and chi the inverse of the column alpha(., g).
    """
    if alpha.group != label.group:
        raise GroupMismatchError("cocycle and label from different groups")
    spec = label.group
    g = spec.index_of(label.exps)
    chi = spec.index_of(spec.character_of(-alpha.table[:, g]).exps)
    return MonomialOperator(spec, int(spec.neg[g]), chi, int(alpha.table[g, g]), _site_kind(label, shift=True))


def corner_factors(twist: Cocycle, label: GroupElement | DualCharacter) -> tuple:
    """(west, east, north, south) factors of the plaquette of one label, standard orientation.

    The library's one convention for the twisted shift pair: the conjugate
    projective shift west, the projective shift east, the adjoint clock
    north and the clock south.  Every plaquette and boundary term of
    lattice, every Gauss law of a gauging map, and every dipole, confined
    string and string order takes its factors from here.
    """
    return projective_x_tilde(twist, label), projective_x(twist, label), clock_z(label.inverse()), clock_z(label)


# -- products over sites ----------------------------------------------------


@dataclass(frozen=True)
class ProductOperator:
    """Tensor product of site-local monomials, identity elsewhere.

    factors holds (site id, MonomialOperator) pairs sorted by site; each
    factor carries the SiteKind it acts on, so state application can
    reject mismatched placements.  A site with two factors raises
    ValueError (from_factors multiplies them).
    """

    factors: tuple[tuple[object, MonomialOperator], ...]
    modulus: int

    def __post_init__(self) -> None:
        if len({site for site, _ in self.factors}) != len(self.factors):
            raise ValueError("operator has more than one factor on a site")

    @classmethod
    def from_factors(cls, pairs, modulus: int) -> "ProductOperator":
        """Product of (site, factor) pairs; a repeated site multiplies in
        order (later factors act after earlier ones) and identities drop."""
        by_site: dict = {}
        for site, op in pairs:
            by_site[site] = op.multiply(by_site[site]) if site in by_site else op
        items = sorted((site, op) for site, op in by_site.items() if not op.is_identity)
        return cls(tuple(items), modulus)

    @classmethod
    def identity_op(cls, modulus: int) -> "ProductOperator":
        return cls((), modulus)

    def multiply(self, other: "ProductOperator") -> "ProductOperator":
        """self . other with sitewise exact composition."""
        if self.modulus != other.modulus:
            raise ValueError("phase moduli differ")
        return ProductOperator.from_factors(other.factors + self.factors, self.modulus)


@functools.cache
def _phase(k: int, modulus: int) -> PhaseExponent:
    """PhaseExponent(k, modulus), built once per reduced k: phases are immutable."""
    return PhaseExponent(k, modulus)


def commutation_phase(a: ProductOperator, b: ProductOperator) -> PhaseExponent:
    """The scalar c with a.b = c b.a.

    One overlap_exponents pass over the single pair: operators with
    disjoint supports give phase 0 after the moduli are compared.  It
    serves single pairs, such as braiding phases; scans over many pairs
    call overlap_exponents directly.
    """
    k = next((int(ks[0]) for _, _, ks in overlap_exponents([a], [b])), 0)
    return _phase(k, a.modulus)


OVERLAP_MEETINGS = 2**13  # factor meetings each tile of overlap_exponents lists, at most
OVERLAP_BINS = 2**15  # (row, column) bins each part of a tile counts into, at most


@dataclass(frozen=True, eq=False)
class Placement:
    """Product operators as integer arrays.

    Operator i's factors are entries start[i]:start[i + 1] of site and fid:
    site[e] indexes sites, the site ids, and fid[e] indexes factors, which
    are distinct.  modulus is the operators' one phase modulus, None for
    no operators.  weyl holds the factors' Weyl rows, read on first use.
    """

    start: np.ndarray
    site: np.ndarray
    fid: np.ndarray
    sites: list
    factors: list
    modulus: int | None

    def __len__(self) -> int:
        return len(self.start) - 1

    def op(self, i: int) -> "ProductOperator":
        """Operator i, built from its entries."""
        lo, hi = self.start[i], self.start[i + 1]
        pairs = zip(self.site[lo:hi].tolist(), self.fid[lo:hi].tolist())
        return ProductOperator(tuple((self.sites[s], self.factors[f]) for s, f in pairs), self.modulus)

    @functools.cached_property
    def weyl(self) -> tuple[np.ndarray, ...]:
        """Int arrays (a, chi, c, kind), one entry per factor; kind is 1 for a VERTEX_DUAL factor."""
        rows = [(f.a, f.chi, f.c, f.kind is SiteKind.VERTEX_DUAL) for f in self.factors]
        return tuple(np.array(rows, dtype=np.int64).reshape(-1, 4).T)


def place(ops) -> Placement:
    """ops as a Placement: a Placement as it is, ProductOperators by one pass over their factors.

    Sites and factors are numbered in order of first appearance.  Operators
    of different moduli raise ValueError.
    """
    if isinstance(ops, Placement):
        return ops
    ops = list(ops)
    moduli = {op.modulus for op in ops}
    if len(moduli) > 1:
        raise ValueError("phase moduli differ")
    entries = [entry for op in ops for entry in op.factors]
    sites: dict = {}
    fids: dict = {}
    site = np.array([sites.setdefault(s, len(sites)) for s, _ in entries], dtype=np.int64)
    fid = np.array([fids.setdefault(mono, len(fids)) for _, mono in entries], dtype=np.int64)
    start = np.concatenate(([0], np.cumsum([len(op.factors) for op in ops], dtype=np.int64)))
    return Placement(start, site, fid, list(sites), list(fids), moduli.pop() if moduli else None)


def _site_numbers(cols: Placement, rows: Placement) -> np.ndarray:
    """Each entry of cols as the number of its site among rows' sites, -1 for a site rows lack."""
    if cols.sites is rows.sites:
        return cols.site
    number = {s: i for i, s in enumerate(rows.sites)}
    return np.array([number.get(s, -1) for s in cols.sites], dtype=np.int64)[cols.site]


def overlap_exponents(rows, cols=None):
    """Commutation exponents of the pairs of product operators that share a site.

    rows and cols are Placements or sequences of ProductOperators, which
    operators.place puts into arrays in one pass.  Yields (i, j, k)
    integer arrays, one tile at a time, over every pair of rows[i] and
    cols[j] that act on a common site, in (i, j) order; with cols None the
    pairs are those of rows with i < j.  k is the exponent with
    rows[i] . cols[j] = w**k cols[j] . rows[i].  Pairs that share no site
    commute and are not listed.  All operators must share one modulus;
    ValueError otherwise.  Once some pair shares a site, the factors must
    share one group of that modulus (ValueError for two groups,
    GroupMismatchError for another modulus), and the two factors of each
    meeting one site kind (ValueError).

    The column entries are grouped by site with a stable argsort, and the
    row entries on sites no column uses are dropped by one lookup.  Each
    meeting of a row factor r with a column factor q contributes
    chi_r(a_q) - chi_q(a_r), two reads of the group's pair table on the
    placements' Weyl rows.  A tile takes as many rows as keep its meetings
    within OVERLAP_MEETINGS: np.repeat and fancy indexing list every
    meeting of a row factor with a column factor on a site.  Its columns are numbered in order, and
    np.bincount counts the meetings and sums their exponents per (row,
    column) bin, over as many rows at a time as fit in OVERLAP_BINS bins.
    Bins are numbered in (i, j) order, so nothing is sorted.  The two
    tile sizes are the fastest measured on the benchmark's algebra tori
    that keep a check_all_commute pass on the Z2xZ3 16x16 torus under
    1 MiB of traced memory.
    """
    upper = cols is None
    rows = place(rows)
    cols = rows if upper else place(cols)
    moduli = {rows.modulus, cols.modulus} - {None}
    if len(moduli) > 1:
        raise ValueError("phase moduli differ")
    if not len(rows) or not len(cols):
        return
    (modulus,) = moduli
    col_site = _site_numbers(cols, rows)
    on = np.flatnonzero(col_site >= 0)
    by_site = on[np.argsort(col_site[on], kind="stable")]
    col_op = np.repeat(np.arange(len(cols)), np.diff(cols.start))[by_site]
    col_fid = cols.fid[by_site]
    count = np.bincount(col_site[on], minlength=len(rows.sites))
    start = np.cumsum(count) - count
    row_op = np.repeat(np.arange(len(rows)), np.diff(rows.start))
    met = count[rows.site] > 0
    row_op, row_site, row_fid = row_op[met], rows.site[met], rows.fid[met]
    if not row_site.size:
        return
    row_start = np.concatenate(([0], np.cumsum(np.bincount(row_op, minlength=len(rows)))))
    groups = {f.group for f in (*rows.factors, *cols.factors)}
    if len(groups) > 1:
        raise ValueError("operator dimensions or moduli differ")
    group = groups.pop()
    if group.phase_modulus != modulus:
        raise GroupMismatchError("phases with different moduli")
    row_a, row_chi, _, row_kind = (w[row_fid] for w in rows.weyl)
    col_a, col_chi, _, col_kind = (w[col_fid] for w in cols.weyl)
    # A tile of rows lists at most OVERLAP_MEETINGS meetings (or one row's).
    row_meets = np.bincount(row_op, weights=count[row_site], minlength=len(rows))
    per_tile = max(1, OVERLAP_MEETINGS // int(row_meets.max()))
    col_rank = np.zeros(len(cols), dtype=np.int64)
    for a0 in range(0, len(rows), per_tile):
        a1 = min(a0 + per_tile, len(rows))
        lo, hi = row_start[a0], row_start[a1]
        sites = row_site[lo:hi]
        meets = count[sites]
        # at: each meeting's place in the column arrays, walking every row
        # factor's site list from its start.  Meetings come in row order.
        at = np.arange(meets.sum()) + np.repeat(start[sites] - (np.cumsum(meets) - meets), meets)
        r = np.repeat(np.arange(lo, hi), meets)
        i, j = row_op[r], col_op[at]
        if upper:
            later = j > i
            r, i, j, at = r[later], i[later], j[later], at[later]
        if not i.size:
            continue
        if (row_kind[r] != col_kind[at]).any():
            raise ValueError("factors act on different site kinds")
        exps = group.pair[row_chi[r], col_a[at]] - group.pair[col_chi[at], row_a[r]]
        # Number the tile's columns in order, and bin (row, column) pairs
        # over as many rows at a time as fit in OVERLAP_BINS.
        here = np.flatnonzero(np.bincount(j, minlength=len(cols)))
        width = here.size
        col_rank[here] = np.arange(width)
        key = (i - a0) * width + col_rank[j]
        ends = np.concatenate(([0], np.cumsum(np.bincount(i - a0, minlength=a1 - a0))))
        part = max(1, OVERLAP_BINS // width)
        for r0 in range(0, a1 - a0, part):
            r1 = min(r0 + part, a1 - a0)
            m0, m1 = ends[r0], ends[r1]
            if m0 == m1:
                continue
            bins = (r1 - r0) * width
            part_key = key[m0:m1] - r0 * width
            found = np.flatnonzero(np.bincount(part_key, minlength=bins))
            sums = np.bincount(part_key, weights=exps[m0:m1], minlength=bins)[found].astype(np.int64)
            yield found // width + (a0 + r0), here[found % width], sums % modulus


def flat_action(dims, factors, x):
    """Targets and phase exponents of the basis indices x under placed factors.

    factors holds (axis, MonomialOperator) pairs on distinct axes of the
    row-major space with local dimensions dims.  The digit of x on a
    factor's axis is d = x // stride % dim; with (target, phase) the
    factor's action, it sends d to target[d], so the target y gains
    (target[d] - d) * stride, and it multiplies the amplitude by
    w**phase[d].  Returns y and, in factor order, each
    factor's phase[d] array.  Each factor reads the digit of x, not of a
    partial product, so a repeated axis raises ValueError, as a repeated
    site does in ProductOperator.
    """
    axes = [axis for axis, _ in factors]
    if len(set(axes)) != len(axes):
        raise ValueError("operator has more than one factor on an axis")
    y = x.copy()
    phases = []
    for axis, mono in factors:
        stride = math.prod(dims[axis + 1 :])
        d = x // stride % dims[axis]
        target, phase = mono.action()
        y += ((target - np.arange(mono.dim)) * stride)[d]
        phases.append(phase[d])
    return y, phases


def flatten_product_operator(site_ids, dims, op: ProductOperator):
    """(perm, phase) arrays with op|x> = w**phase[x] |perm[x]> on the full space.

    Basis states x are numbered row major in site order, as in StateVector.
    No index is split into digits: from the last axis to the first, the
    axis's action target[d] * (suffix size) and phase[d] mod op.modulus are
    broadcast onto the suffix built so far, which perm indexes without
    wrapping.  perm takes the smallest unsigned dtype that holds the last
    index; phase is summed in one that holds (factors + 1) * op.modulus,
    then reduced into the smallest that holds op.modulus - 1.
    """
    placed = {site_ids.index(site): mono for site, mono in op.factors}
    perm = np.zeros(1, dtype=np.min_scalar_type(math.prod(dims) - 1))
    phase = np.zeros(1, dtype=np.min_scalar_type((len(placed) + 1) * op.modulus))
    for axis in reversed(range(len(dims))):
        mono = placed.get(axis)
        target, shift = mono.action() if mono else (np.arange(dims[axis]), np.zeros(dims[axis], dtype=np.int64))
        perm = ((target * perm.size).astype(perm.dtype)[:, None] + perm).ravel()
        phase = ((shift % op.modulus).astype(phase.dtype)[:, None] + phase).ravel()
    return perm, (phase % op.modulus).astype(np.min_scalar_type(op.modulus - 1), copy=False)


# -- states ------------------------------------------------------------------


def placed_factors(state, op: ProductOperator) -> list[tuple[int, MonomialOperator]]:
    """(axis, factor) pairs of op on the state's sites, each checked against its site's kind and dimension, and op's modulus."""
    factors = []
    for site, mono in op.factors:
        axis = state.site_ids.index(site)
        if mono.kind != state.kinds[axis]:
            raise ValueError(f"site kind mismatch at {site!r}")
        if mono.dim != state.dims[axis]:
            raise ValueError(f"operator dimension mismatch at {site!r}")
        if mono.modulus != op.modulus:
            raise ValueError(f"operator modulus mismatch at {site!r}")
        factors.append((axis, mono))
    return factors


@dataclass
class StateVector:
    """Dense complex amplitudes over an ordered list of sites (site_id, kind, dim).

    The flat index is row major in site order: the first site is the most
    significant digit of the mixed-radix configuration label.  Amplitudes
    are stored as complex; complex input is kept without a copy.  apply
    walks the nonzero amplitudes only, in tiles of SUPPORT_TILE indices,
    reading each target and phase from flat_action.
    """

    site_ids: tuple
    kinds: tuple
    dims: tuple
    amps: np.ndarray

    def __post_init__(self) -> None:
        self.amps = np.asarray(self.amps, dtype=complex)
        expected = int(np.prod(self.dims)) if self.dims else 1
        if self.amps.shape != (expected,):
            raise ValueError("amplitude array does not match site dimensions")

    def apply(self, op: ProductOperator) -> "StateVector":
        """Apply a product operator; a Weyl factor's target and phase per site.

        Each nonzero amplitude is scattered into a zeroed array, out[y] =
        amps[x] * w**phase_1[d_1] * w**phase_2[d_2] ..., multiplied in
        op.factors order.  Every factor is checked before anything is
        written.  self.amps is never written; the empty operator returns it.
        """
        factors = placed_factors(self, op)
        if not factors:
            return StateVector(self.site_ids, self.kinds, self.dims, self.amps)
        w = np.exp(2j * np.pi / op.modulus)
        out = np.zeros_like(self.amps)
        support = np.flatnonzero(self.amps)
        for start in range(0, support.size, SUPPORT_TILE):
            x = support[start : start + SUPPORT_TILE]
            y, phases = flat_action(self.dims, factors, x)
            values = self.amps[x]
            for phase in phases:
                # In place: values * tmp may run as tmp * values, and the
                # fused complex product is not bitwise symmetric.
                values *= w**phase
            out[y] = values
        return StateVector(self.site_ids, self.kinds, self.dims, out)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True, eq=False)
class SupportState:
    """A state of one magnitude on its support, with root-of-unity phases, held exactly.

    keys are the sorted unique basis indices of the support, numbered as
    in StateVector; the amplitude at keys[j] is sqrt(mag_sq) * w**roots[j],
    w = exp(2 pi i / modulus), and every other amplitude is exactly zero.
    Stabilizer states have this form (Dehaene and De Moor, PRA 2003), and
    so does every gauged stack, so no dense array is formed and no check
    on such a state needs a tolerance.  Keys not strictly increasing (for
    np.searchsorted) or roots outside 0..L-1 (for fixed_by) raise ValueError.
    """

    site_ids: tuple
    kinds: tuple
    dims: tuple
    modulus: int
    keys: np.ndarray
    roots: np.ndarray
    mag_sq: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.keys.ndim != 1 or self.roots.shape != self.keys.shape:
            raise ValueError("need one root per key")
        if (self.keys[1:] <= self.keys[:-1]).any():
            raise ValueError("keys must be strictly increasing")
        if ((self.roots < 0) | (self.roots >= self.modulus)).any():
            raise ValueError(f"roots must be reduced mod {self.modulus}")

    @property
    def amps(self) -> np.ndarray:
        """The complex amplitudes on the stored support, in key order."""
        roots = np.exp(2j * np.pi * np.arange(self.modulus) / self.modulus)
        return math.sqrt(self.mag_sq) * roots[self.roots]

    def norm(self) -> float:
        """sqrt(support size * mag_sq): exactly 1.0 when that product is exactly 1."""
        return math.sqrt(self.keys.size * self.mag_sq)

    def _walk(self, ops, judge) -> list:
        """judge(y, moved) per op in ops: each key's target under O|x> = w**phase(x) |y(x)>, and roots + phase mod L.

        Every op is checked as StateVector.apply checks it, and must share
        the state's modulus.  The keys are split into digits once per call,
        on the axes some op touches, each axis in the smallest unsigned
        dtype that holds its digits.  y is self.keys itself when no factor
        moves a digit (a diagonal or empty op).  judge runs inside the loop,
        so one op's arrays are dropped before the next op's are built.
        """
        digits = {}  # axis -> (every key's digit there, the axis's stride)
        judged = []
        for op in ops:
            factors = placed_factors(self, op)
            if op.modulus != self.modulus:
                raise ValueError(f"operator modulus {op.modulus} is not the state's {self.modulus}")
            if len({axis for axis, _ in factors}) != len(factors):
                raise ValueError("operator has more than one factor on an axis")
            y, moved = self.keys, self.roots
            for axis, mono in factors:
                if axis not in digits:
                    stride, dim = math.prod(self.dims[axis + 1 :]), self.dims[axis]
                    digits[axis] = (self.keys // stride % dim).astype(np.min_scalar_type(dim - 1)), stride
                digit, stride = digits[axis]
                target, phase = mono.action()
                if mono.a:
                    y = y + ((target - np.arange(mono.dim)) * stride).take(digit)
                if phase.any():
                    moved = moved + phase.take(digit)
            moved = moved % self.modulus
            judged.append(judge(y, moved))
        return judged

    def fixed_by(self, ops) -> list[bool]:
        """Whether each product operator in ops maps the state exactly to itself.

        It does when every key's target is stored, at the key's moved root.
        An op that moves no key needs no search, and one that moves a key
        off the support no root comparison.
        """
        def fixes(y, moved) -> bool:
            if y is self.keys:
                return bool(np.array_equal(self.roots, moved))
            at = np.minimum(np.searchsorted(self.keys, y), self.keys.size - 1)
            return bool(np.array_equal(self.keys[at], y) and np.array_equal(self.roots[at], moved))
        return self._walk(ops, fixes)

    def root_counts(self, ops) -> list[np.ndarray]:
        """counts[k] per op in ops: the keys x it maps onto a stored key y, at roots[x] + phase(x) - roots[y] = k mod L.

        <psi|O|psi> / <psi|psi> is the sum of counts[k] w**k over the key
        count, and O fixes the state exactly when counts[0] is that count.
        """
        def counts(y, moved) -> np.ndarray:
            at = np.minimum(np.searchsorted(self.keys, y), self.keys.size - 1)
            relative = (moved.astype(np.int64) - self.roots[at])[self.keys[at] == y] % self.modulus
            return np.bincount(relative, minlength=self.modulus)
        return self._walk(ops, counts)


# -- fusion of diagonal flux operators (general finite groups) --------------


def _integers(values, what: str) -> np.ndarray:
    """values as an int64 array, or ValueError when they are not integers (bools included)."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, not {arr.dtype}")
    return arr.astype(np.int64)


def irrep_flux_operator(mult, character, n_sites: int) -> np.ndarray:
    """Integer diagonal of the operator weighting each configuration by chi(g_1 ... g_n).

    mult is the group's multiplication table, mult[i][j] the index of
    g_i g_j; associativity is assumed, and a table with no two-sided
    identity or an element with no inverse raises ValueError.  character
    holds one integer per element and must equal itself on every
    conjugate g h g^-1.  For one-dimensional characters the result
    factorizes into a product of site-local clocks; in general it does not.
    """
    table = _integers(mult, "a multiplication table")
    values = _integers(character, "character values")
    size = len(table)
    if table.shape != (size, size) or not ((0 <= table) & (table < size)).all() or values.shape != (size,):
        raise ValueError("need a square table of element indices and one character value per element")
    labels = np.arange(size)
    units = np.flatnonzero((table == labels).all(axis=1) & (table.T == labels).all(axis=1))
    if units.size == 0:
        raise ValueError("multiplication table has no identity")
    right = table == units[0]
    if not right.any(axis=1).all():
        raise ValueError("element has no inverse; not a group table")
    conjugates = table[table, right.argmax(axis=1)[:, None]]  # [g, h] -> g h g^-1
    if (values[conjugates] != values).any():
        raise ValueError("character values are not a class function")
    product = units[:1]
    for _ in range(n_sites):
        # product[c] is the index of the ordered product over configuration c.
        product = table[product].reshape(-1)
    return values[product]


def fusion_coefficients(characters) -> np.ndarray:
    """Multiplicities N[s, r, t] from character orthogonality.

    characters is an integer matrix (n_irreps, |G|) of per-element values,
    real and so their own conjugates:
    N[s, r, t] = (1/|G|) sum_g chi_s(g) chi_r(g) chi_t(g), an exact
    division whose remainder raises ArithmeticError.
    """
    chars = _integers(characters, "character values")
    n, rem = np.divmod(np.einsum("sg,rg,tg->srt", chars, chars, chars), chars.shape[1])
    if rem.any():
        raise ArithmeticError("fusion multiplicities are not integers")
    return n
