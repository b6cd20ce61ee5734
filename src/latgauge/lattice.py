"""The emergent 2D lattice, its stabilizers, logicals, and ground space.

Geometry.  Rows j = 0..M alternate site kinds: even rows hold VERTEX_DUAL
sites at even x2 positions, odd rows hold EDGE_GROUP sites at odd x2
(x2 is twice the horizontal position).  Horizontal boundary is periodic
with n sites per row.  Vertical boundary is either periodic (rows taken
mod M, M even, giving a torus) or open (rows 0..M inclusive, a cylinder
whose first row carries the 1D input state).

Plaquettes.  A plaquette is the diamond around a face center (j, c):
west and east corners at (j, c -+ 1), north and south at (j +- 1, c).
Centers with odd j carry group-element labels; centers with even j carry
character labels.  Untwisted, each term is the four-body mix of two
shifts and two clocks; a twist replaces the shift pair by the projective
pair so the per-plaquette map label -> term stays a representation.

Ground-space dimension.  Every bulk term is a Weyl operator, a phase
times a vector of shifts and characters per site, so the dimension is
|G|**sites over the order of the group the terms generate, read off an
integer echelon form of those vectors (0 when the group holds a scalar
other than 1).  A dense oracle counts it again, exactly, from the orbits
of basis states on which the terms' phases are consistent.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .groups import Cocycle, GroupSpec, is_subgroup, restricted_characters
from .operators import (
    CapExceededError,
    MonomialOperator,
    Placement,
    ProductOperator,
    SiteKind,
    _phase,
    clock_z,
    corner_factors,
    flatten_product_operator,
    overlap_exponents,
    place,
    shift_x,
)

DENSE_ORACLE_CAP = 2**14  # amplitudes up to which reports run the dense oracle
# Translates (n m / 2) of a torus code from which check_all_commute reads one
# unit cell of terms.  The two passes break even near 16 on Z2xZ2 (warm, 4x8
# torus); the crossover falls with |G|, from beyond 32 on Z2 to under 8 on Z2xZ3.
TEMPLATE_TRANSLATES = 16
READABLE_DIGITS = 16  # a longer amplitude count in the dense oracle's refusal prints as |G|**sites


class GeometryError(ValueError):
    """Inconsistent or unsupported lattice geometry."""


@dataclass(frozen=True)
class Lattice2D:
    group: GroupSpec
    n: int
    m: int
    vertical: str = "periodic"

    def __post_init__(self) -> None:
        if self.n < 2 or self.m < 2:
            raise GeometryError("need n >= 2 and m >= 2")
        if self.vertical not in ("periodic", "open"):
            raise GeometryError("vertical boundary must be 'periodic' or 'open'")
        if self.vertical == "periodic" and self.m % 2 != 0:
            raise GeometryError("a torus needs an even number of rows")

    @property
    def rows(self) -> range:
        return range(self.m) if self.vertical == "periodic" else range(self.m + 1)

    def row_positions(self, j: int) -> list[int]:
        return [(j % 2) + 2 * k for k in range(self.n)]

    def site_kind(self, j: int) -> SiteKind:
        return SiteKind.VERTEX_DUAL if j % 2 == 0 else SiteKind.EDGE_GROUP

    def sites(self) -> list[tuple]:
        return [(s, self.site_kind(s[0])) for s in _site_table(self.n, len(self.rows))]

    def wrap(self, j: int, x2: int) -> tuple[int, int]:
        if self.vertical == "periodic":
            j %= self.m
        return (j, x2 % (2 * self.n))

    def plaquette_centers(self) -> list[tuple[int, int]]:
        """Face centers (j, c); the label family follows the parity of j."""
        return [(j, c) for j, c in _centers(self).tolist()]

    @property
    def num_sites(self) -> int:
        return self.n * len(self.rows)

    @property
    def total_dim(self) -> int:
        return self.group.size**self.num_sites


@dataclass(frozen=True)
class StabilizerLabel:
    center: tuple[int, int]
    family: str  # "group" for element labels, "dual" for character labels
    exps: tuple[int, ...]

    def as_json(self) -> dict:
        return {"center": list(self.center), "family": self.family, "element": list(self.exps)}


@dataclass(frozen=True)
class StabilizerTerm:
    label: StabilizerLabel
    op: ProductOperator


@dataclass(frozen=True)
class CodeSpec:
    """A code on a lattice: the twists of the two plaquette families and the boundaries.

    twist_even twists the group plaquettes (odd rows), twist_odd the
    character plaquettes, and boundary_beta the shift pair of the open
    boundary terms.  The three always hold a Cocycle of the lattice's
    group: None on input means the trivial class and is replaced by it.
    """

    lattice: Lattice2D
    twist_even: Cocycle = None
    twist_odd: Cocycle = None
    boundary_beta: Cocycle = None
    subgroup_bottom: tuple | None = None
    orientation: str = "standard"

    def __post_init__(self) -> None:
        g = self.lattice.group
        for name in ("twist_even", "twist_odd", "boundary_beta"):
            tw = getattr(self, name)
            if tw is None:
                object.__setattr__(self, name, Cocycle.trivial(g))
            elif tw.group != g:
                raise GeometryError("twist cocycle defined on a different group")
        if self.orientation not in ("standard", "reflected"):
            raise GeometryError("orientation must be 'standard' or 'reflected'")
        if self.subgroup_bottom is not None and not is_subgroup(g, self.subgroup_bottom):
            raise GeometryError("boundary phase input is not a closed subgroup")

    @property
    def group(self) -> GroupSpec:
        return self.lattice.group


@dataclass(frozen=True, eq=False)
class PlacedTerms(Sequence):
    """The terms of a code as integer arrays; read-only.

    placement holds the ops; term i has the center centers[i] and the
    (family, exps) label_table[label_id[i]].  lattice is the lattice the
    terms were built on, None when unknown.  A StabilizerTerm is built
    only when indexed or iterated; a slice raises TypeError.
    """

    placement: Placement
    centers: np.ndarray
    label_id: np.ndarray
    label_table: tuple
    lattice: Lattice2D | None = None

    def __len__(self) -> int:
        return len(self.label_id)

    def __getitem__(self, i):
        i = range(len(self))[operator.index(i)]
        return StabilizerTerm(self.label(i), self.placement.op(i))

    def __iter__(self):
        return map(StabilizerTerm, self.labels, map(self.placement.op, range(len(self))))

    def label(self, i: int) -> StabilizerLabel:
        j, c = self.centers[i].tolist()
        return StabilizerLabel((j, c), *self.label_table[self.label_id[i]])

    @functools.cached_property
    def labels(self) -> list[StabilizerLabel]:
        """Every term's label, in order, built without building a term."""
        table = self.label_table
        return [
            StabilizerLabel((j, c), *table[k]) for (j, c), k in zip(self.centers.tolist(), self.label_id.tolist())
        ]


def build_bulk_stabilizers(spec: CodeSpec) -> PlacedTerms:
    """One term per (plaquette, label), identity labels included, placed by index arithmetic.

    Terms come center by center in plaquette_centers order, and within a
    center in label order: elements on odd rows, characters on even rows.
    The corner_factors are looked up once per label of each family, and
    each distinct factor gets an id.  The standard orientation places them
    as they come; reflected swaps west with east and north with south, and
    the two conventions generate the same stabilizer group.  The (west,
    east, north, south) corners of every center are site numbers row * n +
    x2 // 2 in lattice.sites() order, so each term's factors are sorted by
    site by one argsort per center.  On a two-row torus north and south
    are one site, whose factor is south after north; identity factors
    drop, as in ProductOperator.from_factors.
    """
    lat, group = spec.lattice, spec.group
    size = group.size
    folded = lat.vertical == "periodic" and lat.m == 2
    factors: dict = {}
    label_table, fids = [], []
    # Row parity 0 carries the character labels, parity 1 the element labels.
    for family, twist, labels in (
        ("dual", spec.twist_odd, group.characters()),
        ("group", spec.twist_even, group.elements()),
    ):
        ids = []
        for label in labels:
            west, east, north, south = corner_factors(twist, label)
            corners = [east, west, south, north] if spec.orientation == "reflected" else [west, east, north, south]
            if folded:
                # North and south are one site: south after north there, the identity at south.
                corners[2:] = [corners[3].multiply(corners[2]), MonomialOperator.identity(group, corners[2].kind)]
            ids.append([-1 if mono.is_identity else factors.setdefault(mono, len(factors)) for mono in corners])
            label_table.append((family, label.exps))
        fids.append(ids)
    centers = _centers(lat)
    j, c = centers.T
    rows = np.stack([j, j, j + 1, j - 1], axis=1) % len(lat.rows)
    x2 = np.stack([c - 1, c + 1, c, c], axis=1) % (2 * lat.n)
    sites = rows * lat.n + x2 // 2
    order = np.argsort(sites, axis=1, kind="stable")
    sites = np.take_along_axis(sites, order, axis=1)
    fid = np.take_along_axis(np.array(fids, dtype=np.int64)[j % 2], order[:, None, :], axis=2)
    kept = fid >= 0
    start = np.concatenate(([0], np.cumsum(kept.sum(axis=2).ravel())))
    site = np.broadcast_to(sites[:, None, :], fid.shape)[kept]
    table = _site_table(lat.n, len(lat.rows))
    placement = Placement(start, site, fid[kept], table, list(factors), group.phase_modulus)
    label_id = ((j % 2)[:, None] * size + np.arange(size)).ravel()
    return PlacedTerms(placement, np.repeat(centers, size, axis=0), label_id, tuple(label_table), lat)


def _centers(lat: Lattice2D) -> np.ndarray:
    """The face centers (j, c), one array row each: n per lattice row, rows 1..m-1 on a cylinder."""
    j = np.repeat(np.arange(lat.m) if lat.vertical == "periodic" else np.arange(1, lat.m), lat.n)
    return np.stack([j, (j + 1) % 2 + 2 * (np.arange(j.size) % lat.n)], axis=1)


@functools.lru_cache(maxsize=8)
def _site_table(n: int, rows: int) -> tuple:
    """The site ids (j, x2), site number row * n + x2 // 2; shared by every lattice of one shape."""
    return tuple((j, j % 2 + 2 * k) for j in range(rows) for k in range(n))


def build_boundary_terms(spec: CodeSpec, which: str) -> list[StabilizerTerm]:
    """Three-body boundary stabilizers on an open vertical edge.

    The terms are the boundary-truncated character plaquettes, with the
    shift pair twisted by boundary_beta: west, east and the inner clock
    are the corner_factors, the inner clock being the north one at the
    bottom and the south one at the top.  When subgroup_bottom H is given
    the bottom labels are restricted to the characters trivial on H; the
    top, and a bottom without H, emit all labels (the caller may filter
    afterwards).
    """
    lat = spec.lattice
    if lat.vertical != "open":
        raise GeometryError("boundary terms only exist with open vertical boundary")
    if which not in ("bottom", "top"):
        raise GeometryError("which must be 'bottom' or 'top'")
    row = 0 if which == "bottom" else lat.m
    if row % 2 != 0:
        raise GeometryError("boundary rows of odd parity are not supported here")
    inner = 1 if which == "bottom" else lat.m - 1
    if which == "bottom" and spec.subgroup_bottom is not None:
        labels = list(restricted_characters(spec.group, spec.subgroup_bottom))
    else:
        labels = list(spec.group.characters())
    terms = []
    for k in range(lat.n):
        c = 2 * k + 1
        for chi in labels:
            west, east, north, south = corner_factors(spec.boundary_beta, chi)
            clock = north if which == "bottom" else south
            factors = [
                (lat.wrap(row, c - 1), west), (lat.wrap(row, c + 1), east), ((inner, c), clock)
            ]
            op = ProductOperator.from_factors(factors, spec.group.phase_modulus)
            terms.append(StabilizerTerm(StabilizerLabel((row, c), f"boundary_{which}", chi.exps), op))
    return terms


def _placement(terms) -> Placement:
    """The ops of terms as arrays: placed terms' own, other terms' through operators.place."""
    return terms.placement if isinstance(terms, PlacedTerms) else place([t.op for t in terms])


def check_all_commute(terms) -> dict:
    """Exact pairwise commutation report over the pairs of terms that share a site.

    pairs_checked counts the pairs (a, b), a < b, that share a site;
    violations lists those whose commutator is not 1, in (a, b) order, with
    its phase exponent.  The terms must share one phase modulus.  The
    placed terms of a torus with at least TEMPLATE_TRANSLATES translates
    take the template pass (_by_template); term lists, cylinders and
    smaller tori, and every torus the template pass cannot vouch for, take
    the direct pass (_directly), which alone lists violations.  Both give
    the same report.
    """
    lat = terms.lattice if isinstance(terms, PlacedTerms) else None
    if lat is not None and lat.n * lat.m // 2 >= TEMPLATE_TRANSLATES:
        report = _by_template(terms)
        if report is not None:
            return report
    return _directly(terms)


def _commute_report(pairs_checked: int, violations: list) -> dict:
    return {
        "name": "all_commute",
        "passed": not violations,
        "pairs_checked": pairs_checked,
        "violations": violations,
    }


def _directly(terms) -> dict:
    """check_all_commute by one overlap_exponents pass over the terms; only violating terms are built."""
    violations = []
    pairs_checked = 0
    for a, b, k in overlap_exponents(_placement(terms)):
        pairs_checked += k.size
        bad = np.flatnonzero(k)
        for ia, ib, kk in zip(a[bad].tolist(), b[bad].tolist(), k[bad].tolist()):
            violations.append(
                {"a": terms[ia].label.as_json(), "b": terms[ib].label.as_json(), "phase": kk}
            )
    return _commute_report(pairs_checked, violations)


def _by_template(terms) -> dict | None:
    """check_all_commute of torus terms from one unit cell, or None when it cannot vouch for them.

    The bulk terms of an n x m torus repeat under a shift by one column and
    two rows: n m / 2 translates of a unit cell, the |G| terms of the first
    center of each row parity.  Every term must be its cell term
    translated: the same factor ids at the same site offsets from the
    center, mod the torus.  Labels are not compared, as they name only
    violations, which the direct pass lists.  One overlap_exponents pass of
    the cell against every term then gives every overlapping pair's
    commutator up to a translation, wrap-around included; when all are 1,
    pairs_checked is the cell's partners times n m / 2, halved.
    """
    lat = terms.lattice if isinstance(terms, PlacedTerms) else None
    if lat is None:
        return None
    placed, n, m, size = terms.placement, lat.n, lat.m, lat.group.size
    # A cylinder's site table has m + 1 rows, so only the terms of a torus pass.
    if tuple(placed.sites) != _site_table(n, m) or not np.array_equal(
        terms.centers, np.repeat(_centers(lat), size, axis=0)
    ):
        return None
    index = np.arange(len(terms))
    cell_term = (index // (n * size) % 2) * (n * size) + index % size
    count = np.diff(placed.start)
    term = np.repeat(index, count)
    j, c = terms.centers[term].T
    row, col = np.divmod(placed.site, n)
    offset = (row - j) % m * (2 * n) + (2 * col + row % 2 - c) % (2 * n)
    keys = np.full((len(terms), count.max()), -1, dtype=np.int64)
    keys[term, np.arange(term.size) - placed.start[term]] = offset * len(placed.factors) + placed.fid
    keys.sort(axis=1)
    if not np.array_equal(keys, keys[cell_term]):
        return None
    in_cell = cell_term == index
    cell = np.flatnonzero(in_cell)
    on = in_cell[term]
    unit = Placement(
        np.concatenate(([0], np.cumsum(count[cell]))), placed.site[on], placed.fid[on],
        placed.sites, placed.factors, placed.modulus,
    )
    partners = 0
    for a, b, k in overlap_exponents(unit, placed):
        if k.any():
            return None
        partners += int(np.count_nonzero(b != cell[a]))
    return _commute_report(partners * (n * m // 2) // 2, [])


def overlap_phases(terms, ops) -> list[list[tuple]]:
    """For each op, (term, phase) of every term that fails to commute with it, in term order.

    phase is the PhaseExponent c other than 1 with term.op . op = c
    op . term.op; every term not listed commutes with the op.  All ops go
    through one operators.overlap_exponents pass, which compares only
    terms that share a site with an op.  The moduli are checked first, so
    a mismatch raises ValueError even when an op shares no site with any
    term.  Only the listed terms are built.
    """
    ops = list(ops)
    out = [[] for _ in ops]
    for a, b, k in overlap_exponents(_placement(terms), ops):
        bad = np.flatnonzero(k)
        for ia, ib, kk in zip(a[bad].tolist(), b[bad].tolist(), k[bad].tolist()):
            out[ib].append((terms[ia], _phase(kk, ops[ib].modulus)))
    return out


def witness(violations) -> dict | None:
    """The first (term, phase) of one op's overlap_phases as a witness, else None."""
    if not violations:
        return None
    t, ph = violations[0]
    return {"term": t.label.as_json(), "phase": ph.k}


# -- ground space dimension ---------------------------------------------------


def joint_eigenspace_dimension(ops, sites, group: GroupSpec) -> int:
    """Exact dimension of the joint +1 eigenspace of commuting Weyl operators.

    ops, a Placement or ProductOperators, act on `sites`, each a
    |G|-dimensional space.  Every site factor is a Weyl operator (a, chi,
    c), so each op is a phase w**c times an integer vector with columns a_i
    and chi_i mod n_i per site, and the ops generate an Abelian group S.
    The dimension is |G|**sites / |S|, or 0 when S holds a scalar other
    than 1.  One fancy-index write fills the vectors from the placement's
    Weyl rows, the digits of a and chi per factor.

    S is brought to echelon form column by column.  Euclid over the rows
    and the modulus element n_j e_j (the identity, phase 0) leaves one
    pivot with entry d_j dividing n_j and every other row zero in that
    column; the pivot is dropped, since its power n_j / d_j lies in the
    group the other rows generate.  Each row operation is a product in the Heisenberg
    group.  Then |S| = prod_j n_j / d_j up to scalars, and the phases left
    on the rows, now all zero vectors, are the scalars of S.
    """
    L = group.phase_modulus
    k = len(group.orders)
    site_index = {s: i for i, s in enumerate(sites)}
    moduli = np.tile(np.array(group.orders * 2, dtype=np.int64), len(sites))
    a_cols = (np.arange(len(sites))[:, None] * 2 * k + np.arange(k)).reshape(-1)
    chi_cols = a_cols + k
    weights = L // moduli[a_cols]
    # One spare row beyond the ops holds the modulus element of the column
    # in hand; a dropped pivot's row becomes the next spare.
    placed = place(ops)
    vec = np.zeros((len(placed) + 1, len(moduli)), dtype=np.int64)
    phase = np.zeros(len(placed) + 1, dtype=np.int64)
    a, chi, c, _ = placed.weyl
    weyl = np.concatenate((group.digits[a], group.digits[chi]), axis=1)
    row = np.repeat(np.arange(len(placed)), np.diff(placed.start))
    base = np.array([site_index[s] for s in placed.sites], dtype=np.int64)[placed.site] * 2 * k
    vec[row[:, None], base[:, None] + np.arange(2 * k)] = weyl[placed.fid]
    np.add.at(phase, row, c[placed.fid])
    phase %= L

    def absorb(rows, p, q):
        """rows <- rows . p**q; the order of factors is moot as S is Abelian."""
        ap = vec[p, a_cols] * weights
        on = np.flatnonzero(ap)
        self_pair = int(vec[p, chi_cols[on]] @ ap[on]) % L
        cross = (vec[np.ix_(rows, chi_cols[on])] @ ap[on]) % L
        phase[rows] = (phase[rows] + q * phase[p] + (q * (q - 1) // 2) * self_pair + q * cross) % L
        supp = np.flatnonzero(vec[p])
        block = vec[np.ix_(rows, supp)] + q[:, None] * vec[p, supp]
        vec[np.ix_(rows, supp)] = block % moduli[supp]

    spare = len(placed)
    d_product = 1
    for j, n in enumerate(moduli.tolist()):
        rows = np.flatnonzero(vec[:, j])
        if rows.size == 0:
            d_product *= n
            continue
        vec[spare, j] = n
        rows = np.append(rows, spare)
        while rows.size > 1:
            pick = int(np.argmin(vec[rows, j]))
            p, others = rows[pick], np.delete(rows, pick)
            absorb(others, p, -(vec[others, j] // vec[p, j]))
            rows = np.append(others[vec[others, j] != 0], p)
        spare = rows[0]
        d_product *= int(vec[spare, j])
        vec[spare] = 0
        phase[spare] = 0
    if phase.any():
        return 0
    dim, rem = divmod(d_product, group.size ** len(sites))
    if rem:
        raise ArithmeticError("stabilizer group order does not divide the space")
    return dim


def ground_space_dimension(spec: CodeSpec) -> int:
    """Exact dimension of the joint +1 eigenspace on the torus.

    Counts by integer normal form over every bulk term, identity labels
    included, so a label map that failed to be a representation would
    show up as a scalar relation instead of being assumed away.  The terms'
    placed arrays fill the normal form; no term is built.
    """
    lat = spec.lattice
    if lat.vertical != "periodic":
        raise GeometryError("the ground space is counted on the torus")
    placed = build_bulk_stabilizers(spec).placement
    return joint_eigenspace_dimension(placed, placed.sites, spec.group)


def orbit_eigenspace_dimension(ops, sites, group: GroupSpec) -> int:
    """Exact dimension of the joint +1 eigenspace of monomial operators.

    With op|x> = w**phase[x] |perm[x]>, a joint +1 eigenvector is fixed up
    to scale on each orbit of the perms: give the orbit's least state the
    exponent theta = 0 and follow forward edges (every perm has finite
    order), and the orbit holds one when every edge of every op agrees,
    theta[perm[x]] = theta[x] + phase[x] mod L.  Only ops that move states
    make orbits and edges; a diagonal op breaks each orbit where its phase
    is nonzero mod L.  It never forms the group the ops generate, so it
    checks joint_eigenspace_dimension independently.
    """
    L = group.phase_modulus
    total = group.size ** len(sites)
    root = index = np.arange(total, dtype=np.min_scalar_type(total - 1))
    moving, broken = [], np.zeros(total, dtype=bool)
    for op in ops:
        perm, phase = flatten_product_operator(sites, (group.size,) * len(sites), op)
        if np.array_equal(perm, index):
            broken |= phase % L != 0
        else:
            moving.append((perm, phase))
    while True:
        new = root
        for perm, _ in moving:
            new = np.minimum(new, new[perm])
        new = new[new]
        if np.array_equal(new, root):
            break
        root = new
    is_root = root == index
    theta = np.where(is_root, 0, -1).astype(np.min_scalar_type(-L))
    frontier = np.flatnonzero(is_root)
    while frontier.size:
        reached = np.zeros(total, dtype=bool)
        for perm, phase in moving:
            src = frontier[theta[perm[frontier]] < 0]
            theta[perm[src]] = (theta[src] + phase[src]) % L
            reached[perm[src]] = True
        frontier = np.flatnonzero(reached)
    for perm, phase in moving:
        broken |= theta[perm] != (theta + phase) % L
    broken_roots = np.zeros(total, dtype=bool)
    broken_roots[root[broken]] = True
    return int(np.count_nonzero(is_root)) - int(np.count_nonzero(broken_roots))


def ground_space_dimension_dense(spec: CodeSpec, dim_cap: int = DENSE_ORACLE_CAP) -> int:
    """Independent oracle: orbit count over the bulk terms, for any boundary."""
    lat = spec.lattice
    if lat.total_dim > dim_cap:
        count = str(lat.total_dim)
        if len(count) > READABLE_DIGITS:
            count = f"{spec.group.size}**{lat.num_sites}"
        raise CapExceededError(f"{count} amplitudes exceed the dense oracle's {dim_cap}")
    ops = [t.op for t in build_bulk_stabilizers(spec)]
    return orbit_eigenspace_dimension(ops, [s for s, _ in lat.sites()], spec.group)


# -- logical operators --------------------------------------------------------


@dataclass(frozen=True)
class LogicalOperator:
    name: str
    op: ProductOperator
    commutes: bool
    witness: dict | None


def logical_operators(spec: CodeSpec) -> list[LogicalOperator]:
    """Representative string logicals on the torus, with commutation proofs.

    Horizontal diagonal strings along one row of each parity and vertical
    shift strings along one column of each parity.  Each candidate is
    checked exactly against every stabilizer, all in one overlap_phases
    pass; candidates that fail (the vertical group-shift strings of a
    twisted code) are returned flagged with the first violating term.
    """
    lat = spec.lattice
    if lat.vertical != "periodic":
        raise GeometryError("logical representatives are built on the torus")

    def string(sites, mono):
        return ProductOperator.from_factors(((s, mono) for s in sites), spec.group.phase_modulus)

    named = []
    for chi in spec.group.characters():
        if chi.is_identity:
            continue
        named.append((f"Z_row1_chi{chi.exps}", string([(1, x2) for x2 in lat.row_positions(1)], clock_z(chi))))
        named.append((f"X_col0_chi{chi.exps}", string([(j, 0) for j in lat.rows if j % 2 == 0], shift_x(chi))))
    for g in spec.group.elements():
        if g.is_identity:
            continue
        named.append((f"Z_row0_g{g.exps}", string([(0, x2) for x2 in lat.row_positions(0)], clock_z(g))))
        named.append((f"X_col1_g{g.exps}", string([(j, 1) for j in lat.rows if j % 2 == 1], shift_x(g))))
    found = overlap_phases(build_bulk_stabilizers(spec), [op for _, op in named])
    return [LogicalOperator(name, op, not hits, witness(hits)) for (name, op), hits in zip(named, found)]
