"""Layer-by-layer gauging maps and their verification.

A gauging map takes one horizontal row of matter sites, adjoins a new row
of sites carrying the gauge fields, and projects onto the subspace where
the matter symmetry has been made local.  The matter symmetry always
acts by the diagonal clocks: even-index layers gauge the group symmetry
of a VERTEX_DUAL row (adding an EDGE_GROUP row above); odd-index layers
gauge the dual symmetry of an EDGE_GROUP row (adding a VERTEX_DUAL row).
Iterating and stacking the rows produces the 2D states checked by the
lattice module.

Site ids are (row, x2) with x2 twice the horizontal position, so vertex
sites sit at even x2 and edge sites at odd x2.  With periodic horizontal
boundary a row has n sites; with open boundary each new row gains one
site and the stack grows into a trapezoid (row j spans x2 = -j .. 2(n0-1)+j),
so a LayerSpec places both of its rows from its index and width alone.

Each map is normalized so that inputs invariant under the row symmetry
are sent to unit-norm outputs; the projector average itself would shrink
them by a fixed power of |G| which is recorded on the map.

A map is the product of its Gauss-law projectors, each the group average
of one three-body local symmetry.  It acts on the matter row as the
trailing sites of a stacked state and appends the new row behind it.
The projectors are diagonal on the matter row, so the output factorises
as psi[a, m] * K[m, e]: `a` the earlier rows, `m` the matter row, `e`
the new row, and K the map on the all-ones matter row.  On a matter
configuration of trivial total charge every nonzero cell of K is one
root of unity times a common multiplicity; on a charged one the cells
cancel.  So a symmetric input with one magnitude and root phases gauges
to another such state, and compose_gauging carries it as an exact
operators.SupportState: sorted basis keys, integer roots and one
rational squared magnitude, with no dense array.  Its norms and every
stack-symmetry check are exact.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cyclotomic import PhaseTensor, mono_mul_left, mono_mul_right
from .groups import Cocycle, GroupSpec
from .operators import (
    CapExceededError,
    MonomialOperator,
    ProductOperator,
    SiteKind,
    SupportState,
    clock_z,
    corner_factors,
    flat_action,
    shift_x,
)

DEFAULT_DIM_CAP = 2**24
STATE_TOL = 1e-10  # gauge compose's reported tol and verify_local_symmetry's default; no check reads it


def dimension_cap() -> int:
    env = os.environ.get("GAUGE_MAX_DIM")
    if not env:
        return DEFAULT_DIM_CAP
    cap = int(env) if env.strip().isdecimal() else 0
    if cap < 1:
        raise ValueError(f"GAUGE_MAX_DIM must be a positive integer, not {env!r}")
    return cap


def check_cap(what: str, size: int, sites: int, times: int = 1) -> None:
    """Raise CapExceededError when `what`, size**sites * times amplitudes, would pass dimension_cap().

    A count whose lower bound 2**low has 2**16 bits or more passes any cap int() parses, so it is never formed.
    """
    low = sites * (size.bit_length() - 1) + times.bit_length() - 1  # 2**low <= size**sites * times
    text = f"at least 2**{low}"
    if low < 2**16:
        count = size**sites * times
        if count <= dimension_cap():
            return
        with contextlib.suppress(ValueError):  # past Python's int-to-str digit limit
            text = str(count)
    raise CapExceededError(f"{what} would need {text} amplitudes")


@dataclass(frozen=True)
class LayerSpec:
    """One gauging step: matter row `index`, new row `index + 1`.

    twist always holds a Cocycle of the group: None on input means the
    trivial class and is replaced by it.  The matter row carries the
    clock representation of the labels the layer gauges.
    """

    group: GroupSpec
    index: int
    n: int
    boundary: str = "periodic"
    twist: Cocycle = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("a layer needs at least two matter sites")
        if self.boundary not in ("periodic", "open"):
            raise ValueError("boundary must be 'periodic' or 'open'")
        if self.twist is None:
            object.__setattr__(self, "twist", Cocycle.trivial(self.group))
        elif self.twist.group != self.group:
            raise ValueError("twist cocycle defined on a different group")

    @property
    def parity(self) -> str:
        return "even" if self.index % 2 == 0 else "odd"

    @property
    def matter_kind(self) -> SiteKind:
        return SiteKind.VERTEX_DUAL if self.parity == "even" else SiteKind.EDGE_GROUP

    @property
    def new_kind(self) -> SiteKind:
        return SiteKind.EDGE_GROUP if self.parity == "even" else SiteKind.VERTEX_DUAL

    def matter_positions(self) -> range:
        # Periodic rows sit at the fixed residue class matching the row
        # parity; open row j starts at x2 = -j, one position left per layer.
        base = (self.index % 2) if self.boundary == "periodic" else -self.index
        return range(base, base + 2 * self.n, 2)

    def new_positions(self) -> range:
        if self.boundary == "periodic":
            base = (self.index + 1) % 2
            return range(base, base + 2 * self.n, 2)
        return range(-self.index - 1, -self.index + 1 + 2 * self.n, 2)

    @property
    def scale_power(self) -> float:
        """Power p with unit-isometry map = |G|**p times the projector product."""
        return (self.n - 1) / 2 if self.boundary == "periodic" else self.n / 2

    @property
    def exact_sites(self) -> int:
        """Sites of the exact map's (out, in) index: the out sites, then the matter sites again."""
        return 2 * self.n + len(self.new_positions())

    @property
    def exact_cells(self) -> int:
        """Dense (out, in) cells of the exact map times the phase modulus; only claims.exact_skip forms it."""
        return self.group.size**self.exact_sites * self.group.phase_modulus

    def check_exact_cap(self) -> None:
        """check_cap on the exact tensor, one amplitude per cell and root of unity, by its exact_sites."""
        what = f"the exact tensor of layer {self.index} ({self.boundary})"
        check_cap(what, self.group.size, self.exact_sites, self.group.phase_modulus)

    @functools.cached_property
    def gauss_corners(self) -> dict:
        """label -> operators.corner_factors(twist, label) for every label the layer gauges, built once per spec.

        Every Gauss law of the layer, at any matter site, is a plaquette of
        these factors; the map's terms and the stack symmetries read them.
        """
        return {label: corner_factors(self.twist, label) for label in self.labels()}

    @functools.cached_property
    def exact_map(self) -> PhaseTensor:
        """The map's terms (_map_terms) as one canonical (out, in) PhaseTensor, built once per spec, read-only.

        Rows are (matter config, new config), matter sites first; a term's
        column is its matter config, so keys sort as the out index does.
        GaugingMap.exact_matrix returns it and GaugingMap.apply reads it.
        """
        in_dim, new_dim = self.group.size**self.n, self.group.size ** len(self.new_positions())
        flat, root = _map_terms(self)
        shape = (in_dim * new_dim, in_dim)
        return PhaseTensor.from_entries(shape, self.group.phase_modulus, flat * in_dim + flat // new_dim, root)

    def matter_sites(self) -> list[tuple]:
        return [((self.index, x2), self.matter_kind) for x2 in self.matter_positions()]

    def new_sites(self) -> list[tuple]:
        return [((self.index + 1, x2), self.new_kind) for x2 in self.new_positions()]

    def labels(self):
        """The symmetry labels this layer gauges, as element/character objects."""
        if self.parity == "even":
            return list(self.group.elements())
        return list(self.group.characters())


class GaugingMap:
    """Concrete gauging map for one layer.

    apply() and exact_matrix() read one canonical tensor of the projector
    product's terms, LayerSpec.exact_map.  apply() extends each stored key
    of a SupportState by the single-root cells of its matter row;
    exact_matrix() returns the tensor itself, sparse exact root-of-unity
    counts at desk scale, for zero-tolerance operator identities.
    """

    def __init__(self, layer: LayerSpec):
        self.layer = layer
        self.group = layer.group
        self.matter_sites = layer.matter_sites()
        self.new_sites = layer.new_sites()
        self.out_sites = self.matter_sites + self.new_sites
        size = self.group.size
        self.in_dim = size**layer.n
        self.out_dim = size ** len(self.out_sites)
        self.exact_dims = (size,) * layer.exact_sites  # exact_matrix's (out, in) index, one axis per site
        self._axis = {site: k for k, (site, _) in enumerate(self.out_sites)}

    # -- building blocks ---------------------------------------------------

    def _gauss_corners(self, i: int, label) -> list[tuple]:
        """(site, factor) of the west, south, east and north corners of the Gauss law at matter site i.

        The plaquette around the new-row face above matter site i, with the
        layer's gauss_corners of `label`, one of the labels it gauges: west
        and east on the new row, south on the matter site, north on the row
        the next layer adds.
        """
        layer = self.layer
        x2 = layer.matter_positions()[i]
        row = layer.index
        lpos, rpos = x2 - 1, x2 + 1
        if layer.boundary == "periodic":
            lpos, rpos = lpos % (2 * layer.n), rpos % (2 * layer.n)
        west, east, north, south = layer.gauss_corners[label]
        return [((row + 1, lpos), west), ((row, x2), south), ((row + 1, rpos), east), ((row + 2, x2), north)]

    def local_symmetry_op(self, i: int, label) -> ProductOperator:
        """The three-body symmetry enforced at matter site i: the west, south and east corners."""
        return ProductOperator.from_factors(self._gauss_corners(i, label)[:3], self.group.phase_modulus)

    def emergent_symmetry_op(self, label) -> ProductOperator:
        """Global diagonal symmetry on the new row; fixes the map's image.

        Even layers produce a dual-character symmetry on the edge row,
        odd layers a group-element symmetry on the vertex row; the clock
        takes the new row's label with the exponents of `label`.
        """
        new_label = self.group.character if self.layer.parity == "even" else self.group.element
        mono = clock_z(new_label(label.exps))
        factors = ((site, mono) for site, _ in self.new_sites)
        return ProductOperator.from_factors(factors, self.group.phase_modulus)

    def charged_pair_ops(self, i: int, i_prime: int, label) -> tuple[ProductOperator, ProductOperator]:
        """A symmetric two-point operator and its image under the map.

        Returns (bare, dressed): bare = shift(label) at matter i and its
        adjoint at matter i_prime; dressed adds the diagonal string on the
        new sites strictly between them.  The map intertwines the two:
        G . bare = dressed . G.
        """
        if not 0 <= i < i_prime < self.layer.n:
            raise ValueError("need 0 <= i < i_prime < n")
        layer = self.layer
        string_mono = clock_z(label)
        row = layer.index
        pos = layer.matter_positions()
        bare_factors = [((row, pos[i]), shift_x(label)), ((row, pos[i_prime]), shift_x(label.inverse()))]
        bare = ProductOperator.from_factors(bare_factors, self.group.phase_modulus)
        string = [
            (site, string_mono) for site, _ in self.new_sites if pos[i] < site[1] < pos[i_prime]
        ]
        dressed = ProductOperator.from_factors(bare_factors + string, self.group.phase_modulus)
        return bare, dressed

    # -- the map's terms ------------------------------------------------------

    def exact_factors(self, op: ProductOperator, columns: bool = False) -> list[tuple[int, MonomialOperator]]:
        """op's (axis, factor) pairs on the axes of exact_dims.

        Rows place the factors on the out sites; columns=True places them
        on the matter sites of the column index.
        """
        shift = len(self.out_sites) if columns else 0
        return [(self._axis[site] + shift, mono) for site, mono in op.factors]

    def apply(self, state: SupportState) -> SupportState:
        """The gauged state, built on its support within check_cap.

        Each cell (m, e) of LayerSpec.exact_map, m the matter row and e
        the new row, holds its roots and counts.  A stored key x on m
        becomes x * E + e, E the new-row dimension, for every cell (m, e)
        of one root r, with root roots[x] + r; the keys stay sorted.  The
        squared magnitude gains mult**2 * |G|**(2 scale_power - 2n).  An
        input that reaches a row holding a cell of several roots (one that
        cancels, on a charged matter configuration) raises ValueError, and
        so do rows whose multiplicities differ.  An output past check_cap,
        or whose dense index space has more than 2**63 indices, so that its
        int64 keys would wrap, raises CapExceededError before any term is
        built.
        """
        site_ids, kinds, dims = gauged_layout(state, self.layer)
        size, L = self.group.size, self.group.phase_modulus
        check_cap("output", size, len(self.new_sites), math.prod(state.dims))
        if math.prod(dims) > 2**63:
            raise CapExceededError(f"the output's {len(dims)} sites index more basis states than int64 keys hold")
        new_dim = self.out_dim // self.in_dim
        cells = self.layer.exact_map
        flat, row = np.divmod(cells.flat_indices, self.in_dim)  # the out index and its matter row
        cancelling = np.zeros(self.in_dim, dtype=bool)
        cancelling[row[1:][flat[1:] == flat[:-1]]] = True
        matter = state.keys % self.in_dim
        if cancelling[matter].any():
            raise ValueError("the input reaches a matter configuration whose cells cancel: its support is charged")
        reached = np.zeros(self.in_dim, dtype=bool)
        reached[matter] = True
        mult = cells.mults[reached[row]]
        if mult.size and (mult != mult[0]).any():
            raise ValueError("the map's cell multiplicities differ on the rows the input reaches")
        start = np.searchsorted(row, np.arange(self.in_dim + 1))
        count = start[matter + 1] - start[matter]
        source = np.repeat(np.arange(matter.size), count)
        cell = np.arange(source.size) + np.repeat(start[matter] - (np.cumsum(count) - count), count)
        keys = state.keys[source] * new_dim + flat[cell] % new_dim
        roots = (state.roots[source] + cells.roots[cell]) % L
        scale = Fraction(size) ** (round(2 * self.layer.scale_power) - 2 * self.layer.n)
        mag_sq = state.mag_sq * int(mult[0] if mult.size else 0) ** 2 * scale
        return SupportState(site_ids, kinds, dims, L, keys, roots, mag_sq)

    def exact_matrix(self) -> PhaseTensor:
        """The layer's exact_map, after check_exact_cap; unnormalized, so compare projectively or on both sides."""
        self.layer.check_exact_cap()
        return self.layer.exact_map


def _map_terms(layer: LayerSpec) -> tuple[np.ndarray, np.ndarray]:
    """The |G|**(2n) terms w**root |flat> of the map on the all-ones matter row, on the out_sites space.

    From each matter configuration with the new row at the identity
    label, site i replaces every term by |G| copies, one per label, each
    moved by local_symmetry_op(i, label).  Built anew on every call; only
    LayerSpec.exact_map calls it.
    """
    gmap = GaugingMap(layer)
    size, L = gmap.group.size, gmap.group.phase_modulus
    dims = gmap.exact_dims[: len(gmap.out_sites)]
    flat = np.arange(gmap.in_dim, dtype=np.int64) * size ** len(gmap.new_sites)
    root = np.zeros(flat.size, dtype=np.min_scalar_type(L - 1))
    for i in range(layer.n):
        moved_flat = np.empty(flat.size * size, dtype=np.int64)
        moved_root = np.empty(moved_flat.size, dtype=root.dtype)
        for k, label in enumerate(layer.labels()):
            factors = gmap.exact_factors(gmap.local_symmetry_op(i, label))
            part = slice(k * flat.size, (k + 1) * flat.size)
            moved_flat[part], phases = flat_action(dims, factors, flat)
            moved_root[part] = (root + sum(phases)) % L
        flat, root = moved_flat, moved_root
    return flat, root


def gauged_layout(state: SupportState, layer: LayerSpec) -> tuple[tuple, tuple, tuple]:
    """Site ids, kinds and dims of `state` with the layer's new row appended.

    Every route that gauges a stacked state acts on the layer's matter row
    as the state's trailing sites, each with the matter kind and the
    group's dimension; anything else raises ValueError.
    """
    size = layer.group.size
    matter = layer.matter_sites()
    tail = slice(-len(matter), None)
    if state.site_ids[tail] != tuple(s for s, _ in matter):
        raise ValueError("layer matter row must be the trailing sites of the state")
    if state.kinds[tail] != tuple(k for _, k in matter) or state.dims[tail] != (size,) * len(matter):
        raise ValueError("layer matter row has the wrong site kind or dimension")
    new = layer.new_sites()
    return (
        state.site_ids + tuple(s for s, _ in new),
        state.kinds + tuple(k for _, k in new),
        state.dims + (size,) * len(new),
    )


def build_gauging_map(layer: LayerSpec) -> GaugingMap:
    return GaugingMap(layer)


def layer_stack(
    group: GroupSpec,
    n: int,
    num_layers: int,
    boundary: str = "periodic",
    twist_even: Cocycle | None = None,
    twist_odd: Cocycle | None = None,
) -> list[LayerSpec]:
    """Alternating layer specs starting from an even (vertex) matter row."""
    return [
        LayerSpec(group, j, n + j if boundary == "open" else n, boundary, twist_odd if j % 2 else twist_even)
        for j in range(num_layers)
    ]


def initial_state(group: GroupSpec, layer: LayerSpec) -> SupportState:
    """Product input on the layer's matter row, every site at the identity label: the one key 0, root 0."""
    sites = layer.matter_sites()
    ids, kinds, dims = tuple(s for s, _ in sites), tuple(k for _, k in sites), (group.size,) * layer.n
    return SupportState(ids, kinds, dims, group.phase_modulus, np.zeros(1, np.int64), np.zeros(1, np.int64))


def compose_gauging(layers, input_state: SupportState, norms_out: list | None = None) -> SupportState:
    """Apply the maps in order to an input on the first matter row; norms_out collects the norms.

    Each norm is SupportState.norm, read off the support size and the
    exact squared magnitude, so a unit norm is exactly 1.0.
    """
    layers = list(layers)
    for prev, nxt in zip(layers, layers[1:]):
        if nxt.index != prev.index + 1:
            raise ValueError("layer indices must increase by one")
    state = input_state
    for layer in layers:
        state = build_gauging_map(layer).apply(state)
        if norms_out is not None:
            norms_out.append(state.norm())
    return state


# -- verification -----------------------------------------------------------


def verify_emergent_symmetry(gmap: GaugingMap) -> dict:
    """Exact operator check that the new-row diagonal symmetry fixes the map."""
    exact = gmap.exact_matrix()
    checks = []
    for label in gmap.layer.labels():
        op = gmap.emergent_symmetry_op(label)
        ok = mono_mul_left(exact, gmap.exact_factors(op), gmap.exact_dims) == exact
        checks.append({"label": label.exps, "passed": bool(ok)})
    return {"name": "emergent_symmetry", "passed": all(c["passed"] for c in checks), "checks": checks}


def verify_string_order_mapping(gmap: GaugingMap) -> dict:
    """Exact operator identity G . bare_pair = dressed_pair . G for every pair and shift label.

    Each pair i < i' of matter sites is checked with every shift label of
    the matter row (characters on even layers, elements on odd ones)
    against one exact matrix of the map.
    """
    exact = gmap.exact_matrix()
    labels = list(gmap.group.characters() if gmap.layer.parity == "even" else gmap.group.elements())
    checks = []
    for i, i_prime in itertools.combinations(range(gmap.layer.n), 2):
        for label in labels:
            bare, dressed = gmap.charged_pair_ops(i, i_prime, label)
            lhs = mono_mul_right(exact, gmap.exact_factors(bare, columns=True), gmap.exact_dims)
            rhs = mono_mul_left(exact, gmap.exact_factors(dressed), gmap.exact_dims)
            checks.append({"i": i, "i_prime": i_prime, "label": label.exps, "passed": bool(lhs == rhs)})
    return {"name": "string_order_mapping", "passed": all(c["passed"] for c in checks), "checks": checks}


def stack_local_symmetry_ops(layers) -> list[tuple[str, ProductOperator]]:
    """Every local symmetry of the composed stack, with labels.

    Interior layers contribute the four-body diamonds of their Gauss laws
    (the raw three-body symmetry dressed by the next map's clock, north);
    the last layer contributes its raw three-body symmetries.  Both are
    plaquettes of operators.corner_factors.
    """
    layers = list(layers)
    ops = []
    for k, layer in enumerate(layers):
        gmap = build_gauging_map(layer)
        corners = 4 if k + 1 < len(layers) else 3
        for i, x2 in enumerate(layer.matter_positions()):
            for label in layer.labels():
                op = ProductOperator.from_factors(gmap._gauss_corners(i, label)[:corners], layer.group.phase_modulus)
                ops.append((f"layer{layer.index}/site{(layer.index, x2)}/label{label.exps}", op))
    return ops


def verify_local_symmetry(state: SupportState, layers, tol: float = STATE_TOL) -> dict:
    """Check the composed state is fixed exactly by every stack symmetry (SupportState.fixed_by).

    Fixed means eigenvalue +1, not just a phase, so states excited into
    other eigenvalue sectors are caught.  The check is exact: tol, kept for
    callers that pass one, must be a non-negative number and decides
    nothing.  A state with no support raises ZeroDivisionError, as
    normalizing it would.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be a non-negative number, not {tol!r}")
    if not (state.keys.size and state.mag_sq):
        raise ZeroDivisionError("cannot normalize the zero vector")
    named = stack_local_symmetry_ops(layers)
    checks = [
        {"op": name, "passed": fixed}
        for (name, _), fixed in zip(named, state.fixed_by([op for _, op in named]))
    ]
    return {
        "name": "local_symmetry",
        "passed": all(c["passed"] for c in checks),
        "violations": [c for c in checks if not c["passed"]],
        "num_checked": len(checks),
    }


# -- zero dimensional gauging -------------------------------------------------


def zero_dim_gauge(group: GroupSpec, psi: SupportState, n_pairs: int) -> SupportState:
    """Iterated gauging of a single symmetric site, in closed form.

    Each round decouples a maximally entangled pair of group-labelled
    sites around the matter site, (1/sqrt(|G|)) sum_g |g^-1>|g>: it wraps
    every key x as (j, x, j^-1) for each label j, so the keys stay sorted,
    keep their roots, and mag_sq gains 1/|G|.  The sites run left_n ..
    left_1, the matter site, right_1 .. right_n.  SupportState.fixed_by
    must find the input fixed by its site symmetry: the diagonal
    representation on a vertex site, the shift one on an edge site.
    """
    if len(psi.site_ids) != 1:
        raise ValueError("zero_dim_gauge takes a single-site state")
    if psi.dims[0] != group.size:
        raise ValueError("state dimension does not match the group")
    if n_pairs < 0:
        raise ValueError("n_pairs must be nonnegative")
    kind = psi.kinds[0]
    mono = clock_z if kind == SiteKind.VERTEX_DUAL else shift_x
    symmetry = [ProductOperator.from_factors([(psi.site_ids[0], mono(g))], psi.modulus) for g in group.elements()]
    if not all(psi.fixed_by(symmetry)):
        raise ValueError("input state is not symmetric under the site representation")
    size = group.size
    labels = np.arange(size)
    keys = psi.keys
    for k in range(n_pairs):
        keys = ((labels[:, None] * size ** (2 * k + 1) + keys) * size + group.neg[:, None]).reshape(-1)
    lefts = tuple(("pair", k, "left") for k in range(n_pairs, 0, -1))
    rights = tuple(("pair", k, "right") for k in range(1, n_pairs + 1))
    edges = (SiteKind.EDGE_GROUP,) * n_pairs
    layout = (lefts + psi.site_ids + rights, edges + psi.kinds + edges, (size,) * (2 * n_pairs + 1))
    return SupportState(*layout, psi.modulus, keys, np.tile(psi.roots, size**n_pairs), psi.mag_sq / size**n_pairs)
