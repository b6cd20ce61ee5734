"""Syndromes, anyon strings, confinement, and braiding.

A syndrome is the pattern of stabilizer eigenvalues an operator creates on
the ground space.  Because stabilizers and string operators are products
of Weyl operators, the eigenvalue of stabilizer S on op|gs> is the exact
scalar c with S.op = c op.S, so syndromes are computed
operator-algebraically and never require preparing the excited state.
Energy means the number of violated plaquettes (all couplings one).
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import GroupElement, PhaseExponent
from .lattice import CodeSpec, build_bulk_stabilizers, overlap_phases
from .operators import ProductOperator, clock_z, commutation_phase, corner_factors, shift_x

MAX_STRING_LENGTH = 3  # longest confined string and tallest dipole in confinement_report


@dataclass
class SyndromeMap:
    """Eigenvalue of every stabilizer term on op|ground state>, stored sparsely.

    violations holds (term, phase) of each term the op violates, in term
    order, as lattice.overlap_phases lists them: phase is a PhaseExponent
    other than one.  Every other term has eigenvalue one, so no label or
    phase is stored for it.
    """

    violations: list

    def violated_centers(self) -> set:
        return {t.label.center for t, _ in self.violations}

    def as_json(self) -> dict:
        return {
            "violated_centers": sorted(self.violated_centers()),
            "violations": [
                {"label": t.label.as_json(), "phase": ph.k} for t, ph in self.violations
            ],
        }


def syndromes(terms, ops) -> list[SyndromeMap]:
    """SyndromeMap of each op over the terms, in term order.

    One lattice.overlap_phases pass for all ops lists the terms each op
    violates and checks the moduli.  Only those terms are built: no label
    or phase is stored for a term an op does not violate.
    """
    return [SyndromeMap(hits) for hits in overlap_phases(terms, ops)]


def syndrome(terms, op: ProductOperator) -> SyndromeMap:
    """The SyndromeMap of one op over the terms."""
    return syndromes(terms, [op])[0]


@dataclass(frozen=True)
class StringSpec:
    """A connected path of same-kind sites with one label and flavor.

    flavor "X" places shifts (group labels on edge paths, character labels
    on vertex paths); flavor "Z" places the diagonal clocks (character
    labels on edge paths, group labels on vertex paths).
    """

    path: tuple
    label: object
    flavor: str

    def __post_init__(self) -> None:
        if self.flavor not in ("X", "Z"):
            raise ValueError("flavor must be 'X' or 'Z'")
        if len(self.path) == 0:
            raise ValueError("empty path")


def string_operator(spec: CodeSpec, sspec: StringSpec) -> ProductOperator:
    lat = spec.lattice
    mono = shift_x(sspec.label) if sspec.flavor == "X" else clock_z(sspec.label)
    site_set = dict(lat.sites())
    prev = None
    for site in sspec.path:
        if site not in site_set:
            raise ValueError(f"site {site!r} is not on the lattice")
        if site_set[site] != mono.kind:
            raise ValueError(f"site {site!r} has the wrong kind for this string")
        if prev is not None and not _adjacent(lat, prev, site):
            raise ValueError(f"path step {prev!r} -> {site!r} is not a lattice move")
        prev = site
    factors = ((site, mono) for site in sspec.path)
    return ProductOperator.from_factors(factors, spec.group.phase_modulus)


def _adjacent(lat, a, b) -> bool:
    """Same-kind nearest neighbours: one step vertically or horizontally."""
    (ja, ca), (jb, cb) = a, b
    two_n = 2 * lat.n
    if ja == jb:
        return (cb - ca) % two_n in (2, two_n - 2)
    if ca == cb:
        if lat.vertical == "periodic":
            return (jb - ja) % lat.m in (2, lat.m - 2)
        return abs(jb - ja) == 2
    return False


def vertical_string_path(spec: CodeSpec, col_x2: int, start_row: int, length: int) -> tuple:
    """Path of `length` same-parity sites going up from start_row in one column."""
    return tuple(spec.lattice.wrap(start_row + 2 * k, col_x2) for k in range(length))


def horizontal_string_path(spec: CodeSpec, row: int, start_x2: int, length: int) -> tuple:
    return tuple(spec.lattice.wrap(row, start_x2 + 2 * k) for k in range(length))


# -- twisted-code excitations -------------------------------------------------


def confined_string_operator(spec: CodeSpec, g: GroupElement, row: int, start_x2: int, length: int) -> ProductOperator:
    """Projective shifts, the east corner_factors, on consecutive edges of one row (twisted code)."""
    mono = corner_factors(spec.twist_even, g)[1]
    sites = horizontal_string_path(spec, row, start_x2, length)
    return ProductOperator.from_factors(((site, mono) for site in sites), spec.group.phase_modulus)


def dipole_operator(spec: CodeSpec, g: GroupElement, row: int, left_x2: int, height: int = 1) -> ProductOperator:
    """Bound pair: the west and east corner_factors, the conjugate shift on
    an edge and the plain projective shift on the next edge to the right,
    repeated on `height` consecutive edge rows.

    The shared plaquette between the two columns is never excited, so the
    pattern moves vertically without growing its syndrome.
    """
    lat = spec.lattice
    left_mono, right_mono, _, _ = corner_factors(spec.twist_even, g)
    factors = []
    for h in range(height):
        j = row + 2 * h
        factors += [(lat.wrap(j, left_x2), left_mono), (lat.wrap(j, left_x2 + 2), right_mono)]
    return ProductOperator.from_factors(factors, spec.group.phase_modulus)


def braiding_phase(spec: CodeSpec, s1: StringSpec, s2: StringSpec) -> PhaseExponent:
    """Scalar commutation phase of the two string operators."""
    return commutation_phase(string_operator(spec, s1), string_operator(spec, s2))


def confinement_report(spec: CodeSpec, g: GroupElement | None = None) -> dict:
    """Energetics of the twisted code's projective-shift excitations.

    Reports, for a twisted code: the syndrome count of a single projective
    shift, the growth of horizontal string syndromes with length, the
    constancy of the dipole syndrome under vertical extension, the effect
    of bending the dipole with a horizontal clock, and the trivial
    braiding of the dipole with full-row character strings.
    """
    if spec.twist_even.is_trivial:
        raise ValueError("confinement analysis needs a nontrivial even-layer twist")
    lat = spec.lattice
    if lat.n < MAX_STRING_LENGTH + 1 or lat.m < 2 * MAX_STRING_LENGTH + 2:
        raise ValueError("lattice too small to separate the tested string lengths")
    group = spec.group
    if g is None:
        g = next(e for e in group.elements() if not e.is_identity)
    terms = build_bulk_stabilizers(spec)
    row = 1
    start = 1

    lengths = range(1, MAX_STRING_LENGTH + 1)
    strings = [confined_string_operator(spec, g, row, start, k) for k in lengths]
    dipoles = [dipole_operator(spec, g, row, start, k) for k in lengths]
    # Bending: multiply the dipole by a neighbouring vertex clock and check
    # the syndrome relocates multiplicatively (exact homomorphism).
    bend_site = lat.wrap(row + 1, start + 1)
    bend = ProductOperator.from_factors([(bend_site, clock_z(g))], group.phase_modulus)
    syns = syndromes(terms, strings + dipoles + [bend, dipoles[0].multiply(bend)])
    counts = [len(syn.violated_centers()) for syn in syns]
    string_counts = dict(zip(lengths, counts[: len(lengths)]))
    dipole_counts = dict(zip(lengths, counts[len(lengths) : 2 * len(lengths)]))
    syn_d, syn_b, syn_db = syns[len(lengths)], syns[-2], syns[-1]
    # Every term outside the three violation sets is one times one.
    d, b, db = ({t.label: ph for t, ph in syn.violations} for syn in (syn_d, syn_b, syn_db))
    one = PhaseExponent.one(group.phase_modulus)
    homomorphic = all(db.get(lab, one) == d.get(lab, one) * b.get(lab, one) for lab in d.keys() | b.keys() | db.keys())
    bend_relocates = syn_db.violated_centers() != syn_d.violated_centers()

    braid = {}
    for chi in group.characters():
        loop = ProductOperator.from_factors(
            (((row, x2), clock_z(chi)) for x2 in lat.row_positions(row)), group.phase_modulus
        )
        braid[str(chi.exps)] = commutation_phase(loop, dipole_operator(spec, g, row, start, 2)).k

    return {
        "element": g.exps,
        "single_violations": string_counts[1],
        "string_counts": string_counts,
        "string_strictly_increasing": all(
            string_counts[k] < string_counts[k + 1] for k in range(1, MAX_STRING_LENGTH)
        ),
        "dipole_counts": dipole_counts,
        "dipole_constant": len(set(dipole_counts.values())) == 1,
        "bend_homomorphic": homomorphic,
        "bend_relocates": bend_relocates,
        "dipole_braids_trivially": all(v == 0 for v in braid.values()),
        "dipole_braiding_phases": braid,
    }
