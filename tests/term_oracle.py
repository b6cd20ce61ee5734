"""The term builder that placed terms replaced, one Python object at a time.

`lattice.build_bulk_stabilizers` places every term by index arithmetic.
This oracle builds the same terms as the library once did: for each
plaquette center it wraps the four corners, groups them by site, and
multiplies and filters the corner factors per label.  Tests require the
two to give the same terms, term for term.
"""

from __future__ import annotations

from latgauge.lattice import CodeSpec, Lattice2D, StabilizerLabel, StabilizerTerm
from latgauge.operators import ProductOperator, corner_factors


def _plaquette_sites(lat: Lattice2D, center: tuple[int, int]) -> list:
    """(site, corner positions) of the plaquette at `center`, in site order.

    Positions 0..3 index the (west, east, north, south) corners of
    corner_factors.  On a two-row torus north and south wrap onto the
    same site, which then holds both positions.
    """
    j, c = center
    corners = (lat.wrap(j, c - 1), lat.wrap(j, c + 1), lat.wrap(j + 1, c), lat.wrap(j - 1, c))
    on: dict = {}
    for pos, site in enumerate(corners):
        on.setdefault(site, []).append(pos)
    return sorted(on.items())


def build_bulk_stabilizers(spec: CodeSpec) -> list[StabilizerTerm]:
    """One term per (plaquette, label), identity labels included.

    The standard orientation places the corner_factors as they come;
    reflected swaps west with east and north with south, and the two
    conventions generate the same stabilizer group.  The corners are
    looked up once per label of each family, and the sites and their order
    once per plaquette.  Two corners on one site (the two-row torus)
    multiply, south after north, and identity factors drop, as in
    ProductOperator.from_factors.
    """
    reflected = spec.orientation == "reflected"
    by_parity = {}
    for parity, family, twist, labels in (
        (1, "group", spec.twist_even, spec.group.elements()),
        (0, "dual", spec.twist_odd, spec.group.characters()),
    ):
        rows = []
        for label in labels:
            west, east, north, south = corner_factors(twist, label)
            rows.append((label, (east, west, south, north) if reflected else (west, east, north, south)))
        by_parity[parity] = family, rows
    modulus = spec.group.phase_modulus
    terms = []
    for center in spec.lattice.plaquette_centers():
        family, rows = by_parity[center[0] % 2]
        placed = _plaquette_sites(spec.lattice, center)
        for label, corners in rows:
            factors = []
            for site, positions in placed:
                mono = corners[positions[0]]
                for pos in positions[1:]:
                    mono = corners[pos].multiply(mono)
                if not mono.is_identity:
                    factors.append((site, mono))
            op = ProductOperator(tuple(factors), modulus)
            terms.append(StabilizerTerm(StabilizerLabel(center, family, label.exps), op))
    return terms
