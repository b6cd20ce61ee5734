"""1D symmetric inputs, string order, and boundary condensation.

The open vertical boundary of the 2D code is controlled by the quantum
phase of the 1D state fed into the first gauging map.  That state lives
on the first row of the code: a periodic chain of VERTEX_DUAL sites on
which the symmetry acts by the diagonal clocks.  Phases of a global
symmetry are labelled by the unbroken subgroup H.  The renormalization
fixed point of each phase is built in closed form as an exact
operators.SupportState: uniform over the character tuples with every
chi_i trivial on H and prod chi_i = 1, the sitewise Fourier image of the
product-of-cosets state, all at root 0.  Its string order parameters
(character shift pairs joined by a slant-product clock string) are
counted on that support by SupportState.root_counts: each is a sum of
roots of unity over |S|, exactly 0 or 1 for the untwisted strings, and a
boundary term survives by an integer count, with no tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .groups import (
    Cocycle,
    DualCharacter,
    GroupElement,
    GroupSpec,
    is_subgroup,
    restricted_characters,
    slant_product,
)
from .lattice import CodeSpec, build_boundary_terms, overlap_phases, witness
from .operators import (
    ProductOperator,
    SiteKind,
    SupportState,
    clock_z,
    corner_factors,
    shift_x,
)


@dataclass
class SymmetricState1D:
    """A periodic chain of n vertex sites (0, 2k) and its state."""

    group: GroupSpec
    n: int
    state: SupportState

    def site_at(self, i: int):
        return self.state.site_ids[i % self.n]


def build_fixed_point_state(group: GroupSpec, subgroup, n: int) -> SymmetricState1D:
    """Fixed-point representative of the phase with unbroken subgroup H.

    The state is uniform over its support S, the character tuples
    (chi_1, ..., chi_n) with every chi_i trivial on H and prod chi_i = 1:
    sorted keys, every root 0 and mag_sq = 1/|S|.  H = G gives the
    all-identity product state and H = {e} the Greenberger-Horne-Zeilinger
    style sum over the tuples of trivial total charge.
    """
    subgroup = tuple(h if isinstance(h, GroupElement) else group.element(h) for h in subgroup)
    if not is_subgroup(group, subgroup):
        raise ValueError("unbroken set is not a closed subgroup")
    if n < 2:
        raise ValueError("need at least two sites")
    size = group.size
    support = []
    for head in itertools.product(restricted_characters(group, subgroup), repeat=n - 1):
        flat = 0
        for chi in (*head, math.prod(head, start=group.dual_identity()).inverse()):
            flat = flat * size + group.index_of(chi.exps)
        support.append(flat)
    keys = np.sort(np.array(support, dtype=np.int64))
    layout = (tuple((0, 2 * k) for k in range(n)), (SiteKind.VERTEX_DUAL,) * n, (size,) * n)
    state = SupportState(*layout, group.phase_modulus, keys, np.zeros_like(keys), Fraction(1, keys.size))
    return SymmetricState1D(group, n, state)


def string_order_operator(
    chain: SymmetricState1D, chi: DualCharacter, beta: Cocycle | None, i: int, ell: int
) -> ProductOperator:
    """Endpoint pair joined by the slant-product string, as an operator.

    Conjugate projective character shift at site i and the plain one at
    site i+ell, the west and east corner_factors of beta, and the diagonal
    clock of the slant product on the ell-1 interior sites.
    """
    group = chain.group
    beta = beta if beta is not None else Cocycle.trivial(group)
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if ell >= chain.n:
        raise ValueError("string longer than the chain")
    sites = [chain.site_at(i + k) for k in range(ell + 1)]
    # The slant product is a character; the clock on vertex sites takes
    # the element with the same exponents.
    slant = slant_product(beta, GroupElement(group, chi.exps))
    clock = clock_z(GroupElement(group, slant.exps))
    west, east, _, _ = corner_factors(beta, chi)
    factors = [(sites[0], west), (sites[-1], east)]
    factors += [(s, clock) for s in sites[1:-1]]
    return ProductOperator.from_factors(factors, group.phase_modulus)


def _expectation(counts: np.ndarray, support_size: int) -> complex:
    """sum_k counts[k] w**k / |S|, rounded to complex once.

    The roots on a coset of a subgroup of Z_L of order d > 1 sum to zero,
    so the least count on each such coset is taken away first: a sum that
    cancels over cosets becomes exactly 0, and |S| entries on root 0
    exactly 1.
    """
    modulus = counts.size
    for d in range(2, modulus + 1):
        if modulus % d == 0:
            cosets = counts.reshape(d, modulus // d)
            counts = (cosets - cosets.min(axis=0)).reshape(-1)
    total = sum(int(c) * np.exp(2j * np.pi * k / modulus) for k, c in enumerate(counts) if c)
    return complex(total) / support_size


def surviving_boundary_terms(chain: SymmetricState1D, beta: Cocycle | None = None) -> tuple[set, dict]:
    """Characters whose boundary term stabilizes the gauged state.

    A term survives when, for every tested length 1..min(3, n - 1), the
    string order operator maps every support entry back into the support
    with its own root (SupportState.root_counts), which makes the
    parameter exactly one.  Raw expectation values are returned alongside.
    """
    state, size = chain.state, chain.state.keys.size
    raw = {}
    surviving = set()
    for chi in chain.group.characters():
        walks = state.root_counts(string_order_operator(chain, chi, beta, 0, ell) for ell in range(1, min(4, chain.n)))
        raw[chi.exps] = [_expectation(counts, size) for counts in walks]
        if all(counts[0] == size for counts in walks):
            surviving.add(chi)
    return surviving, raw


def condensation_table(spec: CodeSpec, chain: SymmetricState1D) -> dict:
    """Which anyons condense on the bottom boundary set by `chain`.

    Group-labelled vertical strings condense iff they commute with every
    surviving boundary term; character-labelled strings are checked the
    same way.  All 2|G| strings go through one overlap_phases pass, and
    the report carries a witness term for each blocked anyon.
    """
    lat = spec.lattice
    if lat.vertical != "open":
        raise ValueError("condensation needs an open vertical boundary")
    if chain.n != lat.n:
        raise ValueError("boundary state must be a chain of matching width")
    surviving, raw = surviving_boundary_terms(chain, spec.boundary_beta)
    # Build the surviving three-body terms themselves.
    terms = [
        t
        for t in build_boundary_terms(replace(spec, subgroup_bottom=None), "bottom")
        if any(t.label.exps == chi.exps for chi in surviving)
    ]
    group = spec.group
    group_column = [(j, 1) for j in range(1, lat.m, 2)]
    dual_column = [(j, 0) for j in range(0, lat.m + 1, 2)]
    anyons = [("group_anyons", g, group_column) for g in group.elements()]
    anyons += [("dual_anyons", chi, dual_column) for chi in group.characters()]
    strings = [
        ProductOperator.from_factors(((site, shift_x(label)) for site in column), group.phase_modulus)
        for _, label, column in anyons
    ]
    report = {"surviving": sorted(chi.exps for chi in surviving), "raw_expectations": {
        str(k): vals for k, vals in raw.items()
    }, "group_anyons": {}, "dual_anyons": {}}
    for (kind, label, _), hits in zip(anyons, overlap_phases(terms, strings)):
        report[kind][str(label.exps)] = {"condenses": not hits, "witness": witness(hits)}
    return report
