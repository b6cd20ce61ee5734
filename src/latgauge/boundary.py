"""1D symmetric inputs, string order, and boundary condensation.

The open vertical boundary of the 2D code is controlled by the quantum
phase of the 1D state fed into the first gauging map.  That state lives
on the first row of the code: a periodic chain of VERTEX_DUAL sites on
which the symmetry acts by the diagonal clocks.  Phases of a global
symmetry are labelled by the unbroken subgroup H; the renormalization
fixed point of each phase is the sitewise Fourier image of an explicit
product-of-cosets state, and its string order parameters (character shift
pairs joined by a slant-product clock string) are exactly 0 or 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .groups import (
    Cocycle,
    DualCharacter,
    GroupElement,
    GroupSpec,
    is_subgroup,
    slant_product,
)
from .lattice import CodeSpec, build_boundary_terms, first_violation
from .operators import (
    ProductOperator,
    SiteKind,
    StateVector,
    clock_z,
    projective_x,
    projective_x_tilde,
    shift_x,
)

SURVIVAL_TOL = 1e-9  # a string order parameter within this of 1 counts as 1


@dataclass
class SymmetricState1D:
    """A periodic chain of n vertex sites (0, 2k) and its state."""

    group: GroupSpec
    n: int
    state: StateVector

    def site_at(self, i: int):
        return self.state.site_ids[i % self.n]


def fourier_matrix(group: GroupSpec) -> np.ndarray:
    """Sitewise rotation mapping shifts onto clocks.

    F |g> = |G|**-0.5 sum_chi chi(g) |chi>; conjugation sends the shift
    representation to the diagonal clock representation.
    """
    size = group.size
    mat = np.zeros((size, size), dtype=complex)
    for chi in group.characters():
        for g in group.elements():
            k = group.pair_exponent(chi.exps, g.exps)
            mat[group.index_of(chi.exps), group.index_of(g.exps)] = np.exp(
                2j * np.pi * k / group.phase_modulus
            )
    return mat / math.sqrt(size)


def build_fixed_point_state(group: GroupSpec, subgroup, n: int) -> SymmetricState1D:
    """Fixed-point representative of the phase with unbroken subgroup H.

    In group labels the state is the normalized sum over cosets of
    (coset indicator)**n, invariant under the shifts: H = G gives the
    uniform product state and H = {e} the Greenberger-Horne-Zeilinger
    style sum over diagonals.  The sitewise Fourier rotation carries it
    onto the chain, where the symmetry acts by the clocks.
    """
    subgroup = tuple(h if isinstance(h, GroupElement) else group.element(h) for h in subgroup)
    if not is_subgroup(group, subgroup):
        raise ValueError("unbroken set is not a closed subgroup")
    if n < 2:
        raise ValueError("need at least two sites")
    size = group.size
    amps = np.zeros(size**n, dtype=complex)
    for g in group.elements():
        local = np.zeros(size, dtype=complex)
        for h in subgroup:
            local[group.index_of((g * h).exps)] = 1.0
        local /= math.sqrt(len(subgroup))
        term = np.ones(1, dtype=complex)
        for _ in range(n):
            term = np.kron(term, local)
        amps += term
    amps /= np.linalg.norm(amps)
    f = fourier_matrix(group)
    tensor = amps.reshape((size,) * n)
    for axis in range(n):
        tensor = np.tensordot(f, tensor, axes=([1], [axis]))
        tensor = np.moveaxis(tensor, 0, axis)
    sites = tuple((0, 2 * k) for k in range(n))
    state = StateVector(sites, (SiteKind.VERTEX_DUAL,) * n, (size,) * n, tensor.reshape(-1))
    return SymmetricState1D(group, n, state)


def string_order_operator(
    chain: SymmetricState1D, chi: DualCharacter, beta: Cocycle | None, i: int, ell: int
) -> ProductOperator:
    """Endpoint pair joined by the slant-product string, as an operator.

    Conjugate projective character shift at site i, the plain one at site
    i+ell, and the diagonal clock of the slant product on the ell-1
    interior sites.
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
    factors = [(sites[0], projective_x_tilde(beta, chi)), (sites[-1], projective_x(beta, chi))]
    factors += [(s, clock) for s in sites[1:-1]]
    return ProductOperator.from_factors(factors, group.phase_modulus)


def string_order_expectation(
    chain: SymmetricState1D, chi: DualCharacter, beta: Cocycle | None, i: int, ell: int
) -> complex:
    op = string_order_operator(chain, chi, beta, i, ell)
    return chain.state.inner(chain.state.apply(op))


def surviving_boundary_terms(chain: SymmetricState1D, beta: Cocycle | None = None) -> tuple[set, dict]:
    """Characters whose boundary term stabilizes the gauged state.

    A term survives when the string order parameter equals one for every
    tested length 1..min(3, n - 1); raw expectation values are returned
    alongside so non-fixed-point inputs are not silently rounded.
    """
    raw = {}
    surviving = set()
    for chi in chain.group.characters():
        values = [string_order_expectation(chain, chi, beta, 0, ell) for ell in range(1, min(4, chain.n))]
        raw[chi.exps] = values
        if all(abs(v - 1) < SURVIVAL_TOL for v in values):
            surviving.add(chi)
    return surviving, raw


def condensation_table(spec: CodeSpec, chain: SymmetricState1D) -> dict:
    """Which anyons condense on the bottom boundary set by `chain`.

    Group-labelled vertical strings condense iff they commute with every
    surviving boundary term; character-labelled strings are checked the
    same way.  The report carries a witness term for each blocked anyon.
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
    report = {"surviving": sorted(chi.exps for chi in surviving), "raw_expectations": {
        str(k): [complex(v) for v in vals] for k, vals in raw.items()
    }, "group_anyons": {}, "dual_anyons": {}}
    for g in group.elements():
        mono = shift_x(g)
        factors = (((j, 1), mono) for j in range(1, lat.m, 2))
        string = ProductOperator.from_factors(factors, group.phase_modulus)
        witness = first_violation(terms, string)
        report["group_anyons"][str(g.exps)] = {
            "condenses": witness is None,
            "witness": witness,
        }
    for chi in group.characters():
        mono = shift_x(chi)
        factors = (((j, 0), mono) for j in range(0, lat.m + 1, 2))
        string = ProductOperator.from_factors(factors, group.phase_modulus)
        witness = first_violation(terms, string)
        report["dual_anyons"][str(chi.exps)] = {
            "condenses": witness is None,
            "witness": witness,
        }
    return report
