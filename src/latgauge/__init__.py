"""Exact simulation of iterated 1D gauging and the emergent 2D codes."""

from .groups import (
    Cocycle,
    DualCharacter,
    GroupElement,
    GroupMismatchError,
    GroupSpec,
    PhaseExponent,
    compose,
    enumerate_cocycle_classes,
    pair,
    slant_product,
)
from .operators import (
    MonomialOperator,
    ProductOperator,
    SiteKind,
    StateVector,
    clock_z,
    commutation_phase,
    projective_x,
    projective_x_tilde,
    shift_x,
)

__all__ = [
    "Cocycle",
    "DualCharacter",
    "GroupElement",
    "GroupMismatchError",
    "GroupSpec",
    "PhaseExponent",
    "compose",
    "enumerate_cocycle_classes",
    "pair",
    "slant_product",
    "MonomialOperator",
    "ProductOperator",
    "SiteKind",
    "StateVector",
    "clock_z",
    "commutation_phase",
    "projective_x",
    "projective_x_tilde",
    "shift_x",
]

__version__ = "0.1.0"
