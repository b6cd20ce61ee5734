"""Exact MPO tensors for the gauging maps and their pull-through symmetries.

Each gauging layer is a matrix product operator built from two tensors of
bond dimension |G|: an M tensor sitting on the matter sites (diagonal in
the virtual label, acting as the matter clock) and a T tensor emitting the
new site between two matter sites (a difference delta with a 1/|G|
prefactor).  Every tensor is a sparse cyclotomic.PhaseTensor: each nonzero
entry is one root of unity, stored as one key with multiplicity 1, and the
T prefactor is the tensor's scale.  A symmetry identity dresses legs with
monomial operators, all placed by one cyclotomic.mono_mul_left call, and
is checked by exact equality.  The layer MPO is contracted from the same M
and T tensors by cyclotomic.contract, one virtual leg at a time, and
shares no code with GaugingMap.exact_matrix, which it is checked against
(mpo_matches_map).  The stacked network is contract_pepes: it joins
each layer's contracted MPO with the trailing row of an exact
operators.SupportState and appends the new row, which gives the composed
state, key for key and root for root, by a route independent of
gauging.compose_gauging.

Index order conventions (row major in serialization):

  M tensors: (left, right, phys_out, phys_in)
  T tensors: (phys_out, left, right)

Even-layer tensors (M_e, T_e) carry group-element virtual labels and act
on vertex/edge physical spaces; odd-layer tensors (M_o, T_o) carry
character labels with the two physical spaces exchanged.  Only the label
lists differ between the two: the clock and shift constructors take
either label type.  M_tilde is the generic first-layer matter tensor,
which with the diagonal matter representation used throughout equals M_e.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .cyclotomic import PhaseTensor, contract, mono_mul_left
from .gauging import GaugingMap, LayerSpec, gauged_layout
from .groups import GroupSpec
from .operators import SupportState, clock_z, shift_x

M_NAMES = ("M_tilde", "M_e", "M_o")
T_NAMES = ("T_e", "T_o")


def build_tensor(name: str, group: GroupSpec) -> PhaseTensor:
    """Exact entries of the named MPO tensor."""
    size = group.size
    L = group.phase_modulus
    first, second = np.divmod(np.arange(size * size), size)
    if name in M_NAMES:
        # Entry (v, v, p, p) holds p(v), and the pair table is symmetric.
        flat = np.ravel_multi_index((first, first, second, second), (size,) * 4)
        return PhaseTensor.from_entries((size,) * 4, L, flat, group.pair.ravel())
    if name in T_NAMES:
        flat = np.ravel_multi_index((group.add[first, group.neg[second]], first, second), (size,) * 3)
        return PhaseTensor.from_entries((size,) * 3, L, flat, np.zeros_like(flat), scale=Fraction(1, size))
    raise ValueError(f"unknown tensor name {name!r}")


def _virtual_labels(even: bool, group: GroupSpec) -> tuple[list, list]:
    """(clock labels, shift labels) on the virtual legs of an even or odd tensor."""
    if even:
        return list(group.characters()), list(group.elements())
    return list(group.elements()), list(group.characters())


def pull_through_identities(name: str, group: GroupSpec):
    """The displayed symmetry identities of one tensor, as dressing recipes.

    Each entry is (description, label set, dressing builder) where the
    builder maps a label to a list of (leg index, monomial) to contract;
    the dressed tensor must equal the original exactly.
    """
    labels_clock, labels_shift = _virtual_labels(name in ("M_e", "M_tilde", "T_e"), group)
    if name in T_NAMES:
        # legs: (phys_out=0, left=1, right=2)
        return [
            (
                "virtual clock pair compensated on the physical leg",
                labels_clock,
                lambda lab: [(1, clock_z(lab)), (2, clock_z(lab.inverse())), (0, clock_z(lab.inverse()))],
            ),
            (
                "simultaneous virtual shifts",
                labels_shift,
                lambda lab: [(1, shift_x(lab)), (2, shift_x(lab))],
            ),
        ]
    # legs: (left=0, right=1, phys_out=2, phys_in=3); the matter clock is
    # labelled by the virtual shift labels.
    return [
        (
            "physical clock conjugation",
            labels_shift,
            lambda lab: [(2, clock_z(lab)), (3, clock_z(lab.inverse()))],
        ),
        (
            "virtual shifts compensated by the input clock",
            labels_shift,
            lambda lab: [(3, clock_z(lab)), (0, shift_x(lab)), (1, shift_x(lab))],
        ),
        (
            "virtual clock pair",
            labels_clock,
            lambda lab: [(0, clock_z(lab)), (1, clock_z(lab.inverse()))],
        ),
    ]


def block_diamond(m_name: str, t_name: str, group: GroupSpec) -> PhaseTensor:
    """M stacked on T, contracted through M's phys_in and T's phys_out.

    Legs: (upper_left, upper_right, lower_left, lower_right, phys_out).
    The upper pair comes from the M tensor, the lower pair from the T
    tensor one layer below.
    """
    d = contract(build_tensor(m_name, group), build_tensor(t_name, group), (3, 0))
    return d.transpose((0, 1, 3, 4, 2))


def blocked_diamond_identities(m_name: str, group: GroupSpec):
    """Virtual symmetries of the checkerboard diamond tensors."""
    clock_labels, shift_labels = _virtual_labels(m_name in ("M_e", "M_tilde"), group)
    return [
        (
            "four-leg shift and clock dressing",
            shift_labels,
            lambda lab: [
                (0, shift_x(lab)),
                (1, shift_x(lab)),
                (2, clock_z(lab)),
                (3, clock_z(lab.inverse())),
            ],
        ),
        (
            "upper virtual clock pair",
            clock_labels,
            lambda lab: [(0, clock_z(lab.inverse())), (1, clock_z(lab))],
        ),
        (
            "lower virtual shift pair",
            clock_labels,
            lambda lab: [(2, shift_x(lab)), (3, shift_x(lab))],
        ),
    ]


def pull_through_check(group: GroupSpec) -> dict:
    """Verify every tensor identity exactly; deviations must be zero."""
    cases = [(name, build_tensor(name, group), pull_through_identities(name, group)) for name in M_NAMES + T_NAMES]
    for m_name, t_name in [("M_e", "T_o"), ("M_o", "T_e")]:
        diamond = block_diamond(m_name, t_name, group)
        cases.append((f"diamond {m_name}/{t_name}", diamond, blocked_diamond_identities(m_name, group)))
    checks = []
    for tensor_name, tensor, identities in cases:
        for desc, labels, recipe in identities:
            for lab in labels:
                checks.append(
                    {
                        "tensor": tensor_name,
                        "identity": desc,
                        "label": lab.exps,
                        "passed": mono_mul_left(tensor, recipe(lab)) == tensor,
                    }
                )
    return {
        "name": "pull_through",
        "passed": all(c["passed"] for c in checks),
        "num_checked": len(checks),
        "failures": [c for c in checks if not c["passed"]],
    }


# -- MPO contraction ----------------------------------------------------------


def contract_mpo_layer(layer: LayerSpec) -> PhaseTensor:
    """Contract the layer's M-T chain into an exact operator tensor.

    An M tensor sits on each matter site and a T tensor on the new site to
    its right; open rows add a T on the far-left new site and close both
    ends with the identity label, periodic rows close the ring by a trace.
    Output rows are ordered (matter config, new config) as in
    GaugingMap.exact_matrix, so the two construction routes can be
    compared entrywise (the MPO carries the T prefactors in its scale).
    The cap is checked on every call.  The chain is contracted once per
    spec object and held in its attributes, as LayerSpec.exact_map is.
    """
    if not layer.twist.is_trivial:
        raise ValueError("the MPO tensors describe untwisted layers only")
    layer.check_exact_cap()
    held = vars(layer)
    if "_mpo" not in held:
        held["_mpo"] = _contract_mpo(layer)
    return held["_mpo"]


def _contract_mpo(layer: LayerSpec) -> PhaseTensor:
    """The layer's M-T chain, contracted anew on each call and viewed as (out, in), which keeps its keys canonical."""
    group = layer.group
    size, L, n = group.size, group.phase_modulus, layer.n
    open_bc = layer.boundary == "open"
    new_pos = layer.new_positions()
    even = layer.parity == "even"
    m_tensor = build_tensor("M_e" if even else "M_o", group)  # (left, right, out, in)
    t_tensor = build_tensor("T_e" if even else "T_o", group).transpose((1, 2, 0))  # (left, right, out)
    # The identity label closes an open chain at both ends; a periodic ring
    # is cut by a delta on the bond left of matter site 0 and closed by a
    # trace over the two ends of the cut.
    edge = PhaseTensor.from_entries((size,), L, [group.index_of(group.identity().exps)], [0])
    cut = PhaseTensor.from_entries((size, size), L, np.arange(size) * (size + 1), np.zeros(size))
    pos = layer.matter_positions()
    tensors = [(t_tensor, [n + new_pos.index(pos[0] - 1)])] if open_bc else []
    for i, x2 in enumerate(pos):
        right = x2 + 1 if open_bc else (x2 + 1) % (2 * n)
        tensors += [(m_tensor, [i, n + len(new_pos) + i]), (t_tensor, [n + new_pos.index(right)])]
    # Each join contracts the next tensor's left leg with the chain's
    # leading leg, so the open right leg always leads and the physical legs
    # stack up behind it.  `legs` lists the output axis of each: matter out
    # i, then new j, then matter in i.
    chain, legs = (edge if open_bc else cut), []
    for tensor, axes in tensors:
        chain = contract(tensor, chain, (0, 0))
        legs = axes + legs
    chain = contract(edge, chain, (0, 0)) if open_bc else chain.trace(0, len(chain.shape) - 1)
    chain = chain.transpose(np.argsort(legs))
    return PhaseTensor((size ** (n + len(new_pos)), size**n), L, chain.keys, chain.mults, chain.scale)


def mpo_layers(group: GroupSpec, n: int) -> list[LayerSpec]:
    """The four untwisted layers whose MPOs are checked: layers 0 and 1, periodic and open."""
    return [LayerSpec(group, index, n, bc) for index in (0, 1) for bc in ("periodic", "open")]


def mpo_matches_map(layer: LayerSpec) -> bool:
    """True when the layer's contracted MPO, cap-checked first, equals its exact map up to a positive scalar."""
    ratio = contract_mpo_layer(layer).proportional(GaugingMap(layer).exact_matrix())
    return ratio is not None and ratio > 0


# -- stacked networks ---------------------------------------------------------


def contract_pepes(layers, input_state: SupportState) -> SupportState:
    """Contract the stacked layer MPOs against an input row state, exactly.

    Each layer joins the state, as a PhaseTensor of shape (earlier rows,
    matter row), with its contracted MPO on the matter row, which must be
    the state's trailing sites (gauging.gauged_layout).  The MPO carries
    one 1/|G| per T tensor, so the squared magnitude also gains the
    integer power |G|**(2 (n_t + scale_power - n)) of GaugingMap.apply's
    normalization.  An output with two roots on a key, or keys of
    different multiplicities, is no support state: ValueError.
    """
    state = input_state
    for layer in layers:
        layout = gauged_layout(state, layer)
        n, size = layer.n, layer.group.size
        rows = (math.prod(state.dims) // size**n, size**n)
        psi = PhaseTensor.from_entries(rows, state.modulus, state.keys, state.roots)
        out = contract(psi, contract_mpo_layer(layer), (1, 1))
        flat, mults = out.flat_indices, out.mults
        if (flat[1:] == flat[:-1]).any() or (mults != mults[:1]).any():
            raise ValueError("the contracted layer is not one root of one multiplicity per key")
        power = round(2 * (len(layer.new_positions()) + layer.scale_power - n))
        mag_sq = state.mag_sq * (int(mults[0]) * out.scale if mults.size else 0) ** 2 * Fraction(size) ** power
        state = SupportState(*layout, state.modulus, flat, out.roots, mag_sq)
    return state
