"""The float Fourier construction of the boundary fixed points, kept as an oracle.

boundary.build_fixed_point_state writes the closed form of each fixed
point: uniform over the character tuples with every chi_i trivial on H and
prod chi_i = 1.  This module keeps the older construction, which works in
group labels: the normalized sum over the cosets gH of (coset indicator)**n,
rotated site by site onto the clock chain by the Fourier matrix
F |g> = |G|**-0.5 sum_chi chi(g) |chi>.  Its string orders are the float
inner product <psi|O psi> of the dense state.  The two routes share no
code past the chain's sites, so tests require them to agree.
"""

from __future__ import annotations

import math

import numpy as np


def fourier_matrix(group) -> np.ndarray:
    """Sitewise rotation mapping shifts onto clocks."""
    size = group.size
    mat = np.zeros((size, size), dtype=complex)
    for chi in group.characters():
        for g in group.elements():
            k = group.pair_exponent(chi.exps, g.exps)
            mat[group.index_of(chi.exps), group.index_of(g.exps)] = np.exp(2j * np.pi * k / group.phase_modulus)
    return mat / math.sqrt(size)


def fixed_point_amps(group, subgroup, n: int) -> np.ndarray:
    """Amplitudes of the chain's fixed point, from the Fourier image of the coset state."""
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
    return tensor.reshape(-1)


def string_order(state, op) -> complex:
    """<psi|O psi> of a dense float state."""
    return complex(np.vdot(state.amps, state.apply(op).amps))
