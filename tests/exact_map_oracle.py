"""Hand enumeration of a gauging layer's exact tensor, kept as an oracle.

GaugingMap.exact_matrix builds the map by moving basis states under the
layer's Gauss-law operators (`local_symmetry_op`).  This module keeps the
older construction, which works the layer out by hand: for every tuple t
of |G|**n labels it writes the new-row configuration t_i - t_(i+1) at
each link, with the open or periodic ends and the -alpha(ket, next)
twist phase of every projective shift, and adds the matter clocks'
phases.  The two routes share no code past the layer geometry, so tests
require them to give the same tensor, keys, multiplicities and scale.
"""

from __future__ import annotations

import itertools

import numpy as np

from algebra_reference import dense_action
from latgauge.cyclotomic import PhaseTensor
from latgauge.operators import clock_z


def exact_matrix(gmap) -> PhaseTensor:
    """Exact sparse (out, in) PhaseTensor of the raw term sum, enumerated term by term."""
    L = gmap.group.phase_modulus
    size = gmap.group.size
    n = gmap.layer.n
    alpha = gmap.layer.twist
    spec = gmap.group
    n_new = len(gmap.new_sites)
    flats, roots = [], []
    # Per matter site, the phase of the matter clock as a (basis state,
    # label) table.
    all_labels = [lab.exps for lab in gmap.layer.labels()]
    pair_table = np.array([dense_action(clock_z(lab))[1] for lab in gmap.layer.labels()], dtype=np.int64).T
    m_configs = np.array(list(itertools.product(range(size), repeat=n)), dtype=np.int64)
    m_flat = np.zeros(len(m_configs), dtype=np.int64)
    for col in range(n):
        m_flat = m_flat * size + m_configs[:, col]
    open_bc = gmap.layer.boundary == "open"
    matter_pos = gmap.layer.matter_positions()
    new_pos = gmap.layer.new_positions()
    two_n = 2 * n
    for t_idx in itertools.product(range(size), repeat=n):
        t = [all_labels[k] for k in t_idx]
        by_pos = {}
        extra = 0
        if open_bc:
            left = spec.neg_exps(t[0])
            by_pos[matter_pos[0] - 1] = left
            extra += -alpha.exponent(left, t[0])
            for i in range(n - 1):
                ket = spec.add_exps(t[i], spec.neg_exps(t[i + 1]))
                by_pos[matter_pos[i] + 1] = ket
                extra += -alpha.exponent(ket, t[i + 1])
            by_pos[matter_pos[n - 1] + 1] = t[n - 1]
        else:
            for i in range(n):
                nxt = t[(i + 1) % n]
                ket = spec.add_exps(t[i], spec.neg_exps(nxt))
                by_pos[(matter_pos[i] + 1) % two_n] = ket
                extra += -alpha.exponent(ket, nxt)
        new_flat = 0
        for p in new_pos:
            new_flat = new_flat * size + spec.index_of(by_pos[p])
        phases = extra + pair_table[m_configs[:, 0], t_idx[0]]
        for col in range(1, n):
            phases = phases + pair_table[m_configs[:, col], t_idx[col]]
        rows = m_flat * (size**n_new) + new_flat
        flats.append(rows * gmap.in_dim + m_flat)
        roots.append(phases)
    return PhaseTensor.from_entries(
        (gmap.out_dim, gmap.in_dim), L, np.concatenate(flats), np.concatenate(roots)
    )
