"""MPO tensors: exact entries, symmetries, contraction equivalences."""

from fractions import Fraction

import numpy as np
import pytest

from latgauge.gauging import LayerSpec, build_gauging_map, compose_gauging, initial_state, layer_stack
from latgauge.groups import GroupSpec, enumerate_cocycle_classes
from latgauge.cyclotomic import mono_mul_left
from algebra_reference import to_dense
from latgauge.tensors import (
    block_diamond,
    build_tensor,
    contract_mpo_layer,
    contract_pepes,
    pull_through_check,
)

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z22 = GroupSpec((2, 2))
Z23 = GroupSpec((2, 3))
GROUPS = [Z2, Z3, GroupSpec((4,)), Z22, Z23]


class TestEntries:
    def test_m_tensor_is_diagonal_selector(self):
        t = build_tensor("M_e", Z2)
        dense = t.to_complex()
        # virtual-diagonal, physical clock: entry (v, v, p, p) = (-1)**(p v)
        for v in range(2):
            for p in range(2):
                assert abs(dense[v, v, p, p] - (-1) ** (p * v)) < 1e-15
        assert np.count_nonzero(t.counts) == 4

    def test_m_tilde_equals_m_e_for_diagonal_matter(self):
        for group in (Z2, Z22):
            assert build_tensor("M_tilde", group) == build_tensor("M_e", group)

    def test_t_tensor_difference_delta(self):
        t = build_tensor("T_e", Z3)
        dense = t.to_complex()
        for l in range(3):
            for r in range(3):
                p = (l - r) % 3
                assert abs(dense[p, l, r] - 1 / 3) < 1e-15

    def test_t_with_identity_caps_gives_identity_ket(self):
        # Both virtual legs against the identity label: the physical output
        # is proportional to the identity-label ket.
        for group in (Z2, Z3, Z22):
            t = build_tensor("T_o", group).to_complex()
            vec = t[:, 0, 0]
            expected = np.zeros(group.size)
            expected[0] = 1 / group.size
            assert np.max(np.abs(vec - expected)) < 1e-15

    @pytest.mark.parametrize("name", ["M_tilde", "M_e", "M_o", "T_e", "T_o"])
    def test_entry_census_equal_modulus(self, name):
        for group in GROUPS:
            t = build_tensor(name, group)
            assert np.count_nonzero(t.counts) == group.size**2
            dense = t.to_complex()
            mods = np.abs(dense[t.counts.any(axis=-1)])
            assert np.allclose(mods, mods[0])

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            build_tensor("M_x", Z2)


class TestPullThrough:
    @pytest.mark.parametrize("group", GROUPS)
    def test_all_identities_exact(self, group):
        rep = pull_through_check(group)
        assert rep["passed"], rep["failures"][:3]
        assert rep["num_checked"] > 0

    def test_identity_labels_trivially_pass(self):
        # Dressing with identity-label operators never changes the tensor.
        t = build_tensor("T_e", Z3)
        from latgauge.operators import clock_z, shift_x

        x, z = shift_x(Z3.identity()), clock_z(Z3.dual_identity())
        dressed = mono_mul_left(t, [(1, x), (0, z)])
        assert dressed == t

    def test_dressing_matches_dense_leg_product(self):
        from latgauge.operators import projective_x

        alpha = enumerate_cocycle_classes(Z22)[1]
        mono = projective_x(alpha, Z22.element((1, 1)))
        t = build_tensor("M_o", Z22)
        for leg in range(4):
            dressed = mono_mul_left(t, [(leg, mono)]).to_complex()
            expected = np.moveaxis(np.tensordot(to_dense(mono), t.to_complex(), axes=(1, leg)), 0, leg)
            assert np.max(np.abs(dressed - expected)) < 1e-12

    @pytest.mark.parametrize("group", GROUPS)
    def test_blocked_diamond_is_the_dense_contraction(self, group):
        for m_name, t_name in [("M_e", "T_o"), ("M_o", "T_e")]:
            m = build_tensor(m_name, group).to_complex()
            t = build_tensor(t_name, group).to_complex()
            expected = np.moveaxis(np.tensordot(m, t, axes=(3, 0)), 2, 4)
            got = block_diamond(m_name, t_name, group).to_complex()
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_blocked_diamond_shapes(self):
        d = block_diamond("M_e", "T_o", Z22)
        assert d.counts.shape == (4,) * 5 + (Z22.phase_modulus,)
        assert d.scale == Fraction(1, 4)


def einsum_mpo(layer):
    """Dense layer MPO by one np.einsum over the complex M and T tensors.

    Matter site i carries M with bonds (a_i, c_i); the T to its right
    joins c_i to a_{i+1}.  A periodic ring joins the last T to a_0.  An
    open chain adds a T on the far-left new site, joining the identity
    label to a_0, and closes its last T on the identity label.  The new
    site of the T right of matter i is i on even periodic rows, (i + 1)
    mod n on odd periodic rows and i + 1 on open rows.
    """
    group, n = layer.group, layer.n
    even = layer.index % 2 == 0
    m = build_tensor("M_e" if even else "M_o", group).to_complex()
    t = build_tensor("T_e" if even else "T_o", group).to_complex()
    open_bc = layer.boundary == "open"
    n_new = n + 1 if open_bc else n
    out = list(range(n))
    new = list(range(n, n + n_new))
    inp = list(range(n + n_new, 2 * n + n_new))
    first = 2 * n + n_new
    a = [first + i for i in range(n)]
    c = [first + n + i for i in range(n)]
    left_edge, right_edge = first + 2 * n, first + 2 * n + 1
    operands = []
    for i in range(n):
        operands += [m, [a[i], c[i], out[i], inp[i]]]
        if open_bc:
            operands += [t, [new[i + 1], c[i], a[i + 1] if i + 1 < n else right_edge]]
        else:
            operands += [t, [new[i if even else (i + 1) % n], c[i], a[(i + 1) % n]]]
    if open_bc:
        edge = np.zeros(group.size)
        edge[group.index_of(group.identity().exps)] = 1
        operands += [t, [new[0], left_edge, a[0]], edge, [left_edge], edge, [right_edge]]
    dense = np.einsum(*operands, out + new + inp, optimize=True)
    return dense.reshape(group.size ** (n + n_new), group.size**n)


class TestMpoEquivalence:
    @pytest.mark.parametrize("group", [Z2, Z3, Z22], ids=["Z2", "Z3", "Z2xZ2"])
    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("bc", ["periodic", "open"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_einsum_network(self, group, index, bc, n):
        layer = LayerSpec(group, index, n, bc)
        got = contract_mpo_layer(layer).to_complex()
        expected = einsum_mpo(layer)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) < 1e-12

    @pytest.mark.parametrize("group", [Z2, Z3, Z22])
    @pytest.mark.parametrize("index", [0, 1])
    @pytest.mark.parametrize("bc", ["periodic", "open"])
    def test_matches_dense_map_projectively(self, group, index, bc):
        for n in (2, 3):
            layer = LayerSpec(group, index, n, bc)
            gmap = build_gauging_map(layer)
            if gmap.out_dim * gmap.in_dim * group.phase_modulus > 2**24:
                continue
            ratio = contract_mpo_layer(layer).proportional(gmap.exact_matrix())
            assert ratio is not None and ratio > 0
            n_t = len(layer.new_positions())
            assert ratio == Fraction(1, group.size**n_t)

    def test_twisted_layer_rejected(self):
        alpha = enumerate_cocycle_classes(Z22)[1]
        with pytest.raises(ValueError):
            contract_mpo_layer(LayerSpec(Z22, 0, 2, "periodic", alpha))


def _unit_layer_matrix(layer):
    """The layer's contracted MPO at the unit-isometry scale of GaugingMap.apply."""
    n_t = len(layer.new_positions())
    scale = layer.group.size ** (n_t + layer.scale_power - layer.n)
    return contract_mpo_layer(layer).to_complex() * float(scale)


class TestPepes:
    @pytest.mark.parametrize("group", [Z2, Z3])
    def test_contraction_matches_composition(self, group):
        layers = layer_stack(group, 2, 2, "periodic")
        st = initial_state(group, layers[0])
        direct = compose_gauging(layers, st).dense()
        via_tn = contract_pepes(layers, st.dense())
        assert via_tn.site_ids == direct.site_ids
        fidelity = abs(np.vdot(direct.amps, via_tn.amps)) / (direct.norm() * via_tn.norm())
        assert abs(fidelity - 1) < 1e-10

    @pytest.mark.parametrize(
        "group, n, num_layers, bc",
        [
            (Z2, 2, 2, "periodic"),
            (Z3, 2, 2, "periodic"),
            (Z22, 2, 2, "periodic"),
            (Z23, 2, 2, "periodic"),
            (Z2, 2, 3, "open"),
            (Z2, 3, 2, "open"),
        ],
        ids=["Z2", "Z3", "Z2xZ2", "Z2xZ3", "Z2-open-n2", "Z2-open-n3"],
    )
    def test_amplitudes_match_composition(self, group, n, num_layers, bc):
        # Same sites, same order, same amplitudes: no normalization and no
        # phase freedom between the two routes.
        layers = layer_stack(group, n, num_layers, bc)
        st = initial_state(group, layers[0])
        direct = compose_gauging(layers, st).dense()
        via_tn = contract_pepes(layers, st.dense())
        assert via_tn.site_ids == direct.site_ids
        assert via_tn.kinds == direct.kinds
        assert np.max(np.abs(via_tn.amps - direct.amps)) < 1e-12

    def test_matter_row_must_trail_the_state(self):
        layers = layer_stack(Z2, 2, 2, "periodic")
        with pytest.raises(ValueError, match="trailing sites"):
            contract_pepes(layers[1:], initial_state(Z2, layers[0]).dense())

    def test_single_layer_reduces_to_mpo(self):
        layer = LayerSpec(Z2, 0, 2, "periodic")
        st = initial_state(Z2, layer)
        out = contract_pepes([layer], st.dense())
        expected = build_gauging_map(layer).apply(st).dense()
        assert np.max(np.abs(out.amps - expected.amps)) < 1e-12

    def test_trapezoid_row_sizes(self):
        layers = layer_stack(Z2, 2, 3, "open")
        assert [layers[0].n] + [len(layer.new_positions()) for layer in layers] == [2, 3, 4, 5]
        layers2 = layer_stack(Z3, 3, 2, "open")
        assert [layers2[0].n] + [len(layer.new_positions()) for layer in layers2] == [3, 4, 5]

    def test_open_boundary_contraction_matches_composition(self):
        layers = layer_stack(Z2, 2, 3, "open")
        st = initial_state(Z2, layers[0])
        direct = compose_gauging(layers, st).dense()
        via_tn = contract_pepes(layers, st.dense())
        assert via_tn.site_ids == direct.site_ids
        fidelity = abs(np.vdot(direct.amps, via_tn.amps)) / (direct.norm() * via_tn.norm())
        assert abs(fidelity - 1) < 1e-10

    def test_adjoint_square_is_partial_isometry(self):
        # W^dagger W for the two-layer open stack W, which acts on the
        # input row: layer 1 acts on the trailing new row of layer 0.
        layers = layer_stack(Z2, 2, 2, "open")
        st = initial_state(Z2, layers[0]).dense()
        first, second = (_unit_layer_matrix(layer) for layer in layers)
        forward = np.kron(np.eye(Z2.size ** layers[0].n), second) @ first
        square = forward.conj().T @ forward
        out = square @ st.amps
        assert out.shape == st.amps.shape
        # idempotency of the composite map up to its scale on this input
        again = square @ out
        ratio = np.linalg.norm(again) / np.linalg.norm(out)
        third = square @ again
        assert abs(np.linalg.norm(third) / np.linalg.norm(again) - ratio) < 1e-10

    def test_trapezoid_boundary_remnants_are_not_stabilizers(self):
        # At the slanted open boundary the would-be plaquettes lose a corner
        # and the two-body remnants do not stabilize the state, so strings
        # ending there violate nothing.
        from latgauge.operators import ProductOperator, clock_z, shift_x

        layers = layer_stack(Z2, 2, 3, "open")
        state = compose_gauging(layers, initial_state(Z2, layers[0]))
        g, chi = Z2.element((1,)), Z2.character((1,))
        remnants = [
            [((2, -2), clock_z(g)), ((1, -1), shift_x(g))],
            [((3, -3), clock_z(chi)), ((2, -2), shift_x(chi))],
        ]
        for factors in remnants:
            op = ProductOperator.from_factors(factors, 2)
            assert state.fixed_by([op]) == [False]
            dense = state.dense()
            assert abs(np.vdot(dense.amps, dense.apply(op).amps) / dense.norm() ** 2 - 1) > 0.5
