"""Gauging maps: normalization, emergent identities, composition, pairs."""

import math
import tracemalloc

import numpy as np
import pytest

from latgauge import suite
from latgauge.gauging import (
    CapExceededError,
    LayerSpec,
    build_gauging_map,
    compose_gauging,
    dimension_cap,
    initial_state,
    layer_stack,
    stack_local_symmetry_ops,
    verify_emergent_symmetry,
    verify_local_symmetry,
    verify_string_order_mapping,
    zero_dim_gauge,
)
from latgauge.groups import Cocycle, GroupSpec, enumerate_cocycle_classes
from latgauge.operators import (
    SUPPORT_TILE,
    ProductOperator,
    SiteKind,
    StateVector,
    clock_z,
    commutation_phase,
    shift_x,
)
from latgauge.tensors import contract_pepes
import exact_map_oracle

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z4 = GroupSpec((4,))
Z22 = GroupSpec((2, 2))
Z23 = GroupSpec((2, 3))
Z33 = GroupSpec((3, 3))
Z42 = GroupSpec((4, 2))
Z24 = GroupSpec((2, 4))


def symmetric_random_state(group, layer, seed):
    """Project a random input onto the diagonal-symmetry sector."""
    rng = np.random.default_rng(seed)
    size = group.size
    dim = size**layer.n
    raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    base = initial_state(group, layer)
    stv = StateVector(base.site_ids, base.kinds, base.dims, raw)
    acc = np.zeros(dim, dtype=complex)
    for g in group.elements():
        op = ProductOperator.from_factors(((s, clock_z(g)) for s in stv.site_ids), group.phase_modulus)
        acc += stv.apply(op).amps
    acc /= size
    return StateVector(stv.site_ids, stv.kinds, stv.dims, acc / np.linalg.norm(acc))


def with_identity_row(state, sites, size):
    """`state` with the (site_id, kind) sites appended, each at the identity label: the projector oracles' input."""
    row = np.zeros(size ** len(sites), dtype=complex)
    row[0] = 1.0
    return StateVector(
        state.site_ids + tuple(s for s, _ in sites),
        state.kinds + tuple(k for _, k in sites),
        state.dims + (size,) * len(sites),
        np.kron(state.amps, row),
    )


class TestSingleMap:
    @pytest.mark.parametrize(
        "group,n,bc",
        [(Z2, 2, "periodic"), (Z2, 3, "periodic"), (Z3, 2, "periodic"),
         (Z2, 2, "open"), (Z3, 3, "open"), (Z22, 2, "periodic")],
    )
    def test_symmetric_inputs_map_to_unit_norm(self, group, n, bc):
        layer = LayerSpec(group, 0, n, bc)
        gmap = build_gauging_map(layer)
        assert abs(gmap.apply(initial_state(group, layer)).norm() - 1) < 1e-12
        sym = symmetric_random_state(group, layer, 11)
        assert abs(gmap.apply(sym).norm() - 1) < 1e-10

    def test_local_symmetry_fixes_single_map_output(self):
        layer = LayerSpec(Z2, 0, 2, "periodic")
        gmap = build_gauging_map(layer)
        out = gmap.apply(symmetric_random_state(Z2, layer, 2))
        for i in range(layer.n):
            for g in Z2.elements():
                moved = out.apply(gmap.local_symmetry_op(i, g))
                assert np.max(np.abs(moved.amps - out.amps)) < 1e-12

    def test_twist_trivial_equals_untwisted(self):
        trivial = Cocycle.trivial(Z22)
        a = build_gauging_map(LayerSpec(Z22, 0, 2, "periodic", None)).exact_matrix()
        b = build_gauging_map(LayerSpec(Z22, 0, 2, "periodic", trivial)).exact_matrix()
        assert a == b
        # and the state path produces byte-identical amplitudes
        plain = compose_gauging(layer_stack(Z22, 2, 2), initial_state(Z22, LayerSpec(Z22, 0, 2)))
        dressed = compose_gauging(
            layer_stack(Z22, 2, 2, twist_even=trivial, twist_odd=trivial),
            initial_state(Z22, LayerSpec(Z22, 0, 2)),
        )
        assert np.array_equal(plain.amps, dressed.amps)

    def test_dimension_cap_guard(self, monkeypatch):
        layer = LayerSpec(Z3, 0, 3, "periodic")
        monkeypatch.setenv("GAUGE_MAX_DIM", "100")
        with pytest.raises(CapExceededError):
            build_gauging_map(layer).apply(initial_state(Z3, layer))


class TestInputsAreNotWritten:
    @pytest.mark.parametrize("group", [Z2, Z3])
    def test_map_and_compose_leave_their_input(self, group):
        layers = layer_stack(group, 3, 2)
        gmap = build_gauging_map(layers[0])
        # The identity label's symmetry is the empty operator, whose
        # application returns the input array itself.
        assert gmap.local_symmetry_op(0, group.identity()).factors == ()
        stv = symmetric_random_state(group, layers[0], 3)
        before = stv.amps.tobytes()
        out = gmap.apply(stv)
        assert stv.amps.tobytes() == before
        compose_gauging(layers, stv)
        assert stv.amps.tobytes() == before

        def projector_sum(ref):
            # Float oracle: out-of-place projector sum in label order, then the scale.
            for i in range(layers[0].n):
                terms = [ref.apply(gmap.local_symmetry_op(i, lab)).amps for lab in layers[0].labels()]
                acc = terms[0]
                for term in terms[1:]:
                    acc = acc + term
                ref = StateVector(ref.site_ids, ref.kinds, ref.dims, acc / group.size)
            return ref.amps * group.size**gmap.layer.scale_power

        # The kernel sums each cell's roots directly, not through n
        # projector steps, so it matches the loop within rounding only.
        ones = StateVector(stv.site_ids, stv.kinds, stv.dims, np.ones_like(stv.amps))
        ones = with_identity_row(ones, gmap.new_sites, group.size)
        assert np.max(np.abs(gmap.row_kernel().reshape(-1) - projector_sum(ones))) < 1e-15
        stacked = projector_sum(with_identity_row(stv, gmap.new_sites, group.size))
        assert np.max(np.abs(out.amps - stacked)) < 1e-14


def _row_kernel_cases():
    for group in (Z2, Z3, Z22, Z23):
        for bc in ("periodic", "open"):
            for index in (0, 1):
                yield pytest.param(group, bc, index, False, id=f"{group.orders}-{bc}-layer{index}")
    # Twisted by each group's first nontrivial class.
    for group in (Z22, Z33, Z42):
        for bc in ("periodic", "open"):
            for index in (0, 1):
                yield pytest.param(group, bc, index, True, id=f"{group.orders}-{bc}-layer{index}-twisted")


class TestRowKernel:
    """apply() against the exact tensor and the contracted MPO network."""

    @staticmethod
    def layer(group, bc, index, twisted):
        twist = enumerate_cocycle_classes(group)[1] if twisted else None
        return LayerSpec(group, index, 2, bc, twist)

    @staticmethod
    def random_input(layer, leading, seed):
        # With `leading` the matter row sits behind a row of earlier sites,
        # the `a` axis of psi[a, m].
        sites = layer.matter_sites()
        if leading:
            sites = [((layer.index - 1, x2), layer.new_kind) for x2 in layer.matter_positions()] + sites
        rng = np.random.default_rng(seed)
        dim = layer.group.size ** len(sites)
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        dims = (layer.group.size,) * len(sites)
        return StateVector(tuple(s for s, _ in sites), tuple(k for _, k in sites), dims, amps / np.linalg.norm(amps))

    @pytest.mark.parametrize("group,bc,index,twisted", list(_row_kernel_cases()))
    @pytest.mark.parametrize("leading", [False, True])
    def test_apply_matches_the_exact_tensor_and_the_mpo(self, group, bc, index, twisted, leading):
        layer = self.layer(group, bc, index, twisted)
        gmap = build_gauging_map(layer)
        state = self.random_input(layer, leading, seed=7 + index)
        out = gmap.apply(state)
        assert out.site_ids == state.site_ids + tuple(s for s, _ in gmap.new_sites)
        assert out.kinds == state.kinds + tuple(k for _, k in gmap.new_sites)
        # exact_matrix is the raw sum of the |G|**n projector terms.
        exact = gmap.exact_matrix().to_complex() * float(group.size ** (layer.scale_power - layer.n))
        via_exact = (state.amps.reshape(-1, gmap.in_dim) @ exact.T).reshape(-1)
        assert np.max(np.abs(out.amps - via_exact)) < 1e-12
        if not twisted:
            via_mpo = contract_pepes([layer], state)
            assert via_mpo.site_ids == out.site_ids and via_mpo.kinds == out.kinds
            assert np.max(np.abs(out.amps - via_mpo.amps)) < 1e-12

    @pytest.mark.parametrize("bc", ["periodic", "open"])
    def test_matter_row_not_trailing_is_refused(self, bc):
        layer = self.layer(Z3, bc, 1, False)
        state = self.random_input(layer, True, seed=1)
        n, half = layer.n, layer.group.size**layer.n
        swapped = StateVector(
            state.site_ids[n:] + state.site_ids[:n],
            state.kinds[n:] + state.kinds[:n],
            state.dims[n:] + state.dims[:n],
            state.amps.reshape(half, half).T.reshape(-1),
        )
        for route in (build_gauging_map(layer).apply, lambda st: contract_pepes([layer], st)):
            with pytest.raises(ValueError, match="trailing sites"):
                route(swapped)

    @pytest.mark.parametrize("bc", ["periodic", "open"])
    def test_matter_row_of_the_wrong_kind_is_refused(self, bc):
        layer = self.layer(Z3, bc, 0, False)
        state = self.random_input(layer, False, seed=1)
        wrong = StateVector(state.site_ids, (layer.new_kind,) * layer.n, state.dims, state.amps)
        for route in (build_gauging_map(layer).apply, lambda st: contract_pepes([layer], st)):
            with pytest.raises(ValueError, match="wrong site kind"):
                route(wrong)


def _oracle_layers():
    """Layers 0-3 at n = 2-4 of up to four classes per group, both boundaries, within the cap."""
    for group in (Z2, Z3, Z4, Z22, Z23, Z33, Z42, Z24):
        for twist in enumerate_cocycle_classes(group)[:4]:
            for bc in ("periodic", "open"):
                for n in (2, 3, 4):
                    for index in range(4):
                        layer = LayerSpec(group, index, n, bc, twist)
                        if layer.exact_cells <= dimension_cap():
                            yield layer


class TestExactMatrix:
    def test_equals_the_hand_enumeration(self):
        # PhaseTensor equality compares shape, modulus, keys, mults and scale.
        layers = list(_oracle_layers())
        assert len(layers) == 160
        differ = []
        for layer in layers:
            gmap = build_gauging_map(layer)
            if gmap.exact_matrix() != exact_map_oracle.exact_matrix(gmap):
                differ.append(layer)
        assert differ == []


class TestEmergentSymmetry:
    @pytest.mark.parametrize("group", [Z2, Z3, Z22])
    @pytest.mark.parametrize("index", [0, 1])
    def test_untwisted(self, group, index):
        layer = LayerSpec(group, index, 2, "periodic")
        assert verify_emergent_symmetry(build_gauging_map(layer))["passed"]

    def test_twisted_keeps_the_same_symmetry(self):
        alpha = enumerate_cocycle_classes(Z22)[1]
        for index in (0, 1):
            layer = LayerSpec(Z22, index, 2, "periodic", alpha)
            assert verify_emergent_symmetry(build_gauging_map(layer))["passed"]

    def test_open_boundary(self):
        layer = LayerSpec(Z3, 0, 2, "open")
        assert verify_emergent_symmetry(build_gauging_map(layer))["passed"]

    def test_open_boundary_twisted(self):
        alpha = enumerate_cocycle_classes(Z22)[1]
        for index in (0, 1):
            layer = LayerSpec(Z22, index, 2, "open", alpha)
            assert verify_emergent_symmetry(build_gauging_map(layer))["passed"]


class TestFactorKinds:
    @pytest.mark.parametrize("bc", ["periodic", "open"])
    def test_every_factor_matches_its_site(self, bc):
        # The emergent symmetry takes the new row's label family, so its
        # clocks act on the new row's site kind.
        layers = layer_stack(Z22, 3, 2, bc)
        kinds = {}
        for layer in layers:
            kinds.update(layer.matter_sites() + layer.new_sites())
        ops = [op for _, op in stack_local_symmetry_ops(layers)]
        for layer in layers:
            gmap = build_gauging_map(layer)
            pair_labels = Z22.characters() if layer.index == 0 else Z22.elements()
            ops += [gmap.emergent_symmetry_op(lab) for lab in layer.labels()]
            ops += [op for lab in pair_labels for op in gmap.charged_pair_ops(0, 2, lab)]
        for op in ops:
            for site, mono in op.factors:
                assert mono.kind == kinds[site]


class TestStringOrderMapping:
    @pytest.mark.parametrize("group", [Z2, Z3])
    def test_exact_identity_all_pairs(self, group):
        for index in (0, 1):
            layer = LayerSpec(group, index, 3, "periodic")
            labels = group.characters() if index == 0 else group.elements()
            rep = verify_string_order_mapping(build_gauging_map(layer))
            checked = {(c["i"], c["i_prime"], c["label"]): c["passed"] for c in rep["checks"]}
            expected = {(i, ip, lab.exps) for lab in labels for i, ip in [(0, 1), (0, 2), (1, 2)]}
            assert set(checked) == expected and len(rep["checks"]) == len(expected)
            assert all(checked.values()) and rep["passed"]

    def test_identity_label_trivial(self):
        layer = LayerSpec(Z3, 1, 3, "periodic")
        rep = verify_string_order_mapping(build_gauging_map(layer))
        [check] = [c for c in rep["checks"] if (c["i"], c["i_prime"], c["label"]) == (0, 2, Z3.identity().exps)]
        assert check["passed"]

    def test_invalid_positions_rejected(self):
        layer = LayerSpec(Z2, 0, 3, "periodic")
        gmap = build_gauging_map(layer)
        with pytest.raises(ValueError):
            gmap.charged_pair_ops(2, 1, Z2.dual_identity())


class TestCompose:
    def test_single_layer_reduces_to_map(self):
        layer = LayerSpec(Z2, 0, 2, "periodic")
        st = initial_state(Z2, layer)
        a = compose_gauging([layer], st)
        b = build_gauging_map(layer).apply(st)
        assert np.max(np.abs(a.amps - b.amps)) < 1e-14

    @pytest.mark.parametrize("group,twist_idx", [(Z2, 0), (Z22, 1)])
    def test_stack_symmetries_hold(self, group, twist_idx):
        twist = enumerate_cocycle_classes(group)[twist_idx]
        layers = layer_stack(group, 2, 3, "periodic", twist_even=None if twist.is_trivial else twist)
        out = compose_gauging(layers, initial_state(group, layers[0]))
        rep = verify_local_symmetry(out, layers)
        assert rep["passed"], rep["violations"]

    def test_equals_ordered_projector_action_on_stacked_product(self):
        # Independent construction: lay out the full product state first,
        # then apply every local projector in layer order.
        group = Z2
        layers = layer_stack(group, 2, 2, "periodic")
        st = symmetric_random_state(group, layers[0], 9)
        composed = compose_gauging(layers, st)

        stacked = st
        for layer in layers:
            stacked = with_identity_row(stacked, layer.new_sites(), group.size)
        for layer in layers:
            gmap = build_gauging_map(layer)
            for i in range(layer.n):
                acc = np.zeros_like(stacked.amps)
                for label in layer.labels():
                    acc += stacked.apply(gmap.local_symmetry_op(i, label)).amps
                stacked = StateVector(stacked.site_ids, stacked.kinds, stacked.dims, acc / group.size)
            stacked = StateVector(
                stacked.site_ids, stacked.kinds, stacked.dims,
                stacked.amps * group.size**gmap.layer.scale_power,
            )
        assert stacked.site_ids == composed.site_ids
        assert np.max(np.abs(stacked.amps - composed.amps)) < 1e-10

    def test_corrupted_state_fails_exactly_adjacent_symmetries(self):
        group = Z2
        layers = layer_stack(group, 3, 2, "periodic")
        out = compose_gauging(layers, initial_state(group, layers[0]))
        corrupt_site = (1, 1)
        op = ProductOperator.from_factors([(corrupt_site, shift_x(group.element((1,))))], group.phase_modulus)
        corrupted = out.apply(op)
        rep = verify_local_symmetry(corrupted, layers)
        failing = {c["op"] for c in rep["violations"]}
        # Syndrome oracle: symmetries whose operator fails to commute with
        # the corruption are exactly the ones that must break.
        expected = set()
        for name, sym_op in stack_local_symmetry_ops(layers):
            from latgauge.operators import commutation_phase

            ph = commutation_phase(sym_op, op)
            if ph is None or not ph.is_one:
                expected.add(name)
        assert failing == expected
        assert expected  # the corruption is detectable

    def test_gauged_expectation_preservation(self):
        # <psi|O|psi> = <G psi|dressed O|G psi> for symmetric two-point O.
        group = Z3
        layer = LayerSpec(group, 0, 3, "periodic")
        gmap = build_gauging_map(layer)
        for seed in (1, 2, 3):
            psi = symmetric_random_state(group, layer, seed)
            gauged = gmap.apply(psi)
            for chi in group.characters():
                bare, dressed = gmap.charged_pair_ops(0, 2, chi)
                lhs = np.vdot(psi.amps, psi.apply(bare).amps)
                rhs = np.vdot(gauged.amps, gauged.apply(dressed).amps)
                assert abs(lhs - rhs) < 1e-10

    def test_norms_recorded(self):
        layers = layer_stack(Z2, 2, 3, "periodic")
        norms = []
        compose_gauging(layers, initial_state(Z2, layers[0]), norms_out=norms)
        assert len(norms) == 3 and all(abs(x - 1) < 1e-10 for x in norms)

    def test_open_boundary_trapezoid_rows(self):
        layers = layer_stack(Z2, 2, 3, "open")
        out = compose_gauging(layers, initial_state(Z2, layers[0]))
        rows = {}
        for sid in out.site_ids:
            rows.setdefault(sid[0], []).append(sid[1])
        assert {j: len(v) for j, v in rows.items()} == {0: 2, 1: 3, 2: 4, 3: 5}
        # Open row j spans x2 = -j .. 2 + j, placed from the layer index alone.
        assert rows == {j: list(range(-j, 3 + j, 2)) for j in range(4)}
        assert verify_local_symmetry(out, layers)["passed"]


def traced_peak(fn):
    """(result, peak bytes) of fn() under tracemalloc, which sees numpy's buffers."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestDenseBuffers:
    def test_map_keeps_three_full_size_buffers(self):
        # The last of five Z2 layers: at most the state, an accumulator and
        # one term buffer.  Fresh per-term arrays peaked at 4x the output.
        layers = layer_stack(Z2, 3, 5)
        state = compose_gauging(layers[:4], initial_state(Z2, layers[0]))
        gmap = build_gauging_map(layers[4])
        out, peak = traced_peak(lambda: gmap.apply(state))
        assert peak < 3.5 * out.amps.nbytes

    def test_first_layer_keeps_under_three_outputs(self):
        # On the first layer the row kernel is as large as the output.  Its
        # terms, (int64 flat, uint8 root) per cell, and one bincount
        # temporary sit beside it; the projector loop peaked at 4x.
        layer = layer_stack(Z2, 9, 1)[0]
        gmap = build_gauging_map(layer)
        state = initial_state(Z2, layer)
        out, peak = traced_peak(lambda: gmap.apply(state))
        assert out.amps.size == 2**18
        assert peak < 3 * out.amps.nbytes

    def test_map_writes_only_its_output(self):
        # The row kernel lives on the 2**6 row space; the broadcast multiply
        # writes the output and makes no other full-size array.
        layers = layer_stack(Z2, 3, 5)
        state = compose_gauging(layers[:4], initial_state(Z2, layers[0]))
        gmap = build_gauging_map(layers[4])
        out, peak = traced_peak(lambda: gmap.apply(state))
        assert peak < 1.5 * out.amps.nbytes

    def test_local_symmetry_check_keeps_one_extra_buffer(self):
        # No normalized copy: each overlap is divided by the squared norm.
        # With a normalized copy the peak was 2x the state, with a fresh
        # array per symmetry 3x.  The support-only sum below tightens this.
        layers = layer_stack(Z2, 3, 5)
        state = compose_gauging(layers, initial_state(Z2, layers[0]))
        rep, peak = traced_peak(lambda: verify_local_symmetry(state, layers))
        assert rep["passed"]
        assert peak < 1.5 * state.amps.nbytes

    def test_local_symmetry_check_allocates_no_full_size_array(self):
        # The overlaps are summed over the support, a small fraction of the
        # amplitudes; the only full-size temporary is the support mask of
        # np.flatnonzero, one byte per amplitude.
        layers = layer_stack(Z2, 3, 5)
        state = compose_gauging(layers, initial_state(Z2, layers[0]))
        rep, peak = traced_peak(lambda: verify_local_symmetry(state, layers))
        assert rep["passed"]
        assert peak < 0.25 * state.amps.nbytes

    def test_local_symmetry_check_of_the_zero_state_raises(self):
        layers = layer_stack(Z2, 2, 2)
        state = compose_gauging(layers, initial_state(Z2, layers[0]))
        zero = StateVector(state.site_ids, state.kinds, state.dims, np.zeros_like(state.amps))
        with pytest.raises(ZeroDivisionError):
            verify_local_symmetry(zero, layers)


def _expectation_cases():
    # (group, bc, layers, twist placement); sizes stay below 2**18 amplitudes.
    for bc in ("periodic", "open"):
        for group, periodic_layers, open_layers in ((Z2, 3, 3), (Z3, 3, 2), (Z22, 3, 2), (Z23, 2, 1)):
            num_layers = periodic_layers if bc == "periodic" else open_layers
            twists = ("trivial", "even", "odd", "both") if group is Z22 else ("trivial",)
            for twist in twists:
                yield pytest.param(group, bc, num_layers, twist, id=f"{group.orders}-{bc}-x{num_layers}-{twist}")


def expectation_stack(group, bc, num_layers, twist):
    alpha = enumerate_cocycle_classes(group)[1] if twist != "trivial" else None
    even = alpha if twist in ("even", "both") else None
    odd = alpha if twist in ("odd", "both") else None
    layers = layer_stack(group, 2, num_layers, bc, twist_even=even, twist_odd=odd)
    return layers, compose_gauging(layers, initial_state(group, layers[0]))


def dense_violations(state, layers, tol=1e-10):
    """Names verify_local_symmetry must list, from one StateVector.apply per symmetry."""
    norm_sq = state.norm() ** 2
    return [
        name for name, op in stack_local_symmetry_ops(layers)
        if op.factors and not abs(np.vdot(state.amps, state.apply(op).amps) / norm_sq - 1) < tol
    ]


class TestExpectations:
    """StateVector.expectations against one StateVector.apply and np.vdot per operator."""

    @staticmethod
    def assert_matches_apply(state, ops):
        values = state.expectations(ops)
        assert len(values) == len(ops)
        for value, op in zip(values, ops):
            assert abs(value - np.vdot(state.amps, state.apply(op).amps)) < 1e-12

    @pytest.mark.parametrize("group,bc,num_layers,twist", list(_expectation_cases()))
    def test_every_stack_symmetry(self, group, bc, num_layers, twist):
        layers, state = expectation_stack(group, bc, num_layers, twist)
        self.assert_matches_apply(state, [op for _, op in stack_local_symmetry_ops(layers)])

    @pytest.mark.parametrize("group,bc,num_layers,twist", list(_expectation_cases()))
    def test_state_kicked_by_one_shift(self, group, bc, num_layers, twist):
        layers, state = expectation_stack(group, bc, num_layers, twist)
        # A dual shift on a matter vertex of the first layer breaks the
        # symmetries whose clock sits on that vertex, in every stack.
        shift = shift_x(group.character((1,) * len(group.orders)))
        kick = ProductOperator.from_factors([((0, 0), shift)], group.phase_modulus)
        kicked = state.apply(kick)
        self.assert_matches_apply(kicked, [op for _, op in stack_local_symmetry_ops(layers)])
        listed = [c["op"] for c in verify_local_symmetry(kicked, layers)["violations"]]
        assert listed == dense_violations(kicked, layers)
        assert listed

    def test_dense_state_spanning_several_tiles(self):
        layers = layer_stack(Z23, 2, 2)
        stack = compose_gauging(layers, initial_state(Z23, layers[0]))
        assert stack.amps.size > SUPPORT_TILE
        rng = np.random.default_rng(3)
        amps = rng.normal(size=stack.amps.size) + 1j * rng.normal(size=stack.amps.size)
        state = StateVector(stack.site_ids, stack.kinds, stack.dims, amps / np.linalg.norm(amps))
        self.assert_matches_apply(state, [op for _, op in stack_local_symmetry_ops(layers)])

    def test_zero_state_gives_zeros(self):
        layers, state = expectation_stack(Z3, "periodic", 2, "trivial")
        zero = StateVector(state.site_ids, state.kinds, state.dims, np.zeros_like(state.amps))
        ops = [op for _, op in stack_local_symmetry_ops(layers)]
        assert zero.expectations(ops) == [0j] * len(ops)

    def test_mismatched_factor_raises_the_apply_message(self):
        layers, state = expectation_stack(Z3, "periodic", 2, "trivial")
        good = [op for _, op in stack_local_symmetry_ops(layers) if op.factors][0]
        site = (1, 1)
        wrong_kind = ProductOperator.from_factors([(site, clock_z(Z3.element((1,))))], Z3.phase_modulus)
        wrong_dim = ProductOperator.from_factors([(site, shift_x(Z2.element((1,))))], Z3.phase_modulus)
        for bad, message in ((wrong_kind, "site kind mismatch"), (wrong_dim, "operator dimension mismatch")):
            with pytest.raises(ValueError, match=message) as via_apply:
                state.apply(bad)
            with pytest.raises(ValueError, match=message) as via_expectations:
                state.expectations([good, bad])
            assert str(via_expectations.value) == str(via_apply.value)


class TestIdentityEntries:
    def stack(self):
        layers = layer_stack(Z3, 2, 3)
        return layers, compose_gauging(layers, initial_state(Z3, layers[0]))

    def test_empty_operators_are_counted_and_pass_without_an_overlap(self, monkeypatch):
        layers, state = self.stack()
        ops = stack_local_symmetry_ops(layers)
        empty = [name for name, op in ops if not op.factors]
        assert empty and len(empty) < len(ops)
        passed = []
        expectations = StateVector.expectations
        monkeypatch.setattr(StateVector, "expectations", lambda st_, ops_: passed.extend(ops_) or expectations(st_, ops_))
        rep = verify_local_symmetry(state, layers)
        assert rep["passed"] and rep["num_checked"] == len(ops)
        assert len(passed) == len(ops) - len(empty)
        assert all(op.factors for op in passed)

    def test_empty_operators_record_overlap_exactly_one(self):
        # With a zero tolerance every entry is listed, so each recorded
        # overlap can be read.
        layers, state = self.stack()
        ops = dict(stack_local_symmetry_ops(layers))
        rep = verify_local_symmetry(state, layers, tol=0.0)
        assert [c["op"] for c in rep["violations"]] == list(ops)
        for check in rep["violations"]:
            if not ops[check["op"]].factors:
                assert check["overlap"] == 1

    def test_excitation_at_one_site_lists_its_non_empty_violations(self):
        layers, state = self.stack()
        site = (1, 1)
        kick = ProductOperator.from_factors([(site, shift_x(Z3.element((1,))))], Z3.phase_modulus)
        rep = verify_local_symmetry(state.apply(kick), layers)
        ops = dict(stack_local_symmetry_ops(layers))
        listed = [c["op"] for c in rep["violations"]]
        expected = [name for name, op in ops.items() if not commutation_phase(op, kick).is_one]
        assert listed == expected
        assert listed and all(site in ops[name].support for name in listed)
        assert rep["num_checked"] == len(ops)


def nested_pairs_oracle(group, psi, n_pairs):
    """zero_dim_gauge the long way: one pair stacked behind the state per round, then the sites reordered.

    The stack runs (matter, left_1, right_1, ..., left_n, right_n); the
    transpose puts it in nesting order left_n .. left_1, matter, right_1 .. right_n.
    """
    size = group.size
    pair = np.zeros((size, size), dtype=complex)
    for g in group.elements():
        pair[group.index_of(g.inverse().exps), group.index_of(g.exps)] = 1.0
    pair = pair.reshape(-1) / math.sqrt(size)
    amps = psi.amps.copy()
    site_ids, kinds = psi.site_ids, psi.kinds
    for k in range(1, n_pairs + 1):
        amps = np.kron(amps, pair)
        site_ids += (("pair", k, "left"), ("pair", k, "right"))
        kinds += (SiteKind.EDGE_GROUP, SiteKind.EDGE_GROUP)
    order = [2 * k - 1 for k in range(n_pairs, 0, -1)] + [0] + [2 * k for k in range(1, n_pairs + 1)]
    amps = amps.reshape((size,) * len(order)).transpose(order).reshape(-1)
    dims = (size,) * len(order)
    return tuple(site_ids[a] for a in order), tuple(kinds[a] for a in order), dims, np.ascontiguousarray(amps)


def symmetric_sites(group):
    """A vertex site on the trivial character and an edge site uniform over G, each with a complex amplitude."""
    size = group.size
    vertex = np.zeros(size, dtype=complex)
    vertex[0] = np.exp(0.3j)
    edge = np.full(size, np.exp(-0.7j) / math.sqrt(size))
    return [
        StateVector((("m", 0),), (SiteKind.VERTEX_DUAL,), (size,), vertex),
        StateVector((("m", 1),), (SiteKind.EDGE_GROUP,), (size,), edge),
    ]


class TestZeroDimGauge:
    @pytest.mark.parametrize("group", [Z2, Z3, Z4, Z22, Z23], ids=lambda g: "x".join(map(str, g.orders)))
    @pytest.mark.parametrize("n_pairs", [0, 1, 2, 3])
    def test_closed_form_matches_the_stacked_oracle_bit_for_bit(self, group, n_pairs):
        for psi in symmetric_sites(group):
            before = psi.amps.tobytes()
            out = zero_dim_gauge(group, psi, n_pairs)
            site_ids, kinds, dims, amps = nested_pairs_oracle(group, psi, n_pairs)
            assert (out.site_ids, out.kinds, out.dims) == (site_ids, kinds, dims)
            assert out.amps.tobytes() == amps.tobytes()
            assert out.amps is not psi.amps and psi.amps.tobytes() == before

    def one_site(self, group):
        size = group.size
        local = np.zeros(size, dtype=complex)
        local[0] = 1.0
        return StateVector((("m", 0),), (SiteKind.VERTEX_DUAL,), (size,), local)

    def test_bell_pair_for_order_two(self):
        out = zero_dim_gauge(Z2, self.one_site(Z2), 1)
        # pair sites around the matter site; matter amplitude is |identity>
        amps = out.amps.reshape(2, 2, 2)
        pair_block = amps[:, 0, :].reshape(-1)
        assert np.allclose(pair_block, np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-12)
        assert np.allclose(amps[:, 1, :], 0)

    @pytest.mark.parametrize("group", [Z2, Z3, Z22])
    def test_midpoint_entropy(self, group):
        # Float oracle of criterion 13's exact flat spectrum: the von Neumann
        # entropy across the cut after the left pair sites, from an SVD.
        for n_pairs in range(4):
            out = zero_dim_gauge(group, self.one_site(group), n_pairs)
            p = np.linalg.svd(out.amps.reshape(group.size**n_pairs, -1), compute_uv=False) ** 2
            p = p[p > 1e-15]
            p = p / p.sum()
            ent = -(p * np.log(p)).sum()
            assert abs(ent - n_pairs * math.log(group.size)) < 1e-10

    def test_inverse_labels_in_the_pair(self):
        out = zero_dim_gauge(Z3, self.one_site(Z3), 1)
        amps = out.amps.reshape(3, 3, 3)
        for g in Z3.elements():
            left = Z3.index_of(g.inverse().exps)
            right = Z3.index_of(g.exps)
            assert abs(amps[left, 0, right] - 1 / math.sqrt(3)) < 1e-12

    def test_zero_rounds_is_identity(self):
        psi = self.one_site(Z3)
        out = zero_dim_gauge(Z3, psi, 0)
        assert np.array_equal(out.amps, psi.amps)

    def test_one_ulp_off_one_pair_amplitude_fails_criterion_13(self, monkeypatch):
        # Criterion 13 compares the pair amplitudes exactly; an entropy within
        # a tolerance would absorb this change.
        def nudged(group, psi, n_pairs):
            out = zero_dim_gauge(group, psi, n_pairs)
            k = np.flatnonzero(out.amps)[-1]
            out.amps[k] = complex(np.nextafter(out.amps[k].real, np.inf), out.amps[k].imag)
            return out

        monkeypatch.setattr(suite, "zero_dim_gauge", nudged)
        assert not suite.criterion_rainbow()["passed"]

    def test_asymmetric_input_rejected(self):
        bad = StateVector((("m", 0),), (SiteKind.VERTEX_DUAL,), (2,), np.array([0, 1], complex))
        with pytest.raises(ValueError):
            zero_dim_gauge(Z2, bad, 1)
