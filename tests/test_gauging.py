"""Gauging maps: normalization, emergent identities, composition, pairs.

Composed states are exact SupportStates; the float route they replaced,
tests/dense_compose_oracle.py, gauges random dense inputs and must agree
with them on the states both can build.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from latgauge import gauging, suite
from latgauge.cli import parse_twist
from latgauge.gauging import (
    CapExceededError,
    GaugingMap,
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
    SupportState,
    clock_z,
    commutation_phase,
    flat_action,
    placed_factors,
    shift_x,
)
from latgauge.tensors import contract_pepes
import dense_compose_oracle
from algebra_reference import dual_identity, to_complex
import exact_map_oracle
import fixed_by_oracle
from test_tensors import _unit_layer_matrix

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z4 = GroupSpec((4,))
Z22 = GroupSpec((2, 2))
Z23 = GroupSpec((2, 3))
Z33 = GroupSpec((3, 3))
Z42 = GroupSpec((4, 2))
Z24 = GroupSpec((2, 4))


def symmetric_random_state(group, layer, seed):
    """Project a random dense input onto the diagonal-symmetry sector."""
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


def kicked(state, op):
    """op applied to an exact state: every key moved by flat_action, its root advanced by the phases."""
    y, phases = flat_action(state.dims, placed_factors(state, op), state.keys)
    roots = (state.roots + sum(phases, np.zeros_like(state.roots))) % state.modulus
    order = np.argsort(y)
    return SupportState(state.site_ids, state.kinds, state.dims, state.modulus, y[order], roots[order], state.mag_sq)


def same_state(a, b):
    """Exact equality of two SupportStates: layout, modulus, keys, roots and squared magnitude."""
    return (
        (a.site_ids, a.kinds, a.dims, a.modulus, a.mag_sq) == (b.site_ids, b.kinds, b.dims, b.modulus, b.mag_sq)
        and np.array_equal(a.keys, b.keys)
        and np.array_equal(a.roots, b.roots)
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
        out = gmap.apply(initial_state(group, layer))
        assert out.keys.size * out.mag_sq == 1 and out.norm() == 1.0
        sym = symmetric_random_state(group, layer, 11)
        assert abs(dense_compose_oracle.apply(gmap, sym).norm() - 1) < 1e-10

    def test_local_symmetry_fixes_single_map_output(self):
        layer = LayerSpec(Z2, 0, 2, "periodic")
        gmap = build_gauging_map(layer)
        out = dense_compose_oracle.apply(gmap, symmetric_random_state(Z2, layer, 2))
        exact = gmap.apply(initial_state(Z2, layer))
        for i in range(layer.n):
            for g in Z2.elements():
                moved = out.apply(gmap.local_symmetry_op(i, g))
                assert np.max(np.abs(moved.amps - out.amps)) < 1e-12
                assert exact.fixed_by([gmap.local_symmetry_op(i, g)]) == [True]

    def test_twist_trivial_equals_untwisted(self):
        trivial = Cocycle.trivial(Z22)
        a = build_gauging_map(LayerSpec(Z22, 0, 2, "periodic", None)).exact_matrix()
        b = build_gauging_map(LayerSpec(Z22, 0, 2, "periodic", trivial)).exact_matrix()
        assert a == b
        # and the state path produces the same exact state
        plain = compose_gauging(layer_stack(Z22, 2, 2), initial_state(Z22, LayerSpec(Z22, 0, 2)))
        dressed = compose_gauging(
            layer_stack(Z22, 2, 2, twist_even=trivial, twist_odd=trivial),
            initial_state(Z22, LayerSpec(Z22, 0, 2)),
        )
        assert same_state(plain, dressed)

    def test_dimension_cap_guard(self, monkeypatch):
        layer = LayerSpec(Z3, 0, 3, "periodic")
        monkeypatch.setenv("GAUGE_MAX_DIM", "100")
        with pytest.raises(CapExceededError):
            build_gauging_map(layer).apply(initial_state(Z3, layer))

    @staticmethod
    def behind_leading_sites(layer, count):
        """The layer's product input behind `count` Z2 sites, the one key 0."""
        base = initial_state(Z2, layer)
        lead = tuple(("lead", k) for k in range(count))
        kinds = (SiteKind.EDGE_GROUP,) * count + base.kinds
        return SupportState(lead + base.site_ids, kinds, (2,) * count + base.dims, base.modulus, base.keys, base.roots)

    def test_output_past_int64_keys_is_refused_before_any_term(self, monkeypatch):
        # 62 leading sites and a two-site matter row: the output's 66 sites
        # number 2**66 basis states, past what int64 keys hold.
        layer = LayerSpec(Z2, 0, 2, "periodic")
        monkeypatch.setenv("GAUGE_MAX_DIM", str(2**80))
        monkeypatch.setattr(GaugingMap, "_row_entries", lambda gmap: pytest.fail("the map's terms were built"))
        with pytest.raises(CapExceededError, match="int64"):
            build_gauging_map(layer).apply(self.behind_leading_sites(layer, 62))

    def test_output_of_exactly_2_63_indices_is_gauged(self, monkeypatch):
        layer = LayerSpec(Z2, 0, 2, "periodic")
        monkeypatch.setenv("GAUGE_MAX_DIM", str(2**80))
        out = build_gauging_map(layer).apply(self.behind_leading_sites(layer, 59))
        assert math.prod(out.dims) == 2**63 and out.keys.tolist() == [0, 3] and out.norm() == 1.0


class TestInputsAreNotWritten:
    @pytest.mark.parametrize("group", [Z2, Z3])
    def test_map_and_compose_leave_their_input(self, group):
        layers = layer_stack(group, 3, 2)
        gmap = build_gauging_map(layers[0])
        # The identity label's symmetry is the empty operator, whose
        # application returns the input array itself.
        assert gmap.local_symmetry_op(0, group.identity()).factors == ()
        exact = initial_state(group, layers[0])
        exact_before = exact.keys.tobytes() + exact.roots.tobytes()
        compose_gauging(layers, exact)
        assert exact.keys.tobytes() + exact.roots.tobytes() == exact_before
        stv = symmetric_random_state(group, layers[0], 3)
        before = stv.amps.tobytes()
        out = dense_compose_oracle.apply(gmap, stv)
        assert stv.amps.tobytes() == before
        dense_compose_oracle.compose(layers, stv)
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
        kernel = dense_compose_oracle.row_kernel(gmap)
        assert np.max(np.abs(kernel.reshape(-1) - projector_sum(ones))) < 1e-15
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
    """The oracle's dense apply against the exact tensor and the contracted MPO network, on random inputs."""

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
        out = dense_compose_oracle.apply(gmap, state)
        assert out.site_ids == state.site_ids + tuple(s for s, _ in gmap.new_sites)
        assert out.kinds == state.kinds + tuple(k for _, k in gmap.new_sites)
        # exact_matrix is the raw sum of the |G|**n projector terms.
        exact = to_complex(gmap.exact_matrix()) * float(group.size ** (layer.scale_power - layer.n))
        via_exact = (state.amps.reshape(-1, gmap.in_dim) @ exact.T).reshape(-1)
        assert np.max(np.abs(out.amps - via_exact)) < 1e-12
        if not twisted:
            via_mpo = (state.amps.reshape(-1, gmap.in_dim) @ _unit_layer_matrix(layer).T).reshape(-1)
            assert np.max(np.abs(out.amps - via_mpo)) < 1e-12

    @staticmethod
    def support_input(state):
        """The exact state on the sites of a dense one: its first basis state, root 0."""
        one = np.zeros(1, dtype=np.int64)
        return SupportState(state.site_ids, state.kinds, state.dims, 1, one, one.copy())

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
        gmap = build_gauging_map(layer)
        for route, st in (
            (gmap.apply, self.support_input(swapped)),
            (lambda st_: dense_compose_oracle.apply(gmap, st_), swapped),
            (lambda st_: contract_pepes([layer], st_), self.support_input(swapped)),
        ):
            with pytest.raises(ValueError, match="trailing sites"):
                route(st)

    @pytest.mark.parametrize("bc", ["periodic", "open"])
    def test_matter_row_of_the_wrong_kind_is_refused(self, bc):
        layer = self.layer(Z3, bc, 0, False)
        state = self.random_input(layer, False, seed=1)
        wrong = StateVector(state.site_ids, (layer.new_kind,) * layer.n, state.dims, state.amps)
        gmap = build_gauging_map(layer)
        for route, st in (
            (gmap.apply, self.support_input(wrong)),
            (lambda st_: dense_compose_oracle.apply(gmap, st_), wrong),
            (lambda st_: contract_pepes([layer], st_), self.support_input(wrong)),
        ):
            with pytest.raises(ValueError, match="wrong site kind"):
                route(st)


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
            gmap.charged_pair_ops(2, 1, dual_identity(Z2))


class TestCompose:
    def test_single_layer_reduces_to_map(self):
        layer = LayerSpec(Z2, 0, 2, "periodic")
        st = initial_state(Z2, layer)
        assert same_state(compose_gauging([layer], st), build_gauging_map(layer).apply(st))

    @pytest.mark.parametrize("group,twist_idx", [(Z2, 0), (Z22, 1)])
    def test_stack_symmetries_hold(self, group, twist_idx):
        twist = enumerate_cocycle_classes(group)[twist_idx]
        layers = layer_stack(group, 2, 3, "periodic", twist_even=None if twist.is_trivial else twist)
        out = compose_gauging(layers, initial_state(group, layers[0]))
        rep = verify_local_symmetry(out, layers)
        assert rep["passed"], rep["violations"]

    def test_equals_ordered_projector_action_on_stacked_product(self):
        # Independent construction: lay out the full product state first,
        # then apply every local projector in layer order.  The oracle's
        # dense route takes the random symmetric input; the exact route
        # takes the product input, checked the same way below.
        group = Z2
        layers = layer_stack(group, 2, 2, "periodic")

        def projected(st):
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
            return stacked

        st = symmetric_random_state(group, layers[0], 9)
        composed = dense_compose_oracle.compose(layers, st)
        stacked = projected(st)
        assert stacked.site_ids == composed.site_ids
        assert np.max(np.abs(stacked.amps - composed.amps)) < 1e-10
        exact = compose_gauging(layers, initial_state(group, layers[0]))
        stacked = projected(dense_compose_oracle.dense(initial_state(group, layers[0])))
        assert stacked.site_ids == exact.site_ids
        assert np.max(np.abs(stacked.amps - dense_compose_oracle.dense(exact).amps)) < 1e-10

    def test_corrupted_state_fails_exactly_adjacent_symmetries(self):
        group = Z2
        layers = layer_stack(group, 3, 2, "periodic")
        out = compose_gauging(layers, initial_state(group, layers[0]))
        corrupt_site = (1, 1)
        op = ProductOperator.from_factors([(corrupt_site, shift_x(group.element((1,))))], group.phase_modulus)
        corrupted = kicked(out, op)
        assert np.array_equal(dense_compose_oracle.dense(corrupted).amps, dense_compose_oracle.dense(out).apply(op).amps)
        rep = verify_local_symmetry(corrupted, layers)
        failing = {c["op"] for c in rep["violations"]}
        # Syndrome oracle: symmetries whose operator fails to commute with
        # the corruption are exactly the ones that must break.
        expected = set()
        for name, sym_op in stack_local_symmetry_ops(layers):
            ph = commutation_phase(sym_op, op)
            if ph is None or not ph.is_one:
                expected.add(name)
        assert failing == expected
        assert expected  # the corruption is detectable

    def test_gauged_expectation_preservation(self):
        # <psi|O|psi> = <G psi|dressed O|G psi> for symmetric two-point O,
        # on random inputs through the oracle's dense route.
        group = Z3
        layer = LayerSpec(group, 0, 3, "periodic")
        gmap = build_gauging_map(layer)
        for seed in (1, 2, 3):
            psi = symmetric_random_state(group, layer, seed)
            gauged = dense_compose_oracle.apply(gmap, psi)
            for chi in group.characters():
                bare, dressed = gmap.charged_pair_ops(0, 2, chi)
                lhs = np.vdot(psi.amps, psi.apply(bare).amps)
                rhs = np.vdot(gauged.amps, gauged.apply(dressed).amps)
                assert abs(lhs - rhs) < 1e-10

    def test_norms_recorded(self):
        layers = layer_stack(Z2, 2, 3, "periodic")
        norms = []
        compose_gauging(layers, initial_state(Z2, layers[0]), norms_out=norms)
        assert norms == [1.0, 1.0, 1.0]

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


def _compose_golden_stacks():
    """The layer stacks of the `gauge compose` golden reports (tests/test_golden.py)."""
    configs = [
        ("2", 3, 3, "periodic", None, None),
        ("2,2", 3, 2, "periodic", "p12=1", None),
        ("2", 3, 3, "open", None, None),
        ("3", 3, 2, "periodic", None, None),
        ("2,3", 2, 2, "periodic", None, None),
        ("2,2", 4, 2, "periodic", "p12=1", "p12=1"),
        ("3", 3, 2, "open", None, None),
    ]
    for text, num_layers, n, bc, even, odd in configs:
        group = GroupSpec(tuple(int(k) for k in text.split(",")))
        layers = layer_stack(group, n, num_layers, bc, parse_twist(group, even), parse_twist(group, odd))
        yield pytest.param(layers, id=f"compose-{text}-x{num_layers}-n{n}-{bc}-{even}-{odd}")


def _expectation_cases():
    # (group, bc, layers, twist placement); sizes stay below 2**18 amplitudes.
    for bc in ("periodic", "open"):
        for group, periodic_layers, open_layers in ((Z2, 3, 3), (Z3, 3, 2), (Z22, 3, 2), (Z23, 2, 1)):
            num_layers = periodic_layers if bc == "periodic" else open_layers
            twists = ("trivial", "even", "odd", "both") if group is Z22 else ("trivial",)
            for twist in twists:
                yield pytest.param(group, bc, num_layers, twist, id=f"{group.orders}-{bc}-x{num_layers}-{twist}")


def expectation_layers(group, bc, num_layers, twist):
    alpha = enumerate_cocycle_classes(group)[1] if twist != "trivial" else None
    even = alpha if twist in ("even", "both") else None
    odd = alpha if twist in ("odd", "both") else None
    return layer_stack(group, 2, num_layers, bc, twist_even=even, twist_odd=odd)


def expectation_stack(group, bc, num_layers, twist):
    layers = expectation_layers(group, bc, num_layers, twist)
    return layers, compose_gauging(layers, initial_state(group, layers[0]))


def _agreement_stacks():
    yield from _compose_golden_stacks()
    for case in _expectation_cases():
        yield pytest.param(expectation_layers(*case.values), id=case.id)


class TestOracleAgreement:
    """The exact composed state against the oracle's dense route from the same product input."""

    @pytest.mark.parametrize("layers", list(_agreement_stacks()))
    def test_support_amplitudes_and_norms(self, layers):
        norms, dense_norms = [], []
        start = initial_state(layers[0].group, layers[0])
        state = compose_gauging(layers, start, norms_out=norms)
        dense = dense_compose_oracle.compose(layers, dense_compose_oracle.dense(start), norms_out=dense_norms)
        assert (dense.site_ids, dense.kinds, dense.dims) == (state.site_ids, state.kinds, state.dims)
        assert np.array_equal(np.flatnonzero(np.abs(dense.amps) > 1e-12), state.keys)
        assert np.max(np.abs(dense.amps[state.keys] - state.amps)) < 1e-12
        assert norms == [1.0] * len(layers)
        assert max(abs(a - b) for a, b in zip(norms, dense_norms)) < 1e-12
        assert len(dense_norms) == len(layers)


def traced_peak(fn):
    """(result, peak bytes) of fn() under tracemalloc, which sees numpy's buffers."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestSupportBuffers:
    def test_compose_and_check_stay_far_below_one_dense_array(self):
        # Z2, n = 4, five layers: 2**24 amplitudes, so one dense complex
        # array of the stack is 256 MiB; its support holds 8**5 keys.
        layers = layer_stack(Z2, 4, 5)

        def run():
            state = compose_gauging(layers, initial_state(Z2, layers[0]))
            return state, verify_local_symmetry(state, layers)

        (state, rep), peak = traced_peak(run)
        assert math.prod(state.dims) == 2**24 and state.keys.size == 8**5
        assert rep["passed"] and rep["num_checked"] == 40
        assert peak < 16 * 2**20

    def test_map_peak_follows_the_support(self):
        # The last layer writes 2**15 keys and roots (512 KiB); its working
        # arrays, 2.6 times that, scale with the support, not with the 2**24
        # amplitudes.
        layers = layer_stack(Z2, 4, 5)
        state = compose_gauging(layers[:4], initial_state(Z2, layers[0]))
        gmap = build_gauging_map(layers[4])
        out, peak = traced_peak(lambda: gmap.apply(state))
        assert peak < 4 * (out.keys.nbytes + out.roots.nbytes)

    @staticmethod
    def digit_store_growth(state, few, many) -> int:
        """Traced peak of fixed_by(many) less that of fixed_by(few); every op of `few` is also in `many`.

        From the second op on, each op's working arrays are the same
        (the previous op's live until the next replaces them), so with at
        least two ops in `few` the difference is the digits of the sites
        only `many` touches.
        """
        state.fixed_by(many)  # the factor constructors' caches, outside the trace
        return traced_peak(lambda: state.fixed_by(many))[1] - traced_peak(lambda: state.fixed_by(few))[1]

    @pytest.mark.parametrize("orders,sites", [((2,), 16), ((6,), 6), ((256,), 4)])
    def test_digit_store_holds_one_byte_per_key_and_touched_site(self, orders, sites):
        group = GroupSpec(orders)
        rng = np.random.default_rng(5)
        keys = np.unique(rng.integers(0, group.size**sites, size=20000, dtype=np.int64))
        kind = SiteKind.EDGE_GROUP
        state = SupportState(tuple(range(sites)), (kind,) * sites, (group.size,) * sites, group.phase_modulus, keys, np.zeros_like(keys))
        clocks = [
            ProductOperator.from_factors([(site, clock_z(group.character((1,))))], group.phase_modulus)
            for site in range(sites)
        ]
        growth = self.digit_store_growth(state, clocks[:2], clocks)
        assert keys.size > 16000 and growth <= (sites - 2) * keys.size + 4096

    def test_digit_store_of_a_stack_check(self):
        # Every stack symmetry of the Z2 n = 4 five-layer stack against the
        # first two: the 32768 keys' digits on the sites they do not touch.
        layers = layer_stack(Z2, 4, 5)
        state = compose_gauging(layers, initial_state(Z2, layers[0]))
        ops = [op for _, op in stack_local_symmetry_ops(layers) if op.factors]
        touched = {site for op in ops for site, _ in op.factors}
        growth = self.digit_store_growth(state, ops[:2], ops)
        assert growth <= len(touched - {site for op in ops[:2] for site, _ in op.factors}) * state.keys.size + 4096


class TestExpectations:
    """The oracle's support-only expectations against one StateVector.apply and np.vdot per operator."""

    @staticmethod
    def assert_matches_apply(state, ops):
        values = dense_compose_oracle.expectations(state, ops)
        assert len(values) == len(ops)
        for value, op in zip(values, ops):
            assert abs(value - np.vdot(state.amps, state.apply(op).amps)) < 1e-12

    @pytest.mark.parametrize("group,bc,num_layers,twist", list(_expectation_cases()))
    def test_every_stack_symmetry(self, group, bc, num_layers, twist):
        layers, state = expectation_stack(group, bc, num_layers, twist)
        self.assert_matches_apply(dense_compose_oracle.dense(state), [op for _, op in stack_local_symmetry_ops(layers)])

    @pytest.mark.parametrize("group,bc,num_layers,twist", list(_expectation_cases()))
    def test_state_kicked_by_one_shift(self, group, bc, num_layers, twist):
        layers, state = expectation_stack(group, bc, num_layers, twist)
        # A dual shift on a matter vertex of the first layer breaks the
        # symmetries whose clock sits on that vertex, in every stack.
        shift = shift_x(group.character((1,) * len(group.orders)))
        kick = ProductOperator.from_factors([((0, 0), shift)], group.phase_modulus)
        exact = kicked(state, kick)
        dense = dense_compose_oracle.dense(state).apply(kick)
        assert np.max(np.abs(dense_compose_oracle.dense(exact).amps - dense.amps)) < 1e-15
        ops = stack_local_symmetry_ops(layers)
        self.assert_matches_apply(dense, [op for _, op in ops])
        listed = [c["op"] for c in verify_local_symmetry(exact, layers)["violations"]]
        assert listed == dense_violations(dense, layers)
        # Exactly the symmetries that do not commute with the kick.
        assert listed == [name for name, op in ops if not commutation_phase(op, kick).is_one]
        assert listed

    def test_dense_state_spanning_several_tiles(self):
        layers = layer_stack(Z23, 2, 2)
        stack = compose_gauging(layers, initial_state(Z23, layers[0]))
        size = math.prod(stack.dims)
        assert size > SUPPORT_TILE
        rng = np.random.default_rng(3)
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        state = StateVector(stack.site_ids, stack.kinds, stack.dims, amps / np.linalg.norm(amps))
        self.assert_matches_apply(state, [op for _, op in stack_local_symmetry_ops(layers)])

    def test_zero_state_gives_zeros(self):
        layers, state = expectation_stack(Z3, "periodic", 2, "trivial")
        zero = StateVector(state.site_ids, state.kinds, state.dims, np.zeros(math.prod(state.dims), complex))
        ops = [op for _, op in stack_local_symmetry_ops(layers)]
        assert dense_compose_oracle.expectations(zero, ops) == [0j] * len(ops)

    def test_mismatched_factor_raises_the_apply_message(self):
        layers, state = expectation_stack(Z3, "periodic", 2, "trivial")
        good = [op for _, op in stack_local_symmetry_ops(layers) if op.factors][0]
        site = (1, 1)
        wrong_kind = ProductOperator.from_factors([(site, clock_z(Z3.element((1,))))], Z3.phase_modulus)
        wrong_dim = ProductOperator.from_factors([(site, shift_x(Z2.element((1,))))], Z3.phase_modulus)
        dense = dense_compose_oracle.dense(state)
        for bad, message in ((wrong_kind, "site kind mismatch"), (wrong_dim, "operator dimension mismatch")):
            with pytest.raises(ValueError, match=message) as via_apply:
                dense.apply(bad)
            with pytest.raises(ValueError, match=message) as via_expectations:
                dense_compose_oracle.expectations(dense, [good, bad])
            with pytest.raises(ValueError, match=message) as via_fixed_by:
                state.fixed_by([good, bad])
            assert str(via_expectations.value) == str(via_apply.value) == str(via_fixed_by.value)



# The `compose` workload's six stacks: (group orders, n, layers, boundary, twisted).
COMPOSE_STACKS = (
    ((2,), 4, 4, "periodic", False),
    ((2,), 3, 6, "periodic", False),
    ((3,), 3, 3, "periodic", False),
    ((2, 2), 2, 4, "periodic", True),
    ((2,), 2, 4, "open", False),
    ((2, 3), 2, 3, "periodic", False),
)


def _fixed_by_stacks():
    for case in _expectation_cases():
        yield pytest.param(expectation_layers(*case.values), id=case.id)
    for orders, n, num_layers, bc, twisted in COMPOSE_STACKS:
        group = GroupSpec(orders)
        for alpha in enumerate_cocycle_classes(group)[: 2 if twisted else 1]:
            twist = None if alpha.is_trivial else alpha
            layers = layer_stack(group, n, num_layers, bc, twist_even=twist, twist_odd=twist)
            yield pytest.param(layers, id=f"compose-{orders}-n{n}-x{num_layers}-{bc}-{alpha.pmatrix}")


def wrong_root(state, j):
    """state with roots[j] advanced by one."""
    roots = state.roots.copy()
    roots[j] = (roots[j] + 1) % state.modulus
    return SupportState(state.site_ids, state.kinds, state.dims, state.modulus, state.keys, roots, state.mag_sq)


def moved_key(state, j):
    """state with keys[j] moved, root and all, to the smallest basis index the support does not hold."""
    free = np.setdiff1d(np.arange(state.keys.size + 1), state.keys)[0]
    keys = np.append(np.delete(state.keys, j), free)
    roots = np.append(np.delete(state.roots, j), state.roots[j])
    order = np.argsort(keys)
    return SupportState(state.site_ids, state.kinds, state.dims, state.modulus, keys[order], roots[order], state.mag_sq)


class TestFixedBy:
    """SupportState.fixed_by, digits split once per call, against the per-operator route of fixed_by_oracle."""

    @pytest.mark.parametrize("layers", list(_fixed_by_stacks()))
    def test_matches_the_per_operator_route(self, layers):
        state = compose_gauging(layers, initial_state(layers[0].group, layers[0]))
        ops = [op for _, op in stack_local_symmetry_ops(layers)]
        assert state.fixed_by(ops) == fixed_by_oracle.fixed_by(state, ops) == [True] * len(ops)
        # Diagonal ops move no key: each layer's emergent clocks on its new row.
        ops += [build_gauging_map(layer).emergent_symmetry_op(label) for layer in layers for label in layer.labels()]
        middle = state.keys.size // 2
        for bad in (wrong_root(state, middle), moved_key(state, middle)):
            # The kicked state first, then the stack state again: nothing of
            # one call's digits may reach the next.
            for st in (bad, state, bad):
                assert st.fixed_by(ops) == fixed_by_oracle.fixed_by(st, ops)
            assert not all(bad.fixed_by(ops))

    @pytest.mark.parametrize("layers", [case.values[0] for case in _fixed_by_stacks() if "compose" not in case.id])
    def test_root_counts_match_a_lookup_per_key(self, layers):
        state = compose_gauging(layers, initial_state(layers[0].group, layers[0]))
        ops = [op for _, op in stack_local_symmetry_ops(layers)]
        group = layers[0].group
        kick = ProductOperator.from_factors([((0, 0), shift_x(group.character((1,) * len(group.orders))))], state.modulus)
        middle = state.keys.size // 2
        for st in (state, wrong_root(state, middle), moved_key(state, middle), kicked(state, kick)):
            counts = st.root_counts(ops)
            assert [c.tolist() for c in counts] == [c.tolist() for c in fixed_by_oracle.root_counts(st, ops)]
            assert [c[0] == st.keys.size for c in counts] == st.fixed_by(ops)

    def test_unsorted_keys_and_unmatched_roots_are_refused(self):
        sites, kinds, dims = ("a", "b"), (SiteKind.EDGE_GROUP,) * 2, (3, 3)
        for keys in ([5, 0], [2, 2]):
            with pytest.raises(ValueError, match="strictly increasing"):
                SupportState(sites, kinds, dims, 3, np.array(keys), np.zeros(2, np.int64))
        with pytest.raises(ValueError, match="one root per key"):
            SupportState(sites, kinds, dims, 3, np.array([0, 5]), np.zeros(1, np.int64))
        # An unreduced root is the same amplitude, but fixed_by would call
        # the state unfixed even by the empty operator.
        for roots in ([0, 3], [-1, 0]):
            with pytest.raises(ValueError, match="reduced mod 3"):
                SupportState(sites, kinds, dims, 3, np.array([0, 5]), np.array(roots))

    def test_two_states_of_one_layout_in_sequence(self):
        layers, state = expectation_stack(Z22, "periodic", 3, "both")
        ops = [op for _, op in stack_local_symmetry_ops(layers)]
        kick = ProductOperator.from_factors([((0, 0), shift_x(Z22.character((1, 0))))], Z22.phase_modulus)
        other = kicked(state, kick)
        expected = fixed_by_oracle.fixed_by(other, ops)
        assert not all(expected) and any(expected)
        assert [state.fixed_by(ops), other.fixed_by(ops), state.fixed_by(ops)] == [[True] * len(ops), expected, [True] * len(ops)]

    def test_refusals_match_the_per_operator_route(self):
        layers, state = expectation_stack(Z3, "periodic", 2, "trivial")
        good = [op for _, op in stack_local_symmetry_ops(layers) if op.factors][0]
        site = (1, 1)
        bads = [
            ProductOperator.from_factors([(site, clock_z(Z3.element((1,))))], Z3.phase_modulus),
            ProductOperator.from_factors([(site, shift_x(Z2.element((1,))))], Z3.phase_modulus),
            ProductOperator(good.factors, 2 * Z3.phase_modulus),
            ProductOperator.from_factors([(("absent",), shift_x(Z3.element((1,))))], Z3.phase_modulus),
        ]
        for bad in bads:
            with pytest.raises(ValueError) as via_oracle:
                fixed_by_oracle.fixed_by(state, [good, bad])
            with pytest.raises(ValueError) as via_fixed_by:
                state.fixed_by([good, bad])
            assert str(via_fixed_by.value) == str(via_oracle.value)

    def test_repeated_axis_is_refused(self):
        # A site id equal to every site puts two factors on its axis.
        class Everywhere:
            def __eq__(self, other):
                return True

            __hash__ = object.__hash__

        mono = shift_x(Z2.element((1,)))
        kinds, dims = (mono.kind,) * 2, (2, 2)
        keys = np.arange(4, dtype=np.int64)
        state = SupportState((Everywhere(), "b"), kinds, dims, 2, keys, np.zeros_like(keys))
        op = ProductOperator.from_factors([(0, mono), (1, mono)], 2)
        with pytest.raises(ValueError) as via_oracle:
            fixed_by_oracle.fixed_by(state, [op])
        with pytest.raises(ValueError, match="more than one factor on an axis") as via_fixed_by:
            state.fixed_by([op])
        assert str(via_fixed_by.value) == str(via_oracle.value)

def dense_violations(state, layers, tol=1e-10):
    """Names verify_local_symmetry must list, from one StateVector.apply per symmetry."""
    norm_sq = state.norm() ** 2
    return [
        name for name, op in stack_local_symmetry_ops(layers)
        if op.factors and not abs(np.vdot(state.amps, state.apply(op).amps) / norm_sq - 1) < tol
    ]


class TestIdentityEntries:
    def stack(self):
        layers = layer_stack(Z3, 2, 3)
        return layers, compose_gauging(layers, initial_state(Z3, layers[0]))

    def test_empty_operators_are_counted_and_pass(self):
        # The identity label's symmetries are empty operators: they fix
        # every state, an excited one too, and each is counted.
        layers, state = self.stack()
        ops = stack_local_symmetry_ops(layers)
        empty = [name for name, op in ops if not op.factors]
        assert empty and len(empty) < len(ops)
        kick = ProductOperator.from_factors([((1, 1), shift_x(Z3.element((1,))))], Z3.phase_modulus)
        for st in (state, kicked(state, kick)):
            rep = verify_local_symmetry(st, layers)
            assert rep["num_checked"] == len(ops)
            assert not set(empty) & {c["op"] for c in rep["violations"]}
        assert verify_local_symmetry(state, layers)["passed"]

    def test_excitation_at_one_site_lists_its_non_empty_violations(self):
        layers, state = self.stack()
        site = (1, 1)
        kick = ProductOperator.from_factors([(site, shift_x(Z3.element((1,))))], Z3.phase_modulus)
        rep = verify_local_symmetry(kicked(state, kick), layers)
        ops = dict(stack_local_symmetry_ops(layers))
        listed = [c["op"] for c in rep["violations"]]
        expected = [name for name, op in ops.items() if not commutation_phase(op, kick).is_one]
        assert listed == expected
        assert listed and all(site in dict(ops[name].factors) for name in listed)
        assert rep["num_checked"] == len(ops)


def _mutated_row_entries(layer_index, mutate):
    """GaugingMap._row_entries with mutate(flat, root) applied on the layer of that index only."""
    original = GaugingMap._row_entries

    def entries(gmap):
        flat, root = original(gmap)
        if gmap.layer.index == layer_index:
            flat, root = mutate(flat, root.astype(np.int64), gmap.group.phase_modulus)
        return flat, root

    return entries


class TestExactness:
    def test_one_wrong_root_in_one_cell_fails_local_symmetry(self, monkeypatch):
        # Every term of one cell of the identity configuration's row gets the
        # next root, so the cell keeps one root and the map still applies;
        # only the stack symmetries can see it.
        def wrong_root(flat, root, L):
            cell = flat == flat[0]
            root[cell] = (root[cell] + 1) % L
            return flat, root

        for group in (Z2, Z3, Z22):
            layers = layer_stack(group, 2, 3)
            assert verify_local_symmetry(compose_gauging(layers, initial_state(group, layers[0])), layers)["passed"]
            with monkeypatch.context() as patch:
                patch.setattr(GaugingMap, "_row_entries", _mutated_row_entries(1, wrong_root))
                state = compose_gauging(layers, initial_state(group, layers[0]))
            rep = verify_local_symmetry(state, layers)
            assert not rep["passed"] and rep["violations"]

    @pytest.mark.parametrize("group", [Z2, Z3, Z22])
    def test_input_on_a_charged_configuration_is_refused(self, group):
        # On a periodic row the cells of a charged configuration cancel.  An
        # open row has free ends, so its map carries the charge to them.
        layers = {bc: LayerSpec(group, 0, 2, bc) for bc in ("periodic", "open")}
        base = initial_state(group, layers["periodic"])
        # The first site at a nontrivial character, the second at the identity.
        charged = group.index_of(group.character((1,) * len(group.orders)).exps) * group.size
        for keys in ([charged], [0, charged]):
            keys = np.array(keys, dtype=np.int64)
            state = SupportState(base.site_ids, base.kinds, base.dims, base.modulus, keys, np.zeros_like(keys))
            with pytest.raises(ValueError, match="charged"):
                build_gauging_map(layers["periodic"]).apply(state)
            assert build_gauging_map(layers["open"]).apply(state).norm() == math.sqrt(keys.size)

    def test_uneven_multiplicities_are_refused(self, monkeypatch):
        def one_more_copy(flat, root, L):
            return np.append(flat, flat[0]), np.append(root, root[0])

        layers = layer_stack(Z3, 2, 2)
        monkeypatch.setattr(GaugingMap, "_row_entries", _mutated_row_entries(1, one_more_copy))
        with pytest.raises(ValueError, match="multiplicities"):
            compose_gauging(layers, initial_state(Z3, layers[0]))

    def test_local_symmetry_check_of_the_empty_state_raises(self):
        layers = layer_stack(Z2, 2, 2)
        state = compose_gauging(layers, initial_state(Z2, layers[0]))
        none = np.zeros(0, dtype=np.int64)
        empty = SupportState(state.site_ids, state.kinds, state.dims, state.modulus, none, none.copy(), state.mag_sq)
        with pytest.raises(ZeroDivisionError):
            verify_local_symmetry(empty, layers)

    def test_squared_magnitude_is_an_exact_fraction(self):
        layers = layer_stack(Z3, 2, 3, "open")
        state = compose_gauging(layers, initial_state(Z3, layers[0]))
        assert isinstance(state.mag_sq, Fraction) and state.mag_sq == Fraction(1, state.keys.size)
        assert np.all(np.diff(state.keys) > 0)



class TestRowEntryCache:
    def test_terms_are_built_once_per_layer_spec(self):
        layer = LayerSpec(Z3, 1, 2, "open")
        first = build_gauging_map(layer)._row_entries()
        again = build_gauging_map(LayerSpec(Z3, 1, 2, "open"))._row_entries()
        assert all(a is b for a, b in zip(first, again))
        other = build_gauging_map(LayerSpec(Z3, 1, 2, "periodic"))._row_entries()
        assert first[0] is not other[0]

    def test_cached_terms_are_read_only(self):
        flat, root = build_gauging_map(LayerSpec(Z22, 0, 2, "periodic", enumerate_cocycle_classes(Z22)[1]))._row_entries()
        for array in (flat, root):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
            with pytest.raises(ValueError, match="read-only"):
                array += 1

    def test_compose_and_emergent_check_build_each_layer_once(self, monkeypatch):
        # flat_action moves the terms while they are built, and nothing
        # else of these calls reaches it.
        layers = layer_stack(Z4, 2, 3)
        gauging._layer_row_entries.cache_clear()
        moved = []
        monkeypatch.setattr(gauging, "flat_action", lambda *args: moved.append(1) or flat_action(*args))
        state = compose_gauging(layers, initial_state(Z4, layers[0]))
        built = len(moved)
        assert built == sum(layer.n * Z4.size for layer in layers)
        assert verify_local_symmetry(state, layers)["passed"]
        for layer in layers:
            assert verify_emergent_symmetry(build_gauging_map(layer))["passed"]
        assert len(moved) == built


class TestGaussCornersOncePerLayer:
    @pytest.mark.parametrize(
        "group, n, num_layers, boundary, twisted",
        [(Z2, 4, 4, "periodic", False), (Z3, 3, 3, "periodic", False), (Z22, 2, 4, "periodic", True), (Z2, 2, 4, "open", False)],
        ids=["z2", "z3", "z22-twisted", "z2-open"],
    )
    def test_map_terms_and_stack_symmetries_share_the_corners(self, monkeypatch, group, n, num_layers, boundary, twisted):
        # One operators.corner_factors call per layer and label, shared by
        # the map's terms and the stack symmetries, not one per matter site.
        alpha = enumerate_cocycle_classes(group)[1] if twisted else None
        layers = layer_stack(group, n, num_layers, boundary, twist_even=alpha, twist_odd=alpha)
        gauging._layer_row_entries.cache_clear()
        calls = []
        original = gauging.corner_factors
        monkeypatch.setattr(gauging, "corner_factors", lambda twist, label: calls.append(label) or original(twist, label))
        state = compose_gauging(layers, initial_state(group, layers[0]))
        local = verify_local_symmetry(state, layers)
        assert local["passed"] and local["num_checked"] == sum(layer.n * group.size for layer in layers)
        assert len(calls) == sum(len(layer.labels()) for layer in layers)
        for layer in layers:
            assert layer.gauss_corners == {label: original(layer.twist, label) for label in layer.labels()}


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
    """A vertex site on the trivial character and an edge site uniform over G, each at a nonzero root."""
    size, L = group.size, group.phase_modulus
    vertex, edge = np.zeros(1, dtype=np.int64), np.arange(size, dtype=np.int64)
    return [
        SupportState((("m", 0),), (SiteKind.VERTEX_DUAL,), (size,), L, vertex, (vertex + 1) % L),
        SupportState((("m", 1),), (SiteKind.EDGE_GROUP,), (size,), L, edge, np.full(size, L - 1), Fraction(1, size)),
    ]


def one_site(group):
    """One vertex site on the trivial character: the key 0 at root 0."""
    zero = np.zeros(1, dtype=np.int64)
    return SupportState((("m", 0),), (SiteKind.VERTEX_DUAL,), (group.size,), group.phase_modulus, zero, zero)


class TestZeroDimGauge:
    @pytest.mark.parametrize("group", [Z2, Z3, Z4, Z22, Z23], ids=lambda g: "x".join(map(str, g.orders)))
    @pytest.mark.parametrize("n_pairs", [0, 1, 2, 3])
    def test_closed_form_matches_the_stacked_oracle(self, group, n_pairs):
        for psi in symmetric_sites(group):
            before = (psi.keys.tobytes(), psi.roots.tobytes())
            out = zero_dim_gauge(group, psi, n_pairs)
            site_ids, kinds, dims, amps = nested_pairs_oracle(group, dense_compose_oracle.dense(psi), n_pairs)
            assert (out.site_ids, out.kinds, out.dims) == (site_ids, kinds, dims)
            assert np.array_equal(out.keys, np.flatnonzero(amps))
            assert np.max(np.abs(dense_compose_oracle.dense(out).amps - amps)) < 1e-12
            assert out.norm() == 1.0 and (psi.keys.tobytes(), psi.roots.tobytes()) == before

    def test_bell_pair_for_order_two(self):
        # (|0 0 0> + |1 0 1>) / sqrt(2): the pair sites around the matter site at the identity.
        out = zero_dim_gauge(Z2, one_site(Z2), 1)
        assert out.keys.tolist() == [0b000, 0b101] and out.roots.tolist() == [0, 0]
        assert out.mag_sq == Fraction(1, 2)

    @pytest.mark.parametrize("group", [Z2, Z3, Z22])
    def test_midpoint_entropy(self, group):
        # Float oracle of criterion 13's exact flat spectrum: the von Neumann
        # entropy across the cut after the left pair sites, from an SVD.
        for n_pairs in range(4):
            out = dense_compose_oracle.dense(zero_dim_gauge(group, one_site(group), n_pairs))
            p = np.linalg.svd(out.amps.reshape(group.size**n_pairs, -1), compute_uv=False) ** 2
            p = p[p > 1e-15]
            p = p / p.sum()
            ent = -(p * np.log(p)).sum()
            assert abs(ent - n_pairs * math.log(group.size)) < 1e-10

    def test_inverse_labels_in_the_pair(self):
        out = zero_dim_gauge(Z3, one_site(Z3), 1)
        expected = sorted(Z3.index_of(g.inverse().exps) * 9 + Z3.index_of(g.exps) for g in Z3.elements())
        assert out.keys.tolist() == expected and out.mag_sq == Fraction(1, 3)

    def test_zero_rounds_is_identity(self):
        psi = symmetric_sites(Z3)[1]
        out = zero_dim_gauge(Z3, psi, 0)
        assert (out.site_ids, out.kinds, out.dims, out.mag_sq) == (psi.site_ids, psi.kinds, psi.dims, psi.mag_sq)
        assert np.array_equal(out.keys, psi.keys) and np.array_equal(out.roots, psi.roots)

    @pytest.mark.parametrize("n_pairs", [0, 3])
    def test_one_changed_root_fails_criterion_13(self, monkeypatch, n_pairs):
        # Criterion 13 compares the roots exactly, so one changed root on one
        # key of one output fails it.
        def bent(group, psi, pairs):
            out = zero_dim_gauge(group, psi, pairs)
            if group.orders != (3,) or pairs != n_pairs:
                return out
            roots = out.roots.copy()
            roots[-1] = (roots[-1] + 1) % out.modulus
            return SupportState(out.site_ids, out.kinds, out.dims, out.modulus, out.keys, roots, out.mag_sq)

        assert suite.criterion_rainbow()["passed"]
        monkeypatch.setattr(suite, "zero_dim_gauge", bent)
        assert not suite.criterion_rainbow()["passed"]

    def test_asymmetric_input_rejected(self):
        bad = SupportState((("m", 0),), (SiteKind.VERTEX_DUAL,), (2,), 2, np.ones(1, np.int64), np.zeros(1, np.int64))
        with pytest.raises(ValueError, match="not symmetric"):
            zero_dim_gauge(Z2, bad, 1)
