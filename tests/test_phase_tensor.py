"""Sparse exact phase tensors against the dense oracle.

Every product the suite's exact criteria take is checked here entry by
entry: the emergent-symmetry and string-order products of each layer
those criteria visit, the MPO layers of the tensor-network criterion, and
every pull-through dressing and blocked diamond of suite.GROUPS.  The
sparse result's dense counts must equal the oracle's array, equality must
agree on both paths, and a tensor with one root shifted by 1 must compare
unequal on both.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_phase_oracle as oracle
from latgauge.cyclotomic import PhaseTensor, contract, mono_mul_left, mono_mul_right
from latgauge.gauging import (
    LayerSpec,
    build_gauging_map,
    verify_emergent_symmetry,
    verify_string_order_mapping,
)
from latgauge.groups import GroupSpec, enumerate_cocycle_classes
from latgauge.operators import MonomialOperator, flat_action, flatten_product_operator, shift_x
from latgauge.suite import GROUPS
from latgauge.tensors import (
    block_diamond,
    blocked_diamond_identities,
    build_tensor,
    contract_mpo_layer,
    pull_through_identities,
)


def shifted_root(tensor: PhaseTensor) -> PhaseTensor:
    """The tensor with the root of its first stored entry raised by 1."""
    roots = tensor.roots.copy()
    roots[0] += 1
    return PhaseTensor.from_entries(
        tensor.shape, tensor.modulus, tensor.flat_indices, roots, tensor.mults, tensor.scale
    )


def shifted_counts(counts: np.ndarray, key: int) -> np.ndarray:
    """Dense counts with the multiplicity at one (flat index, root) key moved to the next root."""
    modulus = counts.shape[-1]
    flat = counts.reshape(-1, modulus).copy()
    index, root = divmod(int(key), modulus)
    flat[index, (root + 1) % modulus] += flat[index, root]
    flat[index, root] = 0
    return flat.reshape(counts.shape)


def assert_shift_detected(tensor: PhaseTensor) -> None:
    assert shifted_root(tensor) != tensor
    assert shifted_root(tensor).proportional(tensor) is None
    assert not oracle.equal(shifted_counts(tensor.counts, tensor.keys[0]), tensor.counts)


def emergent_layers():
    """Every layer criterion_emergent_symmetry checks."""
    for orders in [(2,), (3,), (4,), (2, 2)]:
        group = GroupSpec(orders)
        for twist in enumerate_cocycle_classes(group):
            tw = None if twist.is_trivial else twist
            for index in (0, 1):
                for n in (2, 3):
                    yield LayerSpec(group, index, n, "periodic", tw)


def string_order_layers():
    """Every layer criterion_string_order_mapping checks."""
    for orders in [(2,), (3,), (2, 2)]:
        for index in (0, 1):
            yield LayerSpec(GroupSpec(orders), index, 3, "periodic")


def mpo_layers():
    """Every layer the MPO loop of criterion_tensor_network compares."""
    for orders in GROUPS:
        group = GroupSpec(orders)
        for index in (0, 1):
            for bc in ("periodic", "open"):
                for n in (2, 3):
                    layer = LayerSpec(group, index, n, bc)
                    gmap = build_gauging_map(layer)
                    if gmap.out_dim * gmap.in_dim * group.phase_modulus <= 2**24:
                        yield layer


def _layer_id(layer):
    twisted = "plain" if layer.twist.is_trivial else "twisted"
    return f"{layer.group.orders}-L{layer.index}-n{layer.n}-{layer.boundary}-{twisted}"


class TestCanonicalForm:
    def test_duplicates_merge_and_zeros_drop(self):
        flat = [5, 0, 5, 3, 3, 5]
        roots = [1, 2, 1, 0, 4, 7]
        mults = [2, 1, 3, -1, 1, -5]
        t = PhaseTensor.from_entries((2, 3), 3, flat, roots, mults)
        dense = np.zeros((6, 3), dtype=np.int64)
        np.add.at(dense, (np.array(flat), np.array(roots) % 3), mults)
        assert np.array_equal(t.counts, dense.reshape(2, 3, 3))
        assert np.all(np.diff(t.keys) > 0)
        assert np.all(t.mults != 0)
        # (5, 1) sums to 2 + 3 - 5 = 0 and is dropped.
        assert t.nnz == np.count_nonzero(dense)

    def test_counts_is_a_read_only_snapshot(self):
        t = build_tensor("T_e", GroupSpec((3,)))
        with pytest.raises(ValueError):
            t.counts[0, 0, 0, 0] = 7

    def test_equality_needs_scale_shape_and_modulus(self):
        t = build_tensor("T_o", GroupSpec((2, 2)))
        assert t == build_tensor("T_o", GroupSpec((2, 2)))
        same_keys = PhaseTensor.from_entries(t.shape, t.modulus, t.flat_indices, t.roots, t.mults)
        assert same_keys != t
        assert t.proportional(same_keys) == t.scale
        wider = PhaseTensor.from_entries(t.shape, 4, t.flat_indices, t.roots, t.mults, t.scale)
        assert wider != t and wider.proportional(t) is None


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("layer", list(emergent_layers()), ids=_layer_id)
    def test_emergent_symmetry_products(self, layer):
        gmap = build_gauging_map(layer)
        exact = gmap.exact_matrix()
        counts = exact.counts
        out_sites = [s for s, _ in gmap.out_sites]
        out_dims = tuple(gmap.group.size for _ in out_sites)
        for label in layer.labels():
            op = gmap.emergent_symmetry_op(label)
            perm, phase = flatten_product_operator(out_sites, out_dims, op)
            lhs = mono_mul_left(exact, gmap.exact_factors(op), gmap.exact_dims)
            dense = oracle.mono_mul_left(counts, perm, phase)
            assert np.array_equal(lhs.counts, dense)
            assert lhs == exact and oracle.equal(dense, counts)
        assert_shift_detected(exact)

    @pytest.mark.parametrize("layer", list(string_order_layers()), ids=_layer_id)
    def test_string_order_products(self, layer):
        gmap = build_gauging_map(layer)
        exact = gmap.exact_matrix()
        counts = exact.counts
        in_sites = [s for s, _ in gmap.matter_sites]
        out_sites = [s for s, _ in gmap.out_sites]
        in_dims = tuple(gmap.group.size for _ in in_sites)
        out_dims = tuple(gmap.group.size for _ in out_sites)
        labels = list(layer.group.characters()) if layer.index == 0 else list(layer.group.elements())
        for i, i_prime in [(0, 1), (0, 2), (1, 2)]:
            for lab in labels:
                bare, dressed = gmap.charged_pair_ops(i, i_prime, lab)
                perm_in, phase_in = flatten_product_operator(in_sites, in_dims, bare)
                perm_out, phase_out = flatten_product_operator(out_sites, out_dims, dressed)
                lhs = mono_mul_right(exact, gmap.exact_factors(bare, columns=True), gmap.exact_dims)
                rhs = mono_mul_left(exact, gmap.exact_factors(dressed), gmap.exact_dims)
                dense_lhs = oracle.mono_mul_right(counts, perm_in, phase_in)
                dense_rhs = oracle.mono_mul_left(counts, perm_out, phase_out)
                assert np.array_equal(lhs.counts, dense_lhs)
                assert np.array_equal(rhs.counts, dense_rhs)
                assert lhs == rhs and oracle.equal(dense_lhs, dense_rhs)
        assert_shift_detected(exact)

    @pytest.mark.parametrize("layer", list(mpo_layers()), ids=_layer_id)
    def test_mpo_layers(self, layer):
        gmap = build_gauging_map(layer)
        mpo = contract_mpo_layer(layer)
        exact = gmap.exact_matrix()
        ratio = mpo.proportional(exact)
        assert ratio == oracle.proportional(mpo.counts, exact.counts, mpo.scale, exact.scale)
        assert ratio is not None and ratio > 0
        out_sites = [s for s, _ in gmap.out_sites]
        out_dims = tuple(gmap.group.size for _ in out_sites)
        for label in layer.labels():
            op = gmap.emergent_symmetry_op(label)
            perm, phase = flatten_product_operator(out_sites, out_dims, op)
            dense = oracle.mono_mul_left(mpo.counts, perm, phase)
            assert np.array_equal(mono_mul_left(mpo, gmap.exact_factors(op), gmap.exact_dims).counts, dense)
        assert_shift_detected(mpo)

    @pytest.mark.parametrize("orders", GROUPS)
    def test_pull_through_dressings(self, orders):
        group = GroupSpec(orders)
        names = ["M_tilde", "M_e", "M_o", "T_e", "T_o"]
        cases = [(build_tensor(name, group), pull_through_identities(name, group)) for name in names]
        for m_name, t_name in [("M_e", "T_o"), ("M_o", "T_e")]:
            diamond = block_diamond(m_name, t_name, group)
            m_counts, t_counts = build_tensor(m_name, group).counts, build_tensor(t_name, group).counts
            dense = oracle.contract(m_counts, t_counts, (3, 0))
            assert np.array_equal(diamond.counts, np.moveaxis(dense, 2, 4))
            cases.append((diamond, blocked_diamond_identities(m_name, group)))
        for tensor, identities in cases:
            for _, labels, recipe in identities:
                for lab in labels:
                    dressed, dense = tensor, tensor.counts
                    for leg, mono in recipe(lab):
                        dressed = mono_mul_left(dressed, [(leg, mono)])
                        dense = oracle.mono_mul_left(dense, mono.perm, mono.phase, axis=leg)
                        assert np.array_equal(dressed.counts, dense)
                    assert dressed == tensor and oracle.equal(dense, tensor.counts)
                    assert mono_mul_left(tensor, recipe(lab)) == dressed
            assert_shift_detected(tensor)


def random_tensor(draw, shape, modulus):
    size = int(np.prod(shape))
    count = draw(st.integers(0, 12))
    flat = draw(st.lists(st.integers(0, size - 1), min_size=count, max_size=count))
    roots = draw(st.lists(st.integers(-modulus, 2 * modulus), min_size=count, max_size=count))
    mults = draw(st.lists(st.integers(-2, 3), min_size=count, max_size=count))
    scale = Fraction(draw(st.integers(1, 3)))
    return PhaseTensor.from_entries(shape, modulus, flat, roots, mults, scale)


@st.composite
def tensor_and_monomials(draw):
    """A random tensor and random monomials on distinct axes of it."""
    modulus = draw(st.integers(1, 5))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    tensor = random_tensor(draw, shape, modulus)
    axes = draw(st.lists(st.integers(0, len(shape) - 1), min_size=1, max_size=len(shape), unique=True))
    factors = []
    for axis in axes:
        dim = shape[axis]
        perm = draw(st.permutations(range(dim)))
        phase = draw(st.lists(st.integers(0, modulus - 1), min_size=dim, max_size=dim))
        factors.append((axis, MonomialOperator(dim, tuple(perm), tuple(phase), modulus)))
    return tensor, factors


@st.composite
def contractible_pair(draw):
    modulus = draw(st.integers(1, 4))
    shared = draw(st.integers(1, 3))
    shape_a = list(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    shape_b = list(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    axis_a = draw(st.integers(0, len(shape_a) - 1))
    axis_b = draw(st.integers(0, len(shape_b) - 1))
    shape_a[axis_a] = shape_b[axis_b] = shared
    a = random_tensor(draw, tuple(shape_a), modulus)
    b = random_tensor(draw, tuple(shape_b), modulus)
    return a, b, (axis_a, axis_b)


@st.composite
def traceable_tensor(draw):
    modulus = draw(st.integers(1, 4))
    shape = list(draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)))
    a, b = draw(st.lists(st.integers(0, len(shape) - 1), min_size=2, max_size=2, unique=True))
    shape[b] = shape[a]
    return random_tensor(draw, tuple(shape), modulus), a, b


class TestRandomTensors:
    @settings(max_examples=150, deadline=None)
    @given(tensor_and_monomials())
    def test_monomial_products(self, case):
        # One call places every factor; the oracle applies them one axis at a time.
        tensor, factors = case
        got = mono_mul_left(tensor, factors)
        dense = tensor.counts
        for axis, mono in factors:
            dense = oracle.mono_mul_left(dense, mono.perm, mono.phase, axis=axis)
        assert np.array_equal(got.counts, dense)
        assert got.scale == tensor.scale
        if len(tensor.shape) == 2:
            for axis, mono in factors:
                if axis == 1:
                    got = mono_mul_right(tensor, [(1, mono)])
                    assert np.array_equal(got.counts, oracle.mono_mul_right(tensor.counts, mono.perm, mono.phase))

    @settings(max_examples=150, deadline=None)
    @given(contractible_pair())
    def test_contraction(self, case):
        a, b, axes = case
        got = contract(a, b, axes)
        assert np.array_equal(got.counts, oracle.contract(a.counts, b.counts, axes))
        assert got.scale == a.scale * b.scale

    @settings(max_examples=150, deadline=None)
    @given(traceable_tensor())
    def test_trace(self, case):
        tensor, a, b = case
        got = tensor.trace(a, b)
        assert np.array_equal(got.counts, oracle.trace(tensor.counts, a, b))
        assert got.scale == tensor.scale

    def test_trace_tells_a_shifted_root_apart(self):
        # The first stored entry of M_e, (0, 0, 0, 0), lies on the diagonal
        # of the two virtual legs, so shifting its root changes the trace.
        tensor = build_tensor("M_e", GroupSpec((3,)))
        traced = tensor.trace(0, 1)
        assert np.array_equal(traced.counts, oracle.trace(tensor.counts, 0, 1))
        assert shifted_root(tensor).trace(0, 1) != traced
        dense_shifted = oracle.trace(shifted_counts(tensor.counts, tensor.keys[0]), 0, 1)
        assert np.array_equal(shifted_root(tensor).trace(0, 1).counts, dense_shifted)
        assert not oracle.equal(dense_shifted, traced.counts)


class TestRepeatedAxis:
    """Two factors on one axis are refused, as ProductOperator refuses two on one site."""

    def test_flat_action_and_products_refuse_a_repeated_axis(self):
        z3 = GroupSpec((3,))
        tensor = build_tensor("T_e", z3)
        x = shift_x(z3.element((1,)))
        twice = [(1, x), (1, x)]
        with pytest.raises(ValueError, match="more than one factor"):
            flat_action(tensor.shape, twice, tensor.flat_indices)
        for product in (mono_mul_left, mono_mul_right):
            with pytest.raises(ValueError, match="more than one factor"):
                product(tensor, twice)


class TestMemory:
    def test_exact_checks_stay_proportional_to_entries(self):
        # The dense (out, in, L) array of this map alone is 8 MB; the sparse
        # checks hold a few times its 2,816 entries.
        layer = LayerSpec(GroupSpec((4,)), 0, 3, "periodic")
        gmap = build_gauging_map(layer)
        label = list(layer.group.characters())[1]
        tracemalloc.start()
        try:
            assert verify_emergent_symmetry(gmap)["passed"]
            emergent_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            rep = verify_string_order_mapping(gmap)
            assert [c["passed"] for c in rep["checks"] if (c["i"], c["i_prime"], c["label"]) == (0, 2, label.exps)] == [True]
            assert rep["passed"]
            string_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert emergent_peak < 2 * 2**20
        assert string_peak < 2 * 2**20
        assert gmap.exact_matrix().nnz == 2816
        z2z2 = build_gauging_map(LayerSpec(GroupSpec((2, 2)), 0, 3, "periodic"))
        assert z2z2.exact_matrix().nnz == 1792
