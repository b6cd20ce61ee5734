"""The batched commutation pass and the memoized constructors against the slow path.

`sitewise_commutation_phase` walks the shared sites of a pair and
multiplies both orders on each, as `operators.commutation_phase` once did.
One `overlap_exponents` pass per torus must give its phase for every
overlapping pair, and the library's `commutation_phase`, one pass over a
single pair, the same phase and the same errors.  The plaquette corners
must be built once per label.  On drawn Weyl operators the pass must give
what the two products give, and refuse what multiply refuses, with the
same message.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgauge import operators
from latgauge.groups import GroupMismatchError, GroupSpec, PhaseExponent, enumerate_cocycle_classes
from latgauge.lattice import CodeSpec, Lattice2D, build_bulk_stabilizers, check_all_commute
from latgauge.operators import (
    MonomialOperator,
    ProductOperator,
    SiteKind,
    clock_z,
    commutation_phase,
    corner_factors,
    overlap_exponents,
    shift_x,
)
from latgauge.suite import GROUPS, TORI, _twist_combinations

Z4 = GroupSpec((4,))
Z22 = GroupSpec((2, 2))


def sitewise_commutation_phase(a: ProductOperator, b: ProductOperator) -> PhaseExponent:
    """Scalar c with a.b = c b.a, recomputed on every shared site from the two products."""
    if a.modulus != b.modulus:
        raise ValueError("phase moduli differ")
    fb = dict(b.factors)
    total = PhaseExponent.one(a.modulus)
    for site, ma in a.factors:
        mb = fb.get(site)
        if mb is None:
            continue
        ab, ba = ma.multiply(mb), mb.multiply(ma)
        assert (ab.a, ab.chi) == (ba.a, ba.chi)  # Weyl operators commute up to a scalar
        total = total * PhaseExponent(ab.c - ba.c, ab.modulus)
    return total


def _suite_tori():
    """Every torus of criterion 1: GROUPS x twist pairs x TORI."""
    params = []
    for orders in GROUPS:
        group = GroupSpec(orders)
        for even, odd in _twist_combinations(group):
            for n, m in TORI:
                spec = CodeSpec(Lattice2D(group, n, m, "periodic"), twist_even=even, twist_odd=odd)
                twists = f"{not even.is_trivial:d}{not odd.is_trivial:d}"
                params.append(pytest.param(spec, id=f"{'x'.join(map(str, orders))}-{n}x{m}-{twists}"))
    return params


def _overlapping_pairs(ops):
    """Ordered pairs of distinct operators that share a site."""
    by_site: dict = {}
    for idx, op in enumerate(ops):
        for site, _ in op.factors:
            by_site.setdefault(site, set()).add(idx)
    return sorted({(a, b) for idxs in by_site.values() for a in idxs for b in idxs if a != b})


def _clear_caches():
    for memo in (operators._shift, operators.clock_z, operators.projective_x_tilde):
        memo.cache_clear()


class TestAgainstSitewiseOracle:
    @pytest.mark.parametrize("spec", _suite_tori())
    def test_every_overlapping_pair(self, spec):
        # One batched pass over the torus lists exactly the overlapping
        # pairs a < b, each with the oracle's phase.
        ops = [t.op for t in build_bulk_stabilizers(spec)]
        batched = {}
        for a, b, k in overlap_exponents(ops):
            batched.update(zip(zip(a.tolist(), b.tolist()), k.tolist()))
        assert batched
        assert sorted(batched) == [(a, b) for a, b in _overlapping_pairs(ops) if a < b]
        for (a, b), k in batched.items():
            assert PhaseExponent(k, spec.group.phase_modulus) == sitewise_commutation_phase(ops[a], ops[b])

    @pytest.mark.parametrize("spec", _suite_tori())
    def test_one_extra_clock_gives_the_same_violations(self, spec):
        # One factor times a clock: the term stops commuting with the
        # shifts on that site, and the batched pass must find the broken
        # pairs that the sitewise full scan finds.
        import scan_oracle  # it imports this module, so not at the top

        terms = list(build_bulk_stabilizers(spec))
        k = next(i for i, t in enumerate(terms) if t.op.factors)
        (site, mono), *rest = terms[k].op.factors
        shifted = replace(mono, chi=int(mono.group.add[mono.chi, 1]))
        terms[k] = replace(terms[k], op=ProductOperator(((site, shifted), *rest), terms[k].op.modulus))
        fast = check_all_commute(terms)
        assert fast == scan_oracle.check_all_commute(terms)
        assert not fast["passed"]

    def test_factors_of_two_groups_of_one_modulus_raise(self):
        # Z4 and Z4xZ2 share the modulus 4, so only the groups differ.
        a = ProductOperator.from_factors([("s", shift_x(Z4.element((1,))))], 4)
        b = ProductOperator.from_factors([("s", shift_x(GroupSpec((4, 2)).element((1, 0))))], 4)
        for path in (sitewise_commutation_phase, commutation_phase):
            for x, y in ((a, b), (b, a)):
                with pytest.raises(ValueError, match="^operator dimensions or moduli differ$"):
                    path(x, y)

    def test_mixed_kinds_raise_after_a_passing_call(self):
        shift = shift_x(Z22.element((1, 0)))
        clock = clock_z(Z22.character((1, 1)))
        a = ProductOperator.from_factors([("s", shift)], 2)
        b = ProductOperator.from_factors([("s", clock)], 2)
        assert commutation_phase(a, b) == sitewise_commutation_phase(a, b) == PhaseExponent(1, 2)
        wrong = ProductOperator.from_factors([("s", replace(clock, kind=SiteKind.VERTEX_DUAL))], 2)
        for _ in range(2):
            with pytest.raises(ValueError):
                commutation_phase(a, wrong)
            with pytest.raises(ValueError):
                sitewise_commutation_phase(a, wrong)

    def test_factor_modulus_other_than_the_product_modulus_raises(self):
        shift = shift_x(Z4.element((1,)))
        clock = clock_z(Z4.character((1,)))
        a = ProductOperator((("s", shift),), 2)
        b = ProductOperator((("s", clock),), 2)
        for path in (sitewise_commutation_phase, commutation_phase):
            with pytest.raises(GroupMismatchError):
                path(a, b)


class TestConstructorsAreMemoized:
    @pytest.mark.parametrize("spec", _suite_tori())
    def test_corner_factors_built_twice_per_group_element(self, spec):
        # Once as an element and once as a character label, and looked up
        # once per label of each family, not once per plaquette.
        _clear_caches()
        build_bulk_stabilizers(spec)
        for memo in (operators.projective_x_tilde, operators._shift):
            info = memo.cache_info()
            assert info.misses == 2 * spec.group.size
            assert info.hits == 0

    def test_element_and_character_labels_do_not_collide(self):
        _clear_caches()
        alpha = enumerate_cocycle_classes(Z22)[1]
        g, chi = Z22.element((1, 0)), Z22.character((1, 0))
        edge = corner_factors(alpha, g)
        vertex = corner_factors(alpha, chi)
        assert operators.projective_x_tilde.cache_info().misses == 2
        assert [f.kind for f in edge] == [SiteKind.EDGE_GROUP] * 2 + [SiteKind.VERTEX_DUAL] * 2
        assert [f.kind for f in vertex] == [SiteKind.VERTEX_DUAL] * 2 + [SiteKind.EDGE_GROUP] * 2


WEYL_GROUPS = [GroupSpec(orders) for orders in ((2,), (3,), (4,), (2, 2), (2, 3), (4, 2), (4, 4))]
KINDS = st.sampled_from(tuple(SiteKind))


@st.composite
def weyl_factors(draw, groups=st.sampled_from(WEYL_GROUPS), kinds=KINDS):
    """A drawn Weyl operator (a, chi, c) of a drawn group and site kind."""
    group = draw(groups)
    index, c = st.integers(0, group.size - 1), st.integers(-group.phase_modulus, 2 * group.phase_modulus)
    return MonomialOperator(group, draw(index), draw(index), draw(c), draw(kinds))


@st.composite
def factor_pairs(draw):
    """Two factors that mostly share group and kind; each is redrawn one time in eight."""
    ma = draw(weyl_factors())
    own = ((ma.group, st.sampled_from(WEYL_GROUPS)), (ma.kind, KINDS))
    kept = [st.just(value) if draw(st.integers(0, 7)) else fresh for value, fresh in own]
    return ma, draw(weyl_factors(*kept))


@st.composite
def placed_lists(draw):
    """Two lists of product operators of one group on up to five sites of fixed kinds, drawn factor by factor."""
    group = draw(st.sampled_from(WEYL_GROUPS))
    kinds = draw(st.lists(KINDS, min_size=1, max_size=5))
    lists = []
    for _ in range(2):
        ops = []
        for _ in range(draw(st.integers(1, 6))):
            sites = draw(st.lists(st.integers(0, len(kinds) - 1), unique=True, max_size=len(kinds)))
            factors = [(s, draw(weyl_factors(st.just(group), st.just(kinds[s])))) for s in sites]
            ops.append(ProductOperator.from_factors(factors, group.phase_modulus))
        lists.append(ops)
    return lists


def _outcome(path, ma, mb):
    """path's exponent for the pair, or the type and message of the error it raises."""
    try:
        return path(ma, mb)
    except Exception as exc:
        return type(exc), str(exc)


def _on_one_site(ma, mb):
    """ma and mb as product operators of ma's modulus on one site."""
    return ProductOperator((("s", ma),), ma.modulus), ProductOperator((("s", mb),), ma.modulus)


def _product_route(ma, mb):
    """The exponent as sitewise_commutation_phase finds it, from ma.mb and mb.ma on one site."""
    return sitewise_commutation_phase(*_on_one_site(ma, mb)).k


def _pass_route(ma, mb):
    """The exponent as one overlap_exponents pass finds it."""
    return commutation_phase(*_on_one_site(ma, mb)).k


class TestWeylCommutator:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(factor_pairs())
    def test_pass_gives_the_product_route(self, pair):
        ma, mb = pair
        assert _outcome(_pass_route, ma, mb) == _outcome(_product_route, ma, mb)
        assert _outcome(_pass_route, mb, ma) == _outcome(_product_route, mb, ma)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(placed_lists())
    def test_overlap_exponents_against_the_sitewise_oracle(self, lists):
        # The pairs i < j of one list, and every pair of the two lists.
        rows, cols = lists
        for others, upper in ((rows, True), (cols, False)):
            listed = {}
            for i, j, k in overlap_exponents(rows, None if upper else cols):
                listed.update(zip(zip(i.tolist(), j.tolist()), k.tolist()))
            shared = {
                (i, j)
                for i, a in enumerate(rows)
                for j, b in enumerate(others)
                if (i < j or not upper) and {s for s, _ in a.factors} & {s for s, _ in b.factors}
            }
            assert set(listed) == shared
            for (i, j), k in listed.items():
                assert k == sitewise_commutation_phase(rows[i], others[j]).k

    def test_refusals_come_in_multiply_order(self):
        # Group before kind, with multiply's own messages.
        a = shift_x(GroupSpec((2,)).element((1,)))
        for b in (
            clock_z(GroupSpec((3,)).element((1,))),
            clock_z(GroupSpec((2,)).element((1,))),
            replace(clock_z(GroupSpec((2,)).character((1,))), kind=SiteKind.VERTEX_DUAL),
        ):
            for x, y in ((a, b), (b, a)):
                with pytest.raises(ValueError) as raised:
                    x.multiply(y)
                with pytest.raises(ValueError, match=f"^{raised.value}$"):
                    _pass_route(x, y)
