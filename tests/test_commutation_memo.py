"""The memoized site commutator and factor constructors against the slow path.

`sitewise_commutation_phase` walks the shared sites of a pair and
multiplies both orders on each, as `operators.commutation_phase` once did.
One `overlap_exponents` pass per torus must give its phase for every
overlapping pair, and the library's `commutation_phase`, one pass over a
single pair, the same phase, the same None and the same errors.  The
memoized site commutator's work must not grow with the lattice, and the
plaquette corners must be built once per label.  The memoized site
commutator reads its exponent off the perm and phase tables; on random
monomials it must give what the two products give, and refuse what
multiply refuses, with the same message.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgauge import lattice, operators
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


def sitewise_commutation_phase(a: ProductOperator, b: ProductOperator) -> PhaseExponent | None:
    """Scalar c with a.b = c b.a, or None; recomputed on every shared site."""
    if a.modulus != b.modulus:
        raise ValueError("phase moduli differ")
    fb = dict(b.factors)
    total = PhaseExponent.one(a.modulus)
    for site, ma in a.factors:
        mb = fb.get(site)
        if mb is None:
            continue
        ab, ba = ma.multiply(mb), mb.multiply(ma)
        if ab.perm != ba.perm:
            return None
        diffs = {(x - y) % ab.modulus for x, y in zip(ab.phase, ba.phase)}
        if len(diffs) != 1:
            return None
        total = total * PhaseExponent(diffs.pop(), ab.modulus)
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
    for memo in (operators._site_commutator, operators._shift, operators.clock_z, operators.projective_x_tilde):
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
            assert (None if k < 0 else PhaseExponent(k, spec.group.phase_modulus)) == sitewise_commutation_phase(
                ops[a], ops[b]
            )

    @pytest.mark.parametrize("spec", _suite_tori())
    def test_one_shifted_phase_gives_the_same_violations(self, spec):
        # w on one basis state of one factor: the term stops being a Weyl
        # operator, and the batched pass must find the broken pairs that
        # the sitewise full scan finds.
        import scan_oracle  # it imports this module, so not at the top

        terms = list(build_bulk_stabilizers(spec))
        k = next(i for i, t in enumerate(terms) if t.op.factors)
        (site, mono), *rest = terms[k].op.factors
        shifted = replace(mono, phase=(mono.phase[0] + 1,) + mono.phase[1:])
        terms[k] = replace(terms[k], op=ProductOperator(((site, shifted), *rest), terms[k].op.modulus))
        fast = check_all_commute(terms)
        assert fast == scan_oracle.check_all_commute(terms)
        assert not fast["passed"]

    def test_raw_non_weyl_factor_gives_none(self):
        reversal = MonomialOperator(4, (3, 2, 1, 0), (0,) * 4, 4).with_kind(SiteKind.EDGE_GROUP)
        shift = shift_x(Z4.element((1,)))
        a = ProductOperator.from_factors([("s", reversal)], 4)
        b = ProductOperator.from_factors([("s", shift)], 4)
        for _ in range(2):
            assert sitewise_commutation_phase(a, b) is None
            assert commutation_phase(a, b) is None
            assert commutation_phase(b, a) is None

    def test_mixed_kinds_raise_after_a_cached_call(self):
        shift = shift_x(Z22.element((1, 0)))
        clock = clock_z(Z22.character((1, 1)))
        a = ProductOperator.from_factors([("s", shift)], 2)
        b = ProductOperator.from_factors([("s", clock)], 2)
        assert commutation_phase(a, b) == sitewise_commutation_phase(a, b) == PhaseExponent(1, 2)
        wrong = ProductOperator.from_factors([("s", clock.with_kind(SiteKind.VERTEX_DUAL))], 2)
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


class TestWorkDoesNotGrowWithTheLattice:
    @pytest.mark.parametrize(
        "orders,twisted,sizes,misses",
        [
            ((2, 2), False, (4, 16), 72),
            ((2, 2), True, (4, 16), 105),
            ((4, 2), False, (4, 8), 392),
        ],
    )
    def test_site_commutator_misses_do_not_depend_on_size(self, orders, twisted, sizes, misses):
        # The direct pass, which check_all_commute takes on small tori.
        group = GroupSpec(orders)
        alpha = enumerate_cocycle_classes(group)[1] if twisted else None
        for size in sizes:
            _clear_caches()
            spec = CodeSpec(Lattice2D(group, size, size, "periodic"), twist_even=alpha)
            assert lattice._directly(build_bulk_stabilizers(spec))["passed"]
            assert operators._site_commutator.cache_info().misses == misses

    @pytest.mark.parametrize(
        "orders,twisted,sizes,misses",
        [
            ((2, 2), False, (4, 8, 16), 72),
            ((2, 2), True, (4, 8, 16), 117),
            ((4, 2), False, (4, 8, 12), 392),
        ],
    )
    def test_template_misses_do_not_depend_on_size(self, orders, twisted, sizes, misses):
        # The unit cell meets every term in both orders, so a twisted code
        # looks up some factor pairs the direct pass meets in one order only.
        group = GroupSpec(orders)
        alpha = enumerate_cocycle_classes(group)[1] if twisted else None
        for size in sizes:
            _clear_caches()
            spec = CodeSpec(Lattice2D(group, size, size, "periodic"), twist_even=alpha)
            assert lattice._by_template(build_bulk_stabilizers(spec))["passed"]
            assert operators._site_commutator.cache_info().misses == misses

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


DIMS = st.integers(2, 8)
MODULI = st.sampled_from((2, 3, 4, 6, 8, 12))
KINDS = st.sampled_from((None, SiteKind.EDGE_GROUP, SiteKind.VERTEX_DUAL))


@st.composite
def monomials(draw, dims=DIMS, moduli=MODULI, kinds=KINDS):
    """A random monomial: any perm (mostly not a Weyl one) or a cyclic shift; random phases or a character."""
    dim, modulus, kind = draw(dims), draw(moduli), draw(kinds)
    step = draw(st.integers(0, dim - 1))
    perm = draw(st.one_of(st.permutations(range(dim)), st.just([(i + step) % dim for i in range(dim)])))
    # A character of Z_dim, so that cyclic shifts and these clocks commute up to a scalar.
    c, a = draw(st.integers(0, modulus - 1)), draw(st.integers(0, modulus - 1)) * (modulus // math.gcd(modulus, dim))
    linear = [c + a * i for i in range(dim)]
    noise = st.lists(st.integers(-2 * modulus, 2 * modulus), min_size=dim, max_size=dim)
    phase = draw(st.one_of(noise, st.just(linear)))
    return MonomialOperator(dim, tuple(perm), tuple(phase), modulus, kind)


@st.composite
def monomial_pairs(draw):
    """Two monomials that mostly share dim, modulus and kind; each is redrawn one time in eight."""
    ma = draw(monomials())
    own = (ma.dim, ma.modulus, ma.kind)
    kept = [st.just(value) if draw(st.integers(0, 7)) else fresh for value, fresh in zip(own, (DIMS, MODULI, KINDS))]
    return ma, draw(monomials(*kept))


def _outcome(path, ma, mb):
    """path's exponent for the pair, or the type and message of the error it raises."""
    try:
        return path(ma, mb)
    except Exception as exc:
        return type(exc), str(exc)


def _product_route(ma, mb):
    """The exponent as sitewise_commutation_phase finds it, from ma.mb and mb.ma on one site."""
    a = ProductOperator((("s", ma),), ma.modulus)
    b = ProductOperator((("s", mb),), ma.modulus)
    phase = sitewise_commutation_phase(a, b)
    return None if phase is None else phase.k


class TestObjectFreeCommutator:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(monomial_pairs())
    def test_tables_give_the_product_route(self, pair):
        ma, mb = pair
        assert _outcome(operators._site_commutator, ma, mb) == _outcome(_product_route, ma, mb)
        assert _outcome(operators._site_commutator, mb, ma) == _outcome(_product_route, mb, ma)

    def test_refusals_come_in_multiply_order(self):
        # Dimension or modulus before kind, with multiply's own messages.
        a = MonomialOperator(2, (1, 0), (0, 1), 2, SiteKind.EDGE_GROUP)
        for b in (
            MonomialOperator(3, (0, 1, 2), (0, 0, 0), 2, SiteKind.VERTEX_DUAL),
            MonomialOperator(2, (0, 1), (0, 0), 4, SiteKind.VERTEX_DUAL),
            MonomialOperator(2, (0, 1), (0, 1), 2, SiteKind.VERTEX_DUAL),
        ):
            for x, y in ((a, b), (b, a)):
                with pytest.raises(ValueError) as raised:
                    x.multiply(y)
                with pytest.raises(ValueError, match=f"^{raised.value}$"):
                    operators._site_commutator(x, y)
