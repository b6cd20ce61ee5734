"""The group law as tables: every entry against the scalar helpers, and the readers built on them.

GroupSpec's add, neg and pair tables and a Cocycle's table are checked
entry by entry against add_exps, neg_exps, pair_exponent and
Cocycle.exponent; character_of against the pair rows and against rows
that are not characters; operators._weyl_form against the (a, chi, c)
that each constructor's definition gives; and slant_product against its
closed form in algebra_reference.
"""

import itertools
import math

import numpy as np
import pytest

from algebra_reference import slant_closed_form
from latgauge.groups import Cocycle, GroupSpec, enumerate_cocycle_classes, slant_product
from latgauge.operators import (
    MonomialOperator,
    _weyl_form,
    clock_z,
    projective_x,
    projective_x_tilde,
    shift_x,
)

ORDERS = [(2,), (3,), (4,), (2, 2), (2, 3), (3, 3), (4, 2), (2, 4), (4, 4), (2, 6), (2, 2, 2)]
GROUPS = [GroupSpec(orders) for orders in ORDERS]
IDS = ["x".join(map(str, orders)) for orders in ORDERS]


@pytest.mark.parametrize("group", GROUPS, ids=IDS)
class TestTablesMatchTheScalarHelpers:
    def test_numbering(self, group):
        every = list(itertools.product(*(range(n) for n in group.orders)))
        assert group.digits.tolist() == [list(exps) for exps in every]
        assert [group.index_of(exps) for exps in every] == list(range(group.size))
        assert [group.exps_of(i) for i in range(group.size)] == every

    def test_add_neg_pair(self, group):
        exps = [group.exps_of(i) for i in range(group.size)]
        add = [[group.index_of(group.add_exps(a, b)) for b in exps] for a in exps]
        pair = [[group.pair_exponent(chi, g) for g in exps] for chi in exps]
        assert group.add.tolist() == add
        assert group.neg.tolist() == [group.index_of(group.neg_exps(a)) for a in exps]
        assert group.pair.tolist() == pair

    def test_cocycle_tables(self, group):
        exps = [group.exps_of(i) for i in range(group.size)]
        for alpha in enumerate_cocycle_classes(group):
            assert alpha.table.tolist() == [[alpha.exponent(a, b) for b in exps] for a in exps]

    def test_tables_are_read_only_and_built_once(self, group):
        twin = GroupSpec(group.orders)
        alpha = enumerate_cocycle_classes(group)[-1]
        tables = [group.digits, group.add, group.neg, group.pair, alpha.table]
        again = [twin.digits, twin.add, twin.neg, twin.pair, Cocycle(twin, alpha.pmatrix).table]
        assert all(first is second for first, second in zip(tables, again))
        for table in tables:
            assert table.dtype == np.int64 and not table.flags.writeable
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] += 1


@pytest.mark.parametrize("group", GROUPS, ids=IDS)
class TestCharacterOf:
    def test_reads_every_character_back(self, group):
        L = group.phase_modulus
        for chi in group.characters():
            row = group.pair[group.index_of(chi.exps)]
            assert group.character_of(row) == chi
            assert group.character_of(row - 3 * L) == chi

    def test_refuses_rows_that_are_not_characters(self, group):
        L = group.phase_modulus
        rows = [np.full(group.size, 1), np.arange(group.size) % L]
        for chi in range(group.size):
            for g in range(1, group.size):
                row = group.pair[chi].copy()
                row[g] += 1
                rows.append(row)
        for row in rows:
            if any(np.array_equal(row % L, table_row) for table_row in group.pair):
                continue  # np.arange is a character of Z2 and Z3
            with pytest.raises(ArithmeticError):
                group.character_of(row)


def _expected_weyl_form(constructor, alpha, label):
    """(a, chi, c) of each constructor's factor, from its definition and the p matrix alone.

    shift_x: |h> -> |h + g>; clock_z: |h> -> label(h) |h>;
    projective_x: |h> -> alpha(g, h) |g + h>, and alpha(g, .) has entry i
    sum_{j>i} p[i][j] g[j] n_i / gcd(n_i, n_j); projective_x_tilde:
    |h> -> alpha(h - g, g)^-1 |h - g> = alpha(g, g) alpha(h, g)^-1 |h - g>,
    and alpha(., g) has entry j sum_{i<j} p[i][j] g[i] n_j / gcd(n_i, n_j).
    """
    group, g = label.group, label.exps
    zero, orders, p = (0,) * len(group.orders), group.orders, alpha.pmatrix
    k = range(len(orders))
    if constructor is shift_x:
        return g, zero, 0
    if constructor is clock_z:
        return zero, g, 0
    if constructor is projective_x:
        chi = [sum(n // math.gcd(n, orders[j]) * p[i][j] * g[j] for j in k if j > i) % n for i, n in enumerate(orders)]
        return g, tuple(chi), 0
    chi = [-sum(n // math.gcd(orders[i], n) * p[i][j] * g[i] for i in k if i < j) % n for j, n in enumerate(orders)]
    return group.neg_exps(g), tuple(chi), alpha.exponent(g, g)


@pytest.mark.parametrize("group", GROUPS, ids=IDS)
def test_weyl_form_of_every_constructor(group):
    for alpha in enumerate_cocycle_classes(group):
        for label in [*group.elements(), *group.characters()]:
            for constructor in (shift_x, clock_z, projective_x, projective_x_tilde):
                twisted = constructor in (projective_x, projective_x_tilde)
                mono = constructor(alpha, label) if twisted else constructor(label)
                a, chi, c = _weyl_form(mono, group)
                assert (a, chi, c) == _expected_weyl_form(constructor, alpha, label), (constructor.__name__, label)
                assert type(c) is int and all(type(x) is int for x in a + chi)


@pytest.mark.parametrize("group", GROUPS, ids=IDS)
def test_weyl_form_refuses_a_partial_clock(group):
    # A clock right on the unit elements and wrong on one other element.
    L = group.phase_modulus
    for chi in group.characters():
        phase = group.pair[group.index_of(chi.exps)].copy()
        for g in range(group.size):
            if g in group.strides or g == 0:
                continue
            phase[g] = (phase[g] + 1) % L
            with pytest.raises(ArithmeticError):
                _weyl_form(MonomialOperator(group.size, tuple(range(group.size)), tuple(phase.tolist()), L), group)
            phase[g] = (phase[g] - 1) % L


@pytest.mark.parametrize(
    "orders, perm",
    [
        ((3,), (0, 2, 1)),
        ((4,), (1, 0, 3, 2)),
        ((2, 2), (1, 2, 3, 0)),
        ((2, 3), (1, 0, 2, 3, 4, 5)),
        ((4, 4), (1, 0) + tuple(range(2, 16))),
    ],
    ids=["Z3-inversion", "Z4-a-Z2xZ2-shift", "Z2xZ2-a-Z4-shift", "Z2xZ3-transposition", "Z4xZ4-transposition"],
)
def test_weyl_form_refuses_a_permutation_that_is_not_a_translation(orders, perm):
    group = GroupSpec(orders)
    mono = MonomialOperator(group.size, perm, (0,) * group.size, group.phase_modulus)
    with pytest.raises(ArithmeticError):
        _weyl_form(mono, group)


def test_a_translation_of_another_group_of_the_same_size_is_read_in_that_group():
    # (1, 0, 3, 2) translates Z2xZ2 by (0, 1) and no element of Z4.
    mono = MonomialOperator(4, (1, 0, 3, 2), (0, 1, 0, 1), 2)
    assert _weyl_form(mono, GroupSpec((2, 2))) == ((0, 1), (0, 1), 0)


@pytest.mark.parametrize("group", GROUPS, ids=IDS)
def test_slant_product_equals_the_closed_form(group):
    for alpha in enumerate_cocycle_classes(group):
        for g in group.elements():
            assert slant_product(alpha, g) == slant_closed_form(alpha, g)
