"""The shared subset order and its searches, against the brute-force oracles.

Every search walks one memoized cost-ordered subset order per measure
instance and column set; these tests pin its values and witnesses to
the oracles' full subset enumeration, on column orders that are and are
not sorted by attribute index.
"""

from itertools import product

import pytest

from dtlab.measures import opaque
from dtlab.randgen import random_table
from dtlab.solvers import (
    closure_separation_cost,
    fixing_cost_for_tuple,
    min_cost_subset,
    min_test_cost,
    minimal_rule,
    row_separation_cost,
)
from dtlab.tables import validate
from dtlab.verify import standard_measures

import oracles

SHAPES = [
    (2, 3, 5),
    (2, 4, 9),
    (2, 5, 14),
    (2, 6, 20),
    (3, 2, 6),
    (3, 3, 12),
    (3, 4, 20),
    (3, 5, 30),
]
MEASURES = standard_measures()


def reversed_columns(table):
    """The same table with its column order reversed."""
    return validate(
        table.k,
        tuple(reversed(table.columns)),
        [(tuple(reversed(row)), d) for row, d in table.entries()],
    )


def tables():
    for i, (k, cols, rows) in enumerate(SHAPES):
        table = random_table(k, cols, rows, seed=20261017 + i)
        yield f"k{k}c{cols}r{rows}", table
        yield f"k{k}c{cols}r{rows}-reversed", reversed_columns(table)


CASES = [
    pytest.param(table, measure, id=f"{tid}-{mid}")
    for tid, table in tables()
    for mid, measure in MEASURES
]


@pytest.mark.parametrize("table,measure", CASES)
def test_test_and_separation_match_oracles(table, measure):
    assert min_test_cost(measure, table) == oracles.brute_test_cost(measure, table)
    for row in table.rows:
        for card_first in (False, True):
            assert row_separation_cost(measure, table, row, card_first) == (
                oracles.brute_row_separation(measure, table, row, card_first)
            )
    assert closure_separation_cost(measure, table) == (
        oracles.brute_closure_separation(measure, table)
    )


@pytest.mark.parametrize("table,measure", CASES)
def test_fixings_and_rules_match_oracles(table, measure):
    for values in product(range(table.k), repeat=table.n_cols):
        cost, fixings = fixing_cost_for_tuple(measure, table, values)
        want_cost, want_attrs = oracles.brute_fixing_for_tuple(measure, table, values)
        assert (cost, tuple(a for a, _ in fixings)) == (want_cost, want_attrs)
        assert all(v == values[table.column_position(a)] for a, v in fixings)
    for row, d in table.entries():
        if d != 1:
            continue

        def agreeing_rows_are_1(attrs, row=row):
            pos = [table.column_position(a) for a in attrs]
            return all(
                e == 1 for other, e in table.entries() if all(other[p] == row[p] for p in pos)
            )

        cost, fixings = minimal_rule(measure, table, row)
        want_cost, want_attrs = oracles.brute_min_subset(measure, table, agreeing_rows_are_1)
        assert (cost, tuple(a for a, _ in fixings)) == (want_cost, want_attrs)
        assert all(v == row[table.column_position(a)] for a, v in fixings)


@pytest.mark.parametrize("card_first", [False, True])
@pytest.mark.parametrize("table,measure", CASES[::4])
def test_min_cost_subset_adapter_matches_oracle(table, measure, card_first):
    def distinct(positions):
        return len({tuple(r[p] for p in positions) for r in table.rows}) == table.n_rows

    def distinct_attrs(attrs):
        return distinct([table.column_position(a) for a in attrs])

    assert min_cost_subset(measure, table, distinct, card_first) == (
        oracles.brute_min_subset(measure, table, distinct_attrs, card_first)
    )


def test_order_memo_is_per_instance_not_per_value():
    # Opaque measures compare and hash equal whatever their cost
    # functions, so a memo keyed by measure value would hand the second
    # measure the first one's subset order.
    table = random_table(2, 4, 9, seed=20261017)
    cheap_f0 = opaque(lambda idx: sum(1 if i == 0 else 4 for i in idx))
    dear_f0 = opaque(lambda idx: sum(9 if i == 0 else 1 for i in idx))
    assert cheap_f0 == dear_f0 and hash(cheap_f0) == hash(dear_f0)
    answers = []
    for measure in (cheap_f0, dear_f0):
        test = min_test_cost(measure, table)
        seps = [row_separation_cost(measure, table, r) for r in table.rows]
        assert test == oracles.brute_test_cost(measure, table)
        assert seps == [oracles.brute_row_separation(measure, table, r) for r in table.rows]
        answers.append((test, seps))
    assert answers[0] != answers[1]
