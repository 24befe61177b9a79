import copy
import dataclasses
import gc
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtlab.closure import (
    BadLimit,
    ClosureLimits,
    ClosureMember,
    PartialRelabeling,
    enumerate_closure,
    is_critical,
    relabel,
    remove_columns,
)
from dtlab.tables import (
    Attribute,
    BadDecision,
    TableError,
    UnknownAttribute,
    canonical_key,
    empty_table,
    validate,
)
from dtlab.randgen import random_table

from conftest import tables_st
from oracles import brute_closure_keys


def single_column_table(i=0):
    return validate(2, [i], [((0,), 0), ((1,), 1)])


def test_remove_one_column(example6):
    proj = remove_columns([4], example6)
    assert [c.name for c in proj.columns] == ["f2", "f3"]
    assert dict(proj.entries()) == {
        (1, 1): 0,
        (0, 1): 0,
        (1, 0): 1,
        (0, 0): 1,
    }


def test_remove_nothing_and_everything(example6):
    assert remove_columns([], example6) == example6
    lam = remove_columns([2, 4, 3], example6)
    assert lam.is_empty and lam.n_cols == 0
    with pytest.raises(UnknownAttribute):
        remove_columns([9], example6)


def test_merge_takes_minimum_decision():
    t = validate(2, [0, 1], [((0, 0), 1), ((0, 1), 0), ((1, 0), 1), ((1, 1), 1)])
    proj = remove_columns([1], t)
    assert dict(proj.entries()) == {(0,): 0, (1,): 1}


def test_relabel_or_gives_or_image(example6, or_image):
    proj = remove_columns([4], example6)
    got = relabel(lambda r: 1 if (r[0] or r[1]) else 0, proj)
    assert canonical_key(got) == canonical_key(or_image)


def test_relabel_identity_and_constant(example6):
    same = relabel(dict(example6.entries()), example6)
    assert same == example6
    zero = relabel(lambda r: 0, example6)
    assert set(zero.decisions) == {0} and zero.rows == example6.rows


def test_relabel_errors(example6):
    with pytest.raises(PartialRelabeling):
        relabel({(1, 1, 1): 0}, example6)
    with pytest.raises(BadDecision):
        relabel(lambda r: 2, example6)


def test_relabel_rejects_boolean_decisions(example6):
    with pytest.raises(BadDecision):
        relabel(lambda r: True, example6)
    with pytest.raises(BadDecision):
        relabel({row: False for row in example6.rows}, example6)


@given(tables_st(), st.data())
def test_relabel_preserves_shape_and_projection_rows(table, data):
    bits = data.draw(
        st.lists(st.integers(0, 1), min_size=table.n_rows, max_size=table.n_rows)
    )
    nu = dict(zip(table.rows, bits))
    relabeled = relabel(nu, table)
    assert relabeled.n_rows == table.n_rows
    assert relabeled.columns == table.columns
    removed = data.draw(st.sets(st.sampled_from(table.columns)))
    # the row set of a projection never depends on the decisions
    a = remove_columns(removed, table)
    b = remove_columns(removed, relabeled)
    assert sorted(a.rows) == sorted(b.rows)


@given(tables_st(max_cols=3), st.data())
def test_remove_columns_counts(table, data):
    removed = data.draw(st.sets(st.sampled_from(table.columns)))
    proj = remove_columns(removed, table)
    assert proj.n_rows <= table.n_rows
    if len(removed) < table.n_cols:
        assert proj.n_cols == table.n_cols - len(removed)


def test_single_generator_closure_has_five_members():
    enum = enumerate_closure([single_column_table(7)])
    assert len(enum.members) == 5
    assert enum.exhausted
    keys = enum.keys()
    assert canonical_key(empty_table()) in keys
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        t = validate(2, [7], [((0,), bits[0]), ((1,), bits[1])])
        assert canonical_key(t) in keys


def test_closure_of_empty_table():
    enum = enumerate_closure([empty_table()])
    assert [m.key for m in enum.members] == [canonical_key(empty_table())]
    assert enum.exhausted


def test_closure_contains_or_image_with_provenance(example6, or_image):
    enum = enumerate_closure([example6])
    hits = [m for m in enum.members if m.key == canonical_key(or_image)]
    assert len(hits) == 1
    member = hits[0]
    assert member.removed == (Attribute(4),)
    assert member.nu_bits == "0111"


def test_closure_emission_order_and_uniqueness(example6):
    enum = enumerate_closure([example6, single_column_table(2)])
    keys = [m.key for m in enum.members]
    assert len(keys) == len(set(keys))
    shapes = [(m.table.n_cols, m.table.n_rows) for m in enum.members]
    assert shapes == sorted(shapes)


def test_closure_matches_definition_oracle():
    for table in (
        single_column_table(3),
        validate(2, [0, 1], [((0, 0), 1), ((1, 1), 0)]),
        validate(2, [1, 4], [((0, 0), 1), ((0, 1), 0), ((1, 1), 1)]),
        validate(3, [0, 1], [((0, 2), 1), ((2, 1), 0)]),
    ):
        got = enumerate_closure([table]).keys()
        assert got == brute_closure_keys(table)


@settings(max_examples=20)
@given(tables_st(max_cols=2, max_rows=3))
def test_closure_is_idempotent(table):
    first = enumerate_closure([table])
    again = enumerate_closure(first.tables())
    assert again.keys() == first.keys()


def test_closure_limit_truncates(example6):
    enum = enumerate_closure([example6], ClosureLimits(max_tables=10))
    assert len(enum.members) == 10
    assert not enum.exhausted
    full = enumerate_closure([example6])
    assert full.exhausted
    assert full.complete_column_count == example6.n_cols


def test_closure_complete_column_count_tracks_truncation(example6):
    enum = enumerate_closure([example6], ClosureLimits(max_tables=20))
    # 13 members have at most one column; 4-row two-column bases overflow
    assert enum.complete_column_count == 1


def test_closure_max_rows_limit(example6):
    enum = enumerate_closure([example6], ClosureLimits(max_rows=4))
    assert not enum.exhausted
    assert all(m.table.n_rows <= 4 for m in enum.members)


@pytest.mark.parametrize("field", ["max_tables", "max_columns", "max_rows"])
def test_closure_bad_limit_rejected(field):
    for bad in (-1, 2.5, "3", True, False):
        with pytest.raises(BadLimit, match=field):
            ClosureLimits(**{field: bad})
    assert getattr(ClosureLimits(**{field: 0}), field) == 0


@pytest.mark.parametrize(
    "generators, limits, error, match",
    [
        (single_column_table(), ClosureLimits(), TableError, "sequence of tables, got DecisionTable"),
        (None, ClosureLimits(), TableError, "sequence of tables, got NoneType"),
        ([None], ClosureLimits(), TableError, "generator 0 is not a DecisionTable: None"),
        ([single_column_table(), "ab"], ClosureLimits(), TableError, "generator 1 is not a DecisionTable: 'ab'"),
        ([single_column_table()], {"max_tables": 3}, BadLimit, "ClosureLimits, got dict"),
        ([single_column_table()], None, BadLimit, "ClosureLimits, got NoneType"),
    ],
)
def test_closure_arguments_of_the_wrong_type_rejected(monkeypatch, generators, limits, error, match):
    # rejected before the collector is paused
    def disable():
        raise AssertionError("collector paused")

    monkeypatch.setattr(gc, "disable", disable)
    with pytest.raises(error, match=match):
        enumerate_closure(generators, limits)


def test_closure_member_is_slotted_and_frozen(example6):
    members = enumerate_closure([example6]).members
    member = members[-1]
    assert not hasattr(member, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        member.generator_index = 1
    # a name that is no field has no slot; CPython 3.11's frozen __setattr__
    # raises TypeError for it on a slotted class, FrozenInstanceError before
    with pytest.raises((AttributeError, TypeError)):
        member.extra = 1
    assert not hasattr(member, "extra")
    for twin in (
        pickle.loads(pickle.dumps(member)),
        copy.deepcopy(member),
        dataclasses.replace(member),
    ):
        assert type(twin) is ClosureMember
        assert twin == member and hash(twin) == hash(member)
        assert (twin.table, twin.generator_index, twin.removed) == (
            member.table,
            member.generator_index,
            member.removed,
        )
        assert (twin.key, twin.nu_bits) == (member.key, member.nu_bits)
    # equality and hash are the field tuple's, as before slots
    assert hash(member) == hash((member.table, member.generator_index, member.removed))
    assert member != members[-2]
    moved = dataclasses.replace(member, generator_index=1)
    assert moved != member and moved.table == member.table


def test_is_critical_projection(example6):
    proj = remove_columns([4], example6)
    critical, witnesses = is_critical(proj)
    assert critical
    for attr, (a, b) in witnesses.items():
        pos = proj.column_position(attr)
        assert a[pos] != b[pos]
        others = [q for q in range(proj.n_cols) if q != pos]
        assert all(a[q] == b[q] for q in others)


def test_is_critical_worked_example(example6):
    critical, witnesses = is_critical(example6)
    assert critical
    assert set(witnesses) == set(example6.columns)


def pairwise_is_critical(table):
    """``is_critical`` by its definition: per column, the first pair of
    sorted rows (i < j) that differ in that column and nowhere else."""
    witnesses = {}
    if table.is_empty:
        return False, witnesses
    rows = sorted(table.rows)
    for pos, attr in enumerate(table.columns):
        pairs = (
            (a, b)
            for i, a in enumerate(rows)
            for b in rows[i + 1 :]
            if [q for q in range(table.n_cols) if a[q] != b[q]] == [pos]
        )
        found = next(pairs, None)
        if found is None:
            return False, witnesses
        witnesses[attr] = found
    return True, witnesses


def test_is_critical_matches_pairwise_definition():
    verdicts = set()
    shapes = [(2, 1, 2), (2, 2, 3), (2, 3, 3), (2, 3, 6), (2, 3, 8), (3, 2, 3), (3, 2, 9),
              (2, 4, 5), (2, 4, 12), (2, 5, 9), (3, 3, 6), (3, 3, 20), (3, 3, 27)]
    for i, (k, cols, rows) in enumerate(shapes):
        for seed in range(20):
            table = random_table(k, cols, rows, seed=20261019 + 100 * i + seed)
            got = is_critical(table)
            assert got == pairwise_is_critical(table), table
            verdicts.add((got[0], len(got[1]) > 0))
    # critical tables, and non-critical ones failing at the first and at a later column
    assert verdicts == {(True, True), (False, False), (False, True)}


def test_is_critical_negatives():
    single = validate(2, [0, 1], [((0, 1), 1)])
    assert not is_critical(single)[0]
    assert not is_critical(empty_table())[0]
    spread = validate(2, [0, 1], [((0, 0), 0), ((1, 1), 1)])
    assert not is_critical(spread)[0]
