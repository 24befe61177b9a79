"""Closure enumeration against a naive per-member reference.

``enumerate_closure`` stores only each member's table and provenance,
derives its key and ``nu_bits`` on read, and keeps no set of seen keys.
The reference below builds every member directly, with one
``canonical_key`` per member, its own bit string and a visited set.  Both
must emit the same ``(table, key, generator_index, removed, nu_bits)``
tuples in the same order and report the same truncation bookkeeping
under every limit.
"""

import dataclasses
import random
from collections import Counter
from itertools import combinations

import pytest

from dtlab import closure
from dtlab.closure import (
    ClosureLimits,
    ClosureMember,
    enumerate_closure,
    remove_columns,
)
from dtlab.randgen import random_table
from dtlab.tables import DecisionTable, canonical_key, validate


def reference_closure(generators, limits=ClosureLimits()):
    """Every relabeling of every base, deduplicated by canonical key.

    Returns the member tuples, ``exhausted`` and ``complete_column_count``.
    """
    if not generators:
        return [], True, 0
    k = generators[0].k
    members = []
    exhausted = True
    complete_column_count = -1
    visited = set()
    max_cols = max(g.n_cols for g in generators)
    col_ceiling = max_cols if limits.max_columns is None else min(max_cols, limits.max_columns)
    if col_ceiling < max_cols:
        exhausted = False
    stopped = False
    for c in range(col_ceiling + 1):
        bases = {}
        for gi, g in enumerate(generators):
            if g.n_cols < c:
                continue
            for keep in combinations(range(g.n_cols), c):
                removed = tuple(sorted(g.columns[p] for p in range(g.n_cols) if p not in keep))
                proj = remove_columns(removed, g)
                bases.setdefault((proj.columns, tuple(sorted(proj.rows))), (gi, removed))
        level_complete = True
        for base in sorted(bases, key=lambda b: (len(b[1]), tuple(a.index for a in b[0]), b[1])):
            cols, rows = base
            gi, removed = bases[base]
            n = len(rows)
            if limits.max_rows is not None and n > limits.max_rows:
                exhausted = False
                level_complete = False
                continue
            for counter in range(1 << n):
                if limits.max_tables is not None and len(members) >= limits.max_tables:
                    exhausted = False
                    level_complete = False
                    stopped = True
                    break
                decisions = tuple((counter >> j) & 1 for j in range(n))
                member = DecisionTable(k, cols, rows, decisions)
                key = canonical_key(member)
                if key in visited:
                    continue
                visited.add(key)
                members.append((member, key, gi, removed, "".join(map(str, decisions))))
            if stopped:
                break
        if level_complete and complete_column_count == c - 1:
            complete_column_count = c
        if stopped:
            break
    return members, exhausted, complete_column_count


def summary(enum):
    members = [(m.table, m.key, m.generator_index, m.removed, m.nu_bits) for m in enum.members]
    return members, enum.exhausted, enum.complete_column_count


def assert_same(generators, limits=ClosureLimits()):
    """Same members as the reference, each as its constructors would build it."""
    got = enumerate_closure(generators, limits)
    assert summary(got) == reference_closure(generators, limits)
    for m in got.members:
        assert type(m) is ClosureMember and type(m.table) is DecisionTable
        # slotted: a table holds its four fields and nothing else
        assert not hasattr(m.table, "__dict__")
        t = m.table
        twin = ClosureMember(DecisionTable(t.k, t.columns, t.rows, t.decisions), m.generator_index, m.removed)
        assert m == twin and hash(m) == hash(twin)
        assert m.key == canonical_key(m.table)
    return got


ZERO_ROWS = validate(2, ["f0", "f1"], [])

GENERATOR_SETS = {
    "k2-odd": [random_table(2, 3, 5, seed=11)],
    "k2-even": [random_table(2, 4, 8, seed=12)],
    "k2-one-row": [random_table(2, 3, 1, seed=13)],
    "k3-odd": [random_table(3, 2, 7, seed=14)],
    "k3-three-cols": [random_table(3, 3, 6, seed=15)],
    "k3-one-row": [random_table(3, 2, 1, seed=16)],
    "k2-multi": [random_table(2, 3, 4, seed=17), random_table(2, 2, 3, seed=18)],
    "k3-multi": [random_table(3, 2, 3, seed=19), random_table(3, 3, 4, seed=20)],
    "zero-rows": [ZERO_ROWS],
    "zero-rows-first": [ZERO_ROWS, random_table(2, 2, 3, seed=21)],
    "zero-rows-last": [random_table(2, 3, 3, seed=22), ZERO_ROWS],
    "zero-rows-twice": [ZERO_ROWS, validate(2, ["f3"], [])],
    "zero-rows-around": [ZERO_ROWS, random_table(2, 2, 3, seed=23), validate(2, ["f3"], [])],
}


@pytest.mark.parametrize("name", sorted(GENERATOR_SETS))
def test_unlimited_matches_reference(name):
    got = assert_same(GENERATOR_SETS[name])
    assert got.exhausted


@pytest.mark.parametrize("name", sorted(GENERATOR_SETS))
def test_members_are_built_without_their_constructors(monkeypatch, name):
    # only the remove_columns projections go through a constructor; every
    # member, the zero-row one included, is built field by field
    inits = Counter()
    for cls in (DecisionTable, ClosureMember):
        def counting(self, *args, _real=cls.__init__, _cls=cls):
            inits[_cls] += 1
            _real(self, *args)

        monkeypatch.setattr(cls, "__init__", counting)
    projections = []

    def projecting(removed, table):
        projections.append(removed)
        return remove_columns(removed, table)

    monkeypatch.setattr(closure, "remove_columns", projecting)
    enumerate_closure(GENERATOR_SETS[name])
    assert inits[ClosureMember] == 0
    assert inits[DecisionTable] <= len(projections)


def runs_by_value(members):
    """The tables of each run of consecutive members with equal columns and
    rows, grouped one member at a time."""
    runs = []
    for m in members:
        if runs and (runs[-1][-1].columns, runs[-1][-1].rows) == (m.table.columns, m.table.rows):
            runs[-1].append(m.table)
        else:
            runs.append([m.table])
    return runs


@pytest.mark.parametrize("order", ["emitted", "reversed", "shuffled", "copied"])
@pytest.mark.parametrize("name", sorted(GENERATOR_SETS))
def test_base_tables_groups_runs_by_value(name, order):
    members = enumerate_closure(GENERATOR_SETS[name]).members
    bases = {(m.table.columns, m.table.rows) for m in members}
    if order == "reversed":
        members = members[::-1]
    elif order == "shuffled":
        members = list(members)
        random.Random(20261019).shuffle(members)
    elif order == "copied":  # equal columns and rows held in distinct tuples
        members = [
            dataclasses.replace(m, table=dataclasses.replace(
                m.table, columns=tuple(list(m.table.columns)), rows=tuple(list(m.table.rows))
            ))
            for m in members
        ]
    got = list(closure._base_tables(members))
    assert got == runs_by_value(members)
    # the members' own tables, in member order
    assert [id(t) for run in got for t in run] == [id(m.table) for m in members]
    if order != "shuffled":  # each base's members are one run
        assert len(got) == len(bases)


def base_ends(enum):
    """Member counts at which one base's relabelings end and the next begin."""
    bases = [(m.table.columns, m.table.rows) for m in enum.members]
    return [i for i in range(1, len(bases)) if bases[i] != bases[i - 1]]


@pytest.mark.parametrize("name", sorted(GENERATOR_SETS))
def test_table_limits_match_reference(name):
    # every count from 0 past the whole closure.  At 0, 1, the count
    # through each base, one short of and one past it, and the whole
    # closure, each member is also checked against its constructor-built
    # twin; with zero-row generators a count through a base can stop the
    # walk just before a repeated zero-row member.  The other counts cut
    # inside a base, and compare tables and provenance: equal tables have
    # equal keys and bits
    generators = GENERATOR_SETS[name]
    full = enumerate_closure(generators)
    total = len(full.members)
    twins = {0, 1, total, total + 1}
    for end in base_ends(full):
        twins |= {end - 1, end, end + 1}
    for max_tables in range(total + 2):
        limits = ClosureLimits(max_tables=max_tables)
        if max_tables in twins:
            assert_same(generators, limits)
            continue
        got = enumerate_closure(generators, limits)
        members, exhausted, complete_column_count = reference_closure(generators, limits)
        assert [(m.table, m.generator_index, m.removed) for m in got.members] == [
            (table, gi, removed) for table, _, gi, removed, _ in members
        ]
        assert (got.exhausted, got.complete_column_count) == (exhausted, complete_column_count)


@pytest.mark.parametrize("name", sorted(GENERATOR_SETS))
def test_row_and_column_limits_match_reference(name):
    generators = GENERATOR_SETS[name]
    for bound in range(5):
        assert_same(generators, ClosureLimits(max_rows=bound))
        assert_same(generators, ClosureLimits(max_columns=bound))
        assert_same(generators, ClosureLimits(max_tables=7 * bound, max_rows=bound, max_columns=2))


def test_zero_row_members_emitted_once():
    for name in ("zero-rows-first", "zero-rows-twice", "zero-rows-around"):
        enum = assert_same(GENERATOR_SETS[name])
        empties = [m for m in enum.members if m.table.is_empty]
        assert len(empties) == 1
        assert empties[0].key == "empty"


def test_larger_closure_matches_reference():
    assert_same([random_table(2, 4, 12, seed=23)])
    assert_same([random_table(3, 3, 11, seed=24)], ClosureLimits(max_tables=3000))


# wide generators, where few column subsets project to max_rows rows or fewer
WIDE_SETS = {
    "k2-wide": [random_table(2, 7, 9, seed=25)],
    "k3-wide": [random_table(3, 5, 6, seed=26)],
    "k2-wide-multi": [random_table(2, 6, 5, seed=27), random_table(2, 7, 3, seed=28)],
    "k2-wide-zero-rows": [random_table(2, 6, 4, seed=29), ZERO_ROWS],
}


@pytest.mark.parametrize("name", sorted(WIDE_SETS))
@pytest.mark.parametrize("max_rows", [0, 1, 2])
def test_max_rows_stop_matches_reference(name, max_rows):
    generators = WIDE_SETS[name]
    assert_same(generators, ClosureLimits(max_rows=max_rows))
    assert_same(generators, ClosureLimits(max_rows=max_rows, max_columns=3))
    assert_same(generators, ClosureLimits(max_rows=max_rows, max_tables=5))


def test_max_rows_stop_skips_later_levels(monkeypatch):
    # a projection of a nonempty table onto one column or more has a row,
    # so with max_rows 0 only the zero-column base is kept and the walk
    # stops after the one-column level instead of projecting all 2^18 subsets
    calls = []

    def counting(removed, table):
        calls.append(removed)
        return remove_columns(removed, table)

    monkeypatch.setattr(closure, "remove_columns", counting)
    table = random_table(2, 18, 3, seed=1)
    enum = enumerate_closure([table], ClosureLimits(max_tables=100000, max_rows=0))
    assert [m.table.n_rows for m in enum.members] == [0]
    assert (enum.exhausted, enum.complete_column_count) == (False, 0)
    assert len(calls) == 1 + 18


@pytest.mark.parametrize("max_rows, calls_made, members", [(1, 50, 63), (2, 939, 3263)])
def test_walk_extends_only_fitting_column_sets(monkeypatch, max_rows, calls_made, members):
    # a superset of a column set that does not fit max_rows cannot fit, so
    # only the fitting sets of a level are extended to the next one
    calls = []

    def counting(removed, table):
        calls.append(removed)
        return remove_columns(removed, table)

    monkeypatch.setattr(closure, "remove_columns", counting)
    table = random_table(2, 14, 3, seed=5)
    enum = enumerate_closure([table], ClosureLimits(max_rows=max_rows))
    assert (len(calls), len(enum.members)) == (calls_made, members)
    monkeypatch.undo()
    assert summary(enum) == reference_closure([table], ClosureLimits(max_rows=max_rows))
