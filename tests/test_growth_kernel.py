"""The bound-pruned growth sweep against the all-members reference loop.

``growth`` solves a member's objective only when an upper bound on it
(the member's attribute-set cost, for FTheta its own filter value, the
min test cost, or for G the worst row separation cost of its base)
exceeds the running value at the member's filter point.  Within a
base, G first solves the member whose only 1-row is the worst-separated
row, and FW the parity labelling.  The reference below is the plain
loop it replaced: filter and objective for every member, then a max per
point.
Both must give the same report, raise where the other raises, and the
inequalities the bound rests on are pinned here as well.

A fresh enumeration hands the sweeps each base from its own records;
members that a caller reordered, replaced, added or removed are grouped
by value instead.  ``class_stats`` reads the same runs and is checked
against a per-member reference too.
"""

import dataclasses
import random
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtlab import closure, explorer, solvers
from dtlab.closure import ClosureLimits, enumerate_closure
from dtlab.constructions import identity_table, single_attribute_generators, unit_rows_family
from dtlab.explorer import (
    GROWTH_FUNCTIONS,
    MAX_GROWTH_N,
    ClassStats,
    GrowthPoint,
    GrowthReport,
    class_stats,
    growth,
)
from dtlab.measures import (
    NotDecomposable,
    additive,
    depth,
    max_weight,
    opaque,
    sum_of,
    table_costs,
)
from dtlab.randgen import SplitMix64, random_table
from dtlab.solvers import det_tree_cost, min_test_cost, snd_tree_cost
from dtlab.tables import DtError, TooLarge, validate
from dtlab.verify import standard_measures

from conftest import tables_st


def _member_stats(measure, table, fn):
    """(filter value, objective value) of one closure member for one growth fn."""
    if fn == "FW":
        return table_costs(measure, table)[0], det_tree_cost(measure, table)[0]
    if fn == "FTheta":
        return min_test_cost(measure, table)[0], det_tree_cost(measure, table)[0]
    if fn == "F":
        return snd_tree_cost(measure, table)[0], det_tree_cost(measure, table)[0]
    if fn == "G":
        return table_costs(measure, table)[0], snd_tree_cost(measure, table)[0]
    raise DtError(f"unknown growth function {fn!r}")


def reference_reports(fn, enum, measure, max_ns, label=""):
    """The report of every max_n in ``max_ns``, solving every member once."""
    pairs = [_member_stats(measure, m, fn) for m in enum.members]
    reports = {}
    for max_n in max_ns:
        points = []
        for n in range(max_n + 1):
            value = max((obj for filt, obj in pairs if filt <= n), default=0)
            exhausted = enum.exhausted or (fn in ("FW", "G") and n <= enum.complete_column_count)
            points.append(GrowthPoint(n, value, exhausted, fn == "F" and not exhausted))
        reports[max_n] = GrowthReport(
            fn=fn,
            points=points,
            generator_label=label,
            measure_label=measure.describe(),
            members_seen=len(enum.members),
            closure_exhausted=enum.exhausted,
            members_solved=len(enum.members),
        )
    return reports


def public(report):
    """Every field but the solve counter, which the reference does not share."""
    fields = dataclasses.asdict(report)
    del fields["members_solved"]
    return fields


def assert_matches(fn, gens, measure, enum, max_ns, label=""):
    want = reference_reports(fn, enum, measure, max_ns, label)
    for max_n in max_ns:
        got = growth(fn, gens, measure, max_n, generator_label=label, enumeration=enum)
        assert public(got) == public(want[max_n]), (fn, max_n)
        assert 0 <= got.members_solved <= got.members_seen


MAX_NS = (0, 1, 3, 8)

MEASURES = {
    "depth": depth,
    "additive": lambda: additive({i: (1, 3, 2)[i % 3] for i in range(8)}),
    "sum": lambda: sum_of(max_weight({0: 3, 2: 2}), depth()),
}

GENERATORS = {
    "k2": lambda: [random_table(2, 3, 6, seed=11)],
    "k3": lambda: [random_table(3, 2, 6, seed=13)],
    "k2-multi": lambda: [random_table(2, 3, 5, seed=14), random_table(2, 2, 3, seed=15)],
    "k3-multi": lambda: [random_table(3, 2, 4, seed=16), random_table(3, 2, 5, seed=17)],
}

LIMITS = {
    "full": ClosureLimits(),
    "max_tables": ClosureLimits(max_tables=37),
    "max_columns": ClosureLimits(max_columns=1),
}


@lru_cache(maxsize=None)
def seeded_case(gens_name, limits_name):
    gens = GENERATORS[gens_name]()
    return gens, enumerate_closure(gens, LIMITS[limits_name])


@pytest.mark.parametrize("fn", GROWTH_FUNCTIONS)
@pytest.mark.parametrize("measure_name", MEASURES)
@pytest.mark.parametrize("limits_name", LIMITS)
@pytest.mark.parametrize("gens_name", GENERATORS)
def test_sweep_matches_reference_seeded(gens_name, limits_name, measure_name, fn):
    gens, enum = seeded_case(gens_name, limits_name)
    assert_matches(fn, gens, MEASURES[measure_name](), enum, MAX_NS)


def _staircase():
    return [identity_table(m) for m in range(1, 6)], depth(), 5


def _steps():
    gens, measure = single_attribute_generators({2, 5, 9})
    return gens, measure, 12


def _unit_rows():
    members = [unit_rows_family((0, 1, 4, 9), n) for n in range(1, 4)]
    return [f.table for f in members], members[-1].measure, 3


@pytest.mark.parametrize("fn", GROWTH_FUNCTIONS)
@pytest.mark.parametrize("scenario", [_staircase, _steps, _unit_rows])
def test_sweep_matches_reference_planted(scenario, fn):
    gens, measure, max_n = scenario()
    enum = enumerate_closure(gens)
    assert_matches(fn, gens, measure, enum, sorted(set(MAX_NS + (max_n,))), label="planted")


def _opaque_sum():
    return sum_of(depth(), opaque(lambda idx: len(idx)))


def test_opaque_part_solves_every_member():
    """The bound rests on the measure axioms, which opaque code need not keep."""
    gens, enum = seeded_case("k2", "full")
    measure = _opaque_sum()
    assert_matches("G", gens, measure, enum, MAX_NS)
    assert growth("G", gens, measure, 3, enumeration=enum).members_solved == len(enum.members)


@pytest.mark.parametrize("fn", ["FW", "FTheta", "F"])
def test_undecomposable_objective_still_raises(fn):
    gens = [identity_table(2)]
    measure = _opaque_sum()
    with pytest.raises(NotDecomposable):
        reference_reports(fn, enumerate_closure(gens), measure, [0])
    with pytest.raises(NotDecomposable):
        growth(fn, gens, measure, max_n=0)


@pytest.mark.parametrize("measure", [depth, _opaque_sum])
@pytest.mark.parametrize("fn", GROWTH_FUNCTIONS)
def test_empty_generator_set_still_returns(fn, measure):
    report = growth(fn, [], measure(), max_n=2)
    assert report.values() == [0, 0, 0]
    assert report.members_seen == report.members_solved == 0


def test_wide_member_still_raises_too_large(monkeypatch):
    """``snd_tree_cost`` refuses members wider than its guard rail; G must
    still reach that raise on a member whose filter exceeds max_n."""
    monkeypatch.setattr(solvers, "MAX_SUBSET_COLUMNS", 2)
    monkeypatch.setattr(explorer, "MAX_SUBSET_COLUMNS", 2)
    gens = [random_table(2, 3, 5, seed=14)]
    with pytest.raises(TooLarge):
        reference_reports("G", enumerate_closure(gens), depth(), [1])
    with pytest.raises(TooLarge):
        growth("G", gens, depth(), max_n=1)


def test_bound_prunes_explore_shaped_closure():
    # the parity lead is tuned for k = 2, so a k = 3 generator goes too
    for gens in ([random_table(2, 4, 11, seed=3)], [random_table(3, 3, 10, seed=3)]):
        enum = enumerate_closure(gens)
        for fn in ("FW", "G"):
            report = growth(fn, gens, depth(), 5, enumeration=enum)
            assert report.members_solved < report.members_seen
            assert public(report) == public(reference_reports(fn, enum, depth(), [5])[5])


@pytest.mark.parametrize("shape, column_set_solves", [((2, 4, 11), 884), ((3, 3, 10), 571)])
def test_ftheta_is_bounded_by_its_own_filter(shape, column_set_solves):
    """det <= min test cost, FTheta's filter value f, and f <= u, so
    bounding a member by f in place of its column-set cost u solves fewer
    members of the ``explore``-shaped closures than the 884 and 571 that u
    left, and raises the same points."""
    gens = [random_table(*shape, seed=3)]
    enum = enumerate_closure(gens)
    report = growth("FTheta", gens, depth(), 5, enumeration=enum)
    assert report.members_solved < column_set_solves
    assert public(report) == public(reference_reports("FTheta", enum, depth(), [5])[5])


@pytest.mark.parametrize("gens_name", ["k2", "k3", "k2-multi", "k3-multi"])
@pytest.mark.parametrize("measure_name", MEASURES)
def test_fw_never_separates_rows(monkeypatch, gens_name, measure_name):
    """FW's bound is the column-set cost and its lead the parity
    labelling, so it needs no row separation costs."""

    def refuse(measure, table):
        raise AssertionError("FW asked for row separations")

    monkeypatch.setattr(explorer, "_row_separations", refuse)
    gens, enum = seeded_case(gens_name, "full")
    assert_matches("FW", gens, MEASURES[measure_name](), enum, MAX_NS)


def test_fw_solves_parity_lead_once():
    """On the generator of ``explore`` benchmark variant 4, FW solves the
    parity labelling first and no other lead: 4 solves where the worst-row
    lead in front of it made 5."""
    gens = [random_table(2, 4, 11, seed=SplitMix64(20261004).next_u64())]
    enum = enumerate_closure(gens)
    report = growth("FW", gens, depth(), 5, enumeration=enum)
    assert report.members_solved == 4
    assert public(report) == public(reference_reports("FW", enum, depth(), [5])[5])


def _bases(enum):
    return {(m.columns, m.rows) for m in enum.members}


@pytest.mark.parametrize("seed", range(6))
def test_g_solves_one_member_per_base(seed):
    """G solves only the one-1-row member of the worst row of a base, whose
    cost is the base's bound, so no base costs a second solve."""
    gens = [random_table(2, 4, 9, seed=seed)]
    enum = enumerate_closure(gens)
    report = growth("G", gens, depth(), 5, enumeration=enum)
    assert report.members_solved <= len(_bases(enum))
    assert public(report) == public(reference_reports("G", enum, depth(), [5])[5])


def test_g_flat_base_costs_one_solve():
    """A base whose worst row separation is below its column count: G's
    value flattens there, yet the base costs one solve, not one per member."""
    flat = random_table(2, 3, 6, seed=7)
    assert solvers.table_separation_cost(depth(), flat) < flat.n_cols
    enum = enumerate_closure([flat])
    report = growth("G", [flat], depth(), 3, enumeration=enum)
    assert report.values()[3] < 3
    assert report.members_solved <= len(_bases(enum))
    assert public(report) == public(reference_reports("G", enum, depth(), [3])[3])


def test_fw_value_above_worst_row_separation():
    """det can exceed every row separation cost (here FW reaches 4 on a
    four-column base whose rows separate with 3), so s bounds G only."""
    gens = [random_table(2, 4, 8, seed=7)]
    assert solvers.table_separation_cost(depth(), gens[0]) == 3
    enum = enumerate_closure(gens)
    report = growth("FW", gens, depth(), 4, enumeration=enum)
    assert report.values()[4] == 4
    assert report.members_solved <= 2 * len(_bases(enum))  # the parity member reaches 4
    assert public(report) == public(reference_reports("FW", enum, depth(), [4])[4])


@pytest.mark.parametrize("fn", ["FW", "G"])
@pytest.mark.parametrize("gens_name", ["k2", "k3", "k2-multi"])
def test_sweep_matches_reference_without_one_1_row_members(gens_name, fn):
    """An enumeration need not hold the member a base's sweep tries first."""
    gens, enum = seeded_case(gens_name, "full")
    members = [m for m in enum.members if sum(m.decisions) != 1]
    assert_matches(fn, gens, depth(), dataclasses.replace(enum, members=members), MAX_NS)


@pytest.mark.parametrize("fn", ["FW", "G"])
def test_sweep_matches_reference_adjacent_bases_on_one_column_set(fn):
    """Two bases with the same column tuple but different rows, back to
    back, in both orders: each keeps its own separation costs."""
    sparse = validate(2, range(3), [((0, 0, 0), 1), ((0, 1, 1), 0), ((1, 0, 1), 0), ((1, 1, 0), 0)])
    dense = validate(2, range(3), [((0, 0, 0), 1), ((0, 0, 1), 0), ((0, 1, 0), 0), ((1, 0, 0), 0)])
    assert solvers.table_separation_cost(depth(), sparse) < solvers.table_separation_cost(depth(), dense)
    full = [[m for m in enumerate_closure([g]).members if m.n_cols == 3] for g in (sparse, dense)]
    shared = full[0][0].columns  # one column tuple object for both bases
    full[1] = [dataclasses.replace(m, columns=shared) for m in full[1]]
    for members in (full[0] + full[1], full[1] + full[0]):
        enum = dataclasses.replace(enumerate_closure([sparse]), members=members)
        assert_matches(fn, [sparse, dense], depth(), enum, [3])


@pytest.mark.parametrize("fn", GROWTH_FUNCTIONS)
def test_zero_row_member_with_columns(fn):
    """A zero-row table has no row to separate; its tree costs are 0."""
    gens, enum = seeded_case("k2", "full")
    blank = validate(2, range(3), [])
    enum = dataclasses.replace(enum, members=[blank] + enum.members)
    assert_matches(fn, gens, depth(), enum, MAX_NS)


@pytest.mark.parametrize("fn", ["FW", "G"])
def test_sweep_matches_reference_at_every_truncation(fn):
    """``max_tables`` can cut a base before or after its one-1-row member."""
    gens = [random_table(2, 3, 5, seed=14)]
    full = enumerate_closure(gens)
    for limit in range(len(full.members) + 2):
        enum = enumerate_closure(gens, ClosureLimits(max_tables=limit))
        assert_matches(fn, gens, depth(), enum, [3])


@pytest.mark.parametrize("fn", GROWTH_FUNCTIONS)
@pytest.mark.parametrize("order", ["reversed", "shuffled", "copied"])
def test_sweep_matches_reference_out_of_emission_order(order, fn):
    """Any member order: bases split into several runs, one-1-row members
    away from position 2^j, equal rows held in distinct tuples."""
    gens, enum = seeded_case("k2-multi", "full")
    members = list(enum.members)
    if order == "reversed":
        members.reverse()
    elif order == "shuffled":
        random.Random(20261018).shuffle(members)
    else:
        members = [
            dataclasses.replace(m, columns=tuple(list(m.columns)), rows=tuple(list(m.rows)))
            for m in members
        ]
    moved = dataclasses.replace(enum, members=members)
    assert_matches(fn, gens, depth(), moved, MAX_NS)
    solved = growth(fn, gens, depth(), 8, enumeration=moved).members_solved
    if fn == "G" and order == "reversed":  # whole bases, so still one solve each
        assert solved <= len(_bases(moved))
    if order == "copied":  # bases are grouped by value, not by tuple identity
        assert solved == growth(fn, gens, depth(), 8, enumeration=enum).members_solved
        if fn in ("FW", "G"):
            assert solved == 3


def test_bound_inequalities_seeded():
    """det <= min test cost <= attr-set cost and snd <= det, the
    inequalities that make skipping a member's objective safe."""
    rng = SplitMix64(20261018)
    for _ in range(200):
        k = 2 + rng.below(2)
        cols = 1 + rng.below(5 if k == 2 else 4)
        rows = 1 + rng.below(min(12, k**cols))
        table = random_table(k, cols, rows, seed=rng)
        for name, measure in standard_measures():
            det = det_tree_cost(measure, table)[0]
            theta = min_test_cost(measure, table)[0]
            attr_set = table_costs(measure, table)[0]
            snd = snd_tree_cost(measure, table)[0]
            assert det <= theta <= attr_set, (name, table)
            assert snd <= det, (name, table)


def test_separation_bound_seeded():
    """snd <= max separation cost of the 1-rows <= worst row separation
    cost, with equality for the member whose only 1-row is the worst row:
    the bound and the lead member behind G's one solve per base."""
    rng = SplitMix64(20261019)
    for _ in range(120):
        k = 2 + rng.below(2)
        cols = 1 + rng.below(5 if k == 2 else 4)
        rows = 1 + rng.below(min(12, k**cols))
        table = random_table(k, cols, rows, seed=rng)
        for name, measure in standard_measures():
            seps = [solvers.row_separation_cost(measure, table, r)[0] for r in table.rows]
            snd = snd_tree_cost(measure, table)[0]
            assert snd <= max((s for s, d in zip(seps, table.decisions) if d), default=0), (name, table)
            j = seps.index(max(seps))
            lead = dataclasses.replace(table, decisions=tuple(int(i == j) for i in range(table.n_rows)))
            assert snd_tree_cost(measure, lead)[0] == max(seps), (name, table)
            assert det_tree_cost(measure, lead)[0] >= max(seps), (name, table)


def reference_class_stats(enum, measure, n):
    """Count and extremes over every member whose single attributes cost at most n."""
    kept = [m for m in enum.members if table_costs(measure, m)[1] <= n]
    return ClassStats(
        members=len(kept),
        max_separation=max((solvers.table_separation_cost(depth(), m) for m in kept), default=0),
        max_rows=max((m.n_rows for m in kept), default=0),
        exhausted=enum.exhausted,
    )


STATS_NS = (0, 1, 2, 3, 8)


def assert_everything_matches(gens, measure, enum):
    """Every growth function and ``class_stats`` against their references."""
    for fn in GROWTH_FUNCTIONS:
        assert_matches(fn, gens, measure, enum, MAX_NS)
    for n in STATS_NS:
        got = class_stats(gens, measure, n, enumeration=enum)
        assert got == reference_class_stats(enum, measure, n), n


def refuse_grouping(monkeypatch):
    def refuse(members):
        raise AssertionError("members grouped by value")

    monkeypatch.setattr(closure, "_base_tables", refuse)


def count_grouping(monkeypatch):
    calls = []
    group = closure._base_tables
    monkeypatch.setattr(closure, "_base_tables", lambda members: calls.append(1) or group(members))
    return calls


@pytest.mark.parametrize("measure_name", MEASURES)
@pytest.mark.parametrize("limits_name", LIMITS)
@pytest.mark.parametrize("gens_name", GENERATORS)
def test_fresh_enumeration_reads_its_base_records(monkeypatch, gens_name, limits_name, measure_name):
    gens, enum = seeded_case(gens_name, limits_name)
    refuse_grouping(monkeypatch)
    assert_everything_matches(gens, MEASURES[measure_name](), enum)


@pytest.mark.parametrize("gens_name", GENERATORS)
def test_stale_records_after_in_place_edits(monkeypatch, gens_name):
    """The member list stays the caller's to change in place: a swap of
    two members of different bases, an append and a pop all leave the
    base records stale, and the sweeps group by value until the list
    equals the emitted one again."""
    gens = GENERATORS[gens_name]()
    enum = enumerate_closure(gens)
    members = enum.members
    i, j = enum.bases[1].start + 1, enum.bases[-1].start + 1
    assert (members[i].columns, members[i].rows) != (members[j].columns, members[j].rows)
    calls = count_grouping(monkeypatch)
    members[i], members[j] = members[j], members[i]
    assert_everything_matches(gens, depth(), enum)
    # a distinct copy of a member, equal by value
    m = members[j]
    members.append(dataclasses.replace(m, columns=tuple(list(m.columns)), rows=tuple(list(m.rows))))
    assert_everything_matches(gens, depth(), enum)
    members.pop()  # as long as the emitted list, still swapped
    assert_everything_matches(gens, depth(), enum)
    assert calls
    members[i], members[j] = members[j], members[i]
    refuse_grouping(monkeypatch)
    assert_everything_matches(gens, depth(), enum)
    # members replaced by equal tables in place: the records still hold
    members[:] = [dataclasses.replace(m, decisions=tuple(list(m.decisions))) for m in members]
    assert_everything_matches(gens, depth(), enum)


def test_replaced_enumeration_carries_no_records(monkeypatch):
    """``dataclasses.replace`` keeps ``bases`` but not the emitted members,
    so even an unchanged member list is grouped by value."""
    gens, enum = seeded_case("k2", "full")
    moved = dataclasses.replace(enum, members=list(enum.members))
    assert moved.bases == enum.bases and moved == enum
    calls = count_grouping(monkeypatch)
    assert_matches("G", gens, depth(), moved, MAX_NS)
    assert calls


def member_order(enum, order):
    """The enumeration with its members fresh, reversed, shuffled, copied
    (equal columns and rows in distinct tuples) or filtered."""
    members = list(enum.members)
    if order == "fresh":
        return enum
    if order == "reversed":
        members.reverse()
    elif order == "shuffled":
        random.Random(20261032).shuffle(members)
    elif order == "copied":
        members = [
            dataclasses.replace(m, columns=tuple(list(m.columns)), rows=tuple(list(m.rows)))
            for m in members
        ]
    else:  # filtered: whole one-member bases go too
        members = [m for i, m in enumerate(members) if i % 3]
    return dataclasses.replace(enum, members=members)


@pytest.mark.parametrize("order", ["fresh", "reversed", "shuffled", "copied", "filtered"])
@pytest.mark.parametrize("limits_name", LIMITS)
@pytest.mark.parametrize("gens_name", GENERATORS)
def test_class_stats_matches_reference(gens_name, limits_name, order):
    gens, enum = seeded_case(gens_name, limits_name)
    enum = member_order(enum, order)
    for measure_name, make in MEASURES.items():
        for n in STATS_NS:
            got = class_stats(gens, make(), n, enumeration=enum)
            assert got == reference_class_stats(enum, make(), n), (measure_name, n)


@st.composite
def generator_sets(draw):
    """One or two generators sharing k in {2, 3}, each of at most 3 columns
    and 6 rows."""
    first = draw(tables_st())
    more = draw(st.lists(tables_st().filter(lambda t: t.k == first.k), max_size=1))
    return [first, *more]


@given(st.data())
def test_sweep_matches_reference_property(data):
    """A drawn closure cut by a drawn ``max_tables``, its members kept in
    emission order, permuted or filtered: every growth function equals
    the all-members reference."""
    gens = data.draw(generator_sets(), label="generators")
    limit = data.draw(st.none() | st.integers(0, 150), label="max_tables")
    enum = enumerate_closure(gens, ClosureLimits(max_tables=limit))
    order = data.draw(st.sampled_from(["emitted", "permuted", "filtered"]), label="order")
    if order == "permuted":
        enum = dataclasses.replace(enum, members=data.draw(st.permutations(enum.members)))
    elif order == "filtered":
        keep = data.draw(st.lists(st.booleans(), min_size=len(enum.members), max_size=len(enum.members)))
        enum = dataclasses.replace(enum, members=[m for m, k in zip(enum.members, keep) if k])
    measure = MEASURES[data.draw(st.sampled_from(sorted(MEASURES)), label="measure")]()
    max_n = data.draw(st.integers(0, 4), label="max_n")
    for fn in GROWTH_FUNCTIONS:
        want = reference_reports(fn, enum, measure, [max_n])[max_n]
        assert public(growth(fn, gens, measure, max_n, enumeration=enum)) == public(want), fn


def test_max_n_past_the_guard_rail_raises_too_large(monkeypatch):
    gens = [identity_table(2)]
    assert len(growth("FW", gens, depth(), MAX_GROWTH_N).points) == MAX_GROWTH_N + 1

    def refuse(*args):
        raise AssertionError("enumerated a closure past the guard rail")

    monkeypatch.setattr(explorer, "enumerate_closure", refuse)
    for max_n in (MAX_GROWTH_N + 1, 10**8):
        with pytest.raises(TooLarge, match=rf"^max_n {max_n} exceeds the {MAX_GROWTH_N}-point guard rail"):
            growth("FW", gens, depth(), max_n)
