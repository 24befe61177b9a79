"""The lane walker against a per-query scalar reference written here.

Each reference answers one query at a time: it lists every column subset
in (cost, index-tuple) order by sorting, and takes the first subset whose
agreeing rows all carry the query's label or none do.  It shares no code
with the solvers' subset order or walkers.
"""

import math
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtlab import solvers
from dtlab.constructions import identity_table
from dtlab.measures import depth
from dtlab.randgen import SplitMix64, random_table
from dtlab.solvers import (
    _row_separations,
    closure_separation_cost,
    fixing_cost,
    snd_tree_cost,
)
from dtlab.tables import LANE_BITS, _bits_of
from dtlab.trees import complete_paths
from dtlab.verify import standard_measures

import oracles
from conftest import tables_st

MEASURES = standard_measures()


def full_sweep(measure, table):
    """The fixing sweep under a cap that no tuple reaches."""
    return solvers._fixing_sweep(solvers._subset_order(measure, table.columns), table, 10**9)


def seeded_tables():
    """Tables of many shapes, drawn from one splitmix64 stream."""
    rng = SplitMix64(2026)
    out = []
    for _ in range(40):
        k = 2 + rng.below(3)
        cols = 1 + rng.below(6 if k == 2 else 4)
        rows = 1 + rng.below(min(45, k**cols))
        out.append(random_table(k, cols, rows, seed=rng.next_u64()))
    out += [identity_table(m) for m in (3, 6, 9)]
    return out


TABLES = seeded_tables()


class Reference:
    """One table under one measure, queried one row or tuple at a time."""

    def __init__(self, measure, table):
        self.table = table
        cols = sorted(table.columns)
        subsets = [s for size in range(len(cols) + 1) for s in combinations(cols, size)]
        keyed = sorted((measure.set_cost(s), tuple(a.index for a in s), s) for s in subsets)
        position = {a: p for p, a in enumerate(table.columns)}
        self.subsets = [(cost, s, [position[a] for a in s]) for cost, _, s in keyed]
        self.value_rows = [
            [sum(1 << i for i, row in enumerate(table.rows) if row[p] == v) for v in range(table.k)]
            for p in range(table.n_cols)
        ]
        self.ones = sum(d << i for i, d in enumerate(table.decisions))

    def first(self, values, labels):
        """(cost, attributes) of the first subset on which the rows
        agreeing with ``values`` all lie in the row mask ``labels`` or all
        outside it."""
        for cost, attrs, positions in self.subsets:
            agree = (1 << self.table.n_rows) - 1
            for p in positions:
                agree &= self.value_rows[p][values[p]]
            if agree & labels in (0, agree):
                return cost, attrs
        raise AssertionError("the full column set answers every query")

    def row_separations(self):
        return [self.first(row, 1 << i) for i, row in enumerate(self.table.rows)]

    def rules(self):
        """Each 1-row's minimal true rule as (cost, fixings)."""
        out = []
        for row, d in self.table.entries():
            if d:
                cost, attrs = self.first(row, self.ones)
                out.append((cost, tuple((a, row[self.table.column_position(a)]) for a in attrs)))
        return out

    def fixing(self):
        """The worst fixing cost over every tuple and its first worst tuple."""
        best, worst = -1, None
        for values in product(range(self.table.k), repeat=self.table.n_cols):
            cost = self.first(values, self.ones)[0]
            if cost > best:
                best, worst = cost, values
        return best, worst


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(solvers, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, name, counted)
    return calls


@pytest.mark.parametrize("t", range(len(TABLES)))
def test_row_searches_match_the_reference(t):
    table = TABLES[t]
    for _, measure in MEASURES:
        ref = Reference(measure, table)
        assert _row_separations(measure, table) == ref.row_separations()
        value, tree = snd_tree_cost(measure, table)
        if table.n_rows and len(set(table.decisions)) == 2:
            rules = ref.rules()
            assert value == max(c for c, _ in rules)
            assert {p.fixings for p in complete_paths(tree)} == {fx for _, fx in rules}
        assert closure_separation_cost(measure, table) == oracles.brute_closure_separation(measure, table)


@pytest.mark.parametrize("min_lanes", [1, 10**9])
def test_few_questions_walk_either_way(monkeypatch, min_lanes):
    """Row questions go to lane walks however few they are (1), or each
    to its scalar walk however many (10**9): the answers do not change."""
    monkeypatch.setattr(solvers, "MIN_LANES", min_lanes)
    for table in TABLES[::3]:
        for _, measure in MEASURES:
            ref = Reference(measure, table)
            assert _row_separations(measure, table) == ref.row_separations()
            if len(set(table.decisions)) == 2:
                assert snd_tree_cost(measure, table)[0] == max(c for c, _ in ref.rules())
            assert closure_separation_cost(measure, table) == oracles.brute_closure_separation(
                measure, table
            )


@pytest.mark.parametrize("lane_bits", [8, 64])
def test_lanes_past_a_small_width_bound(monkeypatch, lane_bits):
    """With a width bound of a few lanes or less, rows and tuples go in
    small chunks and blocks, or one at a time (a block of one lane is the
    scalar walk), and the answers do not change."""
    monkeypatch.setattr(solvers, "LANE_BITS", lane_bits)
    for table in TABLES[::4] + [random_table(2, 6, 40, seed=9)]:
        for _, measure in MEASURES:
            ref = Reference(measure, table)
            assert _row_separations(measure, table) == ref.row_separations()
            if len(set(table.decisions)) == 2:
                assert full_sweep(measure, table) == ref.fixing()
                assert snd_tree_cost(measure, table)[0] == max(c for c, _ in ref.rules())
            assert closure_separation_cost(measure, table) == oracles.brute_closure_separation(
                measure, table
            )


@pytest.mark.parametrize("t", range(len(TABLES)))
def test_full_fixing_sweep_matches_the_reference(t):
    table = TABLES[t]
    if len(set(table.decisions)) < 2:
        return
    for _, measure in MEASURES:
        want = Reference(measure, table).fixing()
        # a cap no tuple reaches makes the sweep visit every block
        assert full_sweep(measure, table) == want
        # no tuple costs more than the min test cost, so the capped sweep agrees
        assert fixing_cost(measure, table) == want


@pytest.mark.parametrize("cols, rows", [(10, 30), (11, 12), (10, 70)])
def test_tuple_spaces_of_several_blocks(monkeypatch, cols, rows):
    table = random_table(2, cols, rows, seed=cols * 100 + rows)
    lanes = LANE_BITS // (2 * (rows + 1))
    assert 2**cols > 2 * lanes  # at least three blocks
    walks = count_calls(monkeypatch, "_lane_walk")
    want = Reference(depth(), table).fixing()
    assert full_sweep(depth(), table) == want
    assert len(walks) == 2**cols // 2 ** (lanes.bit_length() - 1)  # one per block
    # no tuple costs more than the min test cost, so the capped sweep agrees
    assert fixing_cost(depth(), table) == want


def test_one_open_lane_walks_alone(monkeypatch):
    """A walk of several lanes that starts with one lane open stores no
    entry, however large its budget: it hands that lane at once to one
    ``_first_constant`` walk, cut out of the wide masks into the row
    bits and agreeing rows of a scalar query of the row, with the rows
    outside its label, which answer as the label does.  The zero row of
    the staircase needs every column."""
    table = identity_table(9)
    n = table.n_rows
    width = n + 1
    measure = depth()  # the order refers to its measure weakly
    order = solvers._subset_order(measure, table.columns)
    bits = _bits_of(table)
    monkeypatch.setattr(solvers, "WALK_BYTES", 10**12)
    lane_walks = count_calls(monkeypatch, "_lane_walk")
    scalar = []
    real = solvers._first_constant

    def recorded(order, full, rank_values, labels):
        scalar.append((full, list(rank_values), labels))
        return real(order, full, rank_values, labels)

    monkeypatch.setattr(solvers, "_first_constant", recorded)
    low = bits.full * sum(1 << j * width for j in range(n))
    start = low ^ sum(1 << j << j * width for j in range(n))  # each row's label is the row alone
    got = solvers._lane_walk(order, n, width, 0, start, bits.row_lanes(0, n), low, 1 << n)
    want = Reference(measure, table).row_separations()[0]
    assert want[0] == 9
    assert got == [(want[0], (1 << 9) - 1)] + [None] * (n - 1)
    assert len(lane_walks) == 1  # no walk of the lane alone
    assert scalar == [(bits.full, bits.rank_values(table.rows[0]), bits.full ^ 1)]
    assert real(order, bits.full, bits.rank_values(table.rows[0]), 1) == got[0]


def test_last_open_lane_goes_to_the_scalar_walk(monkeypatch):
    """The unit rows of the staircase stand alone on one column each; the
    zero row, the one lane then left open, needs every column.  With room
    for the 10 entries up to the last unit row, the wide walk stops there
    and hands that lane to one ``_first_constant`` walk."""
    table = identity_table(9)
    n = table.n_rows
    width = n + 1
    monkeypatch.setattr(solvers, "WALK_BYTES", 10 * (n * width // 8 + 36))
    lane_walks = count_calls(monkeypatch, "_lane_walk")
    scalar_walks = count_calls(monkeypatch, "_first_constant")
    seps = _row_separations(depth(), table)
    assert seps == Reference(depth(), table).row_separations()
    assert seps[0][0] == 9 and all(c == 1 for c, _ in seps[1:])
    assert (len(lane_walks), len(scalar_walks)) == (1, 1)


def test_last_open_lane_late_in_the_order_walks_on(monkeypatch):
    """One row of this table needs all 5 columns; it is left open alone
    once its rows of cost 4 are answered, and with the budget far off it
    finishes in the wide masks: no walk of one lane starts it over."""
    table = random_table(2, 5, 20, seed=0)
    lane_walks = count_calls(monkeypatch, "_lane_walk")
    scalar_walks = count_calls(monkeypatch, "_first_constant")
    seps = _row_separations(depth(), table)
    assert seps == Reference(depth(), table).row_separations()
    assert sorted(c for c, _ in seps)[-2:] == [4, 5]
    assert (len(lane_walks), len(scalar_walks)) == (1, 0)


@pytest.mark.parametrize("budget", [1, 3000, 40000])
def test_hand_off_by_stored_bytes(monkeypatch, budget):
    """Past the byte budget every open lane goes to the scalar walk, and
    the answers do not change."""
    monkeypatch.setattr(solvers, "WALK_BYTES", budget)
    for table in (TABLES[5], TABLES[17], identity_table(8), random_table(3, 4, 50, seed=3)):
        for _, measure in MEASURES:
            ref = Reference(measure, table)
            assert _row_separations(measure, table) == ref.row_separations()
            if len(set(table.decisions)) == 2:
                assert full_sweep(measure, table) == ref.fixing()
                assert snd_tree_cost(measure, table)[0] == max(c for c, _ in ref.rules())
            assert closure_separation_cost(measure, table) == oracles.brute_closure_separation(
                measure, table
            )


SMALL_ORDERS = [
    random_table(2, 3, 6, seed=1),
    random_table(3, 3, 12, seed=2),
    random_table(2, 4, 11, seed=4),
    identity_table(4),
]


def budget_in_entries(monkeypatch, entries):
    """Give every lane walk a byte budget of ``entries`` entries of the
    order, and check that it hands each lane it stops carrying to one
    ``_first_constant`` walk, lowest first, until an answer reaches the
    cap.  Returns the hand-offs of each walk."""
    real = solvers._lane_walk
    scalar = count_calls(monkeypatch, "_first_constant")
    handed = []

    def budgeted(order, lanes, width, shift, start, wide, low, open_, cap=math.inf):
        # the walker's bytes per stored entry, times the entries allowed
        monkeypatch.setattr(solvers, "WALK_BYTES", entries * (lanes * width // 8 + 36))
        before = len(scalar)
        answers = real(order, lanes, width, shift, start, wide, low, open_, cap)
        room = entries if open_ & open_ - 1 else 0  # one open lane is handed off at once
        # a lane answered past the stored entries was handed off; a lane left None never was
        late = [a for a in answers if a is not None and order.masks.index(a[1]) >= room]
        assert len(scalar) - before == len(late)
        assert all(a[0] < cap for a in late[:-1])
        handed.append(len(late))
        return answers

    monkeypatch.setattr(solvers, "_lane_walk", budgeted)
    return handed


@pytest.mark.parametrize("t", range(len(SMALL_ORDERS)))
def test_hand_off_by_stored_bytes_after_every_entry_count(monkeypatch, t):
    """For each count e of entries of the order, every lane walk gets a
    byte budget of e entries, so it hands its open lanes to the scalar
    walk after e entries, one ``_first_constant`` call per lane until an
    answer reaches the cap.  Row lanes, tuple lanes and the fixing
    sweep's capped walks all keep the reference's answers."""
    table = SMALL_ORDERS[t]
    monkeypatch.setattr(solvers, "MIN_LANES", 1)  # every row question goes to a lane walk
    handed = {}
    for _, measure in MEASURES:
        ref = Reference(measure, table)
        order = solvers._subset_order(measure, table.columns)
        order.complete()
        seps = ref.row_separations()
        two = len(set(table.decisions)) == 2
        rules, fixing = (ref.rules(), ref.fixing()) if two else (None, None)
        closure = oracles.brute_closure_separation(measure, table)
        for entries in range(len(order.masks) + 1):
            with pytest.MonkeyPatch.context() as mp:
                walks = budget_in_entries(mp, entries)
                assert _row_separations(measure, table) == seps
                if two:
                    assert snd_tree_cost(measure, table)[0] == max(c for c, _ in rules)
                    assert full_sweep(measure, table) == fixing
                    assert fixing_cost(measure, table) == fixing  # capped at the min test cost
                assert closure_separation_cost(measure, table) == closure
            handed[entries] = handed.get(entries, 0) + sum(walks)
    assert handed[0] > 0 and handed[max(handed)] == 0  # none once the whole order fits


@given(tables_st(max_k=3, max_cols=7, max_rows=10), st.data())
def test_any_budget_keeps_the_reference_answers(table, data):
    """Under any budget of 0 entries up to the whole order, the report's
    2n row questions, the snd tree and the fixing sweep, capped and
    uncapped, answer as the per-query reference."""
    n, bits = table.n_rows, _bits_of(table)
    two = len(set(table.decisions)) == 2
    for _, measure in MEASURES:
        ref = Reference(measure, table)
        order = solvers._subset_order(measure, table.columns)
        order.complete()
        entries = data.draw(st.integers(0, len(order.masks)), label="entries")
        rules = ref.rules() if two else []
        ruled = iter([(c, tuple(a for a, _ in fx)) for c, fx in rules])
        want = ref.row_separations() + [next(ruled) if two and d else None for d in table.decisions]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "MIN_LANES", 1)
            budget_in_entries(mp, entries)
            asking = bits.full | bits.ones << n if two else bits.full
            walked = solvers._row_walks(order, bits, asking, [1 << j for j in range(n)] + [bits.ones] * n)
            assert [None if a is None else (a[0], bits.columns_of(a[1])) for a in walked] == want
            if two:
                assert snd_tree_cost(measure, table)[0] == max(c for c, _ in rules)
                fixing = ref.fixing()
                assert full_sweep(measure, table) == fixing
                assert fixing_cost(measure, table) == fixing


@pytest.mark.parametrize(
    "table",
    [identity_table(14), random_table(2, 11, 127, seed=1), random_table(2, 9, 300, seed=2), random_table(3, 6, 200, seed=3)],
    ids=["identity14", "2-11-127", "2-9-300", "3-6-200"],
)
def test_no_wide_mask_passes_the_width_bound(monkeypatch, table):
    widest = []
    real = solvers._lane_walk

    def measured(order, lanes, width, shift, start, wide, low, open_, *rest, **kwargs):
        widest.append(max(x.bit_length() for x in (start, low, open_, *wide)))
        return real(order, lanes, width, shift, start, wide, low, open_, *rest, **kwargs)

    monkeypatch.setattr(solvers, "_lane_walk", measured)
    _row_separations(depth(), table)
    snd_tree_cost(depth(), table)
    full_sweep(depth(), table)
    assert widest and max(widest) <= LANE_BITS


def copies(unit, width, count):
    return sum(unit << i * width for i in range(count))


def test_repeat_is_the_sum_of_its_copies():
    for width in range(1, 41):
        for count in range(71):
            for unit in {1, 5 % (1 << width), (1 << width) - 1}:  # each below 2^width
                assert solvers._repeat(width, count, unit) == copies(unit, width, count)
    # the fixing sweep's nested units: a run of span lanes, repeated k^q times
    for k in (2, 3, 4):
        for sub in (2, 5, 9):
            width, both = 2 * sub, 1 | 1 << sub
            for d in range(1, 5):
                for q in range(d):
                    span = k ** (d - 1 - q)
                    unit = solvers._repeat(width, span, both)
                    assert unit == copies(both, width, span)
                    assert solvers._repeat(k * span * width, k**q, unit) == copies(unit, k * span * width, k**q)
