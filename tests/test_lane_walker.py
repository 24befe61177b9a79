"""The lane walker against a per-query scalar reference written here.

Each reference answers one query at a time: it lists every column subset
in (cost, index-tuple) order by sorting, and takes the first subset whose
agreeing rows all carry the query's label or none do.  It shares no code
with the solvers' subset order or walkers.
"""

from itertools import combinations, product

import pytest

from dtlab import solvers
from dtlab.constructions import identity_table
from dtlab.measures import depth
from dtlab.randgen import SplitMix64, random_table
from dtlab.solvers import (
    _fixing_sweep,
    _row_separations,
    closure_separation_cost,
    fixing_cost,
    snd_tree_cost,
)
from dtlab.tables import LANE_BITS, _bits_of
from dtlab.trees import complete_paths
from dtlab.verify import standard_measures

import oracles

MEASURES = standard_measures()


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

    def first(self, values, labels, within=None):
        """(cost, attributes) of the first subset, inside ``within`` if
        given, on which the rows agreeing with ``values`` all lie in the
        row mask ``labels`` or all outside it."""
        for cost, attrs, positions in self.subsets:
            if within is not None and not set(attrs) <= within:
                continue
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
                assert _fixing_sweep(measure, table, 10**9) == ref.fixing()
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
        assert _fixing_sweep(measure, table, 10**9) == want
        # no tuple costs more than the min test cost, so the capped sweep agrees
        assert fixing_cost(measure, table) == want


@pytest.mark.parametrize("cols, rows", [(10, 30), (11, 12), (10, 70)])
def test_tuple_spaces_of_several_blocks(monkeypatch, cols, rows):
    table = random_table(2, cols, rows, seed=cols * 100 + rows)
    lanes = LANE_BITS // (2 * (rows + 1))
    assert 2**cols > 2 * lanes  # at least three blocks
    walks = count_calls(monkeypatch, "_lane_walk")
    want = Reference(depth(), table).fixing()
    assert _fixing_sweep(depth(), table, 10**9) == want
    assert len(walks) == 2**cols // 2 ** (lanes.bit_length() - 1)  # one per block
    # no tuple costs more than the min test cost, so the capped sweep agrees
    assert fixing_cost(depth(), table) == want


def test_last_open_lane_goes_to_the_scalar_walk(monkeypatch):
    """The unit rows of the staircase stand alone on one column each; the
    zero row, the one lane then left open, needs every column.  It is
    left open after 10 of the 512 entries, so one scalar walk starts it
    over instead of the wide masks walking on."""
    table = identity_table(9)
    lane_walks = count_calls(monkeypatch, "_lane_walk")
    scalar_walks = count_calls(monkeypatch, "_first_constant")
    assert _row_separations(depth(), table) == Reference(depth(), table).row_separations()
    assert (len(lane_walks), len(scalar_walks)) == (1, 1)


def test_last_open_lane_late_in_the_order_walks_on(monkeypatch):
    """One row of this table needs all 5 columns; it is left open alone
    only once its rows of cost 4 are answered, past half of the 32
    entries, so it finishes in the wide masks and no scalar walk starts
    it over."""
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
                assert _fixing_sweep(measure, table, 10**9) == ref.fixing()
                assert snd_tree_cost(measure, table)[0] == max(c for c, _ in ref.rules())
            assert closure_separation_cost(measure, table) == oracles.brute_closure_separation(
                measure, table
            )


@pytest.mark.parametrize("t", [3, 11, 22, 31, 40])
def test_within_restricts_every_lane(t):
    """Row lanes built here, walked inside each column set in turn."""
    table = TABLES[t]
    n = table.n_rows
    width = n + 1
    measure = MEASURES[1][1]
    ref = Reference(measure, table)
    order = solvers._subset_order(measure, table.columns)
    order.complete()
    bits = _bits_of(table)
    ranks = sorted(range(table.n_cols), key=lambda p: table.columns[p].index)
    wide = [
        sum(ref.value_rows[p][row[p]] << j * width for j, row in enumerate(table.rows))
        for p in ranks
    ]
    rng = SplitMix64(t)
    for _ in range(6):
        within = rng.below(1 << table.n_cols)
        kept = {order.attrs[r] for r in range(table.n_cols) if within >> r & 1}
        asking = [j for j in range(n) if rng.below(3)]
        # each label holds row j's class on the kept columns, so they answer every lane
        classes = [
            sum(1 << i for i, other in enumerate(table.rows) if all(
                other[table.column_position(a)] == row[table.column_position(a)] for a in kept
            ))
            for row in table.rows
        ]
        labels = [classes[j] | rng.below(1 << n) for j in range(n)]
        start = sum(((1 << n) - 1 ^ labels[j]) << j * width for j in range(n))
        open_ = sum(1 << j * width + n for j in asking)

        def scalar(j):
            return solvers._first_constant(
                order, bits.full, bits.rank_values(table.rows[j]), labels[j], within
            )

        low = bits.full * sum(1 << j * width for j in range(n))
        got = solvers._lane_walk(order, n, width, 0, start, wide, low, open_, scalar, within)
        for j in range(n):
            want = None
            if j in asking:
                cost, attrs = ref.first(table.rows[j], labels[j], kept)
                want = (cost, sum(1 << order.attrs.index(a) for a in attrs))
            assert got[j] == want


@pytest.mark.parametrize("lane_bits", [64, 256])
def test_chunk_lanes_kept_across_walks(monkeypatch, lane_bits):
    """Rows in several chunks, walked inside one column set after another
    with one dict keeping the chunk lanes, as the closure sweep walks
    them: every row's answer is the reference's."""
    monkeypatch.setattr(solvers, "LANE_BITS", lane_bits)
    table = random_table(3, 4, 30, seed=5)
    n = table.n_rows
    measure = MEASURES[1][1]
    ref = Reference(measure, table)
    order = solvers._subset_order(measure, table.columns)
    order.complete()
    bits = _bits_of(table)
    chunk_lanes = {}
    rng = SplitMix64(lane_bits)
    for _ in range(8):
        within = rng.below(1 << table.n_cols)
        kept = {order.attrs[r] for r in range(table.n_cols) if within >> r & 1}
        labels = [
            sum(1 << i for i, other in enumerate(table.rows) if all(
                other[table.column_position(a)] == row[table.column_position(a)] for a in kept
            )) | rng.below(1 << n)
            for row in table.rows
        ]
        got = solvers._row_walks(order, bits, bits.full, labels, within, chunk_lanes=chunk_lanes)
        for j, row in enumerate(table.rows):
            cost, attrs = ref.first(row, labels[j], kept)
            assert got[j] == (cost, sum(1 << order.attrs.index(a) for a in attrs))
    assert len(chunk_lanes) > 1


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
    _fixing_sweep(depth(), table, 10**9)
    if table.n_cols <= 11:
        closure_separation_cost(depth(), table)
    assert widest and max(widest) <= LANE_BITS
