from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtlab.constructions import identity_table
from dtlab.measures import additive, depth, max_of, max_weight, opaque, sum_of
from dtlab.measures import NotDecomposable
from dtlab import solvers
from dtlab.solvers import (
    BadTupleLength,
    RowNotInTable,
    closure_separation_cost,
    det_tree_cost,
    det_tree_cost_bruteforce,
    fixing_cost,
    fixing_cost_for_tuple,
    min_test_cost,
    minimal_rule,
    parameter_report,
    row_separation_cost,
    snd_tree_cost,
    table_separation_cost,
)
from dtlab.randgen import SplitMix64, random_table
from dtlab.tables import LANE_BITS, Attribute, TooLarge, ValueOutOfRange, empty_table, is_test, validate
from dtlab.trees import (
    attributes_of,
    format_tree,
    tree_cost,
    validate_deterministic,
    validate_strongly_nondeterministic,
)

from dtlab.verify import standard_measures

from conftest import measures_st, tables_st
import oracles


def cube(cols, decisions):
    """Full binary cube over f0..f(cols-1) with the given decision string."""
    rows = sorted(
        tuple((i >> p) & 1 for p in range(cols)) for i in range(2**cols)
    )
    return validate(2, range(cols), zip(rows, (int(b) for b in decisions)))


# ---------------------------------------------------------------------------
# minimal tests


def test_min_test_cost_depth(example6):
    cost, witness = min_test_cost(depth(), example6)
    assert cost == 2
    assert witness == (Attribute(3), Attribute(4))
    assert is_test(example6, witness)


def test_min_test_cost_constant():
    t = validate(2, [0, 1], [((0, 0), 1), ((1, 1), 1)])
    assert min_test_cost(depth(), t) == (0, ())
    assert min_test_cost(depth(), empty_table()) == (0, ())


def test_min_test_cost_weighted(example6, weighted):
    # {f2,f3} is NOT a test here: rows (0,1,1) and (0,0,1) agree on both
    # f2 and f3 but carry different decisions, so the optimum is {f4,f3}.
    cost, witness = min_test_cost(weighted, example6)
    assert (cost, witness) == oracles.brute_test_cost(weighted, example6)
    assert cost == 5
    assert witness == (Attribute(3), Attribute(4))


@given(tables_st(), measures_st())
def test_min_test_cost_matches_oracle(table, measure):
    assert min_test_cost(measure, table) == oracles.brute_test_cost(measure, table)


# ---------------------------------------------------------------------------
# row separation


def test_row_separation_examples(example6):
    cost, witness = row_separation_cost(depth(), example6, (1, 1, 1))
    assert cost == 2 and witness == (Attribute(2), Attribute(3))
    single = validate(2, [0, 1], [((1, 0), 1)])
    assert row_separation_cost(depth(), single, (1, 0)) == (0, ())
    assert table_separation_cost(depth(), example6) == 2
    with pytest.raises(RowNotInTable, match=r"^\(0, 1, 0\) is not a row of the table$"):
        row_separation_cost(depth(), example6, [0, 1, 0])
    assert row_separation_cost(depth(), example6, [1, 1, 1]) == (cost, witness)


def test_separation_weighted(example6, weighted):
    per_row = [row_separation_cost(weighted, example6, r)[0] for r in example6.rows]
    assert per_row == [3, 4, 5, 5, 4, 3]
    assert table_separation_cost(weighted, example6) == 5


def test_separation_full_cube():
    t = cube(2, "0110")
    assert table_separation_cost(depth(), t) == 2


def test_closure_separation(example6, weighted):
    assert closure_separation_cost(depth(), example6) == 2
    assert closure_separation_cost(depth(), empty_table()) == 0
    assert closure_separation_cost(weighted, example6) == oracles.brute_closure_separation(
        weighted, example6
    )


@given(tables_st(max_cols=3, max_rows=5), measures_st())
def test_separation_matches_oracle(table, measure):
    for row in table.rows:
        assert row_separation_cost(measure, table, row) == oracles.brute_row_separation(
            measure, table, row
        )
    assert closure_separation_cost(measure, table) == oracles.brute_closure_separation(
        measure, table
    )


# max-weight measures and their combinators price many column sets alike,
# so the downward sweep meets long runs of sets tied at the top cost
tie_heavy_st = st.one_of(
    measures_st(),
    st.builds(max_weight, st.dictionaries(st.integers(0, 3), st.integers(1, 2)), st.integers(1, 2)),
    st.builds(lambda w: max_of(max_weight(w), depth()), st.dictionaries(st.integers(0, 3), st.integers(1, 3))),
    st.builds(lambda w: sum_of(max_weight(w), max_weight()), st.dictionaries(st.integers(0, 3), st.integers(1, 3))),
)


@settings(max_examples=150)
@given(tables_st(max_cols=4, max_rows=6), tie_heavy_st)
def test_closure_separation_sweep_matches_oracle(table, measure):
    want = oracles.brute_closure_separation(measure, table)
    assert closure_separation_cost(measure, table) == want
    assert parameter_report(measure, table).closure_separation_cost == want


@pytest.mark.parametrize(
    "table",
    [
        random_table(2, 4, 9, seed=1),
        random_table(3, 3, 12, seed=2),
        random_table(2, 5, 20, seed=3),
        random_table(4, 2, 1, seed=4),
        identity_table(4),
    ],
    ids=["2-4-9", "3-3-12", "2-5-20", "one-row", "identity4"],
)
def test_irredundant_matches_the_definition(table):
    """Every column-rank mask, for every row: each kept column has a
    private row, found here by comparing row tuples, exactly when
    ``_irredundant`` says so."""
    bits = solvers._bits_of(table)
    seen = set()
    for mask in range(1 << table.n_cols):
        kept = [r for r in range(table.n_cols) if mask >> r & 1]
        positions = [bits.ranks[r] for r in kept]
        for row in table.rows:
            want = all(
                any(
                    other[g] != row[g] and all(other[h] == row[h] for h in positions if h != g)
                    for other in table.rows
                )
                for g in positions
            )
            assert solvers._irredundant(bits.rank_values(row), kept, bits.full) == want
            seen.add((len(kept), want))
    # the empty set is irredundant for every row; a lone row has no private rows
    assert (0, True) in seen
    if table.n_rows > 1:
        assert (1, True) in seen and any(not irr for _, irr in seen)
    else:
        assert seen == {(size, size == 0) for size in range(table.n_cols + 1)}


@pytest.mark.parametrize(
    "shape, seed, value",
    [((2, 14, 60), 5, 7), ((3, 12, 200), 1, 6)],
    ids=["2-14-60", "3-12-200"],
)
def test_closure_separation_of_tall_wide_tables(shape, seed, value):
    """Tables with thousands of kept column sets dearer than their
    separation cost: the values stay what the per-set walks gave."""
    assert closure_separation_cost(depth(), random_table(*shape, seed=seed)) == value


def _count_calls(monkeypatch, name):
    calls = []
    walker = getattr(solvers, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return walker(*args, **kwargs)

    monkeypatch.setattr(solvers, name, counted)
    return calls


@pytest.mark.parametrize("m", [4, 6, 9, 12])
def test_closure_separation_stops_at_the_dearest_set(m):
    """The zero row of the m-column staircase needs every column, so the
    separation cost m, where the sweep starts, is already the value and
    the sweep tests no kept column set.  The public value is the report's
    and the brute-force oracle's.  The oracle solves every projection and
    takes seconds past 9 columns, so there the test checks the value m it
    gives."""
    table = identity_table(m)
    value = closure_separation_cost(depth(), table)
    assert value == m == parameter_report(depth(), table).closure_separation_cost
    if m <= 9:
        assert value == oracles.brute_closure_separation(depth(), table)


def test_report_closure_sweep_walks_no_full_column_set(monkeypatch, example6, weighted):
    """The report's closure separation is the public function's value,
    and its sweep, seeded with the report's row separations, tests no
    kept column set that is the full one for irredundance, even where
    max weights tie the full set with others at the top cost."""
    tested = []
    real = solvers._irredundant

    def recorded(values, kept, full):
        tested.append(sum(1 << r for r in kept))
        return real(values, kept, full)

    tables = [example6, random_table(2, 6, 6, seed=0), random_table(2, 6, 32, seed=3), identity_table(5)]
    measures = [depth(), weighted, max_weight({0: 3, 1: 1}, 2), max_of(max_weight({2: 3}), depth())]
    swept = 0
    for table in tables:
        every = (1 << table.n_cols) - 1
        for measure in measures:
            monkeypatch.setattr(solvers, "_irredundant", recorded)
            tested.clear()
            report = parameter_report(measure, table)
            assert every not in tested
            swept += len(tested)
            monkeypatch.setattr(solvers, "_irredundant", real)
            assert report.closure_separation_cost == closure_separation_cost(measure, table)
    assert swept  # some report's sweep tested a kept column set


def test_closure_sweep_tests_no_set_with_as_many_columns_as_rows(monkeypatch):
    """A set irredundant for a row needs as many private rows, distinct
    and other than the row, as it has columns, so the sweep tests no set
    of n or more columns on an n-row table: none on two rows, and only
    the cost-2 sets of two columns on three rows under depth."""
    kept_sizes = []
    real = solvers._irredundant

    def recorded(values, kept, full):
        kept_sizes.append(len(kept))
        return real(values, kept, full)

    monkeypatch.setattr(solvers, "_irredundant", recorded)
    assert closure_separation_cost(depth(), random_table(2, 16, 2, seed=1)) == 1
    assert kept_sizes == []
    assert closure_separation_cost(depth(), random_table(2, 14, 3, seed=1)) == 2
    assert kept_sizes and set(kept_sizes) == {2}


# ---------------------------------------------------------------------------
# fixing costs


def test_fixing_for_tuple_examples(example6):
    cost, fixings = fixing_cost_for_tuple(depth(), example6, (1, 1, 1))
    assert cost == 2
    assert fixings == ((Attribute(2), 1), (Attribute(3), 1))
    constant = validate(2, [0], [((0,), 1), ((1,), 1)])
    assert fixing_cost_for_tuple(depth(), constant, (0,)) == (0, ())
    with pytest.raises(BadTupleLength):
        fixing_cost_for_tuple(depth(), example6, (1, 1))


def test_fixing_for_tuple_rejects_boolean_values(example6):
    with pytest.raises(ValueOutOfRange):
        fixing_cost_for_tuple(depth(), example6, (True, 1, 1))
    with pytest.raises(ValueOutOfRange):
        fixing_cost_for_tuple(depth(), validate(2, [0, 1], [((1, 0), 1), ((0, 1), 0)]), (True, 0))


def test_fixing_cost_worked_example(example6):
    value, worst = fixing_cost(depth(), example6)
    assert value == 2
    assert worst is not None
    assert fixing_cost_for_tuple(depth(), example6, worst)[0] == 2


def test_fixing_cost_constant_is_zero():
    t = validate(2, [0, 1], [((0, 1), 0), ((1, 0), 0)])
    assert fixing_cost(depth(), t) == (0, None)
    assert fixing_cost(depth(), empty_table()) == (0, None)


def test_fixing_cost_maximizes_over_all_tuples_not_rows():
    """The worst tuple can lie outside the row set: the adversary may
    answer queries with values no row realizes.  Quantifying over rows
    only would report 1 here."""
    t = validate(3, [0, 1], [((0, 0), 1), ((0, 1), 0), ((1, 2), 1), ((2, 2), 0)])
    value, worst = fixing_cost(depth(), t)
    assert value == 2
    assert worst == (0, 2)
    assert worst not in t.rows
    assert max(fixing_cost_for_tuple(depth(), t, r)[0] for r in t.rows) == 1


@given(tables_st(max_cols=3, max_rows=5), measures_st())
def test_fixing_matches_oracle(table, measure):
    got, worst = fixing_cost(measure, table)
    assert got == oracles.brute_fixing(measure, table)
    if worst is not None:
        assert fixing_cost_for_tuple(measure, table, worst)[0] == got


def test_fixing_sweep_stops_at_min_test_cost(monkeypatch):
    """No tuple costs more than the min test cost, so the sweep stops at
    the first tuple or block that reaches it.  On the first table every
    tuple costs 1, the min test cost: one scalar walk for the min test
    and one for the first tuple, and no block.  On the second the first
    tuple costs 1 and tuple 963 the min test cost 2: the sweep walks the
    blocks up to the one holding it, not all the blocks of the 2^14
    tuples."""
    lane_walks = _count_calls(monkeypatch, "_lane_walk")
    scalar_walks = _count_calls(monkeypatch, "_first_constant")
    assert fixing_cost(depth(), random_table(2, 14, 2, seed=1)) == (1, (0,) * 14)
    assert (len(lane_walks), len(scalar_walks)) == (0, 2)
    worst = tuple(963 >> (13 - p) & 1 for p in range(14))
    assert fixing_cost(depth(), random_table(2, 14, 5, seed=2)) == (2, worst)
    # a block holds the most tuples whose lanes of 2 * (5 + 1) bits fit the width bound
    block = 1 << (LANE_BITS // 12).bit_length() - 1
    assert len(lane_walks) == 963 // block + 1 < 2**14 // block


def test_report_hands_its_min_test_cost_to_the_fixing_sweep(monkeypatch):
    calls = []
    real = solvers.min_test_cost
    monkeypatch.setattr(solvers, "min_test_cost", lambda m, t: calls.append(t) or real(m, t))
    table = random_table(2, 4, 9, seed=11)
    report = solvers.parameter_report(depth(), table)
    assert report.consistent and report.min_test_cost > 0
    assert calls == [table]
    # the public sweep still solves its own cap
    assert fixing_cost(depth(), table) == (report.fixing_cost, report.worst_tuple)
    assert calls == [table, table]


@given(tables_st(max_cols=3, max_rows=5), measures_st())
def test_fixing_worst_tuple_is_first_worst_in_product_order(table, measure):
    value, worst = fixing_cost(measure, table)
    if worst is None:
        assert value == 0 and oracles.brute_fixing(measure, table) == 0
        return
    target = oracles.brute_fixing(measure, table)
    first = next(
        values
        for values in product(range(table.k), repeat=table.n_cols)
        if oracles.brute_fixing_for_tuple(measure, table, values)[0] == target
    )
    assert (value, worst) == (target, first)


# ---------------------------------------------------------------------------
# deterministic trees


def test_det_tree_worked_example(example6):
    cost, tree = det_tree_cost(depth(), example6)
    assert cost == 2
    assert validate_deterministic(tree, example6).ok
    assert tree_cost(depth(), tree) == 2


def test_det_tree_constant_table():
    t = validate(2, [0, 1], [((0, 1), 1), ((1, 0), 1)])
    cost, tree = det_tree_cost(depth(), t)
    assert cost == 0
    assert validate_deterministic(tree, t).ok
    assert det_tree_cost(depth(), empty_table()) == (0, None)


def test_det_tree_weighted_matches_oracle(example6, weighted):
    cost, tree = det_tree_cost(weighted, example6)
    assert cost == det_tree_cost_bruteforce(weighted, example6) == 4
    assert validate_deterministic(tree, example6).ok
    assert tree_cost(weighted, tree) == 4


@pytest.mark.parametrize("name,measure", standard_measures(), ids=[n for n, _ in standard_measures()])
def test_det_tree_cutoff_matches_bruteforce(name, measure):
    # the alpha cutoff skips children of attributes that can no longer win;
    # values must still equal the unpruned oracle and witnesses stay valid
    rng = SplitMix64(20261018)
    for _ in range(40):
        k = 2 + rng.below(2)
        cols = 1 + rng.below(4)
        rows = 1 + rng.below(min(10, k**cols))
        table = random_table(k, cols, rows, seed=rng)
        cost, tree = det_tree_cost(measure, table)
        assert cost == det_tree_cost_bruteforce(measure, table), (name, table)
        assert validate_deterministic(tree, table).ok
        assert tree_cost(measure, tree) == cost


def test_det_tree_opaque_measure_rejected(example6):
    m = opaque(lambda idx: len(idx))
    with pytest.raises(NotDecomposable):
        det_tree_cost(m, example6)
    assert det_tree_cost_bruteforce(m, example6) == 2


def test_combinator_with_opaque_part_falls_back_to_bruteforce(example6):
    m = max_of(depth(), opaque(lambda idx: len(idx)))
    assert not m.decomposable
    with pytest.raises(NotDecomposable):
        det_tree_cost(m, example6)
    report = parameter_report(m, example6)
    assert report.det_cost == det_tree_cost_bruteforce(m, example6) == 2
    assert report.det_tree is None and report.consistent


def test_bruteforce_examples(example6, or_image):
    assert det_tree_cost_bruteforce(depth(), example6) == 2
    assert det_tree_cost_bruteforce(depth(), validate(2, [5], [((0,), 0), ((1,), 1)])) == 1
    d2 = det_tree_cost_bruteforce(depth(), or_image)
    theta2 = min_test_cost(depth(), or_image)[0]
    assert theta2 == 2
    assert 2**d2 > theta2


def test_bruteforce_guard_rails():
    t = cube(5, "0" * 31 + "1")
    with pytest.raises(TooLarge):
        det_tree_cost_bruteforce(depth(), t)


def test_prefix_state_memo_regression():
    """Optimal subtrees genuinely depend on the tested prefix under
    mixed combinators; a row-set-only memo returns a wrong optimum here."""
    measure = max_of(
        additive({0: 1, 1: 3, 2: 10, 3: 1}),
        max_weight({0: 6, 1: 2, 2: 1, 3: 1}),
    )
    rows = [
        ((0, 0, 0, 0), 0),
        ((1, 1, 0, 0), 1),
        ((0, 0, 1, 1), 1),
        ((1, 1, 1, 1), 0),
    ]
    table = validate(2, range(4), rows)
    cost, tree = det_tree_cost(measure, table)
    assert cost == det_tree_cost_bruteforce(measure, table)
    assert validate_deterministic(tree, table).ok


@given(tables_st(max_cols=3, max_rows=6), measures_st())
def test_det_tree_matches_oracles(table, measure):
    cost, tree = det_tree_cost(measure, table)
    assert cost == det_tree_cost_bruteforce(measure, table)
    assert cost == oracles.brute_det_cost(measure, table)
    assert validate_deterministic(tree, table).ok
    assert tree_cost(measure, tree) == cost
    assert is_test(table, attributes_of(tree))


# ---------------------------------------------------------------------------
# strongly nondeterministic trees


def test_snd_tree_worked_example(example6):
    cost, tree = snd_tree_cost(depth(), example6)
    assert cost == 1
    assert validate_strongly_nondeterministic(tree, example6).ok
    assert tree_cost(depth(), tree) == 1
    assert format_tree(tree) == "(root (f3 (0 (leaf 1))) (f4 (0 (leaf 1))))"


def test_snd_tree_weighted(example6, weighted):
    cost, tree = snd_tree_cost(weighted, example6)
    assert cost == 3
    assert validate_strongly_nondeterministic(tree, example6).ok


def test_snd_tree_constant():
    allone = validate(2, [0], [((0,), 1), ((1,), 1)])
    assert snd_tree_cost(depth(), allone) == (0, None)
    assert snd_tree_cost(depth(), empty_table()) == (0, None)


def test_minimal_rule_guards(example6):
    with pytest.raises(RowNotInTable, match=r"^\(1, 1, 1\) is not labeled 1; rules cover 1-rows$"):
        minimal_rule(depth(), example6, (1, 1, 1))  # labeled 0
    with pytest.raises(RowNotInTable, match=r"^\(0, 1, 0\) is not a row of the table$"):
        minimal_rule(depth(), example6, [0, 1, 0])


@given(tables_st(max_cols=3, max_rows=6), measures_st())
def test_snd_matches_oracle(table, measure):
    cost, tree = snd_tree_cost(measure, table)
    assert cost == oracles.brute_snd_cost(measure, table)
    if tree is not None:
        assert validate_strongly_nondeterministic(tree, table).ok
        assert tree_cost(measure, tree) == cost
        assert is_test(table, attributes_of(tree))


# ---------------------------------------------------------------------------
# the full report


def test_report_worked_example(example6):
    report = parameter_report(depth(), example6)
    assert report.values() == {
        "rows": 6,
        "columns": 3,
        "attr_set_cost": 3,
        "max_attr_cost": 1,
        "min_test_cost": 2,
        "separation_cost": 2,
        "closure_separation_cost": 2,
        "fixing_cost": 2,
        "det_cost": 2,
        "snd_cost": 1,
    }
    assert report.consistent, report.failed_checks


def test_report_empty_table():
    report = parameter_report(depth(), empty_table())
    assert all(v == 0 for v in report.values().values())
    assert report.consistent


def test_report_or_image_cross_checked(or_image):
    report = parameter_report(depth(), or_image)
    assert report.values() == {
        "rows": 4,
        "columns": 2,
        "attr_set_cost": 2,
        "max_attr_cost": 1,
        "min_test_cost": 2,
        "separation_cost": 2,
        "closure_separation_cost": 2,
        "fixing_cost": 2,
        "det_cost": 2,
        "snd_cost": 1,
    }
    assert report.min_test_cost == oracles.brute_test_cost(depth(), or_image)[0]
    assert report.det_cost == oracles.brute_det_cost(depth(), or_image)
    assert report.snd_cost == oracles.brute_snd_cost(depth(), or_image)
    assert report.fixing_cost == oracles.brute_fixing(depth(), or_image)


def test_report_weighted(example6, weighted):
    report = parameter_report(weighted, example6)
    assert report.attr_set_cost == 6
    assert report.max_attr_cost == 3
    assert report.min_test_cost == 5
    assert report.separation_cost == 5
    assert report.det_cost == 4
    assert report.snd_cost == 3
    assert report.consistent, report.failed_checks


@settings(max_examples=40)
@given(tables_st(max_cols=3, max_rows=5), measures_st())
def test_report_always_consistent(table, measure):
    report = parameter_report(measure, table)
    assert report.consistent, report.failed_checks


def test_report_witness_checks_do_not_use_the_walker(monkeypatch):
    # Both walkers are planted wrong: they drop the highest column of
    # every test and row separator they find, an earlier, cheaper subset
    # of the order that fails the search.  The report checks its
    # witnesses on the kernel's value masks, not through a walker, so it
    # must flag both.  The min test comes from the scalar walker, the
    # separators of the 14 rows from a lane walk.
    table = random_table(2, 5, 14, seed=3)
    ones = sum(d << i for i, d in enumerate(table.decisions))
    assert ones.bit_count() > 1  # so no test or separator label equals it
    scalar, lanes = solvers._first_constant, solvers._lane_walk

    def drop_highest(order, answer):
        cost, mask = answer
        if not mask:
            return answer
        mask ^= 1 << (mask.bit_length() - 1)
        return order.costs[order.masks.index(mask)], mask

    def wrong_scalar(order, full, rank_values, labels):
        answer = scalar(order, full, rank_values, labels)
        return answer if labels == ones else drop_highest(order, answer)  # fixings and rules stay right

    def wrong_lanes(order, count, width, shift, *rest, **kwargs):
        answers = lanes(order, count, width, shift, *rest, **kwargs)
        if shift:
            return answers  # the fixing sweep stays right
        return [wrong_answer(order, a) for a in answers]

    def wrong_answer(order, answer):
        if answer is None or answer[1] & answer[1] - 1 == 0:
            return answer  # one column or none stays, so no rule goes empty
        return drop_highest(order, answer)

    monkeypatch.setattr(solvers, "_first_constant", wrong_scalar)
    monkeypatch.setattr(solvers, "_lane_walk", wrong_lanes)
    report = parameter_report(depth(), table)
    assert "test-witness-is-test" in report.failed_checks
    assert "row-separator-separates" in report.failed_checks


def test_guard_rails():
    wide = validate(2, range(25), [(tuple([0] * 25), 0), (tuple([1] * 25), 1)])
    with pytest.raises(TooLarge):
        min_test_cost(depth(), wide)
    with pytest.raises(TooLarge):
        fixing_cost(depth(), wide)
