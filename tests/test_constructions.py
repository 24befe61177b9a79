import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtlab.closure import is_critical
from dtlab.constructions import (
    BadPhi,
    ConflictGraph,
    ContainsZero,
    NotCritical,
    ThresholdSystem,
    TooFewRows,
    adversarial_relabel,
    conflict_graph_of,
    critical_core_relabel,
    identity_table,
    isolate_row,
    minimum_key_core,
    multicolored_count,
    separation_tight_table,
    single_attribute_generators,
    threshold_table,
    two_color,
    unit_rows_family,
)
from dtlab.measures import additive, depth, table_costs
from dtlab.solvers import (
    closure_separation_cost,
    det_tree_cost,
    fixing_cost_for_tuple,
    min_test_cost,
    row_separation_cost,
    snd_tree_cost,
    table_separation_cost,
)
from dtlab.tables import DtError, validate

from conftest import tables_st


def pair_graph(*edges):
    nodes = tuple(dict.fromkeys(n for e in edges for n in e))
    return ConflictGraph(nodes, tuple(edges))


def cube_table(cols, decisions):
    rows = sorted(
        tuple((i >> p) & 1 for p in range(cols)) for i in range(2**cols)
    )
    return validate(2, range(cols), zip(rows, (int(b) for b in decisions)))


# ---------------------------------------------------------------------------
# two-coloring


def test_two_color_path():
    g = pair_graph(((0,), (1,)), ((1,), (2,)))
    coloring = two_color(g)
    assert multicolored_count(g, coloring) == 2
    assert coloring[(0,)] == "blue" and coloring[(1,)] == "green"


def test_two_color_triangle():
    g = pair_graph(((0,), (1,)), ((1,), (2,)), ((0,), (2,)))
    assert multicolored_count(g, two_color(g)) >= 2


def test_two_color_edgeless():
    g = ConflictGraph(((0,), (1,)), ())
    assert multicolored_count(g, two_color(g)) == 0


def test_graph_rejects_loops_and_multiedges():
    with pytest.raises(DtError):
        ConflictGraph(((0,),), (((0,), (0,)),))
    with pytest.raises(DtError):
        ConflictGraph(((0,), (1,)), (((0,), (1,)), ((1,), (0,))))


def test_two_color_exhaustive_small_graphs():
    """Every labeled graph on up to 5 nodes meets the half-the-edges bound."""
    for n in range(1, 6):
        nodes = tuple((i,) for i in range(n))
        pairs = list(itertools.combinations(nodes, 2))
        for bits in range(1 << len(pairs)):
            edges = tuple(p for i, p in enumerate(pairs) if (bits >> i) & 1)
            g = ConflictGraph(nodes, edges)
            cut = multicolored_count(g, two_color(g))
            assert cut >= -(-len(edges) // 2)


# ---------------------------------------------------------------------------
# adversarial relabeling


def test_conflict_graph_one_edge_per_column(example6):
    g = conflict_graph_of(example6)
    assert len(g.edges) == example6.n_cols


def test_adversarial_relabel_two_cube():
    t = cube_table(2, "0110")
    nu, hard = adversarial_relabel(t)
    assert sorted(hard.rows) == sorted(t.rows)
    theta = min_test_cost(depth(), hard)[0]
    det = det_tree_cost(depth(), hard)[0]
    assert theta >= 1
    assert 2 * 2**det > 2


def test_adversarial_relabel_three_cube():
    t = cube_table(3, "01100101")
    _, hard = adversarial_relabel(t)
    assert min_test_cost(depth(), hard)[0] >= 2  # ceil(3/2)
    det = det_tree_cost(depth(), hard)[0]
    assert 2 * 2**det > 3


def test_adversarial_relabel_single_column():
    t = validate(2, [0], [((0,), 0), ((1,), 0)])
    nu, hard = adversarial_relabel(t)
    assert det_tree_cost(depth(), hard)[0] == 1
    assert {nu((0,)), nu((1,))} == {0, 1}


def test_adversarial_relabel_needs_critical():
    spread = validate(2, [0, 1], [((0, 0), 0), ((1, 1), 1)])
    with pytest.raises(NotCritical):
        adversarial_relabel(spread)


@settings(max_examples=30)
@given(tables_st(min_rows=2))
def test_adversarial_relabel_bounds_property(table):
    core = minimum_key_core(table)
    _, hard = adversarial_relabel(core)
    w = core.n_cols
    assert min_test_cost(depth(), hard)[0] >= -(-w // 2)
    assert 2 * table.k ** det_tree_cost(depth(), hard)[0] > w


# ---------------------------------------------------------------------------
# separation-tight member


def test_separation_tight_worked_example(example6):
    tight = separation_tight_table(depth(), example6)
    want = table_separation_cost(depth(), example6)
    assert want == 2
    assert det_tree_cost(depth(), tight)[0] == 2
    assert table_costs(depth(), tight)[0] == 2
    assert table_separation_cost(depth(), tight) == 2
    assert snd_tree_cost(depth(), tight)[0] <= table_costs(depth(), example6)[1]


def test_separation_tight_two_row_table():
    t = validate(2, [5], [((0,), 0), ((1,), 1)])
    tight = separation_tight_table(depth(), t)
    assert det_tree_cost(depth(), tight)[0] == 1
    assert table_costs(depth(), tight)[0] == 1
    assert table_separation_cost(depth(), tight) == 1


def test_separation_tight_weighted(example6, weighted):
    tight = separation_tight_table(weighted, example6)
    want = table_separation_cost(weighted, example6)
    assert want == 5
    assert det_tree_cost(weighted, tight)[0] == want
    assert table_costs(weighted, tight)[0] == want
    assert table_separation_cost(weighted, tight) == want
    assert snd_tree_cost(weighted, tight)[0] <= table_costs(weighted, example6)[1]


def test_separation_tight_needs_rows():
    with pytest.raises(TooFewRows):
        separation_tight_table(depth(), validate(2, [0], [((0,), 1)]))


@settings(max_examples=30)
@given(tables_st(min_rows=2), st.sampled_from(["depth", "weighted"]))
def test_separation_tight_property(table, which):
    measure = (
        depth()
        if which == "depth"
        else additive({i: (1, 3, 2)[i % 3] for i in range(8)})
    )
    tight = separation_tight_table(measure, table)
    want = table_separation_cost(measure, table)
    assert det_tree_cost(measure, tight)[0] == want
    assert table_costs(measure, tight)[0] == want
    assert table_separation_cost(measure, tight) == want
    assert snd_tree_cost(measure, tight)[0] <= table_costs(measure, table)[1]


# ---------------------------------------------------------------------------
# critical core + relabeling pipeline


def test_critical_core_worked_example(example6):
    core = minimum_key_core(example6)
    assert core.n_cols == 3  # no two columns separate all six rows
    assert is_critical(core)[0]
    star = critical_core_relabel(example6)
    det = det_tree_cost(depth(), star)[0]
    s_hat = closure_separation_cost(depth(), example6)
    assert s_hat == 2
    assert 2 ** ((det + 2) * s_hat) >= 6


def test_critical_core_single_row():
    t = validate(2, [0, 1], [((1, 0), 1)])
    assert critical_core_relabel(t) == t
    with pytest.raises(TooFewRows):
        minimum_key_core(t)


@settings(max_examples=30)
@given(tables_st(min_rows=1))
def test_critical_core_bound_property(table):
    star = critical_core_relabel(table)
    det = det_tree_cost(depth(), star)[0]
    s_hat = closure_separation_cost(depth(), table)
    assert table.k ** ((det + 2) * s_hat) >= table.n_rows


# ---------------------------------------------------------------------------
# isolating a row


def test_isolate_row_worked_example(example6):
    lone = isolate_row(depth(), example6, (1, 1, 1))
    assert [c.name for c in lone.columns] == ["f2", "f3"]
    assert sum(lone.decisions) == 1
    assert snd_tree_cost(depth(), lone)[0] == 2
    assert table_costs(depth(), lone)[0] == 2


def test_isolate_row_two_rows():
    t = validate(2, [0, 1], [((0, 0), 0), ((1, 0), 0)])
    lone = isolate_row(depth(), t, (0, 0))
    assert lone.n_cols == 1
    assert snd_tree_cost(depth(), lone)[0] == 1


def test_isolate_row_full_cube():
    t = cube_table(3, "10010110")
    lone = isolate_row(depth(), t, (1, 1, 1))
    assert snd_tree_cost(depth(), lone)[0] == 3
    assert table_costs(depth(), lone)[0] == 3


def test_isolate_row_errors(example6):
    with pytest.raises(TooFewRows):
        isolate_row(depth(), validate(2, [0], [((0,), 1)]), (0,))


@settings(max_examples=30)
@given(tables_st(min_rows=2), st.data())
def test_isolate_row_property(table, data):
    row = data.draw(st.sampled_from(table.rows))
    lone = isolate_row(depth(), table, row)
    want = row_separation_cost(depth(), table, row)[0]
    assert snd_tree_cost(depth(), lone)[0] == want
    assert table_costs(depth(), lone)[0] == want
    assert sum(lone.decisions) == 1


# ---------------------------------------------------------------------------
# the tuned staircase family


def test_unit_rows_family_square_n2():
    fam = unit_rows_family([0, 1, 4, 9], 2)
    t = fam.table
    assert [c.name for c in t.columns] == ["f2", "f3"]
    assert dict(t.entries()) == {(0, 0): 0, (1, 0): 1, (0, 1): 1}
    assert fam.measure.cost([2]) == 2 and fam.measure.cost([3]) == 2
    assert table_costs(fam.measure, t)[0] == 4
    assert fam.decomposition == (2, 0)


def test_unit_rows_family_linear_phi():
    fam = unit_rows_family([0, 1, 2, 3, 4], 4)
    assert fam.table.n_cols == 1
    assert fam.measure.cost([fam.table.columns[0]]) == 4
    assert table_costs(fam.measure, fam.table)[0] == 4


def test_unit_rows_family_solver_values():
    fam = unit_rows_family([0, 1, 4, 9], 3)
    t, m = fam.table, fam.measure
    assert table_costs(m, t)[0] == 9
    assert snd_tree_cost(m, t)[0] == 3
    assert det_tree_cost(m, t)[0] == 9
    zero = (0,) * t.n_cols
    assert fixing_cost_for_tuple(m, t, zero)[0] == 9


def test_unit_rows_family_remainder_weights():
    # phi(2) = 5 = 2*2 + 1: columns f2, f3, f4 weighted 2, 2, 1
    fam = unit_rows_family([0, 1, 5], 2)
    assert [c.name for c in fam.table.columns] == ["f2", "f3", "f4"]
    assert [fam.measure.cost([c]) for c in fam.table.columns] == [2, 2, 1]
    assert table_costs(fam.measure, fam.table)[0] == 5
    assert fam.decomposition == (2, 1)


def test_unit_rows_family_rejects_bad_phi():
    with pytest.raises(BadPhi):
        unit_rows_family([0, 1, 1], 2)  # phi(2) < 2
    with pytest.raises(BadPhi):
        unit_rows_family([1, 1, 4], 2)  # phi(0) != 0
    with pytest.raises(BadPhi):
        unit_rows_family([0, 2, 1], 1)  # decreasing tail
    with pytest.raises(BadPhi):
        unit_rows_family([0, 1], 2)  # not tabulated far enough
    with pytest.raises(BadPhi):
        unit_rows_family([0, 1, 4], 0)


@pytest.mark.parametrize("m", [2.0, 0, True])
def test_identity_table_rejects_m_that_is_no_positive_integer(m):
    with pytest.raises(DtError, match="^m must be an integer >= 1"):
        identity_table(m)


def test_identity_table():
    t = identity_table(3)
    assert t.n_rows == 4 and t.n_cols == 3
    assert dict(t.entries())[(0, 0, 0)] == 0
    assert sum(t.decisions) == 3


# ---------------------------------------------------------------------------
# threshold step patterns


def test_threshold_xor():
    t = threshold_table(ThresholdSystem((1, 2), lambda r: sum(r) % 2))
    assert dict(t.entries()) == {(0, 0): 0, (1, 0): 1, (1, 1): 0}
    assert [c.name for c in t.columns] == ["f1", "f2"]


def test_threshold_single_identity():
    t = threshold_table(ThresholdSystem((4,), lambda r: r[0]))
    assert dict(t.entries()) == {(0,): 0, (1,): 1}


def test_threshold_constant():
    t = threshold_table(ThresholdSystem((1, 2, 3), lambda r: 1))
    assert t.n_rows == 4
    assert set(t.decisions) == {1}


def test_threshold_row_count_property():
    for n in range(1, 6):
        t = threshold_table(ThresholdSystem(tuple(range(2, 2 + n)), lambda r: 0))
        assert t.n_rows == n + 1


def test_threshold_validation():
    with pytest.raises(DtError):
        ThresholdSystem((2, 2), lambda r: 0)
    with pytest.raises(DtError):
        ThresholdSystem((), lambda r: 0)


def test_threshold_tables_have_bounded_separation():
    """Step patterns are pinned by their boundary columns: separation
    cost stays at most 2 while the row count grows without bound, the
    mix behind logarithmic growth regimes."""
    for m in range(1, 7):
        for nu in (lambda r: sum(r) % 2, lambda r: 1 if sum(r) else 0):
            t = threshold_table(ThresholdSystem(tuple(range(1, m + 1)), nu))
            assert t.n_rows == m + 1
            assert table_separation_cost(depth(), t) <= 2


# ---------------------------------------------------------------------------
# single-attribute generators


def test_single_attribute_generators():
    tables, measure = single_attribute_generators({2, 5})
    assert [t.columns[0].name for t in tables] == ["f2", "f5"]
    for t in tables:
        assert dict(t.entries()) == {(0,): 0, (1,): 1}
    assert measure.cost([2]) == 2 and measure.cost([5]) == 5
    assert measure.cost([0]) == 1


def test_single_attribute_generators_edge_cases():
    tables, measure = single_attribute_generators([1])
    assert len(tables) == 1 and measure.cost([1]) == 1
    with pytest.raises(ContainsZero):
        single_attribute_generators([0, 2])
