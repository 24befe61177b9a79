"""The report's reuses against the public solvers they stand in for.

``parameter_report`` answers the row separations and the 1-rows' rules
in one row walk, seeds its closure sweep with the separation cost and
bounds its tree search by the fixing cost below and the min test cost
above.  Each of those must give exactly what the public solver gives on
its own: the same separators, snd tree, closure separation, det cost
and det tree.  The tables cover both walk regimes of the row walk (fewer
than ``MIN_LANES`` questions, and more rows than fit two lanes each in
``LANE_BITS``) and the constant, one-row and empty tables; the measures
include max weights, whose top column sets tie.  A zero-row table with
columns is consistent, and an alphabet past the kernel's guard rail
raises ``TooLarge`` before anything of its size is allocated.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtlab import solvers
from dtlab.cli import main
from dtlab.measures import depth, format_measure, max_of, max_weight, sum_of
from dtlab.randgen import random_table
from dtlab.solvers import (
    MIN_LANES,
    _row_separations,
    closure_separation_cost,
    det_tree_cost,
    parameter_report,
    row_separation_cost,
    snd_tree_cost,
)
from dtlab.tables import LANE_BITS, MAX_ALPHABET, TooLarge, _TableBits, format_table, validate
from dtlab.trees import format_tree
from dtlab.verify import standard_measures

from conftest import measures_st, tables_st

MEASURES = [m for _, m in standard_measures()] + [
    max_weight({0: 2, 1: 2, 2: 1}, 2),
    max_of(max_weight({1: 3}), depth()),
    sum_of(max_weight({0: 2}), depth()),
]

# max-weight measures and their combinators price many column sets alike
tie_heavy_st = st.one_of(
    measures_st(),
    st.builds(max_weight, st.dictionaries(st.integers(0, 3), st.integers(1, 2)), st.integers(1, 2)),
    st.builds(lambda w: max_of(max_weight(w), depth()), st.dictionaries(st.integers(0, 3), st.integers(1, 3))),
)


def same_tree(a, b):
    return (a is None and b is None) or (a is not None and b is not None and format_tree(a) == format_tree(b))


def assert_report_matches_public(measure, table):
    report = parameter_report(measure, table)
    assert report.consistent, report.failed_checks
    # the shared walk's separations are each row's own, and the separations-only walk's
    seps = tuple((row, *row_separation_cost(measure, table, row)) for row in table.rows)
    assert report.row_separators == seps
    assert [(c, a) for _, c, a in report.row_separators] == _row_separations(measure, table)
    # its rules give the public solver's snd cost and tree
    snd, snd_tree = snd_tree_cost(measure, table)
    assert report.snd_cost == snd and same_tree(report.snd_tree, snd_tree)
    # the seeded sweep gives the self-seeding public value
    assert report.closure_separation_cost == closure_separation_cost(measure, table)
    # the bounded search gives the unbounded search's cost and tree
    det, det_tree = det_tree_cost(measure, table)
    assert report.det_cost == det and same_tree(report.det_tree, det_tree)


@settings(max_examples=120)
@given(tables_st(max_k=3, max_cols=4, max_rows=14, min_rows=0), tie_heavy_st)
def test_report_matches_public_solvers(table, measure):
    assert_report_matches_public(measure, table)


def few_questions(seed):
    """A table whose separations and rules together ask fewer than MIN_LANES questions."""
    table = random_table(2, 3, 4, seed=seed)
    assert table.n_rows + sum(table.decisions) < MIN_LANES
    return table


def tall(seed):
    """A table too tall for two lanes per row in one wide mask."""
    table = random_table(2, 6, 60, seed=seed)
    assert 2 * table.n_rows * (table.n_rows + 1) > LANE_BITS
    return table


SEEDED = {
    "few-questions": [few_questions(s) for s in range(4)],
    "params-shapes": [random_table(2, 6, 32, seed=1), random_table(3, 5, 40, seed=2)],
    "tall": [tall(s) for s in range(2)],
    "constant": [validate(2, [0, 1], [((0, 0), 1), ((1, 0), 1), ((1, 1), 1)]), validate(3, [2], [((0,), 0), ((2,), 0)])],
    "one-row": [validate(2, [0, 1, 2], [((1, 0, 1), 1)]), validate(3, [1], [((2,), 0)])],
    "empty": [validate(2, [], []), validate(2, [0], []), validate(3, [0, 3], [])],
}


@pytest.mark.parametrize("kind", list(SEEDED))
def test_seeded_reports_match_public_solvers(kind):
    for table in SEEDED[kind]:
        for measure in MEASURES:
            assert_report_matches_public(measure, table)


@pytest.mark.parametrize("label,measure", standard_measures(), ids=[label for label, _ in standard_measures()])
def test_zero_row_table_with_columns_is_consistent(capsys, tmp_path, label, measure):
    table = validate(2, [0], [])
    report = parameter_report(measure, table)
    assert report.columns == 1 and report.attr_set_cost > 0  # costs of the columns, not solved
    assert "empty-table-all-zero" in report.checks and report.consistent
    table_path, measure_path = tmp_path / "empty.dt", tmp_path / "m.cm"
    table_path.write_text(format_table(table))
    measure_path.write_text(format_measure(measure))
    assert main(["params", str(table_path), "-m", str(measure_path), "--kv"]) == 0
    assert "consistent=yes" in capsys.readouterr().out.splitlines()


def test_huge_alphabet_is_too_large_before_anything_is_allocated(capsys, tmp_path):
    k = 99_999_999_999
    table = validate(k, [0], [((0,), 1)])
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match=str(MAX_ALPHABET)):
            parameter_report(depth(), table)
        with pytest.raises(TooLarge, match=str(MAX_ALPHABET)):
            _TableBits(validate(MAX_ALPHABET + 1, [0, 1], []))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    path = tmp_path / "huge.dt"
    path.write_text(f"k {k}\nattrs f0\nrow 0 1\n")
    assert main(["params", str(path)]) == 2
    assert str(MAX_ALPHABET) in capsys.readouterr().err
    assert _TableBits(validate(MAX_ALPHABET, [0], [((MAX_ALPHABET - 1,), 1)])).masks[0][-1] == 1


def test_a_wrong_ceiling_gives_the_true_cost_and_a_failed_check(monkeypatch):
    """A search whose root does not come in under the ceiling is solved
    again without it, so a min test cost below det shows as a failed
    ``det<=test`` check, with det and its tree the public search's."""
    public = solvers.min_test_cost
    table = random_table(2, 6, 32, seed=1)
    for measure in MEASURES:
        det, tree = det_tree_cost(measure, table)
        assert det > 0
        cost, again = solvers._det_tree(measure, table, 0, det - 1)
        assert cost == det and same_tree(again, tree)
        monkeypatch.setattr(solvers, "min_test_cost", lambda m, t, det=det: (det - 1, public(m, t)[1]))
        report = parameter_report(measure, table)
        monkeypatch.setattr(solvers, "min_test_cost", public)
        assert report.det_cost == det and same_tree(report.det_tree, tree)
        assert "det<=test" in report.failed_checks
