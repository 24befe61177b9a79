"""The lemma checks reuse their parameter report.

``transfer_findings`` takes its test from the report and, when the test
keeps every column, its det tree from the report; the report's closure
separation sweep starts at the table's separation cost.  Both must give
exactly what the standalone computations give.
"""

import dataclasses

import pytest

from dtlab import trees, verify
from dtlab.closure import remove_columns
from dtlab.measures import NotDecomposable, depth, opaque, sum_of
from dtlab.randgen import SplitMix64, enumerate_small_tables, random_table
from dtlab.solvers import (
    closure_separation_cost,
    det_tree_cost,
    min_test_cost,
    parameter_report,
)
from dtlab.tables import validate
from dtlab.trees import DecisionTree, Leaf, Node, validate_deterministic
from dtlab.verify import VerifySuiteConfig, lemma_findings, standard_measures, table_stream
from dtlab.verify import transfer_findings

import oracles

_STANDARD = standard_measures()
MEASURES = _STANDARD + (("sum(maxw,depth)", sum_of(dict(_STANDARD)["maxw"], depth())),)


def reference_transfer_findings(measure, table):
    """``transfer_findings`` as it was before it took a report."""
    if table.is_empty or table.n_cols == 0:
        return []
    _, test = min_test_cost(measure, table)
    if not test:
        test = (table.columns[0],)
    keep = set(test)
    removed = tuple(a for a in table.columns if a not in keep)
    collapsed = remove_columns(removed, table)
    _, tree = det_tree_cost(measure, collapsed)
    result = validate_deterministic(tree, table)
    if not result:
        return ["det-tree-transfer: " + "; ".join(result.diagnostics)]
    return []


def differential_tables():
    yield from enumerate_small_tables(2, 3, 4)
    yield from table_stream(
        VerifySuiteConfig("lemmas", k=3, max_cols=3, max_rows=8, samples=200, seed=7)
    )


def outcome(fn, *args):
    """What a call returns, or the type of what it raises."""
    try:
        return fn(*args)
    except NotDecomposable:
        return NotDecomposable


@pytest.mark.parametrize("label, measure", MEASURES, ids=[m[0] for m in MEASURES])
def test_transfer_with_report_matches_reference(label, measure):
    tables = list(differential_tables())
    assert len(tables) > 1700
    for table in tables:
        report = parameter_report(measure, table)
        want = reference_transfer_findings(measure, table)
        assert transfer_findings(measure, table, report) == want, (label, table)
        assert lemma_findings(measure, table) == list(report.failed_checks) + want, (label, table)


def test_opaque_part_raises_on_the_same_inputs():
    measure = sum_of(depth(), opaque(lambda idx: sum(1 + i % 3 for i in idx)))
    raised = 0
    for table in differential_tables():
        report = parameter_report(measure, table)
        want = outcome(reference_transfer_findings, measure, table)
        assert outcome(transfer_findings, measure, table, report) == want, table
        raised += want is NotDecomposable
    assert raised > 1000


def test_failed_det_witness_keeps_its_diagnostics():
    # every column is a test here, so the report's own tree is checked
    table = validate(2, [0, 1], [((0, 0), 0), ((0, 1), 1), ((1, 0), 1), ((1, 1), 0)])
    measure = depth()
    report = parameter_report(measure, table)
    assert set(report.test_witness) == set(table.columns)
    broken = DecisionTree(2, (Node(table.columns[0], ((0, Leaf(0)), (1, Leaf(1)))),))
    bad = validate_deterministic(broken, table)
    assert not bad
    planted = dataclasses.replace(
        report, det_tree=broken, failed_checks=report.failed_checks + ("det-witness-validates",)
    )
    want = ["det-tree-transfer: " + "; ".join(bad.diagnostics)]
    assert transfer_findings(measure, table, planted) == want
    assert transfer_findings(measure, table, report) == []


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_passing_report_tree_is_not_walked_again(monkeypatch):
    """With nothing removed, the transfer checks the report's det tree,
    which the report's passing check kept on the table's kernel: no
    search and no walk."""
    table = validate(2, [0, 1], [((0, 0), 0), ((0, 1), 1), ((1, 0), 1), ((1, 1), 0)])
    measure = depth()
    report = parameter_report(measure, table)
    assert set(report.test_witness) == set(table.columns)
    assert "det-witness-validates" in report.checks and not report.failed_checks
    searches = count_calls(monkeypatch, verify, "det_tree_cost")
    walks = count_calls(monkeypatch, trees, "_walk")
    assert transfer_findings(measure, table, report) == []
    assert (len(searches), len(walks)) == (0, 0)


def test_planted_failed_check_walks_the_tree(monkeypatch):
    """With the report's det check planted to fail on a tree that does
    not validate, the transfer walks that tree and returns its
    diagnostics, with no search."""
    table = validate(2, [0, 1], [((0, 0), 0), ((0, 1), 1), ((1, 0), 1), ((1, 1), 0)])
    measure = depth()
    report = parameter_report(measure, table)
    broken = DecisionTree(2, (Node(table.columns[0], ((0, Leaf(0)), (1, Leaf(1)))),))
    bad = validate_deterministic(broken, table)
    planted = dataclasses.replace(
        report, det_tree=broken, failed_checks=report.failed_checks + ("det-witness-validates",)
    )
    searches = count_calls(monkeypatch, verify, "det_tree_cost")
    walks = count_calls(monkeypatch, trees, "_walk")
    assert transfer_findings(measure, table, planted) == ["det-tree-transfer: " + "; ".join(bad.diagnostics)]
    assert (len(searches), len(walks)) == (0, 1)


def separation_tables():
    rng = SplitMix64(20261018)
    for _ in range(40):
        k = 2 + rng.below(2)
        cols = 1 + rng.below(3)
        rows = 1 + rng.below(min(7, k**cols))
        yield random_table(k, cols, rows, seed=rng)
    for k, cols in ((2, 1), (3, 1), (2, 3), (3, 2)):
        yield random_table(k, cols, 1, seed=k + cols)  # one row: separation 0
        # every row of the full cube needs every column
        yield random_table(k, cols, k**cols, seed=k * cols)


@pytest.mark.parametrize("label, measure", MEASURES, ids=[m[0] for m in MEASURES])
def test_report_closure_separation_matches_oracle(label, measure):
    shapes = set()
    for table in separation_tables():
        report = parameter_report(measure, table)
        want = oracles.brute_closure_separation(measure, table)
        assert report.closure_separation_cost == want == closure_separation_cost(measure, table)
        if table.n_rows == 1:
            shapes.add("one row")
        if table.n_cols == 1:
            shapes.add("one column")
        if report.separation_cost == report.attr_set_cost > 0:
            shapes.add("separation = attr-set cost")
    assert shapes == {"one row", "one column", "separation = attr-set cost"}
