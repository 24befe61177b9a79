"""Solvers, validators, closures and growth sweeps leave no reference cycles.

A call that leaves a cycle keeps its memo, trees and paths alive until
the cyclic garbage collector runs; with the collector off, everything a
call drops must be freed by reference counting alone.
"""

import gc

from dtlab.closure import ClosureLimits, enumerate_closure
from dtlab.explorer import GROWTH_FUNCTIONS, growth
from dtlab.measures import depth, sum_of
from dtlab.randgen import SplitMix64, random_table
from dtlab.solvers import det_tree_cost, det_tree_cost_bruteforce, parameter_report
from dtlab.tables import Attribute, is_constant
from dtlab.trees import (
    DecisionTree,
    Leaf,
    NoCompletePath,
    Node,
    attributes_of,
    complete_paths,
    format_tree,
    parse_tree,
    structural_problems,
    tree_cost,
    validate_deterministic,
    validate_strongly_nondeterministic,
)
from dtlab.verify import VerifySuiteConfig, lemma_findings, run_suite, standard_measures


def test_solvers_and_validators_leave_no_cycles():
    measures = [m for _, m in standard_measures()]
    measures.append(sum_of(measures[2], depth()))
    rng = SplitMix64(20261018)
    tables = []
    for _ in range(12):
        k = 2 + rng.below(2)
        cols = 1 + rng.below(4)
        tables.append(random_table(k, cols, 1 + rng.below(min(8, k**cols)), seed=rng))
    gc.collect()
    gc.disable()
    try:
        for measure in measures:
            for table in tables:
                report = parameter_report(measure, table)
                _, tree = det_tree_cost(measure, table)
                det_tree_cost_bruteforce(measure, table)
                validate_deterministic(tree, table)
                if report.snd_tree is not None:
                    validate_strongly_nondeterministic(report.snd_tree, table)
                complete_paths(tree)
                attributes_of(tree)
                parse_tree(format_tree(tree), tree.k).node_count()
                lemma_findings(measure, table)
        # a suite builds and drops its own measure bundle, with their subset orders
        run_suite(VerifySuiteConfig("lemmas", max_cols=2, max_rows=3))
        assert gc.collect() == 0
    finally:
        gc.enable()


def invalid_trees(tree):
    """Trees failing the shape checks, the root-edge and duplicate-value
    checks, and the path checks of both validators."""
    bad = Node(Attribute(99), ((0, Leaf(7)), (0, Leaf(1)), (5, Node(Attribute(98), ()))))
    flipped = DecisionTree(tree.k, tuple(_flip(c) for c in tree.children))
    return [
        DecisionTree(tree.k, ()),
        DecisionTree(1, tree.children + (bad,)),
        DecisionTree(tree.k, tree.children * 2),
        flipped,
        DecisionTree(tree.k, (Leaf(1),)),
    ]


def _flip(node):
    if isinstance(node, Leaf):
        return Leaf(1 - node.decision)
    return Node(node.attribute, tuple((v, _flip(c)) for v, c in node.edges))


def test_invalid_trees_leave_no_cycles():
    measure = depth()
    checked = []
    trees = []
    for seed in range(6):
        table = random_table(2 + seed % 2, 3, 6, seed=20261019 + seed)
        _, tree = det_tree_cost(measure, table)
        trees.append((table, tree))
    gc.collect()
    gc.disable()
    try:
        for table, tree in trees:
            for bad in invalid_trees(tree):
                structural_problems(bad)
                try:
                    tree_cost(measure, bad)
                except NoCompletePath:
                    assert not complete_paths(bad)
                det = validate_deterministic(bad, table)
                checked.append(det.ok)
                if not is_constant(table):
                    snd = validate_strongly_nondeterministic(bad, table)
                    checked.append(snd.ok)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert checked and not any(checked)


def test_closure_and_growth_leave_no_cycles():
    # enumerate_closure pauses the collector on the premise that members,
    # bases and the enumeration hold no cycles; growth reads the members
    table = random_table(2, 4, 8, seed=1)
    pair = [random_table(2, 3, 5, seed=2), random_table(2, 4, 6, seed=3)]
    gc.collect()
    gc.disable()
    try:
        enum = enumerate_closure([table])
        for limits in (
            ClosureLimits(max_tables=100),
            ClosureLimits(max_rows=3),
            ClosureLimits(max_columns=2),
        ):
            enumerate_closure([table], limits)
        enumerate_closure(pair)
        for fn in GROWTH_FUNCTIONS:
            growth(fn, [table], depth(), 4, enumeration=enum)
        del enum
        assert gc.collect() == 0
    finally:
        gc.enable()
