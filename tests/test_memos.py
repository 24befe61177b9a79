"""What later calls reuse: the det search's move table, kept on the
subset order of a measure instance and a column set, and the last
witness trees that validated, kept on the table's kernel.

A move table is shared by every table with the same column set under
one measure instance, whatever order the table lists its columns in, so
the search must give what a fresh instance gives.  A kept tree only
spares the walk of an equal tree on the same table object: any other
tree is walked, and a tree that fails is never kept.
"""

import random

from hypothesis import given
from hypothesis import strategies as st

from dtlab import solvers, trees
from dtlab.measures import additive, depth, max_weight, sum_of
from dtlab.randgen import random_table
from dtlab.solvers import det_tree_cost, det_tree_cost_bruteforce, parameter_report
from dtlab.tables import DecisionTable, _bits_of, validate
from dtlab.trees import DecisionTree, Leaf, Node

from conftest import tables_st

FACTORIES = {
    "additive": lambda: additive({0: 1, 1: 3, 2: 2, 3: 5}),
    "maxw": lambda: max_weight({0: 2, 1: 5, 3: 3}),
    "sum": lambda: sum_of(max_weight({1: 4, 2: 2}), depth()),
}
SHARED = {name: build() for name, build in FACTORIES.items()}


def shuffled(table, seed):
    """The table with its columns listed in a shuffled positional order."""
    order = list(range(table.n_cols))
    random.Random(seed).shuffle(order)
    rows = [(tuple(row[p] for p in order), d) for row, d in table.entries()]
    return validate(table.k, [table.columns[p] for p in order], rows)


@given(tables_st(max_k=3, max_cols=4, max_rows=8), st.integers(0, 2**32), st.sampled_from(sorted(FACTORIES)))
def test_shared_move_tables_give_a_fresh_instances_search(table, seed, name):
    table = shuffled(table, seed)
    cost, tree = det_tree_cost(SHARED[name], table)
    assert (cost, tree) == det_tree_cost(FACTORIES[name](), table)
    assert cost == det_tree_cost_bruteforce(FACTORIES[name](), table)


def flipped(node):
    if isinstance(node, Leaf):
        return Leaf(1 - node.decision)
    return Node(node.attribute, tuple((v, flipped(c)) for v, c in node.edges))


def counting_walks(monkeypatch):
    walked = []
    real = trees._walk

    def walk(tree, bits=None):
        walked.append(tree)
        return real(tree, bits)

    monkeypatch.setattr(trees, "_walk", walk)
    return walked


def test_a_kept_tree_spares_only_the_walk_of_an_equal_tree(monkeypatch):
    table = random_table(2, 4, 9, seed=11)
    measure = depth()
    walked = counting_walks(monkeypatch)
    first = parameter_report(measure, table)
    assert first.consistent and walked == [first.det_tree, first.snd_tree]
    bits = _bits_of(table)
    assert (bits.valid_det, bits.valid_snd) == (first.det_tree, first.snd_tree)

    walked.clear()
    assert parameter_report(measure, table).consistent
    assert walked == []  # both witnesses equal the kept ones

    # a planted wrong det tree is walked, fails, and is not kept
    wrong = DecisionTree(table.k, tuple(flipped(c) for c in first.det_tree.children))
    monkeypatch.setattr(solvers, "_det_tree", lambda m, t, least, most: (first.det_cost, wrong))
    planted = parameter_report(measure, table)
    assert walked == [wrong]
    assert "det-witness-validates" in planted.failed_checks
    assert bits.valid_det == first.det_tree
    monkeypatch.undo()

    # an equal table object has a kernel of its own, with no tree kept
    walked = counting_walks(monkeypatch)
    twin = DecisionTable(table.k, table.columns, table.rows, table.decisions)
    assert twin == table and twin is not table
    again = parameter_report(measure, twin)
    assert again.consistent and walked == [first.det_tree, first.snd_tree]


def test_a_failing_tree_is_never_kept():
    table = random_table(2, 3, 6, seed=4)
    _, tree = det_tree_cost(depth(), table)
    wrong = DecisionTree(table.k, tuple(flipped(c) for c in tree.children))
    result = trees._validated(wrong, table)
    assert not result and result.diagnostics == trees.validate_deterministic(wrong, table).diagnostics
    assert _bits_of(table).valid_det is None
    assert trees._validated(tree, table)
    assert _bits_of(table).valid_det == tree
    assert trees._validated(wrong, table).diagnostics == result.diagnostics
    assert _bits_of(table).valid_det == tree
