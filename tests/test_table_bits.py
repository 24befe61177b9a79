"""The bit kernel of the solvers and validators, against slow references.

The validators find each path's rows by AND-ing value masks; the
reference validators below are the earlier ones that build a
``restrict``ed subtable per path, and every ``ValidationResult`` (or
raised error) must match them exactly.  The all-rows separation routine
must give each row the value and witness of ``row_separation_cost`` and
of the brute-force oracle.  Tables are slotted and store nothing: a
depth report leaves its depth triple in a one-table slot, which a later
report reads only for that very table object.  The
kernel slot serves calls on one table object from one kernel, keeps no
earlier table alive, and gives the answers of a fresh kernel per call.
"""

import gc
import weakref
from dataclasses import fields, replace
from itertools import product

import pytest

from dtlab import solvers
from dtlab.closure import enumerate_closure
from dtlab.explorer import GROWTH_FUNCTIONS, growth
from dtlab.measures import additive, depth
from dtlab.randgen import random_table
from dtlab.solvers import (
    _row_separations,
    closure_separation_cost,
    det_tree_cost,
    det_tree_cost_bruteforce,
    fixing_cost,
    min_test_cost,
    parameter_report,
    row_separation_cost,
    snd_tree_cost,
)
from dtlab.tables import (
    LANE_BITS,
    Attribute,
    DecisionTable,
    ValueOutOfRange,
    _bits_of,
    _TableBits,
    is_constant,
    is_test,
    restrict,
    validate,
)
from dtlab.trees import (
    DecisionTree,
    Leaf,
    Node,
    NotApplicable,
    ValidationResult,
    _check_attributes,
    attributes_of,
    complete_paths,
    structural_problems,
    validate_deterministic,
    validate_strongly_nondeterministic,
)
from dtlab.verify import standard_measures

import oracles

MEASURES = standard_measures()
SHAPES = [(2, 2, 3), (2, 3, 5), (2, 3, 8), (2, 4, 9), (3, 2, 5), (3, 3, 9), (3, 3, 14)]


def seeded_tables():
    for i, (k, cols, rows) in enumerate(SHAPES):
        for seed in range(4):
            yield f"k{k}c{cols}r{rows}s{seed}", random_table(k, cols, rows, seed=7000 + 10 * i + seed)


TABLES = list(seeded_tables())


# ---------------------------------------------------------------------------
# reference validators: one restricted subtable per path


def _row_on_path(row, table, path):
    return all(row[table.column_position(a)] == v for a, v in path.fixings)


def ref_validate_deterministic(tree, table):
    if table.is_empty:
        raise NotApplicable("deterministic trees are defined for nonempty tables only")
    problems = structural_problems(tree)
    if len(tree.children) != 1:
        problems.append(f"{len(tree.children)} edges leave the root; exactly one is allowed")

    def walk(node):
        if isinstance(node, Leaf):
            return
        values = [v for v, _ in node.edges]
        if len(set(values)) != len(values):
            problems.append(f"duplicate edge values {values} at node {node.attribute.name}")
        for _, child in node.edges:
            walk(child)

    for child in tree.children:
        walk(child)
    problems += _check_attributes(attributes_of(tree), table)
    if problems:
        return ValidationResult(False, tuple(problems))
    paths = complete_paths(tree)
    for row in table.rows:
        if not any(_row_on_path(row, table, p) for p in paths):
            problems.append(f"row {row} reaches no complete path")
    for i, path in enumerate(paths):
        sub = restrict(table, path.fixings)
        if sub.is_empty:
            continue
        if any(d != path.decision for d in sub.decisions):
            problems.append(
                f"path {i} ends in decision {path.decision} but its subtable "
                f"has rows labeled otherwise"
            )
    ok = not problems
    if ok:
        assert is_test(table, attributes_of(tree))
    return ValidationResult(ok, tuple(problems))


def ref_validate_strongly_nondeterministic(tree, table):
    if is_constant(table):
        raise NotApplicable(
            "strongly nondeterministic trees are defined for non-constant tables only"
        )
    problems = structural_problems(tree)
    problems += _check_attributes(attributes_of(tree), table)
    paths = complete_paths(tree)
    for p in paths:
        if p.decision != 1:
            problems.append("a terminal node carries decision 0; all must carry 1")
            break
    if problems:
        return ValidationResult(False, tuple(problems))
    for row, d in table.entries():
        if d == 1 and not any(_row_on_path(row, table, p) for p in paths):
            problems.append(f"1-row {row} reaches no complete path")
    for i, path in enumerate(paths):
        sub = restrict(table, path.fixings)
        if not sub.is_empty and any(d != 1 for d in sub.decisions):
            problems.append(f"path {i} has a subtable with a 0-row")
    ok = not problems
    if ok:
        assert is_test(table, attributes_of(tree))
    return ValidationResult(ok, tuple(problems))


def outcome(validator, tree, table):
    """The validator's result, or the type and message of what it raised."""
    try:
        return validator(tree, table)
    except (NotApplicable, ValueOutOfRange) as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# tree mutations


def _edit_first_node(tree, edit):
    """Apply ``edit`` to the first root child that is an attribute node."""
    for i, child in enumerate(tree.children):
        if isinstance(child, Node):
            return DecisionTree(tree.k, tree.children[:i] + (edit(child),) + tree.children[i + 1 :])
    return None


def _edit_deepest_node(tree, edit):
    """Apply ``edit`` to the last attribute node whose children are all leaves."""
    target = None

    def find(node):
        nonlocal target
        if isinstance(node, Leaf):
            return
        if all(isinstance(c, Leaf) for _, c in node.edges):
            target = node
        for _, c in node.edges:
            find(c)

    for c in tree.children:
        find(c)
    if target is None:
        return None

    def rebuild(node):
        if node is target:
            return edit(node)
        if isinstance(node, Leaf):
            return node
        return Node(node.attribute, tuple((v, rebuild(c)) for v, c in node.edges))

    return DecisionTree(tree.k, tuple(rebuild(c) for c in tree.children))


def flip_leaf(tree):
    def edit(node):
        (v, leaf), *rest = node.edges
        return Node(node.attribute, ((v, Leaf(1 - leaf.decision)), *rest))

    first, *rest = tree.children
    if isinstance(first, Leaf):  # the tree of a constant table
        return DecisionTree(tree.k, (Leaf(1 - first.decision), *rest))
    return _edit_deepest_node(tree, edit)


def collapse_node(tree):
    """Replace a node by one of its leaves, so its path mixes decisions."""
    return _edit_first_node(tree, lambda node: _first_leaf(node))


def _first_leaf(node):
    while not isinstance(node, Leaf):
        node = node.edges[0][1]
    return node


def drop_edge(tree):
    return _edit_first_node(tree, lambda node: Node(node.attribute, node.edges[:-1]))


def foreign_attribute(tree):
    return _edit_first_node(tree, lambda node: Node(Attribute(99), node.edges))


def duplicate_values(tree):
    def edit(node):
        if len(node.edges) < 2:
            return Node(node.attribute, node.edges + node.edges)
        (v, _), (_, c), *rest = node.edges
        return Node(node.attribute, (node.edges[0], (v, c), *rest))

    return _edit_first_node(tree, edit)


def value_beyond_table(tree, table_k):
    """An edge value equal to the table's k, legal under a tree k one larger."""
    def edit(node):
        (_, c), *rest = node.edges
        return Node(node.attribute, ((table_k, c), *rest))

    mutated = _edit_deepest_node(tree, edit)
    return None if mutated is None else replace(mutated, k=table_k + 1)


def drop_root_edge(tree):
    return DecisionTree(tree.k, tree.children[1:]) if len(tree.children) > 1 else None


def shorten_rule(tree):
    """Drop the deepest fixing of the first rule, widening its subtable."""
    def shorten(node):
        (_, child), *_ = node.edges
        if isinstance(child, Leaf):
            return child
        return Node(node.attribute, ((node.edges[0][0], shorten(child)),))

    first, *rest = tree.children
    if isinstance(first, Leaf):
        return None
    return DecisionTree(tree.k, (shorten(first), *rest))


def variants(tree, table):
    """The tree and its mutations (those that apply), with labels."""
    out = [("witness", tree)]
    for name, fn in [
        ("flip-leaf", flip_leaf),
        ("collapse-node", collapse_node),
        ("drop-edge", drop_edge),
        ("foreign-attribute", foreign_attribute),
        ("duplicate-values", duplicate_values),
        ("drop-root-edge", drop_root_edge),
        ("shorten-rule", shorten_rule),
    ]:
        mutated = fn(tree)
        if mutated is not None:
            out.append((name, mutated))
    wide = value_beyond_table(tree, table.k)
    if wide is not None:
        out.append(("value-beyond-table", wide))
    return out


def witness_trees(table):
    for label, measure in MEASURES:
        det = det_tree_cost(measure, table)[1]
        if det is not None:
            yield f"det-{label}", det
        snd = snd_tree_cost(measure, table)[1]
        if snd is not None:
            yield f"snd-{label}", snd


@pytest.mark.parametrize("table", [t for _, t in TABLES], ids=[tid for tid, _ in TABLES])
def test_validators_match_restrict_reference(table):
    seen = set()
    for source, tree in witness_trees(table):
        for name, variant in variants(tree, table):
            for fast, ref in [
                (validate_deterministic, ref_validate_deterministic),
                (validate_strongly_nondeterministic, ref_validate_strongly_nondeterministic),
            ]:
                got = outcome(fast, variant, table)
                assert got == outcome(ref, variant, table), (source, name, fast.__name__)
                seen.add((name, fast.__name__, got if isinstance(got, tuple) else got.ok))
    # the mutations reach both verdicts and the out-of-range error
    names = {(name, verdict) for name, _, verdict in seen}
    assert ("witness", True) in names
    assert ("flip-leaf", False) in names
    if not is_constant(table):
        assert any(name == "value-beyond-table" and isinstance(v, tuple) for name, _, v in seen)


def shape_breakers(tree, table_k):
    """Trees breaking each bare-shape rule, which the mutations above keep."""
    wide = value_beyond_table(tree, table_k)
    out = [
        replace(tree, k=1),
        DecisionTree(tree.k, ()),
        DecisionTree(tree.k, (Leaf(7), *tree.children, Node(Attribute(0), ()))),
    ]
    if wide is not None:
        out.append(replace(wide, k=table_k))  # the edge value is outside the tree's own E_k
    return out


@pytest.mark.parametrize("table", [t for _, t in TABLES], ids=[tid for tid, _ in TABLES])
def test_tree_helpers_match_definition_oracles(table):
    problems = set()
    for source, tree in witness_trees(table):
        trees = [v for _, v in variants(tree, table)] + shape_breakers(tree, table.k)
        for variant in trees:
            shape = structural_problems(variant)
            assert shape == oracles.brute_tree_shape_problems(variant), (source, variant)
            assert attributes_of(variant) == oracles.brute_tree_attributes(variant), source
            got = [(p.word, p.fixings, p.decision) for p in complete_paths(variant)]
            assert got == oracles.brute_tree_paths(variant), (source, variant)
            problems.update(d.split(" ")[0] for d in shape)
    # every kind of shape problem came up: root, alphabet, terminal,
    # edgeless node and edge value
    assert problems >= {"the", "alphabet", "terminal", "attribute"}
    if not is_constant(table):
        assert "edge" in problems


def test_value_beyond_table_raises_like_restrict():
    table = validate(2, [0, 1], [((0, 0), 0), ((0, 1), 1), ((1, 0), 1)])
    tree = DecisionTree(3, (Node(Attribute(0), ((0, Node(Attribute(1), ((0, Leaf(0)), (1, Leaf(1))))), (2, Leaf(1)))),))
    with pytest.raises(ValueOutOfRange, match="fixing value 2 is outside E_2"):
        validate_deterministic(tree, table)
    rule = DecisionTree(3, (Node(Attribute(1), ((2, Leaf(1)),)), Node(Attribute(0), ((1, Leaf(1)),))))
    with pytest.raises(ValueOutOfRange, match="fixing value 2 is outside E_2"):
        validate_strongly_nondeterministic(rule, table)


def test_uncovered_rows_and_mixed_paths_are_named_in_order():
    table = validate(
        2, [0, 1], [((1, 1), 1), ((0, 1), 0), ((1, 0), 1), ((0, 0), 0)]
    )
    lone = DecisionTree(2, (Node(Attribute(0), ((1, Leaf(1)),)),))
    result = validate_deterministic(lone, table)
    assert result == ref_validate_deterministic(lone, table)
    assert result.diagnostics == ("row (0, 1) reaches no complete path", "row (0, 0) reaches no complete path")
    mixed = DecisionTree(2, (Node(Attribute(1), ((1, Leaf(1)), (0, Leaf(1)))),))
    result = validate_deterministic(mixed, table)
    assert result == ref_validate_deterministic(mixed, table)
    assert not result.ok
    rules = DecisionTree(2, (Node(Attribute(1), ((1, Leaf(1)),)),))
    result = validate_strongly_nondeterministic(rules, table)
    assert result == ref_validate_strongly_nondeterministic(rules, table)
    assert result.diagnostics == (
        "1-row (1, 0) reaches no complete path",
        "path 0 has a subtable with a 0-row",
    )


# ---------------------------------------------------------------------------
# the kernel's fields against plain tuple comparisons


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("k, cols, rows", [(2, 3, 6), (3, 4, 20), (5, 3, 30), (2, 9, 40), (3, 17, 25), (2, 20, 12)])
def test_kernel_fields_match_plain_computation(k, cols, rows, reverse):
    t = random_table(k, cols, rows, seed=cols * 100 + rows)
    if reverse:
        t = validate(k, t.columns[::-1], [(r[::-1], d) for r, d in t.entries()])
    bits = _TableBits(t)
    ranks = sorted(range(cols), key=lambda p: t.columns[p].index)
    assert bits.ranks == ranks
    absent = next(v for v in product(range(k), repeat=cols) if v not in t.rows)
    for values in [*t.rows, absent]:
        assert bits.rank_values(values) == [
            sum(1 << i for i, row in enumerate(t.rows) if row[p] == values[p]) for p in ranks
        ]
    for p in range(cols):
        for v in range(k):
            assert bits.masks[p][v] == sum(1 << i for i, row in enumerate(t.rows) if row[p] == v)
    assert bits.ones == sum(d << i for i, d in enumerate(t.decisions))
    assert bits.full == (1 << rows) - 1
    assert all(bits.position[a] == p for p, a in enumerate(t.columns))


@pytest.mark.parametrize("k, cols, rows", [(2, 3, 6), (3, 4, 20), (2, 9, 127), (2, 9, 128), (3, 7, 300)])
def test_row_lanes_match_plain_computation(k, cols, rows):
    t = random_table(k, cols, rows, seed=cols * 100 + rows)
    bits = _TableBits(t)
    width = rows + 1
    ranks = sorted(range(cols), key=lambda p: t.columns[p].index)

    def plain(first, stop):
        return [
            sum(
                sum(1 << i for i, other in enumerate(t.rows) if other[p] == row[p]) << (j - first) * width
                for j, row in enumerate(t.rows[first:stop], first)
            )
            for p in ranks
        ]

    for first, stop in [(0, rows), (0, 1), (rows // 2, rows), (rows - 1, rows)]:
        assert bits.row_lanes(first, stop) == plain(first, stop)
    # the lanes of all rows are kept only when they fit one wide mask
    assert (bits.row_lanes(0, rows) is bits.row_lanes(0, rows)) == (rows * width <= LANE_BITS)


@pytest.mark.parametrize("table", [t for _, t in TABLES], ids=[tid for tid, _ in TABLES])
def test_all_rows_separation_matches_per_row_and_oracle(table):
    for _, measure in MEASURES:
        per_row = [row_separation_cost(measure, table, r) for r in table.rows]
        assert _row_separations(measure, table) == per_row
        assert per_row == [oracles.brute_row_separation(measure, table, r) for r in table.rows]


# ---------------------------------------------------------------------------
# the depth slot, and tables that store nothing


def test_depth_report_fills_the_one_table_depth_slot():
    table = random_table(3, 3, 9, seed=11)
    depth_report = parameter_report(depth(), table)
    want = (depth_report.min_test_cost, depth_report.det_cost, depth_report.separation_cost)
    assert solvers._depth_slot == (table, want)
    # only a depth report writes the slot
    for _, measure in MEASURES[1:]:
        parameter_report(measure, table)
        det_tree_cost(depth(), random_table(2, 3, 5, seed=12))
    assert solvers._depth_slot == (table, want)
    # the slot holds at most one table: the next depth report replaces it
    other = random_table(2, 3, 5, seed=13)
    gone = weakref.ref(table)
    parameter_report(depth(), other)
    held, _ = solvers._depth_slot
    assert held is other
    gc.collect()
    gc.disable()
    try:
        del table, held
        assert gone() is None
    finally:
        gc.enable()


def test_non_depth_report_reads_the_depth_slot_of_its_own_table(monkeypatch):
    measure = additive({0: 2, 1: 1, 2: 3, 3: 1})
    small = validate(2, [0, 1], [((0, 0), 0), ((1, 1), 1)])
    fresh = parameter_report(measure, small)
    assert fresh.consistent
    # a depth report on another table must not feed small's checks: the
    # parity table's min test (4) breaks test <= rows - 1 on two rows
    parity = validate(2, range(4), [(r, sum(r) % 2) for r in product((0, 1), repeat=4)])
    assert parameter_report(depth(), parity).min_test_cost == 4
    assert parameter_report(measure, small) == fresh
    # nor may a triple left for an equal table that is another object
    monkeypatch.setattr(solvers, "_depth_slot", (replace(small), (0, 0, 0)))
    assert parameter_report(measure, small) == fresh
    # small's own triple is read: a wrong one planted for it fails the checks
    monkeypatch.setattr(solvers, "_depth_slot", (small, (0, 0, 0)))
    assert not parameter_report(measure, small).consistent
    parameter_report(depth(), small)
    assert parameter_report(measure, small) == fresh


def test_non_depth_report_solves_depth_only_without_the_slot(monkeypatch):
    depth_solves = []

    def counting(measure, table):
        if measure.kind == "depth":
            depth_solves.append(table)
        return det_tree_cost(measure, table)

    monkeypatch.setattr(solvers, "det_tree_cost", counting)
    measure = MEASURES[1][1]
    table, other = random_table(2, 4, 9, seed=14), random_table(2, 4, 9, seed=15)
    parameter_report(depth(), table)
    depth_solves.clear()
    report = parameter_report(measure, table)
    assert depth_solves == []
    parameter_report(depth(), other)
    depth_solves.clear()
    assert parameter_report(measure, table) == report
    assert depth_solves == [table]


def test_growth_leaves_member_tables_slotted_and_equal_to_their_twins():
    gen = random_table(2, 3, 5, seed=4)
    enum = enumerate_closure([gen])
    for fn in GROWTH_FUNCTIONS:
        growth(fn, [gen], depth(), 3, enumeration=enum)
    for t in [gen, *enum.tables()]:
        assert not hasattr(t, "__dict__")
        twin = DecisionTable(t.k, t.columns, t.rows, t.decisions)
        assert t == twin and hash(t) == hash(twin)
    assert {f.name for f in fields(DecisionTable)} == set(DecisionTable.__slots__)


# ---------------------------------------------------------------------------
# the one-table kernel slot


def test_calls_on_one_table_share_one_kernel():
    table = random_table(2, 4, 9, seed=21)
    measure = MEASURES[1][1]
    bits = _bits_of(table)
    assert _bits_of(table) is bits
    report = parameter_report(measure, table)
    validate_strongly_nondeterministic(report.snd_tree, table)
    min_test_cost(measure, table)
    assert _bits_of(table) is bits
    twin = replace(table)  # equal, but another object
    assert twin == table and _bits_of(twin) is not bits


def test_slot_keeps_at_most_one_table_alive():
    first = random_table(2, 4, 9, seed=22)
    det_tree_cost(depth(), first)
    first_bits = weakref.ref(_bits_of(first))
    gone = weakref.ref(first)
    gc.collect()
    gc.disable()
    try:
        del first
        assert gone() is not None  # the slot holds the last table
        det_tree_cost(depth(), random_table(3, 3, 9, seed=23))
        assert gone() is None and first_bits() is None
    finally:
        gc.enable()


SLOT_CALLS = [
    ("min_test_cost", min_test_cost),
    ("row_separations", lambda m, t: [row_separation_cost(m, t, r) for r in t.rows]),
    ("closure_separation_cost", closure_separation_cost),
    ("fixing_cost", fixing_cost),
    ("det_tree_cost", det_tree_cost),
    ("det_tree_cost_bruteforce", det_tree_cost_bruteforce),
    ("snd_tree_cost", snd_tree_cost),
    ("parameter_report", parameter_report),
]


def test_interleaved_tables_match_a_fresh_kernel_per_call():
    a = random_table(2, 4, 9, seed=24)
    b = random_table(3, 3, 12, seed=25)
    trees = [tree for source in (a, b) for _, tree in witness_trees(source)]
    for _, measure in MEASURES:
        for name, call in SLOT_CALLS:
            got = [call(measure, t) for t in (a, b, a)]
            assert got == [call(measure, replace(t)) for t in (a, b, a)], name
    for tree in trees:
        for validator in (validate_deterministic, validate_strongly_nondeterministic):
            got = [outcome(validator, tree, t) for t in (a, b, a)]
            assert got == [outcome(validator, tree, replace(t)) for t in (a, b, a)]
