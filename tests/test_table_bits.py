"""The bit kernel of the solvers and validators, against slow references.

The validators find each path's rows by AND-ing value masks as they
walk the tree; the reference validators below build a ``restrict``ed
subtable per path of the definition oracles and collect the attribute
and duplicate-value problems themselves, and every ``ValidationResult``
(or raised error) must match them exactly, malformed tree objects
included.  ``is_test`` must match the pairwise definition on every
column subset.  The all-rows separation routine
must give each row the value and witness of ``row_separation_cost`` and
of the brute-force oracle.  Tables are slotted and store nothing: a
depth report leaves its depth triple on its table's kernel, which a
later report reads only for that very table object.  The kernel slot
serves calls on one table object from one kernel, keeps at most two
tables alive, and gives the answers of a fresh kernel per call; report
witnesses name the table's own column objects.
"""

import gc
import weakref
from dataclasses import fields, replace
from itertools import combinations, product

import pytest
from hypothesis import given

from dtlab import solvers, tables, verify
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
    fixing_cost_for_tuple,
    min_cost_subset,
    min_test_cost,
    minimal_rule,
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
    attributes_of,
    complete_paths,
    structural_problems,
    validate_deterministic,
    validate_strongly_nondeterministic,
)
from dtlab.verify import lemma_findings, standard_measures

import oracles
from conftest import tables_st
from test_trees import MALFORMED, trees_st

MEASURES = standard_measures()
SHAPES = [(2, 2, 3), (2, 3, 5), (2, 3, 8), (2, 4, 9), (3, 2, 5), (3, 3, 9), (3, 3, 14)]


def seeded_tables():
    for i, (k, cols, rows) in enumerate(SHAPES):
        for seed in range(4):
            yield f"k{k}c{cols}r{rows}s{seed}", random_table(k, cols, rows, seed=7000 + 10 * i + seed)


TABLES = list(seeded_tables())


# ---------------------------------------------------------------------------
# reference validators: one restricted subtable per path


def _ref_parts(tree):
    """The root edge count (None if the children cannot be read), the
    attributes, the duplicate-value problems and the terminal decisions of
    the nodes a shape walk can read: leaves and nodes of an ``Attribute``
    with a hashable index, reached through (value, child) pairs."""
    try:
        children = list(tree.children)
    except TypeError:
        children = None
    attrs, duplicates, decisions = set(), [], []

    def visit(node):
        if isinstance(node, Leaf):
            decisions.append(node.decision)
            return
        if not (isinstance(node, Node) and isinstance(node.attribute, Attribute)):
            return
        try:
            attrs.add(node.attribute)
            edges = [e for e in node.edges if isinstance(e, tuple) and len(e) == 2]
        except TypeError:  # an unhashable index, or edges that cannot be iterated
            return
        values = [v for v, _ in edges]
        if any(v in values[:i] for i, v in enumerate(values)):
            duplicates.append(f"duplicate edge values {values} at node {node.attribute.name}")
        for _, child in edges:
            visit(child)

    for child in children or ():
        visit(child)
    return None if children is None else len(children), attrs, duplicates, decisions


def _ref_foreign(attrs, table):
    names = sorted(a.name for a in attrs if a not in table.columns)
    return [f"tree tests attributes outside the table's columns: {','.join(names)}"] if names else []


def _row_on_path(row, table, fixings):
    return all(row[table.column_position(a)] == v for a, v in fixings)


def ref_validate_deterministic(tree, table):
    if table.is_empty:
        raise NotApplicable("deterministic trees are defined for nonempty tables only")
    roots, attrs, duplicates, _ = _ref_parts(tree)
    problems = structural_problems(tree)
    if roots not in (1, None):
        problems.append(f"{roots} edges leave the root; exactly one is allowed")
    problems += duplicates + _ref_foreign(attrs, table)
    if problems:
        return ValidationResult(False, tuple(problems))
    paths = oracles.brute_tree_paths(tree)
    for row in table.rows:
        if not any(_row_on_path(row, table, fixings) for _, fixings, _ in paths):
            problems.append(f"row {row} reaches no complete path")
    for i, (_, fixings, decision) in enumerate(paths):
        sub = restrict(table, fixings)
        if sub.is_empty:
            continue
        if any(d != decision for d in sub.decisions):
            problems.append(
                f"path {i} ends in decision {decision} but its subtable "
                f"has rows labeled otherwise"
            )
    ok = not problems
    if ok:
        assert oracles.brute_is_test(table, attrs)
    return ValidationResult(ok, tuple(problems))


def ref_validate_strongly_nondeterministic(tree, table):
    if is_constant(table):
        raise NotApplicable(
            "strongly nondeterministic trees are defined for non-constant tables only"
        )
    _, attrs, _, decisions = _ref_parts(tree)
    problems = structural_problems(tree) + _ref_foreign(attrs, table)
    if any(d != 1 for d in decisions):
        problems.append("a terminal node carries decision 0; all must carry 1")
    if problems:
        return ValidationResult(False, tuple(problems))
    paths = oracles.brute_tree_paths(tree)
    for row, d in table.entries():
        if d == 1 and not any(_row_on_path(row, table, fixings) for _, fixings, _ in paths):
            problems.append(f"1-row {row} reaches no complete path")
    for i, (_, fixings, _) in enumerate(paths):
        sub = restrict(table, fixings)
        if not sub.is_empty and any(d != 1 for d in sub.decisions):
            problems.append(f"path {i} has a subtable with a 0-row")
    ok = not problems
    if ok:
        assert oracles.brute_is_test(table, attrs)
    return ValidationResult(ok, tuple(problems))


VALIDATORS = [
    (validate_deterministic, ref_validate_deterministic),
    (validate_strongly_nondeterministic, ref_validate_strongly_nondeterministic),
]


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
            for fast, ref in VALIDATORS:
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


def test_first_value_outside_the_table_in_path_order_is_named():
    table = validate(2, [0, 1], [((0, 0), 0), ((0, 1), 1), ((1, 0), 1)])
    # path order: f0=0 f1=0, f0=0 f1=3, f0=2; pushed-sibling order would meet 2 first
    inner = Node(Attribute(1), ((0, Leaf(0)), (3, Leaf(1))))
    tree = DecisionTree(4, (Node(Attribute(0), ((0, inner), (2, Leaf(1)))),))
    for validate_tree in (validate_deterministic, ref_validate_deterministic):
        with pytest.raises(ValueOutOfRange, match="^fixing value 3 is outside E_2$"):
            validate_tree(tree, table)


def test_a_problem_wins_over_a_value_outside_the_table():
    # the edge value 2 is in the tree's E_3 but not the table's E_2, and
    # sits below f7, which is no column: the attribute problem is the verdict
    table = validate(2, [0, 1], [((0, 0), 0), ((0, 1), 1), ((1, 0), 1)])
    det = DecisionTree(3, (Node(Attribute(7), ((2, Leaf(1)), (0, Leaf(0)))),))
    rules = DecisionTree(3, (Node(Attribute(7), ((2, Leaf(1)),)), Node(Attribute(0), ((1, Leaf(1)),))))
    foreign = ("tree tests attributes outside the table's columns: f7",)
    for fast, ref, tree in [
        (validate_deterministic, ref_validate_deterministic, det),
        (validate_strongly_nondeterministic, ref_validate_strongly_nondeterministic, rules),
    ]:
        assert fast(tree, table) == ref(tree, table) == ValidationResult(False, foreign)


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_tree_objects_match_reference_validators(name):
    tree, _ = MALFORMED[name]
    for _, table in TABLES[::4]:
        for fast, ref in VALIDATORS:
            assert outcome(fast, tree, table) == outcome(ref, tree, table), (table, fast.__name__)


@given(trees_st(), tables_st(max_k=3, max_cols=5, max_rows=6))
def test_tree_objects_match_reference_validators(tree, table):
    for fast, ref in VALIDATORS:
        assert outcome(fast, tree, table) == outcome(ref, tree, table), fast.__name__


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


IS_TEST_TABLES = [
    *TABLES,
    ("empty", validate(2, [0, 1], [])),
    ("all-one", validate(3, [0, 2], [((0, 1), 1), ((2, 2), 1), ((1, 0), 1)])),
    ("all-zero", validate(2, [1, 0, 2], [((0, 1, 1), 0), ((1, 1, 0), 0)])),
    ("one-row", validate(2, [4, 3], [((1, 0), 1)])),
    ("uncached-k3c5r100", random_table(3, 5, 100, seed=7100)),
]


@pytest.mark.parametrize("table", [t for _, t in IS_TEST_TABLES], ids=[tid for tid, _ in IS_TEST_TABLES])
def test_is_test_matches_the_pairwise_definition(table):
    cols = table.columns
    bits = _TableBits(table)
    for size in range(len(cols) + 1):
        for positions in combinations(range(len(cols)), size):
            attrs = [cols[p] for p in positions]
            want = oracles.brute_is_test(table, attrs)
            assert bits.is_test(positions) == is_test(table, attrs) == want, positions
    # the test lanes are kept exactly when they fit one wide mask
    zeros = table.decisions.count(0)
    assert (bits.test_lanes() is bits.test_lanes()) == (1 + zeros * table.n_rows <= LANE_BITS)
    if table.n_rows == 100:
        assert 1 + zeros * table.n_rows > LANE_BITS


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
# the depth triple on the kernel, and tables that store nothing


def test_only_depth_reports_write_the_triple_on_the_kernel():
    table = random_table(3, 3, 9, seed=11)
    for _, measure in MEASURES[1:]:
        parameter_report(measure, table)
    assert _bits_of(table).depth is None
    depth_report = parameter_report(depth(), table)
    want = (depth_report.min_test_cost, depth_report.det_cost, depth_report.separation_cost)
    assert _bits_of(table).depth == want
    # non-depth reports leave it, and so do solves on one other table
    for _, measure in MEASURES[1:]:
        parameter_report(measure, table)
        det_tree_cost(depth(), random_table(2, 3, 5, seed=12))
    assert _bits_of(table).depth == want


def test_non_depth_report_reads_the_triple_of_its_own_table_object():
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
    twin = replace(small)
    _bits_of(twin).depth = (0, 0, 0)
    assert parameter_report(measure, small) == fresh
    # small's own triple is read: a wrong one planted on its kernel fails the checks
    _bits_of(small).depth = (0, 0, 0)
    assert not parameter_report(measure, small).consistent
    parameter_report(depth(), small)
    assert parameter_report(measure, small) == fresh


def test_non_depth_report_solves_the_triple_once_two_other_tables_were_used(monkeypatch):
    depth_solves = []
    search = solvers._det_tree  # what reports, their depth triples and det_tree_cost all call

    def counting(measure, table, *bounds):
        if measure.kind == "depth":
            depth_solves.append(table)
        return search(measure, table, *bounds)

    monkeypatch.setattr(solvers, "_det_tree", counting)
    measure = MEASURES[1][1]
    table = random_table(2, 4, 9, seed=14)
    other, third = random_table(2, 4, 9, seed=15), random_table(2, 4, 9, seed=16)
    parameter_report(depth(), table)
    depth_solves.clear()
    report = parameter_report(measure, table)
    assert depth_solves == []
    # one other table leaves table's kernel, and its triple, in the slot
    parameter_report(depth(), other)
    depth_solves.clear()
    assert parameter_report(measure, table) == report
    assert depth_solves == []
    # two other tables evict it, so the triple is solved again
    parameter_report(depth(), other)
    parameter_report(depth(), third)
    depth_solves.clear()
    assert parameter_report(measure, table) == report
    assert depth_solves == [table]


def test_report_witnesses_name_the_tables_own_column_objects():
    def tree_attributes(tree):
        pending, found = list(tree.children), []
        while pending:
            node = pending.pop()
            if isinstance(node, Node):
                found.append(node.attribute)
                pending += [child for _, child in node.edges]
        return found

    measures = standard_measures()  # instances shared by both tables, with their subset orders
    first = random_table(2, 4, 9, seed=31)
    for base in (first, random_table(2, 4, 9, seed=32)):
        # the same column set as first, in new column objects
        table = DecisionTable(base.k, tuple(Attribute(a.index) for a in base.columns), base.rows, base.decisions)
        assert not {id(a) for a in table.columns} & {id(a) for a in first.columns}
        for _, measure in measures:
            parameter_report(measure, first)
            report = parameter_report(measure, table)
            named = [*report.test_witness, *tree_attributes(report.det_tree), *tree_attributes(report.snd_tree)]
            named += [a for _, _, attrs in report.row_separators for a in attrs]
            one = next(r for r, d in zip(table.rows, table.decisions) if d)
            for fixings in (minimal_rule(measure, table, one)[1], fixing_cost_for_tuple(measure, table, one)[1]):
                named += [a for a, _ in fixings]
            named += min_cost_subset(measure, table, lambda ps: len(ps) == table.n_cols)[1]
            named += min_cost_subset(measure, table, lambda ps: len(ps) == table.n_cols, card_first=True)[1]
            assert named and all(any(a is c for c in table.columns) for a in named)


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
# the two-table kernel slot


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


def test_slot_keeps_at_most_two_tables_alive():
    first = random_table(2, 4, 9, seed=22)
    det_tree_cost(depth(), first)
    first_bits = weakref.ref(_bits_of(first))
    gone = weakref.ref(first)
    gc.collect()
    gc.disable()
    try:
        del first
        det_tree_cost(depth(), random_table(3, 3, 9, seed=23))
        assert gone() is not None and first_bits() is not None  # the slot holds the last two tables
        det_tree_cost(depth(), random_table(2, 3, 5, seed=26))
        assert gone() is None and first_bits() is None  # a third table evicts the oldest
    finally:
        gc.enable()
    # a hit on the older kernel moves it to the front, so the third table evicts the other one
    a, b, c = (random_table(2, 3, 5, seed=s) for s in (27, 28, 29))
    kernels = [_bits_of(t) for t in (a, b, a)]
    assert kernels[0] is kernels[2]
    _bits_of(c)
    assert [bits.table for bits in tables._slot] == [c, a]


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
    c = random_table(2, 3, 7, seed=30)
    calls = (a, b, c, a, b)  # c evicts a, and a then evicts b
    trees = [tree for source in (a, b, c) for _, tree in witness_trees(source)]
    for _, measure in MEASURES:
        for name, call in SLOT_CALLS:
            got = [call(measure, t) for t in calls]
            assert got == [call(measure, replace(t)) for t in calls], name
    for tree in trees:
        for validator in (validate_deterministic, validate_strongly_nondeterministic):
            got = [outcome(validator, tree, t) for t in calls]
            assert got == [outcome(validator, tree, replace(t)) for t in calls]


def test_lemma_findings_build_one_kernel_per_table(monkeypatch):
    built, depth_solves = [], []
    init = _TableBits.__init__
    search = solvers._det_tree  # what reports and det_tree_cost both call

    def counting_init(bits, table):
        built.append(table)
        init(bits, table)

    def counting_det(measure, table, *bounds):
        if measure.kind == "depth":
            depth_solves.append(table)
        return search(measure, table, *bounds)

    table = random_table(2, 5, 8, seed=0)
    twin = replace(table)  # another object, so the table's own kernel is not built yet
    # each measure's min test drops a column, f4 under all three, so each
    # transfer needs a collapsed table, and all three need the same one
    removed = {tuple(a for a in twin.columns if a not in min_test_cost(m, twin)[1]) for _, m in MEASURES}
    assert removed == {(Attribute(4),)}
    monkeypatch.setattr(_TableBits, "__init__", counting_init)
    monkeypatch.setattr(solvers, "_det_tree", counting_det)
    for _, measure in MEASURES:  # depth first
        assert lemma_findings(measure, table) == []
    # one kernel for the table and one per distinct collapsed table, both kept through the transfers
    assert built[0] is table and len(built) == 1 + len(removed) == 2
    assert built[1] is not table and built[1].columns == tuple(a for a in table.columns if a != Attribute(4))
    # under depth, only the depth report and its own transfer solve a tree
    assert depth_solves == [table, built[1]]
