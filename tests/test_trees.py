from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtlab import trees
from dtlab.measures import depth
from dtlab.tables import Attribute, DtError, ValueOutOfRange, empty_table, is_test, restrict, validate
from dtlab.trees import (
    DecisionTree,
    Leaf,
    NoCompletePath,
    Node,
    NotApplicable,
    TreeFormatError,
    attributes_of,
    complete_paths,
    format_tree,
    parse_tree,
    path_subtable,
    save_tree,
    structural_problems,
    tree_cost,
    validate_deterministic,
    validate_strongly_nondeterministic,
)

import oracles
from conftest import tables_st


def det_example_tree():
    # test f4; on 0 answer 1, on 1 test f3 (1 -> 0, 0 -> 1)
    inner = Node(Attribute(3), ((1, Leaf(0)), (0, Leaf(1))))
    return DecisionTree(2, (Node(Attribute(4), ((0, Leaf(1)), (1, inner))),))


def snd_example_tree():
    # two root edges: f4=0 -> 1 and f3=0 -> 1
    return DecisionTree(
        2,
        (
            Node(Attribute(4), ((0, Leaf(1)),)),
            Node(Attribute(3), ((0, Leaf(1)),)),
        ),
    )


def test_complete_paths_deterministic_shape():
    words = [tuple(a.name for a in p.word) for p in complete_paths(det_example_tree())]
    assert sorted(words) == [("f4",), ("f4", "f3"), ("f4", "f3")]


def test_complete_paths_two_root_edges():
    words = [tuple(a.name for a in p.word) for p in complete_paths(snd_example_tree())]
    assert sorted(words) == [("f3",), ("f4",)]


def test_complete_paths_bare_leaf():
    tree = DecisionTree(2, (Leaf(0),))
    paths = complete_paths(tree)
    assert len(paths) == 1 and paths[0].word == ()


def test_tree_cost(example6):
    assert tree_cost(depth(), det_example_tree()) == 2
    assert tree_cost(depth(), snd_example_tree()) == 1
    assert tree_cost(depth(), DecisionTree(2, (Leaf(1),))) == 0


def test_path_subtables(example6):
    for path in complete_paths(det_example_tree()):
        sub = path_subtable(example6, path)
        if sub.n_rows:
            assert len(set(sub.decisions)) == 1


def test_validate_deterministic_accepts_det_example(example6):
    result = validate_deterministic(det_example_tree(), example6)
    assert result.ok, result.diagnostics


def test_validate_deterministic_rejects_multi_root(example6):
    result = validate_deterministic(snd_example_tree(), example6)
    assert not result.ok
    assert any("root" in d for d in result.diagnostics)


def test_validate_deterministic_constant_leaf():
    allzero = validate(2, [0, 1], [((0, 0), 0), ((1, 1), 0)])
    tree = DecisionTree(2, (Leaf(0),))
    assert validate_deterministic(tree, allzero).ok
    wrong = DecisionTree(2, (Leaf(1),))
    assert not validate_deterministic(wrong, allzero).ok


def test_validate_deterministic_flags_uncovered_row(example6):
    # single path f4=0: rows with f4=1 reach nothing
    tree = DecisionTree(2, (Node(Attribute(4), ((0, Leaf(1)),)),))
    result = validate_deterministic(tree, example6)
    assert not result.ok
    assert any("reaches no complete path" in d for d in result.diagnostics)


def test_validate_deterministic_flags_foreign_attribute(example6):
    tree = DecisionTree(2, (Node(Attribute(9), ((0, Leaf(1)), (1, Leaf(0)))),))
    result = validate_deterministic(tree, example6)
    assert not result.ok
    assert any("outside" in d for d in result.diagnostics)


def test_validate_deterministic_duplicate_edge_values(example6):
    tree = DecisionTree(2, (Node(Attribute(4), ((0, Leaf(1)), (0, Leaf(1)))),))
    assert not validate_deterministic(tree, example6).ok


def test_validate_deterministic_empty_table_not_applicable():
    with pytest.raises(NotApplicable):
        validate_deterministic(det_example_tree(), empty_table())


def test_validate_snd_accepts_rule_tree(example6):
    result = validate_strongly_nondeterministic(snd_example_tree(), example6)
    assert result.ok, result.diagnostics


def test_validate_snd_rejects_zero_leaf(example6):
    result = validate_strongly_nondeterministic(det_example_tree(), example6)
    assert not result.ok
    assert any("decision 0" in d for d in result.diagnostics)


def test_validate_snd_rejects_mixed_path(example6):
    # the path f3=1 keeps the 0-row (1,1,1)
    tree = DecisionTree(2, (Node(Attribute(3), ((1, Leaf(1)),)),))
    result = validate_strongly_nondeterministic(tree, example6)
    assert not result.ok
    assert any("0-row" in d for d in result.diagnostics)
    sub = restrict(example6, [(3, 1)])
    assert (1, 1, 1) in sub.rows


def test_validate_snd_constant_not_applicable():
    allone = validate(2, [0], [((0,), 1), ((1,), 1)])
    with pytest.raises(NotApplicable):
        validate_strongly_nondeterministic(snd_example_tree(), allone)


def test_validated_tree_attributes_form_a_test(example6):
    assert is_test(example6, attributes_of(det_example_tree()))
    assert is_test(example6, attributes_of(snd_example_tree()))


def test_structural_problems():
    assert structural_problems(det_example_tree()) == []
    assert structural_problems(DecisionTree(2, ()))
    assert structural_problems(DecisionTree(2, (Node(Attribute(0), ()),)))
    assert structural_problems(DecisionTree(2, (Node(Attribute(0), ((5, Leaf(1)),)),)))
    assert structural_problems(DecisionTree(2, (Leaf(7),)))


def test_node_count():
    assert det_example_tree().node_count() == 6
    assert snd_example_tree().node_count() == 5
    assert DecisionTree(2, (Leaf(0),)).node_count() == 2


def test_each_helper_and_validator_walks_its_tree_once(monkeypatch, example6):
    walks = []
    walk = trees._walk
    monkeypatch.setattr(trees, "_walk", lambda tree, *args: walks.append(tree) or walk(tree, *args))
    det, snd = det_example_tree(), snd_example_tree()
    calls = [
        attributes_of,
        complete_paths,
        structural_problems,
        lambda tree: tree_cost(depth(), tree),
        DecisionTree.node_count,
        lambda tree: validate_deterministic(tree, example6),
        lambda tree: validate_strongly_nondeterministic(tree, example6),
    ]
    # det is valid only as deterministic and snd only as nondeterministic,
    # so each validator runs both its full check and its early rejection
    for i, call in enumerate(calls):
        for tree in (det, snd):
            walks.clear()
            call(tree)
            assert walks == [tree], i


@pytest.mark.parametrize("value", [True, False, 1.0, 0.0, None, "1", -1, 2])
def test_edge_value_outside_the_alphabet_is_a_shape_problem(example6, value):
    tree = DecisionTree(2, (Node(Attribute(4), ((value, Leaf(1)), (9, Leaf(1)))),))
    problems = [
        f"edge value {value!r} at f4 is outside E_2",
        "edge value 9 at f4 is outside E_2",
    ]
    assert structural_problems(tree) == problems
    for validator in (validate_deterministic, validate_strongly_nondeterministic):
        assert validator(tree, example6).diagnostics[:2] == tuple(problems)
    # restrict rejects the same values as fixings
    with pytest.raises(ValueOutOfRange, match="is outside E_2"):
        restrict(example6, [(4, value)])


def test_tree_cost_without_a_complete_path_raises():
    for tree in (DecisionTree(2, ()), DecisionTree(2, (Node(Attribute(0), ()),))):
        with pytest.raises(NoCompletePath, match="no complete path"):
            tree_cost(depth(), tree)


# leaf decisions that equal 0 or 1 but are not the ints 0 and 1
LOOKALIKE_DECISIONS = [True, False, 1.0, 0.0]


def trees_st():
    """Tree objects built directly, not parsed: bare roots, attribute nodes
    without edges, edge values of any type or range (unhashable ones too),
    leaf decisions that only look like 0 or 1, a missing alphabet, children
    that are no node (``None``), edges that are no (value, child) pair,
    nodes whose attribute is no ``Attribute`` or has an unhashable index,
    and nodes whose edges, or a root whose children, are ``None``."""
    values = st.one_of(
        st.integers(-2, 4), st.none(), st.booleans(), st.floats(-1, 3), st.just("1"), st.just([0])
    )
    leaves = st.one_of(st.builds(Leaf, st.sampled_from([0, 1, *LOOKALIKE_DECISIONS])), st.none())
    attributes = st.one_of(
        st.integers(0, 4).map(Attribute), st.integers(0, 5), st.none(), st.just(Attribute([1]))
    )
    nodes = st.recursive(
        leaves,
        lambda children: st.builds(
            Node,
            attributes,
            st.one_of(
                st.lists(st.one_of(st.tuples(values, children), st.tuples(values)), max_size=3).map(tuple),
                st.none(),
            ),
        ),
        max_leaves=8,
    )
    alphabets = st.one_of(st.integers(1, 3), st.none())
    return st.builds(DecisionTree, alphabets, st.one_of(st.lists(nodes, max_size=3).map(tuple), st.none()))


def returns_or_raises_dterror(fn, *args):
    try:
        fn(*args)
    except DtError:
        pass


@given(trees_st(), tables_st(max_k=3, max_cols=5, max_rows=6))
def test_tree_objects_return_or_raise_dterror(tree, table):
    returns_or_raises_dterror(structural_problems, tree)
    returns_or_raises_dterror(tree_cost, depth(), tree)
    returns_or_raises_dterror(validate_deterministic, tree, table)
    returns_or_raises_dterror(validate_strongly_nondeterministic, tree, table)


MALFORMED = {
    "none-child": (
        DecisionTree(2, (None,)),
        ["tree node None is neither a Leaf nor a Node of an Attribute"],
    ),
    "one-tuple-edge": (
        DecisionTree(2, (Node(Attribute(4), ((0,),)),)),
        ["edge (0,) at f4 is not a (value, child) pair"],
    ),
    "int-attribute": (
        DecisionTree(2, (Node(5, ((0, Leaf(1)),)),)),
        ["tree node Node(attribute=5, edges=((0, Leaf(decision=1)),)) is neither a Leaf nor a Node of an Attribute"],
    ),
    "edges-none": (
        DecisionTree(2, (Node(Attribute(4), None),)),
        ["edges None at f4 are not a sequence of (value, child) pairs"],
    ),
    "unhashable-index": (
        DecisionTree(2, (Node(Attribute([1]), ((0, Leaf(1)),)),)),
        ["attribute f[1] has an unhashable index [1]"],
    ),
    "children-none": (
        DecisionTree(2, None),
        ["children None of the root are not a sequence of tree nodes"],
    ),
    "children-not-reversible": (
        DecisionTree(2, frozenset([Node(Attribute(4), ((0, Leaf(1)), (3, Leaf(1))))])),
        ["edge value 3 at f4 is outside E_2"],
    ),
    "mixed": (
        DecisionTree(2, (Node(Attribute(4), ((0, None), (7, Leaf(1)), (1,), (1, Node(5, ())))),)),
        [
            "edge (1,) at f4 is not a (value, child) pair",
            "tree node None is neither a Leaf nor a Node of an Attribute",
            "edge value 7 at f4 is outside E_2",
            "tree node Node(attribute=5, edges=()) is neither a Leaf nor a Node of an Attribute",
        ],
    ),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_tree_objects_are_shape_problems(example6, name):
    tree, problems = MALFORMED[name]
    assert structural_problems(tree) == problems == oracles.brute_tree_shape_problems(tree)
    for validator in (validate_deterministic, validate_strongly_nondeterministic):
        assert validator(tree, example6).diagnostics == tuple(problems)
    returns_or_raises_dterror(tree_cost, depth(), tree)


@pytest.mark.parametrize("name", MALFORMED)
def test_format_tree_names_the_first_shape_problem_of_a_tree_it_cannot_write(tmp_path, name):
    tree, problems = MALFORMED[name]
    path = tmp_path / "out.tree"
    if name == "children-not-reversible":
        # its one problem, an int edge value outside E_2, is written and read back
        assert parse_tree(format_tree(tree)) == DecisionTree(2, tuple(tree.children))
        return
    for write in (format_tree, lambda t: save_tree(t, path)):
        with pytest.raises(TreeFormatError) as err:
            write(tree)
        assert str(err.value) == problems[0]
    assert not path.exists()


def test_format_tree_rejects_text_that_does_not_read_back():
    # no shape problem names a negative attribute index, but f-1 is no attribute name
    tree = DecisionTree(2, (Node(Attribute(-1), ((0, Leaf(1)),)),))
    assert structural_problems(tree) == []
    with pytest.raises(TreeFormatError, match="attribute names must look like f3"):
        format_tree(tree)


def test_root_children_are_read_once(example6):
    # an iterator of children is walked once, and the root edge count comes from that walk
    tree = DecisionTree(2, iter(det_example_tree().children))
    assert validate_deterministic(tree, example6).ok
    # and so does format_tree, whose error names the problem of the children it read
    assert format_tree(DecisionTree(2, iter(det_example_tree().children))) == format_tree(det_example_tree())
    with pytest.raises(TreeFormatError, match="^tree node None is neither"):
        format_tree(DecisionTree(2, iter([None])))


def well_shaped_trees_st():
    """Trees whose only possible shape problem is a lookalike leaf decision."""
    leaves = st.builds(Leaf, st.sampled_from([0, 1, 0, 1, *LOOKALIKE_DECISIONS]))
    nodes = st.recursive(
        leaves,
        lambda children: st.builds(
            Node,
            st.integers(0, 4).map(Attribute),
            st.lists(st.tuples(st.integers(0, 1), children), min_size=1, max_size=3).map(tuple),
        ),
        max_leaves=6,
    )
    return st.builds(DecisionTree, st.integers(2, 3), st.lists(nodes, min_size=1, max_size=2).map(tuple))


@given(well_shaped_trees_st())
def test_trees_without_shape_problems_round_trip_through_text(tree):
    if structural_problems(tree):
        return
    text = format_tree(tree)
    back = parse_tree(text, tree.k)
    assert back == tree and format_tree(back) == text


@pytest.mark.parametrize("decision", [*LOOKALIKE_DECISIONS, None, "1", [1], -1, 2])
def test_leaf_decision_other_than_int_0_or_1_is_a_shape_problem(example6, decision):
    tree = DecisionTree(2, (Leaf(decision),))
    problems = [f"terminal decision {decision!r} is not 0 or 1"]
    assert structural_problems(tree) == problems
    assert validate_deterministic(tree, example6).diagnostics[:1] == tuple(problems)


def test_unhashable_edge_value_and_missing_alphabet_are_shape_problems(example6):
    tree = DecisionTree(2, (Node(Attribute(4), (([0], Leaf(1)), ([0], Leaf(0)), (1, Leaf(1)))),))
    outside = "edge value [0] at f4 is outside E_2"
    assert structural_problems(tree) == [outside, outside]
    assert validate_deterministic(tree, example6).diagnostics == (
        outside,
        outside,
        "duplicate edge values [[0], [0], 1] at node f4",
    )
    for k in (None, "2", True, 2.0):
        no_k = DecisionTree(k, (Node(Attribute(4), ((0, Leaf(1)), (1, Leaf(0)))),))
        assert structural_problems(no_k) == [f"alphabet size k must be an int >= 2, got {k!r}"]
        assert not validate_strongly_nondeterministic(no_k, example6)
    assert structural_problems(replace(tree, k=1))[0] == "alphabet size k must be >= 2, got 1"


def test_format_golden():
    assert format_tree(det_example_tree()) == (
        "(root (f4 (0 (leaf 1)) (1 (f3 (1 (leaf 0)) (0 (leaf 1))))))"
    )
    assert format_tree(snd_example_tree()) == "(root (f4 (0 (leaf 1))) (f3 (0 (leaf 1))))"


def test_parse_roundtrip():
    for tree in (det_example_tree(), snd_example_tree(), DecisionTree(2, (Leaf(0),))):
        assert parse_tree(format_tree(tree), 2) == tree


def test_parse_rejects_garbage():
    with pytest.raises(TreeFormatError):
        parse_tree("(root (f4 (0 (leaf 1))")  # unterminated
    with pytest.raises(TreeFormatError):
        parse_tree("(root (leaf 1)) junk")
    with pytest.raises(TreeFormatError):
        parse_tree("root")


@pytest.mark.parametrize(
    "text",
    [
        "(root (leaf",  # input ends where the decision belongs
        "(root (leaf x))",  # non-integer decision
        "(root (f4 (a (leaf 1))))",  # non-integer edge value
    ],
)
def test_parse_malformed_values_raise_format_error(text):
    with pytest.raises(TreeFormatError):
        parse_tree(text)
