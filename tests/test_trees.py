import pytest

from dtlab import trees
from dtlab.measures import depth
from dtlab.tables import Attribute, ValueOutOfRange, empty_table, is_test, restrict, validate
from dtlab.trees import (
    DecisionTree,
    Leaf,
    Node,
    NotApplicable,
    TreeFormatError,
    attributes_of,
    complete_paths,
    format_tree,
    parse_tree,
    path_subtable,
    structural_problems,
    tree_cost,
    validate_deterministic,
    validate_strongly_nondeterministic,
)


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
    monkeypatch.setattr(trees, "_walk", lambda tree: walks.append(tree) or walk(tree))
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


def test_boolean_edge_value_raises_like_restrict(example6):
    tree = DecisionTree(2, (Node(Attribute(4), ((True, Leaf(1)), (0, Leaf(1)))),))
    for validator in (validate_deterministic, validate_strongly_nondeterministic):
        with pytest.raises(ValueOutOfRange, match="fixing value True is outside E_2"):
            validator(tree, example6)
    with pytest.raises(ValueOutOfRange, match="fixing value True is outside E_2"):
        restrict(example6, [(4, True)])


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
