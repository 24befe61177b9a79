"""Fuzz tests for the text formats: any text either parses or raises DtError,
and every formatted object parses back to itself."""

import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtlab.measures import format_measure, load_measure_spec, parse_measure
from dtlab.tables import Attribute, DtError, format_table, parse_table
from dtlab.trees import DecisionTree, Leaf, Node, format_tree, parse_tree

from conftest import measures_st, tables_st


def token_text(vocab, sep=" "):
    """Text built mostly from a format's own tokens, so the fuzzer gets past
    the first line of the parser, mixed with arbitrary fragments."""
    tokens = st.one_of(st.sampled_from(vocab), st.integers(-3, 12).map(str), st.text(max_size=4))
    return st.lists(tokens, max_size=40).map(sep.join)


TABLE_VOCAB = ["k", "attrs", "row", "f0", "f1", "f2", "#", "\n", "0", "1", "2", "x"]
MEASURE_VOCAB = ["kind", "depth", "additive", "maxw", "default", "weight", "f0", "f3", "#", "\n"]
TREE_VOCAB = ["(", ")", "root", "leaf", "f0", "f1", "f7", "0", "1", "2", "-1"]
SPEC_VOCAB = ["depth", "h", "sum:", "max:", ",", "a.cm", "b.cm", "missing.cm", "."]


def returns_or_raises_dterror(fn, *args):
    try:
        fn(*args)
    except DtError:
        pass


@given(st.one_of(st.text(), token_text(TABLE_VOCAB)))
def test_parse_table_total(text):
    returns_or_raises_dterror(parse_table, text)


@given(st.one_of(st.text(), token_text(MEASURE_VOCAB)))
def test_parse_measure_total(text):
    returns_or_raises_dterror(parse_measure, text)


@given(st.one_of(st.text(), token_text(TREE_VOCAB)), st.integers(2, 4))
def test_parse_tree_total(text, k):
    returns_or_raises_dterror(parse_tree, text, k)


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("specs")


@given(
    spec=st.one_of(st.text(), token_text(SPEC_VOCAB, sep="")),
    a_text=st.one_of(st.text(), token_text(MEASURE_VOCAB)),
    b_text=st.sampled_from(["kind depth\n", "kind maxw\ndefault 2\nweight f1 3\n", ""]),
)
def test_load_measure_spec_total(spec_dir, spec, a_text, b_text):
    (spec_dir / "a.cm").write_text(a_text, encoding="utf-8")
    (spec_dir / "b.cm").write_text(b_text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(spec_dir)  # relative paths in the spec resolve here
    try:
        returns_or_raises_dterror(load_measure_spec, spec)
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize(
    "spec", ["missing.cm", "", ".", "sum:depth,", "bad\0name", "undecodable.cm"]
)
def test_load_measure_spec_unreadable_file_is_dterror(tmp_path, monkeypatch, spec):
    (tmp_path / "undecodable.cm").write_bytes(b"kind \xff\n")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(DtError):
        load_measure_spec(spec)


def test_attribute_name_too_long_for_int_is_dterror():
    name = "f" + "9" * 5000
    with pytest.raises(DtError):
        Attribute.parse(name)
    with pytest.raises(DtError):
        parse_tree(f"(root ({name} (0 (leaf 1))))")


def test_deeply_nested_text_is_dterror():
    depth = 5000
    text = "(root " + "(f0 (0 " * depth + "(leaf 1)" + "))" * depth + ")"
    with pytest.raises(DtError, match="nested too deeply"):
        parse_tree(text)
    with pytest.raises(DtError, match="too deeply"):
        load_measure_spec("sum:" * depth + "depth")


@given(tables_st(max_k=4, max_cols=4, max_rows=8, min_rows=0))
def test_table_format_roundtrip(table):
    assert parse_table(format_table(table)) == table


@given(measures_st())
def test_measure_format_roundtrip(measure):
    if measure.kind in ("sum", "max"):
        with pytest.raises(DtError):
            format_measure(measure)
        return
    assert parse_measure(format_measure(measure)) == measure


def trees_st():
    attrs = st.integers(0, 20).map(Attribute)
    leaves = st.integers(0, 1).map(Leaf)
    nodes = st.recursive(
        leaves,
        lambda sub: st.builds(
            Node, attrs, st.lists(st.tuples(st.integers(0, 3), sub), max_size=3).map(tuple)
        ),
        max_leaves=12,
    )
    return st.builds(DecisionTree, st.integers(2, 4), st.lists(nodes, max_size=3).map(tuple))


@given(trees_st())
def test_tree_format_roundtrip(tree):
    assert parse_tree(format_tree(tree), tree.k) == tree
