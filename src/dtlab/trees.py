"""k-decision trees: paths, costs, and validation against a table.

A k-decision tree is a rooted tree with at least two nodes.  The root and
the edges leaving it carry no labels; every other non-terminal node
carries an attribute and its outgoing edges carry values from E_k;
terminal nodes carry a decision 0 or 1.  A complete path runs from the
root to a terminal; its word is the attribute sequence of the internal
nodes it passes, and the subtable of a path is the table restricted by
the path's (attribute, value) fixings.

A tree is *deterministic* for a table when a single edge leaves the root,
sibling edge values are pairwise distinct, its attributes are columns of
the table, every row lands on some complete path, and every path's
subtable is empty or constant with the terminal's decision.  A tree is
*strongly nondeterministic* for a non-constant table when all terminals
carry decision 1, its attributes are columns of the table, every 1-row
lands on some path, and every path's subtable is empty or all-1.  Such a
tree is exactly a system of true decision rules covering the 1-rows; the
root may have many edges and duplicate sibling values.

Text format (.tree)::

    (root (f4 (0 (leaf 1)) (1 (f3 (1 (leaf 0)) (0 (leaf 1))))))

``(root child...)`` for the root, ``(f<i> (<value> child)...)`` for
internal nodes, ``(leaf <0|1>)`` for terminals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .tables import (
    Attribute,
    DecisionTable,
    DtError,
    ValueOutOfRange,
    _bits_of,
    _TableBits,
    is_constant,
    restrict,
)
from .measures import ComplexityMeasure


class NotApplicable(DtError):
    """The tree notion is undefined for this table (empty or constant)."""


class TreeFormatError(DtError):
    pass


@dataclass(frozen=True)
class Leaf:
    decision: int


@dataclass(frozen=True)
class Node:
    attribute: Attribute
    edges: tuple[tuple[int, "TreeNode"], ...]


TreeNode = Union[Leaf, Node]


@dataclass(frozen=True)
class DecisionTree:
    """A k-decision tree; ``children`` hang off the unlabeled root edges."""

    k: int
    children: tuple[TreeNode, ...]

    def node_count(self) -> int:
        return 1 + sum(_count_nodes(c) for c in self.children)


# The tree walks below are module functions rather than nested closures: a
# nested recursive function refers to itself through its closure cell, so
# every call would leave a reference cycle for the cyclic collector.


def _count_nodes(node: TreeNode) -> int:
    if isinstance(node, Leaf):
        return 1
    return 1 + sum(_count_nodes(c) for _, c in node.edges)


@dataclass(frozen=True)
class CompletePath:
    """A root-to-terminal path: its attribute word, fixings, and decision."""

    word: tuple[Attribute, ...]
    fixings: tuple[tuple[Attribute, int], ...]
    decision: int


def attributes_of(tree: DecisionTree) -> frozenset[Attribute]:
    found: set[Attribute] = set()
    for child in tree.children:
        _collect_attributes(child, found)
    return frozenset(found)


def _collect_attributes(node: TreeNode, found: set[Attribute]) -> None:
    if isinstance(node, Node):
        found.add(node.attribute)
        for _, child in node.edges:
            _collect_attributes(child, found)


def complete_paths(tree: DecisionTree) -> tuple[CompletePath, ...]:
    """All complete paths, one per terminal, in left-to-right tree order."""
    paths: list[CompletePath] = []
    for child in tree.children:
        _collect_paths(child, [], [], paths)
    return tuple(paths)


def _collect_paths(node: TreeNode, word, fixings, paths: list[CompletePath]) -> None:
    if isinstance(node, Leaf):
        paths.append(CompletePath(tuple(word), tuple(fixings), node.decision))
        return
    for value, child in node.edges:
        _collect_paths(child, word + [node.attribute], fixings + [(node.attribute, value)], paths)


def path_subtable(table: DecisionTable, path: CompletePath) -> DecisionTable:
    return restrict(table, path.fixings)


def tree_cost(measure: ComplexityMeasure, tree: DecisionTree) -> int:
    """Worst complete-path word cost; a bare root-to-terminal path costs 0."""
    return max(measure.cost(p.word) for p in complete_paths(tree))


def structural_problems(tree: DecisionTree) -> list[str]:
    """Violations of the bare k-decision-tree shape, if any."""
    problems: list[str] = []
    if not tree.children:
        problems.append("the root has no outgoing edges; a tree needs at least two nodes")
    if tree.k < 2:
        problems.append(f"alphabet size k must be >= 2, got {tree.k}")
    for child in tree.children:
        _shape_problems(child, tree.k, problems)
    return problems


def _shape_problems(node: TreeNode, k: int, problems: list[str]) -> None:
    if isinstance(node, Leaf):
        if node.decision not in (0, 1):
            problems.append(f"terminal decision {node.decision!r} is not 0 or 1")
        return
    if not node.edges:
        problems.append(f"attribute node {node.attribute.name} has no outgoing edges")
    for value, child in node.edges:
        if not 0 <= value < k:
            problems.append(f"edge value {value} at {node.attribute.name} is outside E_{k}")
        _shape_problems(child, k, problems)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    diagnostics: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _check_attributes(attrs: frozenset[Attribute], table: DecisionTable) -> list[str]:
    extra = attrs - table.attributes()
    if extra:
        names = ",".join(sorted(a.name for a in extra))
        return [f"tree tests attributes outside the table's columns: {names}"]
    return []


def _path_rows(bits: _TableBits, paths) -> tuple[list[int], int]:
    """The row mask of each path's subtable, one AND per fixing, and
    their union.

    A fixing value outside the table's alphabet raises as in ``restrict``.
    """
    k = bits.table.k
    masks, position = bits.masks, bits.position
    path_rows, reached = [], 0
    for path in paths:
        m = bits.full
        for attr, value in path.fixings:
            if not isinstance(value, int) or not 0 <= value < k:
                raise ValueOutOfRange(f"fixing value {value!r} is outside E_{k}")
            m &= masks[position[attr]][value]
        path_rows.append(m)
        reached |= m
    return path_rows, reached


def _queries_test(attrs: frozenset[Attribute], bits: _TableBits) -> bool:
    return bits.is_test([bits.position[a] for a in attrs])


def validate_deterministic(tree: DecisionTree, table: DecisionTable) -> ValidationResult:
    """Check the five deterministic-tree conditions, naming each violation."""
    if table.is_empty:
        raise NotApplicable("deterministic trees are defined for nonempty tables only")
    problems = structural_problems(tree)
    if len(tree.children) != 1:
        problems.append(f"{len(tree.children)} edges leave the root; exactly one is allowed")
    for child in tree.children:
        _duplicate_values(child, problems)
    attrs = attributes_of(tree)
    problems += _check_attributes(attrs, table)
    if problems:
        return ValidationResult(False, tuple(problems))

    bits = _bits_of(table)
    paths = complete_paths(tree)
    path_rows, reached = _path_rows(bits, paths)
    for i, row in enumerate(table.rows):
        if not reached >> i & 1:
            problems.append(f"row {row} reaches no complete path")
    for i, (path, m) in enumerate(zip(paths, path_rows)):
        if m & (~bits.ones if path.decision else bits.ones):
            problems.append(
                f"path {i} ends in decision {path.decision} but its subtable "
                f"has rows labeled otherwise"
            )
    ok = not problems
    if ok:
        # any tree valid for the table queries a test of the table
        assert _queries_test(attrs, bits), "validated tree whose attributes are not a test"
    return ValidationResult(ok, tuple(problems))


def _duplicate_values(node: TreeNode, problems: list[str]) -> None:
    if isinstance(node, Leaf):
        return
    values = [v for v, _ in node.edges]
    if len(set(values)) != len(values):
        problems.append(f"duplicate edge values {values} at node {node.attribute.name}")
    for _, child in node.edges:
        _duplicate_values(child, problems)


def validate_strongly_nondeterministic(
    tree: DecisionTree, table: DecisionTable
) -> ValidationResult:
    """Check the strongly nondeterministic tree conditions against a table."""
    if is_constant(table):
        raise NotApplicable(
            "strongly nondeterministic trees are defined for non-constant tables only"
        )
    problems = structural_problems(tree)
    attrs = attributes_of(tree)
    problems += _check_attributes(attrs, table)
    paths = complete_paths(tree)
    for p in paths:
        if p.decision != 1:
            problems.append("a terminal node carries decision 0; all must carry 1")
            break
    if problems:
        return ValidationResult(False, tuple(problems))

    bits = _bits_of(table)
    path_rows, reached = _path_rows(bits, paths)
    for i, (row, d) in enumerate(table.entries()):
        if d == 1 and not reached >> i & 1:
            problems.append(f"1-row {row} reaches no complete path")
    for i, m in enumerate(path_rows):
        if m & ~bits.ones:
            problems.append(f"path {i} has a subtable with a 0-row")
    ok = not problems
    if ok:
        assert _queries_test(attrs, bits), "validated tree whose attributes are not a test"
    return ValidationResult(ok, tuple(problems))


# ---------------------------------------------------------------------------
# .tree text format


def format_tree(tree: DecisionTree) -> str:
    return "(root " + " ".join(_format_node(c) for c in tree.children) + ")"


def _format_node(node: TreeNode) -> str:
    if isinstance(node, Leaf):
        return f"(leaf {node.decision})"
    edges = " ".join(f"({v} {_format_node(c)})" for v, c in node.edges)
    return f"({node.attribute.name} {edges})"


def _tokenize(text: str) -> Iterator[str]:
    for tok in text.replace("(", " ( ").replace(")", " ) ").split():
        yield tok


def parse_tree(text: str, k: int = 2) -> DecisionTree:
    tokens = list(_tokenize(text))
    pos = 0

    def expect(tok: str):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != tok:
            got = tokens[pos] if pos < len(tokens) else "end of input"
            raise TreeFormatError(f"expected {tok!r}, got {got!r}")
        pos += 1

    def integer(what: str) -> int:
        nonlocal pos
        if pos >= len(tokens):
            raise TreeFormatError(f"expected {what}, got end of input")
        tok = tokens[pos]
        try:
            value = int(tok)
        except ValueError:
            raise TreeFormatError(f"expected {what}, got {tok!r}") from None
        pos += 1
        return value

    def parse_node() -> TreeNode:
        nonlocal pos
        expect("(")
        if pos >= len(tokens):
            raise TreeFormatError("unterminated node")
        head = tokens[pos]
        pos += 1
        if head == "leaf":
            decision = integer("a leaf decision")
            expect(")")
            return Leaf(decision)
        attr = Attribute.parse(head)
        edges = []
        while pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            value = integer("an edge value")
            child = parse_node()
            expect(")")
            edges.append((value, child))
        expect(")")
        return Node(attr, tuple(edges))

    expect("(")
    expect("root")
    children = []
    try:
        while pos < len(tokens) and tokens[pos] == "(":
            children.append(parse_node())
    except RecursionError:
        raise TreeFormatError("tree text is nested too deeply to parse") from None
    finally:
        del parse_node  # it refers to itself through its closure cell
    expect(")")
    if pos != len(tokens):
        raise TreeFormatError(f"trailing input after tree: {tokens[pos:]}")
    return DecisionTree(k, tuple(children))


def load_tree(path, k: int = 2) -> DecisionTree:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree(fh.read(), k)


def save_tree(tree: DecisionTree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_tree(tree) + "\n")
