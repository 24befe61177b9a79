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

Every helper and validator below reads one depth-first walk of its tree,
which collects the complete paths, the attribute set, the shape and
duplicate-value problems and the node count in a single pass.  Tree
objects built by hand are walked without trusting their parts: a child
that is neither a ``Leaf`` nor a ``Node`` of an ``Attribute``, a node
whose attribute has an unhashable index, a node whose edges are not
iterable (the subtrees of these three are not walked) and an edge that
is not a (value, child) pair are shape problems, not Python errors.

Text format (.tree)::

    (root (f4 (0 (leaf 1)) (1 (f3 (1 (leaf 0)) (0 (leaf 1))))))

``(root child...)`` for the root, ``(f<i> (<value> child)...)`` for
internal nodes, ``(leaf <0|1>)`` for terminals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

from .tables import (
    Attribute,
    DecisionTable,
    DtError,
    ValueOutOfRange,
    _bits_of,
    _in_alphabet,
    _TableBits,
    is_constant,
    restrict,
)
from .measures import ComplexityMeasure


class NotApplicable(DtError):
    """The tree notion is undefined for this table (empty or constant)."""


class TreeFormatError(DtError):
    pass


class NoCompletePath(DtError):
    """The tree has no complete path, so it has no cost."""


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
        return _walk(self).nodes


@dataclass(frozen=True)
class CompletePath:
    """A root-to-terminal path: its attribute word, fixings, and decision."""

    word: tuple[Attribute, ...]
    fixings: tuple[tuple[Attribute, int], ...]
    decision: int


class _TreeWalk(NamedTuple):
    """What one depth-first pass over a tree collects, each in walk order."""

    paths: tuple[CompletePath, ...]
    attributes: frozenset[Attribute]
    shape: list[str]  # root problems, then node and edge problems
    duplicates: list[str]  # duplicate sibling edge values
    nodes: int  # the root included


# The one tree walk.  It keeps pending nodes on an explicit stack instead
# of recursing through a nested function, which would refer to itself
# through its closure cell and leave a reference cycle on every call.
# Children pop in tree order, and a node checks its incoming edge value
# when it pops, so each edge problem comes just before its subtree's.


def _walk(tree: DecisionTree) -> _TreeWalk:
    k = tree.k
    shape: list[str] = []
    if not tree.children:
        shape.append("the root has no outgoing edges; a tree needs at least two nodes")
    # E_k is defined only for an int k; a tree without one gets no edge-value checks
    int_k = isinstance(k, int) and not isinstance(k, bool)
    if not int_k:
        shape.append(f"alphabet size k must be an int >= 2, got {k!r}")
    elif k < 2:
        shape.append(f"alphabet size k must be >= 2, got {k}")
    duplicates, paths, attributes, nodes = [], [], set(), 1
    stack = [(child, (), ()) for child in reversed(tree.children)]
    while stack:
        node, word, fixings = stack.pop()
        nodes += 1
        if fixings:
            attr, value = fixings[-1]
            if int_k and not _in_alphabet(value, k):
                shape.append(f"edge value {value!r} at {attr.name} is outside E_{k}")
        if isinstance(node, Leaf):
            if not _in_alphabet(node.decision, 2):
                shape.append(f"terminal decision {node.decision!r} is not 0 or 1")
            paths.append(CompletePath(word, fixings, node.decision))
            continue
        if not (isinstance(node, Node) and isinstance(node.attribute, Attribute)):
            shape.append(f"tree node {node!r} is neither a Leaf nor a Node of an Attribute")
            continue
        attr = node.attribute
        try:
            attributes.add(attr)
        except TypeError:
            shape.append(f"attribute {attr.name} has an unhashable index {attr.index!r}")
            continue
        try:
            node_edges = tuple(node.edges)
        except TypeError:
            shape.append(f"edges {node.edges!r} at {attr.name} are not a sequence of (value, child) pairs")
            continue
        if not node_edges:
            shape.append(f"attribute node {attr.name} has no outgoing edges")
        edges = [e for e in node_edges if isinstance(e, tuple) and len(e) == 2]
        shape += [f"edge {e!r} at {attr.name} is not a (value, child) pair"
                  for e in node_edges if e not in edges]
        values = [v for v, _ in edges]
        try:
            repeated = len(set(values)) != len(values)
        except TypeError:  # an unhashable value, outside E_k anyway: compare by equality
            repeated = any(v in values[:i] for i, v in enumerate(values))
        if repeated:
            duplicates.append(f"duplicate edge values {values} at node {attr.name}")
        word += (attr,)
        for value, child in reversed(edges):
            stack.append((child, word, fixings + ((attr, value),)))
    return _TreeWalk(tuple(paths), frozenset(attributes), shape, duplicates, nodes)


def attributes_of(tree: DecisionTree) -> frozenset[Attribute]:
    return _walk(tree).attributes


def complete_paths(tree: DecisionTree) -> tuple[CompletePath, ...]:
    """All complete paths, one per terminal, in left-to-right tree order."""
    return _walk(tree).paths


def path_subtable(table: DecisionTable, path: CompletePath) -> DecisionTable:
    return restrict(table, path.fixings)


def tree_cost(measure: ComplexityMeasure, tree: DecisionTree) -> int:
    """Worst complete-path word cost; a bare root-to-terminal path costs 0.

    A tree with no complete path, such as a bare root or one whose
    attribute nodes have no edges, raises :class:`NoCompletePath`.
    """
    paths = _walk(tree).paths
    if not paths:
        raise NoCompletePath("the tree has no complete path, so it has no cost")
    return max(measure.cost(p.word) for p in paths)


def structural_problems(tree: DecisionTree) -> list[str]:
    """Violations of the bare k-decision-tree shape, if any."""
    return _walk(tree).shape


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
            if not _in_alphabet(value, k):
                raise ValueOutOfRange(f"fixing value {value!r} is outside E_{k}")
            m &= masks[position[attr]][value]
        path_rows.append(m)
        reached |= m
    return path_rows, reached


def _verdict(problems: list[str], bits: _TableBits, walk: _TreeWalk) -> ValidationResult:
    if not problems:
        # any tree valid for the table queries a test of the table
        tested = [bits.position[a] for a in walk.attributes]
        assert bits.is_test(tested), "validated tree whose attributes are not a test"
    return ValidationResult(not problems, tuple(problems))


def validate_deterministic(tree: DecisionTree, table: DecisionTable) -> ValidationResult:
    """Check the five deterministic-tree conditions, naming each violation."""
    if table.is_empty:
        raise NotApplicable("deterministic trees are defined for nonempty tables only")
    walk = _walk(tree)
    problems = walk.shape
    if len(tree.children) != 1:
        problems.append(f"{len(tree.children)} edges leave the root; exactly one is allowed")
    problems += walk.duplicates
    problems += _check_attributes(walk.attributes, table)
    if problems:
        return ValidationResult(False, tuple(problems))

    bits = _bits_of(table)
    path_rows, reached = _path_rows(bits, walk.paths)
    for i, row in enumerate(table.rows):
        if not reached >> i & 1:
            problems.append(f"row {row} reaches no complete path")
    for i, (path, m) in enumerate(zip(walk.paths, path_rows)):
        if m & (~bits.ones if path.decision else bits.ones):
            problems.append(
                f"path {i} ends in decision {path.decision} but its subtable "
                f"has rows labeled otherwise"
            )
    return _verdict(problems, bits, walk)


def validate_strongly_nondeterministic(
    tree: DecisionTree, table: DecisionTable
) -> ValidationResult:
    """Check the strongly nondeterministic tree conditions against a table."""
    if is_constant(table):
        raise NotApplicable(
            "strongly nondeterministic trees are defined for non-constant tables only"
        )
    walk = _walk(tree)
    problems = walk.shape
    problems += _check_attributes(walk.attributes, table)
    if any(p.decision != 1 for p in walk.paths):
        problems.append("a terminal node carries decision 0; all must carry 1")
    if problems:
        return ValidationResult(False, tuple(problems))

    bits = _bits_of(table)
    path_rows, reached = _path_rows(bits, walk.paths)
    for i, (row, d) in enumerate(table.entries()):
        if d == 1 and not reached >> i & 1:
            problems.append(f"1-row {row} reaches no complete path")
    for i, m in enumerate(path_rows):
        if m & ~bits.ones:
            problems.append(f"path {i} has a subtable with a 0-row")
    return _verdict(problems, bits, walk)


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
