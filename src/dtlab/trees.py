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
which collects the terminals, the attribute set, the shape and
duplicate-value problems and the node count in a single pass.  A helper
gets each terminal's complete path, a validator (walking with the table's
bit kernel) the row mask of the path's subtable, one AND per edge.  Tree
objects built by hand are walked without trusting their parts: children
or edges that are not iterable, a child that is neither a ``Leaf`` nor a
``Node`` of an ``Attribute``, a node whose attribute has an unhashable
index (nothing below these is walked) and an edge that is not a (value,
child) pair are shape problems, not Python errors.

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

    paths: tuple  # a CompletePath per terminal; with a kernel, (row mask, decision)
    attributes: frozenset[Attribute]
    shape: list[str]  # root problems, then node and edge problems
    duplicates: list[str]  # duplicate sibling edge values
    nodes: int  # the root included
    roots: int | None  # edges leaving the root; None if the children cannot be read
    outside: tuple  # with a kernel: (first edge value outside the table's E_k,) or ()
    positions: set  # with a kernel: the attributes' column positions, None for one outside


# The one tree walk.  It keeps pending nodes on an explicit stack instead
# of recursing through a nested function, which would refer to itself
# through its closure cell and leave a reference cycle on every call.
# Children pop in tree order, and a node checks its incoming edge value
# when it pops, so each edge problem comes just before its subtree's.  A
# node carries its path's fixings, or its row mask, narrowed on the push
# when the value is an int below both alphabet sizes, else on the pop.


def _walk(tree: DecisionTree, bits: _TableBits | None = None) -> _TreeWalk:
    k = tree.k
    shape: list[str] = []
    try:
        roots = len(children := tuple(tree.children))
    except TypeError:  # one problem, and no count of root edges
        children, roots = (), None
        shape.append(f"children {tree.children!r} of the root are not a sequence of tree nodes")
    if roots == 0:
        shape.append("the root has no outgoing edges; a tree needs at least two nodes")
    # E_k is defined only for an int k; a tree without one gets no edge-value checks
    int_k = type(k) is int or isinstance(k, int) and not isinstance(k, bool)
    if not int_k:
        shape.append(f"alphabet size k must be an int >= 2, got {k!r}")
    elif k < 2:
        shape.append(f"alphabet size k must be >= 2, got {k}")
    top, fast, narrow = (), 0, None  # without a kernel, every edge value is looked at closely
    if bits is not None:
        top, table_k, masks, position = bits.full, bits.table.k, bits.masks, bits.position
        fast = min(k, table_k) if int_k else 0
    duplicates, paths, attributes, positions, nodes, outside = [], [], set(), set(), 1, ()
    stack = [(child, top, None) for child in reversed(children)]
    while stack:
        node, path, edge = stack.pop()
        nodes += 1
        if edge is not None:
            attr, value, narrow = edge
            if int_k and not _in_alphabet(value, k):
                shape.append(f"edge value {value!r} at {attr.name} is outside E_{k}")
            if bits is None:
                path += ((attr, value),)
            elif _in_alphabet(value, table_k):
                path &= narrow[value]
            else:
                outside = outside or (value,)
        if isinstance(node, Leaf):
            d = node.decision
            if not (type(d) is int and 0 <= d < 2 or _in_alphabet(d, 2)):
                shape.append(f"terminal decision {d!r} is not 0 or 1")
            paths.append((path, d))
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
        if bits is not None:  # masks of an attribute outside the table do not matter: it is a problem
            p = position.get(attr)
            positions.add(p)
            narrow = [0] * table_k if p is None else masks[p]
        try:
            edges = tuple(node.edges)
        except TypeError:
            shape.append(f"edges {node.edges!r} at {attr.name} are not a sequence of (value, child) pairs")
            continue
        if not edges:
            shape.append(f"attribute node {attr.name} has no outgoing edges")
        values = []  # of the (value, child) pairs, last first
        for e in reversed(edges):
            if isinstance(e, tuple) and len(e) == 2:
                value, child = e
                values.append(value)
                if type(value) is int and 0 <= value < fast:
                    stack.append((child, path & narrow[value], None))
                else:
                    stack.append((child, path, (attr, value, narrow)))
        if len(values) != len(edges):
            pairs = [e for e in edges if isinstance(e, tuple) and len(e) == 2]
            shape += [f"edge {e!r} at {attr.name} is not a (value, child) pair" for e in edges if e not in pairs]
        try:
            repeated = len(values) > 1 and len(set(values)) != len(values)
        except TypeError:  # an unhashable value, outside E_k anyway: compare by equality
            repeated = any(v in values[:i] for i, v in enumerate(values))
        if repeated:
            duplicates.append(f"duplicate edge values {values[::-1]} at node {attr.name}")
    if bits is None:
        paths = [CompletePath(tuple(a for a, _ in fixings), fixings, d) for fixings, d in paths]
    return _TreeWalk(tuple(paths), frozenset(attributes), shape, duplicates, nodes, roots, outside, positions)


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


_VALID = ValidationResult(True, ())  # frozen and the same for every valid tree


def _check_attributes(walk: _TreeWalk, bits: _TableBits) -> list[str]:
    """The problem naming the tree's attributes outside the table, if any."""
    if None not in walk.positions:
        return []
    names = ",".join(sorted(a.name for a in walk.attributes if a not in bits.position))
    return [f"tree tests attributes outside the table's columns: {names}"]


def _verdict(table: DecisionTable, bits: _TableBits, walk: _TreeWalk, problems: list[str],
             need: int, lost: str, mixed: str) -> ValidationResult:
    """The problems so far, or else each row of ``need`` on no path, then
    each path whose subtable has a row labeled otherwise than its leaf."""
    if problems:
        return ValidationResult(False, tuple(problems))
    if walk.outside:  # as restrict raises for a fixing value outside the table's E_k
        raise ValueOutOfRange(f"fixing value {walk.outside[0]!r} is outside E_{table.k}")
    ones, zeros, reached, problems = bits.ones, bits.full & ~bits.ones, 0, []
    for i, (m, d) in enumerate(walk.paths):
        reached |= m
        if m & (zeros if d else ones):
            problems.append(mixed.format(i=i, d=d))
    need &= ~reached
    if need:
        problems[:0] = [lost.format(row) for i, row in enumerate(table.rows) if need >> i & 1]
    # any tree valid for the table queries a test of the table
    assert problems or bits.is_test(walk.positions), "validated tree whose attributes are not a test"
    return ValidationResult(False, tuple(problems)) if problems else _VALID


def validate_deterministic(tree: DecisionTree, table: DecisionTable) -> ValidationResult:
    """Check the five deterministic-tree conditions, naming each violation."""
    if table.is_empty:
        raise NotApplicable("deterministic trees are defined for nonempty tables only")
    bits = _bits_of(table)
    walk = _walk(tree, bits)
    problems = walk.shape
    if walk.roots not in (1, None):
        problems.append(f"{walk.roots} edges leave the root; exactly one is allowed")
    problems += walk.duplicates + _check_attributes(walk, bits)
    return _verdict(table, bits, walk, problems, bits.full, "row {} reaches no complete path",
                    "path {i} ends in decision {d} but its subtable has rows labeled otherwise")


def validate_strongly_nondeterministic(tree: DecisionTree, table: DecisionTable) -> ValidationResult:
    """Check the strongly nondeterministic tree conditions against a table."""
    bits = _bits_of(table)
    if bits.ones in (0, bits.full):
        raise NotApplicable("strongly nondeterministic trees are defined for non-constant tables only")
    walk = _walk(tree, bits)
    problems = walk.shape + _check_attributes(walk, bits)
    if any(d != 1 for _, d in walk.paths):
        problems.append("a terminal node carries decision 0; all must carry 1")
    return _verdict(table, bits, walk, problems, bits.ones, "1-row {} reaches no complete path",
                    "path {i} has a subtable with a 0-row")


def _validated(tree: DecisionTree, table: DecisionTable, strongly: bool = False) -> ValidationResult:
    """``validate_deterministic``, or with ``strongly``
    ``validate_strongly_nondeterministic``, of a tree that a solver built.

    Validation is a pure function of the tree's value and the table's,
    and a solver's tree is made of immutable tuples, so a tree equal to
    the last one that validated on the table's kernel validates without
    a walk.  Any other tree is walked, and kept only when it validates.
    A caller's own tree may hold mutable lists, so the public validators
    always walk.
    """
    bits, kept = _bits_of(table), "valid_snd" if strongly else "valid_det"
    if tree == getattr(bits, kept):
        return _VALID
    result = (validate_strongly_nondeterministic if strongly else validate_deterministic)(tree, table)
    if result:
        setattr(bits, kept, tree)
    return result


# ---------------------------------------------------------------------------
# .tree text format


def format_tree(tree: DecisionTree) -> str:
    """The text of a tree, which ``parse_tree`` reads back.

    A shape problem that the text carries, such as an int edge value
    outside E_k, is written as it is.  A tree that cannot be written, or
    whose text does not read back, raises :class:`TreeFormatError` naming
    its first shape problem, or the parse error when it has none.
    """
    try:
        tree = DecisionTree(tree.k, tuple(tree.children))  # read once, so the walk below sees them too
        text = "(root " + " ".join(_format_node(c) for c in tree.children) + ")"
        parse_tree(text)
    except (DtError, AttributeError, TypeError, ValueError) as exc:  # a malformed part, or unreadable text
        problems = structural_problems(tree)
        raise TreeFormatError(problems[0] if problems else str(exc)) from None
    return text


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
    text = format_tree(tree)  # before the file is opened, so a tree that cannot be written leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
