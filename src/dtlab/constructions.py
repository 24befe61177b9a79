"""Constructive procedures that build extremal tables and measures.

Each builder returns concrete objects whose advertised properties are
re-verified by the exact solvers on every invocation (see the verify
suites and tests); nothing here is asymptotic.

* ``two_color``                greedy two-coloring cutting at least half
                               of a simple graph's edges,
* ``adversarial_relabel``      relabels a critical table so every test
                               must contain one attribute per cut edge,
                               forcing the minimal test to at least half
                               the column count,
* ``separation_tight_table``   a closure member whose deterministic tree
                               cost, column-set cost, and separation cost
                               all collapse onto the source table's
                               separation cost,
* ``critical_core_relabel``    projects a table onto a minimum
                               cardinality all-rows separating set (the
                               projection is critical) and then relabels
                               adversarially,
* ``isolate_row``              a closure member with exactly one 1-row
                               whose rule cost equals both its column-set
                               cost and the row's separation cost,
* ``unit_rows_family``         the staircase family: one all-zero row
                               labeled 0 plus unit rows labeled 1, with
                               an additive measure tuned so the column
                               set of the n-th member costs phi(n),
* ``threshold_table``          the realizable step patterns of threshold
                               attributes on the real line,
* ``single_attribute_generators``  one-column two-row generator tables
                               with an additive measure weighting f_i by
                               its own index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .closure import is_critical, relabel, remove_columns
from .measures import ComplexityMeasure, additive, depth
from .solvers import min_cost_subset, row_separation_cost
from .tables import (
    Attribute,
    DecisionTable,
    DtError,
    validate,
)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class NotCritical(DtError):
    pass


class TooFewRows(DtError):
    pass


class BadPhi(DtError):
    pass


class ContainsZero(DtError):
    pass


# ---------------------------------------------------------------------------
# graph two-coloring

BLUE, GREEN = "blue", "green"


@dataclass(frozen=True)
class ConflictGraph:
    """A simple undirected graph on row value tuples (no loops or multi-edges)."""

    nodes: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __post_init__(self):
        seen = set()
        for a, b in self.edges:
            if a == b:
                raise DtError(f"loop at node {a}")
            e = frozenset((a, b))
            if e in seen:
                raise DtError(f"multiple edge {a}-{b}")
            seen.add(e)


def two_color(graph: ConflictGraph) -> dict[tuple[int, ...], str]:
    """Greedy two-coloring guaranteeing at least half the edges are cut.

    Nodes are colored in insertion order; each takes the color cutting
    more of its edges into the already colored part, blue on ties.  Each
    node cuts at least half of those edges, and every edge is counted at
    its later endpoint, so at least ceil(edges / 2) end up multi-colored.
    """
    neighbors: dict[tuple[int, ...], list[tuple[int, ...]]] = {n: [] for n in graph.nodes}
    for a, b in graph.edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    coloring: dict[tuple[int, ...], str] = {}
    for node in graph.nodes:
        blue_cut = sum(1 for m in neighbors[node] if coloring.get(m) == GREEN)
        green_cut = sum(1 for m in neighbors[node] if coloring.get(m) == BLUE)
        coloring[node] = GREEN if green_cut > blue_cut else BLUE
    return coloring


def multicolored_count(graph: ConflictGraph, coloring: dict) -> int:
    return sum(1 for a, b in graph.edges if coloring[a] != coloring[b])


# ---------------------------------------------------------------------------
# adversarial relabeling of a critical table


def conflict_graph_of(table: DecisionTable) -> ConflictGraph:
    """One witness row pair per attribute of a critical table, as a graph."""
    critical, witnesses = is_critical(table)
    if not critical:
        raise NotCritical("every column needs a row pair differing only there")
    nodes: list[tuple[int, ...]] = []
    for row in sorted(table.rows):
        if any(row in pair for pair in witnesses.values()) and row not in nodes:
            nodes.append(row)
    edges = tuple(witnesses[attr] for attr in table.columns)
    return ConflictGraph(tuple(nodes), edges)


def adversarial_relabel(table: DecisionTable) -> tuple[Callable, DecisionTable]:
    """Relabel a critical table so cheap tests cannot exist.

    Blue witness nodes get decision 0, everything else 1.  Any test must
    then contain the attribute of every multi-colored witness pair, so
    the minimal test has at least half the columns.  Returns the
    relabeling (a callable on value tuples) and the relabeled table.
    """
    graph = conflict_graph_of(table)
    coloring = two_color(graph)

    def nu(row: tuple[int, ...]) -> int:
        return 0 if coloring.get(row) == BLUE else 1

    return nu, relabel(nu, table)


# ---------------------------------------------------------------------------
# separation-tight member of the closure


def separation_tight_table(measure: ComplexityMeasure, table: DecisionTable) -> DecisionTable:
    """A closure member tying tree cost, column cost, and separation cost.

    Isolates the first row of worst separation cost with
    :func:`isolate_row` and flips every decision, so exactly that row's
    projection is labeled 0.  Minimum cardinality of the kept separator
    makes every kept column indispensable: some row differs from the
    chosen one only there, so the lone 0-row needs the whole column set to
    be told apart.
    """
    if table.n_rows < 2:
        raise TooFewRows("need at least two rows")
    worst = max(table.rows, key=lambda row: row_separation_cost(measure, table, row)[0])
    member = isolate_row(measure, table, worst)
    flipped = tuple(1 - d for d in member.decisions)
    return DecisionTable(member.k, member.columns, member.rows, flipped)


def minimum_key_core(table: DecisionTable) -> DecisionTable:
    """Project onto a minimum-cardinality set separating every row pair.

    Minimality makes the projection critical: dropping any kept column
    would merge some row pair, so that pair differs only there.  Needs at
    least two rows.
    """
    if table.n_rows < 2:
        raise TooFewRows("need at least two rows")

    def all_rows_distinct(positions: tuple[int, ...]) -> bool:
        seen = set()
        for row in table.rows:
            proj = tuple(row[p] for p in positions)
            if proj in seen:
                return False
            seen.add(proj)
        return True

    _, keep = min_cost_subset(depth(), table, all_rows_distinct, card_first=True)
    keep_set = set(keep)
    removed = tuple(a for a in table.columns if a not in keep_set)
    core = remove_columns(removed, table)
    critical, _ = is_critical(core)
    assert critical, "a minimum separating projection must be critical"
    return core


def critical_core_relabel(table: DecisionTable) -> DecisionTable:
    """Project onto a minimum all-rows separating set, then relabel hard.

    Single-row tables come back unchanged (the advertised row-count bound
    is vacuous for them).
    """
    if table.is_empty:
        raise TooFewRows("need at least one row")
    if table.n_rows == 1:
        return table
    _, relabeled = adversarial_relabel(minimum_key_core(table))
    return relabeled


def isolate_row(measure: ComplexityMeasure, table: DecisionTable, row) -> DecisionTable:
    """A closure member whose single 1-row is the given row's projection.

    Keeps a minimum-cardinality cheapest separator of the row and labels
    exactly its projection 1.  The lone 1-row then needs every remaining
    column in any true rule, so its cheapest rule system costs exactly
    the full column set, which costs exactly the row's separation cost.
    """
    row = tuple(row)
    if table.n_rows < 2:
        raise TooFewRows("need at least two rows")
    _, keep = row_separation_cost(measure, table, row, card_first=True)
    keep_set = set(keep)
    removed = tuple(a for a in table.columns if a not in keep_set)
    proj = remove_columns(removed, table)
    sigma = tuple(row[table.column_position(a)] for a in proj.columns)

    def nu(values: tuple[int, ...]) -> int:
        return 1 if values == sigma else 0

    return relabel(nu, proj)


# ---------------------------------------------------------------------------
# the staircase family with its tuned additive measure


@dataclass(frozen=True)
class UnitRowsFamily:
    """Member n of the staircase family plus the tuned measure.

    ``decomposition`` records the (multiplier, remainder) split of
    phi(n) = multiplier * n + remainder used to weight the last column.
    """

    table: DecisionTable
    measure: ComplexityMeasure
    decomposition: tuple[int, int]


def _check_phi(phi: Sequence[int], n: int) -> None:
    if n < 1:
        raise BadPhi("the family index n starts at 1")
    if len(phi) <= n:
        raise BadPhi(f"phi must be tabulated through n={n}")
    if phi[0] != 0:
        raise BadPhi("phi(0) must be 0")
    for i in range(1, len(phi)):
        if phi[i] < phi[i - 1]:
            raise BadPhi(f"phi must be nondecreasing, phi({i}) drops")
        if phi[i] < i:
            raise BadPhi(f"phi({i})={phi[i]} must be at least {i}")


def _family_offsets(phi: Sequence[int], n: int) -> tuple[int, int]:
    """Start offset of member n and its column count."""
    t = sum(_ceil_div(phi[i], i) for i in range(1, n))
    return t, _ceil_div(phi[n], n)


def family_measure(phi: Sequence[int], max_n: int) -> ComplexityMeasure:
    """The additive measure covering members 1..max_n of the family.

    Attribute f0 weighs 1.  Attributes strictly between consecutive start
    offsets weigh the member index; the attribute closing member n weighs
    the remainder of phi(n) modulo n when nonzero, else n.
    """
    _check_phi(phi, max_n)
    weights: dict[int, int] = {0: 1}
    for m in range(1, max_n + 1):
        t, cols = _family_offsets(phi, m)
        rem = phi[m] % m
        for i in range(t + 1, t + cols + 1):
            last = i == t + cols
            weights[i] = rem if last and rem > 0 else m
    return additive(weights, default=1)


def unit_rows_family(phi: Sequence[int], n: int) -> UnitRowsFamily:
    """Member n: an all-zero row labeled 0 and one unit row per column
    labeled 1, over ceil(phi(n)/n) fresh columns, measure included."""
    _check_phi(phi, n)
    t, cols = _family_offsets(phi, n)
    attrs = [Attribute(i) for i in range(t + 1, t + cols + 1)]
    rows = [((0,) * cols, 0)]
    for j in range(cols):
        unit = tuple(1 if q == j else 0 for q in range(cols))
        rows.append((unit, 1))
    table = validate(2, attrs, rows)
    rem = phi[n] % n
    decomposition = (phi[n] // n, rem)
    return UnitRowsFamily(table, family_measure(phi, n), decomposition)


def identity_table(m: int, k: int = 2) -> DecisionTable:
    """The m-column staircase table over f0..f(m-1): zero row 0, units 1."""
    if m < 1:
        raise DtError("identity tables need at least one column")
    rows = [((0,) * m, 0)]
    for j in range(m):
        rows.append((tuple(1 if q == j else 0 for q in range(m)), 1))
    return validate(k, range(m), rows)


# ---------------------------------------------------------------------------
# threshold attributes on the real line


@dataclass(frozen=True)
class ThresholdSystem:
    """Threshold attributes f_i(a) = [a >= i] and a labeling of patterns.

    ``thresholds`` must be strictly increasing nonnegative integers; the
    attribute carrying threshold i is f_i.  ``nu`` labels each realizable
    step pattern.
    """

    thresholds: tuple[int, ...]
    nu: Callable = field(compare=False)

    def __post_init__(self):
        t = self.thresholds
        if not t:
            raise DtError("need at least one threshold")
        if any(x < 0 for x in t) or any(a >= b for a, b in zip(t, t[1:])):
            raise DtError("thresholds must be strictly increasing and nonnegative")


def threshold_table(system: ThresholdSystem) -> DecisionTable:
    """The table of realizable step patterns of the threshold attributes.

    Sweeping the real line across n thresholds realizes exactly the n+1
    patterns 1...10...0 (ones on the thresholds already passed), built
    combinatorially rather than by sampling.
    """
    n = len(system.thresholds)
    rows = []
    for j in range(n + 1):
        pattern = (1,) * j + (0,) * (n - j)
        rows.append((pattern, system.nu(pattern)))
    return validate(2, [Attribute(i) for i in system.thresholds], rows)


# ---------------------------------------------------------------------------
# one-column generators weighted by their own index


def single_attribute_generators(
    indices: Iterable[int],
) -> tuple[list[DecisionTable], ComplexityMeasure]:
    """For each index i: the table over f_i with rows (0):0 and (1):1,
    plus the additive measure weighting f_i by i and f0 by 1."""
    idx = sorted(set(indices))
    if any(i == 0 for i in idx):
        raise ContainsZero("index 0 is reserved; generator indices must be positive")
    if any(i < 0 for i in idx):
        raise DtError("generator indices must be positive")
    tables = [
        validate(2, [Attribute(i)], [((0,), 0), ((1,), 1)]) for i in idx
    ]
    weights = {0: 1}
    weights.update({i: i for i in idx})
    return tables, additive(weights, default=1)
