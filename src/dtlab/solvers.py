"""Exact computation of every table parameter, with witnesses.

For a table T and complexity measure psi this module computes:

* ``min_test_cost``        cheapest test (columns separating every pair of
                           rows with different decisions),
* ``row_separation_cost``  cheapest column set telling one row from all
                           others; ``table_separation_cost`` is its max
                           over rows and ``closure_separation_cost`` the
                           max of that over all column-removal projections,
* ``fixing_cost``          adversarial cost of driving the table into the
                           constant class by fixing attributes to the
                           values of a tuple, maximized over all tuples,
* ``det_tree_cost``        cheapest deterministic decision tree (exact
                           memoized search, plus an independent
                           brute-force oracle),
* ``snd_tree_cost``        cheapest strongly nondeterministic decision
                           tree (per 1-row minimal true rules glued under
                           one root),
* ``parameter_report``     everything at once, with every known
                           inequality between the parameters re-checked
                           in exact integer arithmetic.

Subset searches share one subset order per (measure instance, column
set, cardinality-first flag): every column subset as a bitmask, in
nondecreasing (cost, [cardinality,] index-tuple) order, popped lazily
from a single heap and memoized on the measure.  Ties break to the
lexicographically smallest attribute-index set (optionally smallest
cardinality first), so witnesses are deterministic, and the measure's
nondecreasing axiom makes the first satisfying subset optimal.

Every search but ``min_cost_subset`` asks one question of a subset S:
do the rows agreeing with a given row or value tuple on S all carry one
label?  One walker, ``_first_constant``, answers it for each entry of
the order with one AND, narrowing the parent entry's agreeing rows at
the entry's highest column.  A fixing or a rule asks it of the
decisions.  A row separator asks whether the row stands alone, since a
row always agrees with itself.  A test asks it of wide masks that hold,
lane by lane, the 1-rows agreeing with each 0-row, plus one bit that
every wide mask sets: S is a test when only that bit survives.

Closure separation never builds a projection.  For a kept column
set C, the rows agreeing with a row on C form one projected row, stood
for by its lowest row, and that row's separators in the projection are
the subsets of C on which it agrees with no other class: the walker
restricted to subsets of C, with the class as the label.  That
restriction is exactly the order the projection would build, because a
key depends only on the attribute set.  C itself separates every
projected row, so the projection keeping C costs at most cost(C).  The
sweep therefore takes the kept column sets from the dearest down and
stops at the first one no dearer than the best value so far: no later
set can raise it.

Every solver and validator reads its table through one bit kernel,
``tables._TableBits``: rank order, value masks and the ones mask, all
built with the kernel.  It takes the kernel from ``tables._bits_of``, a
slot holding the kernel of the last table asked for, so calls on one
table object in a row share one kernel, and ``parameter_report``, which
calls the public solvers and validators one after another on its
table, builds the value masks once; the reports of several measures on
one table share them too.  The slot holds one table and no kernel is
stored on a table: a closure keeps tens of thousands of member tables
alive, and a variant that kept bits on its tables took FTheta growth
over the 28,341-member closure of ``random_table(2, 5, 14, seed=3)``
from 9.1 s to 12.9 s and its peak RSS from 28 MB to 186 MB (2-vCPU VM,
Python 3.11.7).  The only value a report leaves on a table is the depth
triple (min test, det and separation cost under depth), which later
non-depth reports of the same table object read for their
depth-specific checks.

The deterministic-tree search memoizes on (surviving row set, accumulator
state).  Keying on the accumulator matters: under combinator measures the
best subtree genuinely depends on the tested prefix, so a row-set-only
memo would be wrong; the brute-force oracle pins this down in the tests.
Its recursive helpers refer to themselves through closure cells, which
are cleared before the search returns: a call leaves no reference cycle,
so its memo and trees are freed by reference counting, not by the cyclic
garbage collector.
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator

from .measures import ComplexityMeasure, NotDecomposable, depth, table_costs
from .tables import (
    Attribute,
    DecisionTable,
    DtError,
    TooLarge,
    ValueOutOfRange,
    _bits_of,
    _in_alphabet,
    _TableBits,
    is_constant,
)
from .trees import (
    DecisionTree,
    Leaf,
    Node,
    validate_deterministic,
    validate_strongly_nondeterministic,
)

MAX_SUBSET_COLUMNS = 20
MAX_TUPLE_SPACE = 1 << 24
# the brute-force tree oracle stays exhaustive and finite only this far
BRUTEFORCE_MAX_COLUMNS = 4
BRUTEFORCE_MAX_K = 3
BRUTEFORCE_LIMITS = (
    f"brute-force tree search allows at most {BRUTEFORCE_MAX_COLUMNS} columns "
    f"and k <= {BRUTEFORCE_MAX_K}"
)
_DEPTH_TRIPLE = "_depth_triple"  # the attribute a depth report sets on its table
_NO_SUBSET = "no subset satisfied the predicate; full column set should"


class RowNotInTable(DtError):
    pass


class BadTupleLength(DtError):
    pass


# ---------------------------------------------------------------------------
# the shared subset order and its searches


class _SubsetOrder:
    """Every subset of one column set, in (cost, [cardinality,] index-tuple) order.

    Entry i is the subset ``masks[i]`` of cost ``costs[i]``; bit r of a
    mask stands for ``attrs[r]``, the column of the r-th smallest
    attribute index.  Entries come off one heap by lazy powerset
    expansion and are kept, so every later search over the same column
    set replays the prefix without recomputing a cost.  Entry i is entry
    ``parents[i]`` (-1 for the empty set) plus its highest column rank
    ``lasts[i]``; a parent always comes before its children.

    The order is memoized on its measure, so it refers back to the
    measure weakly: a strong reference would make a cycle that only the
    cyclic garbage collector frees.
    """

    def __init__(self, measure: ComplexityMeasure, attrs: tuple[Attribute, ...], card_first: bool):
        self.measure = weakref.ref(measure)
        self.attrs = attrs
        self.card_first = card_first
        self.costs: list[int] = []
        self.masks: list[int] = []
        self.parents: list[int] = []
        self.lasts: list[int] = []
        self._heap = [self._entry((), -1)]

    def _entry(self, ranks: tuple[int, ...], parent: int):
        attrs = tuple(self.attrs[r] for r in ranks)
        cost = self.measure().set_cost(attrs)
        idx = tuple(a.index for a in attrs)
        key = (cost, len(ranks), idx) if self.card_first else (cost, idx)
        return key, ranks, parent

    def grow(self) -> None:
        """Append the next subset to the order."""
        key, ranks, parent = heapq.heappop(self._heap)
        last = ranks[-1] if ranks else -1
        i = len(self.masks)
        self.costs.append(key[0])
        self.masks.append(sum(1 << r for r in ranks))
        self.parents.append(parent)
        self.lasts.append(last)
        for nr in range(last + 1, len(self.attrs)):
            heapq.heappush(self._heap, self._entry(ranks + (nr,), i))

    def complete(self) -> None:
        """Grow the order to hold every subset."""
        while self._heap:
            self.grow()

    def walk(self) -> Iterator[int]:
        """Every entry index in order, growing the order as needed."""
        i = len(self.masks)
        yield from range(i)  # the grown prefix, without a test per entry
        while i < len(self.masks) or self._heap:
            if i == len(self.masks):
                self.grow()
            yield i
            i += 1

    def attributes(self, mask: int) -> tuple[Attribute, ...]:
        return tuple(a for r, a in enumerate(self.attrs) if mask >> r & 1)


def _subset_order(
    measure: ComplexityMeasure, columns: tuple[Attribute, ...], card_first: bool = False
) -> _SubsetOrder:
    """The shared subset order of ``columns`` under ``measure``.

    It is memoized on the measure instance, never by measure value:
    opaque measures compare equal whatever their cost functions.
    """
    if len(columns) > MAX_SUBSET_COLUMNS:
        raise TooLarge(
            f"subset search over {len(columns)} columns exceeds the "
            f"{MAX_SUBSET_COLUMNS}-column guard rail"
        )
    attrs = tuple(sorted(columns))
    memo = measure.subset_orders
    order = memo.get((attrs, card_first))
    if order is None:
        order = memo[(attrs, card_first)] = _SubsetOrder(measure, attrs, card_first)
    return order


def _first_constant(
    order: _SubsetOrder, full: int, rank_values: list[int], labels: int, within: int = -1
) -> tuple[int, int]:
    """(cost, column-rank mask) of the first subset S of the order inside
    ``within`` whose agreeing rows all lie in ``labels`` or all outside it.

    ``rank_values[r]`` is the mask of the rows that agree at column rank
    r, and ``full`` the mask of every row.  A subset's agreeing rows are
    its parent's, narrowed at its highest rank, so each entry of the
    order costs one AND.
    """
    parents, lasts, masks = order.parents, order.lasts, order.masks
    agree: list[int] = []
    for i in order.walk():
        p = parents[i]
        m = full if p < 0 else agree[p] & rank_values[lasts[i]]
        agree.append(m)
        x = m & labels
        if (x == 0 or x == m) and masks[i] & within == masks[i]:
            return order.costs[i], masks[i]
    raise AssertionError(_NO_SUBSET)


def _fixings(
    order: _SubsetOrder, bits: _TableBits, values: tuple[int, ...]
) -> tuple[int, tuple[tuple[Attribute, int], ...]]:
    """Cheapest fixings from ``values`` (one per column position) that
    leave rows of a single decision, as (cost, fixings)."""
    cost, mask = _first_constant(order, bits.full, bits.rank_values(values), bits.ones)
    chosen = zip(order.attrs, bits.ranks)
    return cost, tuple((a, values[p]) for r, (a, p) in enumerate(chosen) if mask >> r & 1)


def min_cost_subset(
    measure: ComplexityMeasure,
    table: DecisionTable,
    predicate: Callable[[tuple[int, ...]], bool],
    card_first: bool = False,
) -> tuple[int, tuple[Attribute, ...]]:
    """Cheapest column subset satisfying a monotone predicate.

    ``predicate`` receives an ascending tuple of column positions.
    Monotonicity (supersets of a satisfying set also satisfy) plus the
    nondecreasing axiom guarantee the first satisfying subset of the
    shared (cost, [cardinality,] index-tuple) order is optimal.
    """
    order = _subset_order(measure, table.columns, card_first)
    ranks = _bits_of(table).ranks
    for i in order.walk():
        mask = order.masks[i]
        if predicate(tuple(sorted(p for r, p in enumerate(ranks) if mask >> r & 1))):
            return order.costs[i], order.attributes(mask)
    raise AssertionError(_NO_SUBSET)


def min_test_cost(
    measure: ComplexityMeasure, table: DecisionTable
) -> tuple[int, tuple[Attribute, ...]]:
    """Cheapest test of the table; (0, empty) for constant tables.

    A test leaves no 1-row agreeing with a 0-row.  Lane z of the wide
    masks below holds the 1-rows that agree with the z-th 0-row, above
    one bit that every mask sets, so S is a test exactly when only that
    bit survives the AND over S.
    """
    if is_constant(table):
        return 0, ()
    bits = _bits_of(table)
    n, ones = table.n_rows, bits.ones
    full, wide, shift = 1, [1] * table.n_cols, 1
    for row, d in table.entries():
        if not d:
            full |= ones << shift
            wide = [w | (v & ones) << shift for w, v in zip(wide, bits.rank_values(row))]
            shift += n
    order = _subset_order(measure, table.columns)
    cost, mask = _first_constant(order, full, wide, 1)
    return cost, order.attributes(mask)


def _row_index(table: DecisionTable, row: tuple) -> int:
    """Position of ``row`` in the table; :class:`RowNotInTable` if absent."""
    try:
        return table.rows.index(row)
    except ValueError:
        raise RowNotInTable(f"{row} is not a row of the table") from None


def row_separation_cost(
    measure: ComplexityMeasure,
    table: DecisionTable,
    row,
    card_first: bool = False,
) -> tuple[int, tuple[Attribute, ...]]:
    """Cheapest column set on which ``row`` differs from every other row."""
    row = tuple(row)
    i = _row_index(table, row)
    # Row i agrees with itself, so its agreeing rows are constant exactly
    # when row i is alone.
    order = _subset_order(measure, table.columns, card_first)
    bits = _bits_of(table)
    cost, mask = _first_constant(order, bits.full, bits.rank_values(row), 1 << i)
    return cost, order.attributes(mask)


def _row_separations(
    measure: ComplexityMeasure, table: DecisionTable
) -> list[tuple[int, tuple[Attribute, ...]]]:
    """Every row's (cost, witness) of ``row_separation_cost``, in row order."""
    if not table.rows:
        return []
    order = _subset_order(measure, table.columns)
    bits = _bits_of(table)
    seps = [
        _first_constant(order, bits.full, bits.rank_values(row), 1 << i)
        for i, row in enumerate(table.rows)
    ]
    return [(cost, order.attributes(mask)) for cost, mask in seps]


def table_separation_cost(measure: ComplexityMeasure, table: DecisionTable) -> int:
    """Worst row separation cost over the table's rows (0 when empty)."""
    return max((c for c, _ in _row_separations(measure, table)), default=0)


def closure_separation_cost(measure: ComplexityMeasure, table: DecisionTable) -> int:
    """Worst separation cost over every column-removal projection.

    Relabelings never change which rows a projection has, and separation
    ignores decisions, so ranging over the 2^columns projections covers
    the whole closure.  Each projection, named by its kept column set C,
    is solved without building it: the rows agreeing with a row on C
    merge into one projected row, whose separators are the subsets of C
    on which it agrees with no row outside that class.
    """
    if table.is_empty:
        return 0
    if table.n_cols > MAX_SUBSET_COLUMNS:
        raise TooLarge(f"projection sweep over {table.n_cols} columns is too large")
    order = _subset_order(measure, table.columns)
    order.complete()
    bits = _bits_of(table)
    full = bits.full
    row_values = [bits.rank_values(row) for row in table.rows]
    best = 0
    for cost_c, c in zip(reversed(order.costs), reversed(order.masks)):
        if cost_c <= best:
            break  # C separates every projected row, so no set from here on can raise best
        kept = [r for r in range(len(order.attrs)) if c >> r & 1]
        merged = 0
        for a, values in enumerate(row_values):
            if merged >> a & 1:
                continue  # an earlier row stands for a's projected row
            same = full
            for r in kept:
                same &= values[r]
            merged |= same
            best = max(best, _first_constant(order, full, values, same, c)[0])
            if best >= cost_c:
                break
    return best


def fixing_cost_for_tuple(
    measure: ComplexityMeasure, table: DecisionTable, values
) -> tuple[int, tuple[tuple[Attribute, int], ...]]:
    """Cheapest set of fixings from ``values`` landing in the constant class.

    ``values`` assigns one value per column; fixing a subset of columns to
    those values must leave a constant or empty table.
    """
    values = tuple(values)
    if len(values) != table.n_cols:
        raise BadTupleLength(
            f"tuple has {len(values)} entries for a {table.n_cols}-column table"
        )
    for v in values:
        if not _in_alphabet(v, table.k):
            raise ValueOutOfRange(f"tuple entry {v!r} is outside E_{table.k}")
    if is_constant(table):
        return 0, ()
    return _fixings(_subset_order(measure, table.columns), _bits_of(table), values)


def fixing_cost(
    measure: ComplexityMeasure, table: DecisionTable
) -> tuple[int, tuple[int, ...] | None]:
    """Worst fixing cost over all value tuples, with the first worst tuple.

    Fixing a tuple's values on a test leaves rows that agree on the test,
    so of one decision: no tuple costs more than the min test cost, and
    the sweep stops at the first tuple that reaches it.
    """
    if is_constant(table):
        return 0, None
    if table.k**table.n_cols > MAX_TUPLE_SPACE:
        raise TooLarge(
            f"{table.k}^{table.n_cols} value tuples exceed the exact-sweep guard rail"
        )
    cap = min_test_cost(measure, table)[0]
    order = _subset_order(measure, table.columns)
    bits = _bits_of(table)
    best = -1
    worst_tuple = None
    for values in product(range(table.k), repeat=table.n_cols):
        c, _ = _first_constant(order, bits.full, bits.rank_values(values), bits.ones)
        if c > best:
            best, worst_tuple = c, values
            if best >= cap:
                break
    return best, worst_tuple


# ---------------------------------------------------------------------------
# deterministic trees


def det_tree_cost(
    measure: ComplexityMeasure, table: DecisionTable
) -> tuple[int, DecisionTree | None]:
    """Cheapest deterministic decision tree for the table, with a witness.

    Exact search over reachable subtables (bitmask row sets), memoized on
    (row set, accumulator state).  Candidate attributes at a node are
    those taking at least two values among the surviving rows; testing
    any other attribute can never lower the cost of a path because
    extension never decreases the accumulator value.  An attribute's
    children stop being solved once its worst child reaches the best cost
    so far (alpha cutoff): it can no longer be picked, and every memo entry
    still holds an exact value.  The empty table has cost 0 and no tree by
    fiat.
    """
    if table.is_empty:
        return 0, None
    if not measure.decomposable:
        raise NotDecomposable("exact tree search needs the accumulator contract")
    bits = _bits_of(table)
    k = table.k
    cols = table.columns
    masks, ones, full, order = bits.masks, bits.ones, bits.full, bits.ranks
    memo: dict[tuple[int, object], tuple[int, int]] = {}

    def constant(mask: int) -> bool:
        x = mask & ones
        return x == 0 or x == mask

    def solve(mask: int, state) -> int:
        if constant(mask):
            return measure.value(state)
        key = (mask, state)
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        best = None
        best_p = -1
        for p in order:
            live = [masks[p][v] & mask for v in range(k)]
            live = [m for m in live if m]
            if len(live) < 2:
                continue
            st = measure.extend(state, cols[p].index)
            worst = 0
            for m in live:
                c = solve(m, st)
                if c > worst:
                    worst = c
                if best is not None and worst >= best:
                    break  # p can no longer beat best, so its exact worst is not needed
            if best is None or worst < best:
                best, best_p = worst, p
        assert best is not None, "non-constant subtable with no splitting attribute"
        memo[key] = (best, best_p)
        return best

    def rebuild(mask: int, state):
        if constant(mask):
            first = (mask & -mask).bit_length() - 1
            return Leaf(table.decisions[first])
        _, p = memo[(mask, state)]
        st = measure.extend(state, cols[p].index)
        edges = tuple(
            (v, rebuild(masks[p][v] & mask, st))
            for v in range(k)
            if masks[p][v] & mask
        )
        return Node(cols[p], edges)

    s0 = measure.initial_state()
    try:
        total = solve(full, s0)
        tree = DecisionTree(k, (rebuild(full, s0),))
    finally:
        del solve, rebuild  # each refers to itself through its closure cell
    return total, tree


def det_tree_cost_bruteforce(measure: ComplexityMeasure, table: DecisionTable) -> int:
    """Oracle: minimize over all deterministic trees with distinct
    attributes per path, evaluating whole path words directly.

    Independent of the memoized search: no accumulator states, no
    memoization, no pruning of useless tests.  Guard rails keep the
    enumeration exhaustive and finite.
    """
    if table.is_empty:
        return 0
    if table.n_cols > BRUTEFORCE_MAX_COLUMNS or table.k > BRUTEFORCE_MAX_K:
        raise TooLarge(BRUTEFORCE_LIMITS)
    bits = _bits_of(table)
    cols = table.columns
    masks, ones, full = bits.masks, bits.ones, bits.full

    def constant(mask: int) -> bool:
        x = mask & ones
        return x == 0 or x == mask

    def best(mask: int, avail: tuple[int, ...], word: tuple[Attribute, ...]) -> int:
        if constant(mask):
            return measure.cost(word)
        res = None
        for p in avail:
            rest = tuple(q for q in avail if q != p)
            live = [masks[p][v] & mask for v in range(table.k)]
            live = [m for m in live if m]
            worst = max(best(m, rest, word + (cols[p],)) for m in live)
            if res is None or worst < res:
                res = worst
        assert res is not None, "ran out of attributes on a non-constant subtable"
        return res

    try:
        return best(full, tuple(range(len(cols))), ())
    finally:
        del best  # it refers to itself through its closure cell


# ---------------------------------------------------------------------------
# strongly nondeterministic trees


def minimal_rule(
    measure: ComplexityMeasure, table: DecisionTable, row
) -> tuple[int, tuple[tuple[Attribute, int], ...]]:
    """Cheapest true rule for a 1-row: a column set on which every
    agreeing row is labeled 1, as (cost, fixings)."""
    row = tuple(row)
    if table.decisions[_row_index(table, row)] != 1:
        raise RowNotInTable(f"{row} is not labeled 1; rules cover 1-rows")
    # The row itself agrees and is a 1-row, so "one decision" means "all 1".
    return _fixings(_subset_order(measure, table.columns), _bits_of(table), row)


def snd_tree_cost(
    measure: ComplexityMeasure, table: DecisionTable
) -> tuple[int, DecisionTree | None]:
    """Cheapest strongly nondeterministic tree; (0, None) for constant tables.

    One minimal true rule per 1-row, glued as one path each under a shared
    root, is such a tree of cost max-of-mins; conversely any valid tree
    hands every 1-row a covering path whose attribute set is a rule of no
    larger cost, so the value is exact.
    """
    if is_constant(table):
        return 0, None
    rules: list[tuple[tuple[Attribute, int], ...]] = []
    value = 0
    order = _subset_order(measure, table.columns)
    bits = _bits_of(table)
    for row, d in table.entries():
        if d != 1:
            continue
        cost, fixings = _fixings(order, bits, row)  # the row's minimal_rule
        assert fixings, "a non-constant table cannot have an empty rule"
        value = max(value, cost)
        rules.append(fixings)
    distinct = sorted(set(rules), key=lambda fx: tuple((a.index, v) for a, v in fx))
    children = []
    for fixings in distinct:
        node: Leaf | Node = Leaf(1)
        for attr, v in reversed(fixings):
            node = Node(attr, ((v, node),))
        children.append(node)
    return value, DecisionTree(table.k, tuple(children))


# ---------------------------------------------------------------------------
# the full report


@dataclass(frozen=True)
class ParameterReport:
    """Every parameter of one table under one measure, with witnesses.

    ``checks`` lists the inequality checks that ran; ``failed_checks``
    must stay empty (a failure is an implementation bug, and the report
    is flagged inconsistent).
    """

    k: int
    measure: str
    rows: int
    columns: int
    attr_set_cost: int
    max_attr_cost: int
    min_test_cost: int
    separation_cost: int
    closure_separation_cost: int
    fixing_cost: int
    det_cost: int
    snd_cost: int
    test_witness: tuple[Attribute, ...]
    row_separators: tuple[tuple[tuple[int, ...], int, tuple[Attribute, ...]], ...]
    worst_tuple: tuple[int, ...] | None
    det_tree: DecisionTree | None
    snd_tree: DecisionTree | None
    checks: tuple[str, ...]
    failed_checks: tuple[str, ...]

    @property
    def consistent(self) -> bool:
        return not self.failed_checks

    def values(self) -> dict[str, int]:
        return {
            "rows": self.rows,
            "columns": self.columns,
            "attr_set_cost": self.attr_set_cost,
            "max_attr_cost": self.max_attr_cost,
            "min_test_cost": self.min_test_cost,
            "separation_cost": self.separation_cost,
            "closure_separation_cost": self.closure_separation_cost,
            "fixing_cost": self.fixing_cost,
            "det_cost": self.det_cost,
            "snd_cost": self.snd_cost,
        }


def inequality_findings(measure: ComplexityMeasure, table: DecisionTable, vals: dict) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Re-check every proved inequality between parameters, exactly.

    Returns (checks run, failed checks).  Power comparisons use integer
    exponentiation so boundary cases stay exact.  Depth-specific checks
    need the depth triple (min test, det and separation cost under
    depth).  When the report's measure is something else, they read the
    triple that a depth report stored on this table object, or solve it.
    """
    checks: list[str] = []
    failed: list[str] = []

    def check(name: str, holds: bool):
        checks.append(name)
        if not holds:
            failed.append(name)

    n = vals["rows"]
    w = vals["columns"]
    if n == 0:
        check("empty-table-all-zero", all(v == 0 for v in vals.values()))
        return tuple(checks), tuple(failed)

    if measure.kind == "depth":
        theta_h, det_h, sep_h = vals["min_test_cost"], vals["det_cost"], vals["separation_cost"]
    else:
        triple = vars(table).get(_DEPTH_TRIPLE)
        if triple is None:
            h = depth()
            triple = (
                min_test_cost(h, table)[0],
                det_tree_cost(h, table)[0],
                table_separation_cost(h, table),
            )
        theta_h, det_h, sep_h = triple

    check("det>=fixing", vals["det_cost"] >= vals["fixing_cost"])
    if vals["fixing_cost"] == 0:
        check("fixing0=>det0", vals["det_cost"] == 0)
    else:
        assert n > 1, "a fixable non-constant table must have at least two rows"
        check("2^det<=rows^fixing", 2 ** vals["det_cost"] <= n ** vals["fixing_cost"])
    check("det<=test", vals["det_cost"] <= vals["min_test_cost"])
    if not is_constant(table):
        check("k^depth>test", table.k**det_h > theta_h)
    check("fixing<=2*closure-sep", vals["fixing_cost"] <= 2 * vals["closure_separation_cost"])
    check("snd<=det", vals["snd_cost"] <= vals["det_cost"])
    check("snd<=separation", vals["snd_cost"] <= vals["separation_cost"])
    check("rows<=(k*cols)^sep", n <= (table.k * w) ** sep_h)
    check("test<=rows-1", theta_h <= n - 1)
    return tuple(checks), tuple(failed)


def parameter_report(measure: ComplexityMeasure, table: DecisionTable) -> ParameterReport:
    """Compute all parameters with witnesses and self-check the result.

    Witnesses are validated on the spot: the minimal test must be a test,
    each row separator must separate, the tree witnesses must validate
    against the table, and the worst tuple must reproduce the fixing
    cost.  Failures land in ``failed_checks``.  Every solver and
    validator it calls reads the table's kernel from one slot.  A depth
    report stores its depth triple on the table for later reports.
    """
    attr_set_cost, max_attr_cost = table_costs(measure, table)
    theta, test_witness = min_test_cost(measure, table)
    seps = tuple((row, *sep) for row, sep in zip(table.rows, _row_separations(measure, table)))
    separation = max((c for _, c, _ in seps), default=0)
    closure_sep = closure_separation_cost(measure, table)
    fix, worst = fixing_cost(measure, table)
    if measure.decomposable:
        det, det_tree = det_tree_cost(measure, table)
    else:
        det, det_tree = det_tree_cost_bruteforce(measure, table), None
    snd, snd_tree = snd_tree_cost(measure, table)
    if measure.kind == "depth":
        object.__setattr__(table, _DEPTH_TRIPLE, (theta, det, separation))

    vals = {
        "rows": table.n_rows,
        "columns": table.n_cols,
        "attr_set_cost": attr_set_cost,
        "max_attr_cost": max_attr_cost,
        "min_test_cost": theta,
        "separation_cost": separation,
        "closure_separation_cost": closure_sep,
        "fixing_cost": fix,
        "det_cost": det,
        "snd_cost": snd,
    }
    checks, failed = inequality_findings(measure, table, vals)
    checks, failed = list(checks), list(failed)

    def check(name: str, holds: bool):
        checks.append(name)
        if not holds:
            failed.append(name)

    bits = _bits_of(table)
    position = bits.position
    check("test-witness-is-test", bits.is_test({position[a] for a in test_witness}))
    for i, (_, _, attrs) in enumerate(seps):
        ok = bits.agreeing(i, [position[a] for a in attrs]) == 1 << i
        check("row-separator-separates", ok)
        if not ok:
            break
    if worst is not None:
        check("worst-tuple-reproduces", fixing_cost_for_tuple(measure, table, worst)[0] == fix)
    if det_tree is not None:
        check("det-witness-validates", bool(validate_deterministic(det_tree, table)))
    if snd_tree is not None:
        check("snd-witness-validates", bool(validate_strongly_nondeterministic(snd_tree, table)))

    return ParameterReport(
        k=table.k,
        measure=measure.describe(),
        **vals,
        test_witness=test_witness,
        row_separators=seps,
        worst_tuple=worst,
        det_tree=det_tree,
        snd_tree=snd_tree,
        checks=tuple(checks),
        failed_checks=tuple(failed),
    )
