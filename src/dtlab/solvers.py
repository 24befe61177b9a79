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
                           branch-and-bound search, plus an independent
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
label?  The scalar walker, ``_first_constant``, answers it for one query
with one AND per entry of the order, narrowing the parent entry's
agreeing rows at the entry's highest column.  A fixing or a rule asks it
of the decisions.  A row separator asks whether the row stands alone,
since a row always agrees with itself.  A test asks it of the kernel's
test lanes: S is a test when only their marker bit survives.

Three parameters are a maximum over many such queries on one table: the
separation cost over the rows, the fixing cost over the k^n value tuples
and the strongly nondeterministic cost over the 1-rows' rules.  The lane
walker, ``_lane_walk``, answers all the queries of one search in one
walk of the order, by SIMD within a register with guard bits (Lamport,
"Multiple byte processing with full-word instructions", CACM 1975).
Each query gets a lane of n row bits below one guard bit, and the lanes
sit side by side in one Python int, so one AND per entry narrows every
lane.  A lane holds the agreeing rows that would break its label, so it
turns constant when it empties; a value tuple, which may also agree with
no row, gets two sub-lanes, its agreeing 1-rows and its agreeing 0-rows,
and turns constant when either empties.  Adding the low mask (every row
bit of every sub-lane) carries into the guard bit of each sub-lane that
still holds a row, so the guard bits that drop out flag, all at once,
the lanes that just turned constant.  A lane's answer is the first entry
of the order at which it turns constant, which is exactly the scalar
walk's answer, so every value, witness and tie-break is that of one
``_first_constant`` per query.

Row separations (label: the row alone) and the 1-rows' minimal rules
(label: the 1-rows; the 0-rows' lanes start done) walk the kernel's row
lanes, in chunks of as many questions as fit one wide mask.  Separations
and rules read the same agreeing rows along the same order, so
``parameter_report`` asks both in one walk: question q asks of row q mod
n, the first n questions are the separations and question n + j is 1-row
j's rule, so the 2n lanes are the row lanes twice over.  ``_snd_tree``
glues the rules into the snd tree there and in ``snd_tree_cost``.  The
fixing sweep first walks the tuple (0, ..., 0) alone, then the value
tuples in blocks of k^d tuples in product order, one lane each.  A
block's masks are value masks times repeated-lane constants, with no
Python loop over tuples; only its worst tuple, the lowest lane of the
block's maximum cost, is decoded.  A walk given a cap, the min test cost,
stops at the first answer that reaches it: no lane can cost more, so the
maximum is the cap, and the first lane that costs it is the lowest one
answered at the cap or left unanswered.  The sweep stops after the first
block that reaches it.

The walker's bounds are constants, timed interleaved in one process
(2-vCPU VM, Python 3.11.7).  A wide mask holds at most
``tables.LANE_BITS`` = 2^12 bits; without a bound, the 2^14 value tuples
of a 14-column binary table would form one block of 2^14 lanes.  The
bounds 2^11, 2^12, 2^13 and 2^14 took a ``params`` pass 9.2, 9.2, 9.5
and 9.4 ms, within the noise; the fixing sweeps of six k=2 tables of
9-11 columns 7.9, 8.1, 9.5 and 12.7 ms, as smaller blocks stop sooner
once one reaches the cap; and the row separations and the closure
separations, which then walked lanes too, of three tables of 150-300
rows 480, 327, 286 and 356 ms, as narrower chunks take more walks and
wider ones a smaller entry budget (median of 16 and of 8).  2^16 took
those sweeps 24 ms and those separations 1.99 s.  ``identity_table(14)``
does not tell the bounds apart: its 15 rows fit one mask under each, and
its first tuple settles its sweep.

Fewer than ``MIN_LANES`` = 8 row questions get a scalar walk each, and
so does the first tuple of the sweep, which settles it on 314 of the
540 non-constant reports of the ``verify`` benchmark's sampled tables
(at most 8 rows); there, scalar walks below 8 questions instead of 2
made the 900 reports 141.5 ms instead of 155.7 ms (fastest of 10), with
``params`` unchanged, and 16 and 32 measured within the noise of 8.

One question is one ``_first_constant`` walk, and several questions
are one lane walk, which has one hand-off rule.  It hands each lane
still open, cut out of the wide masks, to ``_first_constant``, from the
start of the order, once its stored masks pass ``WALK_BYTES`` = 2 MiB,
and at once when it starts with one lane open, as a chunk or block of
one lane does on a table of several hundred rows or more.  The scalar
walk stores one narrow int per entry and has no budget.  A
handed-off lane is walked again from the start, so a walk does not
hand off its last few lanes: handing them off once at most 1/4, 1/16
or 1/64 of them were open, or never, took a ``params`` pass 10.4, 9.4,
9.1 and 9.7 ms, the six sweeps 16.3, 9.3, 7.8 and 8.0 ms and the three
separations 1.21, 0.54, 0.32 and 0.34 s.

The budget bounds memory, not time: on the 14-column table of the zero
row, the all-ones row, the unit rows and their complements, whose first
two rows stay open through all 16,384 entries, row separations took
6.3 ms under 1 MiB, 8.6 ms under 2 MiB (cut after about 13,800
entries, both lanes then walked again by ``_first_constant``), 5.2 ms
under 4 MiB or no bound and 4.5 ms as scalar walks, with tracemalloc
peaks of 1.08, 2.17, 2.56 and 0.66 MB (median of 31, 2-vCPU VM,
Python 3.11.7).  Handing the two lanes instead to a lane walk of one
lane each, which tests its guard bit and its budget at every entry,
took 8.9 and 11.4 ms.  No benchmark workload hands a lane off.

Closure separation builds no projection and walks no lanes.  Call a
column set G irredundant for a row r when each g in G has a private
row, one that differs from r at g and agrees with r on G - {g}.  The
closure separation cost is the largest cost(G) over every row r and
every G irredundant for r, the upper irredundance of a hypergraph
(Cockayne, Hedetniemi and Miller, Canad. Math. Bull. 1978).  Let A_r(S)
be the rows agreeing with r on S: in the projection keeping C, a subset
S of C separates r's projected row exactly when A_r(S) = A_r(C).

* (>=) Keep C = G.  Each g's private row lies in A_r(G - {g}) but not
  in A_r(G), so no proper subset of G separates r, and r's projected
  row costs cost(G).
* (<=) For any C and r, an inclusion-minimal S inside C with
  A_r(S) = A_r(C) is irredundant for r, since dropping any s from S
  lets in a row that differs from r at s; and r's projected row costs
  at most cost(S).

The sweep takes the column sets from the dearest down and returns the
cost of the first one irredundant for some row, which ``_irredundant``
tests with prefix and suffix ANDs of the row's agreeing rows.  It stops
at the first set no dearer than the table's separation cost, a lower
bound on the value, and returns that cost when no dearer set is
irredundant.  ``parameter_report`` passes the separation cost it has
just solved; ``closure_separation_cost`` on its own solves the row
separations first.  The sweep never tests the full column set: that
set is irredundant for r only when r's separation cost in the table is
cost(full set), and then the separation cost reaches the cost of every
set, so the sweep stops before it.  On the 96 ``params`` reports of the
16 variants the value is the separation cost in 84.  Under depth,
``random_table(2, 16, 100, seed=1)`` took 86 s with one lane walk per
kept set restricted to its subsets, and 4.0 s with irredundance tests
(2-vCPU VM, Python 3.11.7).

Every solver and validator reads its table through one bit kernel,
``tables._TableBits``: rank order, value masks and the ones mask, all
built with the kernel, and the row and test lanes, built when first
asked for.  It takes the kernel from ``tables._bits_of``, a slot
holding the kernels of the last two tables asked for, so calls on one
table object share one kernel, and ``parameter_report``, which calls
the solvers and validators one after another on its table, builds the
value masks once; the reports of several measures on one
table share them too, even when ``verify.transfer_findings`` solves the
collapsed table between two of them.  The slot holds two tables and no
kernel is stored on a table: a closure keeps tens of thousands of
member tables alive, and a variant that kept bits on its tables took
FTheta growth over the 28,341-member closure of
``random_table(2, 5, 14, seed=3)`` from 9.1 s to 12.9 s and its peak
RSS from 28 MB to 186 MB (2-vCPU VM, Python 3.11.7).

Witnesses name the table's own column objects, which the kernel maps
from column ranks, never the subset order's: an order is shared by
every table with the same column set under one measure instance, so
its attributes are the first such table's.

Later calls reuse what earlier ones built on the same measure instance
or table object.  Per (measure instance, column set), the subset order
keeps the deterministic-tree search's move table, by column rank, and
u, so tables listing the same columns in any order share them; a
``verify`` pass meets a handful of column sets, and its 1,744 searches
build 11 move rows instead of 1,618 (input variant 3, after a warm-up
pass).  Per kernel, ``trees._validated`` keeps the last det tree and
the last snd tree that validated on the table, and the report's witness
checks and ``verify.transfer_findings`` walk a solver-built tree only
when it differs from the kept one: that pass walks 802 trees instead of
2,437.  Skipping the walk is safe because validation is a pure function
of the tree's value and the table's, and the solvers' trees are
immutable tuples, so an equal tree gets the same verdict.  A tree is
kept only after a walk validated it, so a failing tree is always walked
and keeps its diagnostics.  The public validators always walk: a
caller's tree may hold mutable lists.

A non-depth report re-checks three depth-only inequalities, which need
the depth triple (min test, det and separation cost under depth).  A
depth report leaves its triple on its table's kernel, and a later
report of that very table object reads it there while the kernel is in
the slot; otherwise it solves the triple.  Re-solving the triple in
every non-depth report made a ``verify`` pass 25-45% slower.  Only depth
reports write the triple.

The deterministic-tree search is a branch and bound in the manner of
DL8.5 (Aglin, Nijssen, Schaus, AAAI 2020) and MurTree (Demirovic et al.,
JMLR 2022).  It solves each subproblem, keyed on (surviving row set,
accumulator state), under the best worst case its parent has found so
far, keeps exact answers and lower bounds in two memos, and prunes only
by the nondecreasing axiom; ``det_tree_cost`` gives the rules.  Keying
on the accumulator matters: under combinator measures the best subtree
genuinely depends on the tested prefix, so a row-set-only memo would be
wrong; the brute-force oracle pins this down in the tests.  The witness
is the one the unbounded search it replaced returns, which
``tests/test_det_search.py`` keeps as the reference.  Under depth, on
the ``random_table(2, 6, 32)`` of the ``params`` benchmark's variant 3,
the bounded search calls ``extend`` 42 times and the unbounded one 582.
``parameter_report`` hands the search two bounds that it re-checks,
fixing <= det <= min test: the root starts at bound theta + 1, theta
the min test cost, instead of u + 1, and stops trying columns once one
reaches the fixing cost.  det equals the fixing cost in 69 of the 96
``params`` reports, and ``solve`` runs 11,129 times over them instead
of 14,121, with every tree unchanged.  A root that does not come in
under theta + 1 is solved again under u + 1, so a broken det <= test
fails its check instead of the search.  ``det_tree_cost`` keeps the
unbounded root, and so does ``verify``'s transfer search: bounding it
by det(T) would assume the property it checks.

Its recursive helpers refer to themselves through closure cells, which
are cleared before the search returns: a call leaves no reference cycle,
so its memo and trees are freed by reference counting, not by the cyclic
garbage collector.
"""

from __future__ import annotations

import heapq
import math
import weakref
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, Iterator

from .measures import ComplexityMeasure, NotDecomposable, depth, table_costs
from .tables import (
    LANE_BITS,
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
from .trees import DecisionTree, Leaf, Node, _validated

MAX_SUBSET_COLUMNS = 20
MAX_TUPLE_SPACE = 1 << 24
# the brute-force tree oracle stays exhaustive and finite only this far
BRUTEFORCE_MAX_COLUMNS = 4
BRUTEFORCE_MAX_K = 3
BRUTEFORCE_LIMITS = (
    f"brute-force tree search allows at most {BRUTEFORCE_MAX_COLUMNS} columns "
    f"and k <= {BRUTEFORCE_MAX_K}"
)
_NO_SUBSET = "no subset satisfied the predicate; full column set should"
# fewer than MIN_LANES row questions get the scalar walk each; a lane walk hands
# each open lane to the scalar walk once its stored masks pass WALK_BYTES
MIN_LANES = 8
WALK_BYTES = 1 << 21


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

    ``moves`` is the deterministic-tree search's move table over the
    column set (``_det_tree``): per accumulator state, the state after
    each column rank, its value and the least of those values.  ``u`` is
    the value with every column folded in, once a search has needed it.

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
        self.moves: dict[object, tuple[list, list[int], int]] = {}
        self.u: int | None = None

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
    # keyed by plain ints, so a lookup runs no Attribute __lt__ or __hash__
    key = (tuple(sorted([a.index for a in columns])), card_first)
    memo = measure.subset_orders
    order = memo.get(key)
    if order is None:
        order = memo[key] = _SubsetOrder(measure, tuple(sorted(columns)), card_first)
    return order


def _first_constant(
    order: _SubsetOrder, full: int, rank_values: list[int], labels: int
) -> tuple[int, int]:
    """(cost, column-rank mask) of the first subset S of the order whose
    agreeing rows all lie in ``labels`` or all outside it.

    ``rank_values[r]`` is the mask of the rows that agree at column rank
    r, and ``full`` the mask of every row.  A subset's agreeing rows are
    its parent's, narrowed at its highest rank, so each entry of the
    order costs one AND.
    """
    parents, lasts = order.parents, order.lasts
    agree: list[int] = []
    for i in order.walk():
        p = parents[i]
        m = full if p < 0 else agree[p] & rank_values[lasts[i]]
        agree.append(m)
        x = m & labels
        if x == 0 or x == m:
            return order.costs[i], order.masks[i]
    raise AssertionError(_NO_SUBSET)


@lru_cache(maxsize=1024)
def _repeat(width: int, count: int, unit: int = 1) -> int:
    """``unit`` in each of ``count`` lanes of ``width`` bits, for a
    ``unit`` below 2^width, so that the copies do not overlap.  The
    default unit 1 gives bit 0 of each lane: times a value below
    2^width, it copies the value into every lane.  Kept for the next
    walk of the same shape."""
    return unit * (((1 << width * count) - 1) // ((1 << width) - 1))


def _lane_walk(
    order: _SubsetOrder,
    lanes: int,
    width: int,
    shift: int,
    start: int,
    wide: list[int],
    low: int,
    open_: int,
    cap: float = math.inf,
) -> list[tuple[int, int] | None]:
    """Per lane, (cost, column-rank mask) of the first subset S of the
    order at which the lane turns constant, or None for
    a lane that does not ask and for one left unanswered once an answer
    reaches ``cap``, where the walk stops.  Given a ``cap`` that no
    lane's answer exceeds, reading each asking lane left unanswered as
    costing ``cap`` gives the lanes' maximum and the first lane that
    attains it.

    Lane j, the ``width`` bits from bit j * ``width`` on, holds one
    query: one sub-lane of n row bits below a guard bit that stays 0, or
    two such sub-lanes, ``shift`` bits apart, when ``shift`` is not 0.
    ``start`` holds each sub-lane's rows for the empty subset and
    ``wide[r]`` the rows that agree at column rank r, so, as in
    ``_first_constant``, each entry's masks are its parent's narrowed
    with one AND, for every lane at once.  A lane is open while each of
    its sub-lanes holds a row: adding ``low``, the row bits of every
    sub-lane, carries into a sub-lane's guard bit exactly when it holds
    one.  ``open_`` holds the low guard bit of each lane that asks.

    The walk hands each lane still open to ``_first_constant`` once its
    stored masks pass ``WALK_BYTES``, and at once when it starts with
    one lane open.  The scalar walk reads the lane's low sub-lane: of
    ``low`` as its rows, of each ``wide[r]`` as its rows agreeing at
    rank r, and of ``start`` as its label.  For a tuple lane that is its
    1-rows.  For a row lane it is the rows outside the question's label,
    which gives the same answer, since the scalar walk asks whether the
    agreeing rows lie all inside its label or all outside it.  Each lane
    left open costs one scalar walk, lowest first, until an answer
    reaches ``cap``.
    """
    answers: list[tuple[int, int] | None] = [None] * lanes
    parents, lasts, masks, costs = order.parents, order.lasts, order.masks, order.costs
    agree: list[int] = []
    # Entries the walk may store: one open lane gets none, so it goes to the scalar walk at once;
    # else an int of lanes * width bits takes about that many bits / 8 + 28 bytes, and its list
    # slot 8 more.
    room = WALK_BYTES // (lanes * width // 8 + 36) if open_ & open_ - 1 else 0
    for i in order.walk():
        if not room:
            break
        room -= 1
        p = parents[i]
        m = start if p < 0 else agree[p] & wide[lasts[i]]
        agree.append(m)
        f = m + low
        live = f & (f >> shift) & open_ if shift else f & open_
        if live != open_:
            answer = costs[i], masks[i]
            for j in _set_lanes(open_ ^ live, width):
                answers[j] = answer
            open_ = live
            if answer[0] >= cap or not open_:
                return answers
    del agree
    part = (1 << (shift or width)) - 1  # a lane's low sub-lane
    for j in _set_lanes(open_, width):
        at = j * width
        rows, labels = low >> at & part, start >> at & part
        answers[j] = _first_constant(order, rows, [x >> at & part for x in wide], labels)
        if answers[j][0] >= cap:
            break
    return answers


def _set_lanes(guards: int, width: int) -> Iterator[int]:
    """The lanes of ``width`` bits with a bit set in ``guards``, lowest first."""
    while guards:
        bit = guards & -guards
        yield (bit.bit_length() - 1) // width
        guards ^= bit


def _fixings_of(
    bits: _TableBits, values: tuple[int, ...], mask: int
) -> tuple[tuple[Attribute, int], ...]:
    """The fixings from ``values`` (one per column position) on the
    table's columns in a column-rank mask."""
    cols = bits.table.columns
    return tuple((cols[p], values[p]) for r, p in enumerate(bits.ranks) if mask >> r & 1)


def _fixings(
    order: _SubsetOrder, bits: _TableBits, values: tuple[int, ...]
) -> tuple[int, tuple[tuple[Attribute, int], ...]]:
    """Cheapest fixings from ``values`` (one per column position) that
    leave rows of a single decision, as (cost, fixings)."""
    cost, mask = _first_constant(order, bits.full, bits.rank_values(values), bits.ones)
    return cost, _fixings_of(bits, values, mask)


def _row_walks(
    order: _SubsetOrder, bits: _TableBits, asking: int, labels: list[int]
) -> list[tuple[int, int] | None]:
    """Per question, the first subset answering it, as ``_lane_walk``
    gives it.

    Question q is the pair (row q mod n, ``labels[q]``), n the row count:
    when bit q of the mask ``asking`` is set, it asks whether the rows
    agreeing with that row all lie in ``labels[q]``, a mask holding the
    row.  So n labels ask one question of each row, and 2n labels ask two
    in one walk.  Fewer than ``MIN_LANES`` questions get the scalar walk
    each; more are walked in chunks of as many questions as fit one wide
    mask of ``LANE_BITS``, one ``_lane_walk`` per chunk, which hands each
    question it stops carrying to the scalar walk.
    """
    full, rows = bits.full, bits.table.rows
    n, count = len(rows), len(labels)
    answers: list[tuple[int, int] | None] = [None] * count
    if asking.bit_count() < MIN_LANES:
        for q in _set_lanes(asking, 1):
            answers[q] = _first_constant(order, full, bits.rank_values(rows[q % n]), labels[q])
        return answers
    width = n + 1
    size = max(1, LANE_BITS // width)
    for first in range(0, count, size):
        stop = min(count, first + size)
        chunk = asking >> first & (1 << stop - first) - 1
        if not chunk:
            continue
        low = full * _repeat(width, stop - first)
        # a lane keeps the agreeing rows outside its labels, so it empties when constant
        start = low ^ sum(m << j * width for j, m in enumerate(labels[first:stop]))
        open_ = sum(1 << j * width + n for j in _set_lanes(chunk, 1))  # the asking lanes' guard bits
        wide = bits.row_lanes(first, stop)
        answers[first:stop] = _lane_walk(order, stop - first, width, 0, start, wide, low, open_)
    return answers


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
    bits = _bits_of(table)
    for i in order.walk():
        mask = order.masks[i]
        if predicate(tuple(sorted(p for r, p in enumerate(bits.ranks) if mask >> r & 1))):
            return order.costs[i], bits.columns_of(mask)
    raise AssertionError(_NO_SUBSET)


def min_test_cost(
    measure: ComplexityMeasure, table: DecisionTable
) -> tuple[int, tuple[Attribute, ...]]:
    """Cheapest test of the table; (0, empty) for constant tables.

    A test leaves no 1-row agreeing with a 0-row: S is one exactly when
    only the marker bit survives the AND of the kernel's test lanes over
    S (``_TableBits.test_lanes``).
    """
    if is_constant(table):
        return 0, ()
    bits = _bits_of(table)
    full, lanes = bits.test_lanes()
    order = _subset_order(measure, table.columns)
    cost, mask = _first_constant(order, full, [lanes[p] for p in bits.ranks], 1)
    return cost, bits.columns_of(mask)


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
    return cost, bits.columns_of(mask)


def _row_separations(
    measure: ComplexityMeasure, table: DecisionTable
) -> list[tuple[int, tuple[Attribute, ...]]]:
    """Every row's (cost, witness) of ``row_separation_cost``, in row order."""
    if not table.rows:
        return []
    order = _subset_order(measure, table.columns)
    bits = _bits_of(table)
    seps = _row_walks(order, bits, bits.full, [1 << j for j in range(len(table.rows))])
    return [(cost, bits.columns_of(mask)) for cost, mask in seps]


def table_separation_cost(measure: ComplexityMeasure, table: DecisionTable) -> int:
    """Worst row separation cost over the table's rows (0 when empty)."""
    return max((c for c, _ in _row_separations(measure, table)), default=0)


def closure_separation_cost(measure: ComplexityMeasure, table: DecisionTable) -> int:
    """Worst separation cost over every column-removal projection.

    Relabelings never change which rows a projection has, and separation
    ignores decisions, so ranging over the 2^columns projections covers
    the whole closure.  No projection is built: the value is the largest
    cost(G) over the rows r and the column sets G irredundant for r, in
    which each column has a private row that differs from r there and
    agrees with r on the rest of G (module docstring).
    """
    if table.is_empty:
        return 0
    return _closure_sweep(_subset_order(measure, table.columns), table, table_separation_cost(measure, table))


def _irredundant(values: list[int], kept: list[int], full: int) -> bool:
    """Whether the column ranks ``kept`` are irredundant for a row whose
    ``rank_values`` are ``values``: each kept rank has a private row,
    one that differs from the row there and agrees with it at every
    other kept rank.  ``full`` is the mask of every row."""
    before = [full]  # before[i]: the rows agreeing at kept[:i]
    for r in kept[:-1]:
        before.append(before[-1] & values[r])
    after = full  # the rows agreeing at kept[i + 1:]
    for i in range(len(kept) - 1, -1, -1):
        if not before[i] & after & ~values[kept[i]]:
            return False
        after &= values[kept[i]]
    return True


def _closure_sweep(order: _SubsetOrder, table: DecisionTable, separation: int) -> int:
    """``closure_separation_cost``, given the table's subset order and its
    separation cost, a lower bound on it: the cost of the dearest column
    set that is irredundant for some row, or the separation cost when no
    set dearer than it is."""
    if table.is_empty:
        return 0
    order.complete()
    bits = _bits_of(table)
    every = (1 << table.n_cols) - 1
    row_values: list[list[int]] = []  # built at the first set tested: most sweeps test none
    for cost_c, c in zip(reversed(order.costs), reversed(order.masks)):
        if cost_c <= separation:
            break  # no set from here on can raise the value
        if c == every:
            continue  # irredundant only for a row it costs to separate: not above the seed
        if c.bit_count() >= table.n_rows:
            continue  # its private rows would be distinct and differ from the row
        if not row_values:
            row_values = [bits.rank_values(row) for row in table.rows]
        kept = [r for r in range(len(order.attrs)) if c >> r & 1]
        if any(_irredundant(values, kept, bits.full) for values in row_values):
            return cost_c
    return separation


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
    return _fixing_sweep(_subset_order(measure, table.columns), table, None)


def _fixing_sweep(
    order: _SubsetOrder, table: DecisionTable, cap: int | None
) -> tuple[int, tuple[int, ...]]:
    """``fixing_cost`` of a non-constant table, given its subset order and
    its min test cost as ``cap``, or solving that cost when ``cap`` is
    None, after the guard rail."""
    if table.k**table.n_cols > MAX_TUPLE_SPACE:
        raise TooLarge(
            f"{table.k}^{table.n_cols} value tuples exceed the exact-sweep guard rail"
        )
    if cap is None:
        cap = min_test_cost(order.measure(), table)[0]
    bits = _bits_of(table)
    k, w, n = table.k, table.n_cols, table.n_rows
    full, ones = bits.full, bits.ones
    # The first tuple alone is the scalar walk: when it reaches the cap,
    # as on most small tables, no block is built.  Block 0 answers it again.
    worst_tuple = (0,) * w
    best = _first_constant(order, full, bits.rank_values(worst_tuple), ones)[0]
    if best >= cap:
        return best, worst_tuple
    # A block is the k^d tuples that share their first w - d values, one
    # lane each in product order: a low sub-lane for the agreeing 1-rows
    # and a high one for the agreeing 0-rows, open while both hold a row.
    sub = n + 1
    width = 2 * sub
    d = 0
    while d < w and k ** (d + 1) * width <= LANE_BITS:
        d += 1
    lanes, fixed = k**d, w - d
    both = 1 | 1 << sub  # a value in both sub-lanes
    every = _repeat(width, lanes)
    # the rows agreeing at a column position: one value for the whole
    # block at a fixed position, lane t's own digit at a varying one
    per_value = [[m * both * every for m in masks] for masks in bits.masks[:fixed]]
    varying = {}
    for q, p in enumerate(range(fixed, w)):
        span = k ** (d - 1 - q)  # lanes sharing the digit of position p in a row
        runs = _repeat(k * span * width, k**q, _repeat(width, span, both))
        varying[p] = sum(m * runs << v * span * width for v, m in enumerate(bits.masks[p]))
    start = (ones | (full ^ ones) << sub) * every
    low = full * both * every
    open_ = (1 << n) * every
    for prefix in product(range(k), repeat=fixed):
        wide = [per_value[p][prefix[p]] if p < fixed else varying[p] for p in bits.ranks]
        answers = _lane_walk(order, lanes, width, sub, start, wide, low, open_, cap=cap)
        costs = [cap if a is None else a[0] for a in answers]  # a lane left open costs the cap
        top = max(costs)
        if top > best:
            t = costs.index(top)  # the block's worst tuple: its varying digits are t's base-k digits
            best, worst_tuple = top, prefix + tuple(t // k ** (d - 1 - q) % k for q in range(d))
            if best >= cap:
                break
    return best, worst_tuple


# ---------------------------------------------------------------------------
# deterministic trees


def det_tree_cost(
    measure: ComplexityMeasure, table: DecisionTable
) -> tuple[int, DecisionTree | None]:
    """Cheapest deterministic decision tree for the table, with a witness.

    Branch-and-bound search over reachable subtables (bitmask row sets),
    keyed by (row set, accumulator state).  ``solve(mask, state, bound)``
    returns the subtable's exact cost when it is below ``bound``, and
    otherwise some value at least ``bound``.  Exact costs go in ``memo``
    with the chosen column; "costs at least b" facts go in ``floors``,
    which ``rebuild`` never reads.  A node tries its columns in rank
    order and hands every child the best worst case so far as its bound.

    Every prune rests on the nondecreasing axiom, under which every leaf
    below a state costs at least that state's value:

    * a column taking fewer than two values among the rows splits
      nothing, and testing it can never lower a path's cost;
    * a column whose step ``value(extend(state, a))`` reaches the bound
      cannot beat it;
    * a non-constant child needs one more test, so it costs at least the
      floor of its state, the least step over all columns: the column is
      dropped once that floor reaches the bound;
    * a constant child is a leaf that costs the step and is never
      searched.

    ``moves`` is the move table: per state, the state after each column,
    its step and the floor.  It is kept on the subset order of the
    measure instance and the column set, by column rank, so ``extend``
    and ``value`` run once per (measure, column set, state, column),
    whichever table or call reaches the state.  A path never tests a
    column twice, so the cost is at most u, the value with every column
    folded in, kept there too; the root starts at bound u + 1 and must
    come in under it.  ``parameter_report`` starts it lower and stops it
    sooner, by ``_det_tree``.

    The witness cannot differ from the unbounded search's.  A column is
    taken only when its worst case is strictly below the bound, and
    everything pruned costs at least the bound, so each node takes the
    first column in rank order of least worst case.  That column's
    children all came back below the bound, so they are exact and in
    ``memo`` for ``rebuild``.  The empty table has cost 0 and no tree by
    fiat.
    """
    return _det_tree(measure, table)


def _det_tree(
    measure: ComplexityMeasure, table: DecisionTable, least: int = 0, most: int | None = None
) -> tuple[int, DecisionTree | None]:
    """``det_tree_cost``, given bounds on the cost that the caller has
    proved: at least ``least`` and at most ``most`` (u when None).

    The root starts at bound ``most`` + 1 and stops trying columns once
    one reaches ``least``.  The column it takes is still the first in
    rank order of least worst case: one whose worst case is ``least``
    ties every later column at best.  A root that does not come in under
    ``most`` + 1 is solved again under u + 1, so a wrong ``most`` yields
    the true cost, not a wrong tree.
    """
    if table.is_empty:
        return 0, None
    if not measure.decomposable:
        raise NotDecomposable("exact tree search needs the accumulator contract")
    bits = _bits_of(table)
    k = table.k
    masks, ones, full = bits.rank_masks, bits.ones, bits.full
    s0 = measure.initial_state()
    x = full & ones
    if x == 0 or x == full:
        return measure.value(s0), DecisionTree(k, (Leaf(table.decisions[0]),))
    cols = table.columns
    if len(cols) > MAX_SUBSET_COLUMNS:  # no subset search runs this wide: a move table for this call alone
        order = _SubsetOrder(measure, tuple(sorted(cols)), False)
    else:
        order = _subset_order(measure, cols)
    extend, value, moves = measure.extend, measure.value, order.moves
    indices = [a.index for a in order.attrs]
    all_ranks = range(len(indices))
    memo: dict[tuple[int, object], tuple[int, int]] = {}
    floors: dict[tuple[int, object], int] = {}

    def add_moves(state):
        """The move-table row of ``state``: the state after each column,
        its value (the column's step), and the least step (the floor)."""
        after = [extend(state, i) for i in indices]
        steps = [value(s) for s in after]
        row = moves[state] = (after, steps, min(steps))
        return row

    def solve(mask: int, state, bound: int, enough: int = -1) -> int:
        key = (mask, state)
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        lo = floors.get(key, 0)
        if lo >= bound:
            return lo
        after, steps, _ = moves[state]
        best_r = -1
        for r in all_ranks:
            step = steps[r]
            if step >= bound:
                continue
            live = [m for m in [vm & mask for vm in masks[r]] if m]
            if len(live) < 2:
                continue
            st = after[r]
            worst = step
            for m in live:
                x = m & ones
                if x == 0 or x == m:
                    continue  # a leaf of cost step
                if (moves.get(st) or add_moves(st))[2] >= bound:
                    worst = bound
                    break
                c = solve(m, st, bound)
                if c > worst:
                    worst = c
                    if worst >= bound:
                        break
            if worst < bound:
                bound, best_r = worst, r
                if bound <= enough:
                    break  # no later column can do better
        if best_r < 0:
            floors[key] = bound
            return bound
        memo[key] = (bound, best_r)
        return bound

    def rebuild(mask: int, state):
        x = mask & ones
        if x == 0 or x == mask:
            first = (mask & -mask).bit_length() - 1
            return Leaf(table.decisions[first])
        r = memo[(mask, state)][1]
        st = moves[state][0][r]
        edges = tuple(
            (v, rebuild(masks[r][v] & mask, st))
            for v in range(k)
            if masks[r][v] & mask
        )
        return Node(cols[bits.ranks[r]], edges)

    if order.u is None:
        u = s0
        for i in indices:
            u = extend(u, i)
        order.u = value(u)
    u = order.u
    top = u if most is None else min(most, u)
    try:
        moves.get(s0) or add_moves(s0)
        total = solve(full, s0, top + 1, least)
        if total > top:
            total = solve(full, s0, u + 1, least)
        assert total <= u, "no tree within the cost of testing every column"
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
    order = _subset_order(measure, table.columns)
    bits = _bits_of(table)
    ones = bits.ones
    # a 1-row's lane is constant once no 0-row agrees: the row's minimal_rule
    return _snd_tree(bits, _row_walks(order, bits, ones, [ones] * table.n_rows))


def _snd_tree(bits: _TableBits, answers: list[tuple[int, int] | None]) -> tuple[int, DecisionTree]:
    """The 1-rows' minimal rules glued under one root, as (cost, tree),
    given each row's rule answer, (cost, column-rank mask) or None for a
    0-row, in row order."""
    table = bits.table
    rules: list[tuple[tuple[Attribute, int], ...]] = []
    value = 0
    for row, answer in zip(table.rows, answers):
        if answer is None:
            continue
        cost, mask = answer
        fixings = _fixings_of(bits, row, mask)
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
    triple that a depth report of this very table object left on its
    kernel, or solve it when the kernel holds none.
    """
    checks: list[str] = []
    failed: list[str] = []

    def check(name: str, holds: bool):
        checks.append(name)
        if not holds:
            failed.append(name)

    n = vals["rows"]
    w = vals["columns"]
    if n == 0:  # every solved parameter is 0, whatever the columns cost
        solved = ("min_test_cost", "separation_cost", "closure_separation_cost", "fixing_cost", "det_cost", "snd_cost")
        check("empty-table-all-zero", all(vals[name] == 0 for name in solved))
        return tuple(checks), tuple(failed)

    if measure.kind == "depth":
        theta_h, det_h, sep_h = vals["min_test_cost"], vals["det_cost"], vals["separation_cost"]
    else:
        triple = _bits_of(table).depth
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
    validator it calls reads the table's kernel from the kernel slot.  A
    depth report leaves its depth triple on that kernel for the later
    reports of the same table object, and a tree witness that validates
    is kept there, so an equal witness of a later report is not walked
    again.
    """
    attr_set_cost, max_attr_cost = table_costs(measure, table)
    theta, test_witness = min_test_cost(measure, table)
    order = _subset_order(measure, table.columns)
    bits = _bits_of(table)
    n, constant = table.n_rows, is_constant(table)
    # one walk: question j is row j's separation, question n + j 1-row j's rule
    asking = bits.full if constant else bits.full | bits.ones << n
    walked = _row_walks(order, bits, asking, [1 << j for j in range(n)] + [bits.ones] * n)
    seps = tuple((row, cost, bits.columns_of(mask)) for row, (cost, mask) in zip(table.rows, walked))
    separation = max((c for _, c, _ in seps), default=0)
    closure_sep = _closure_sweep(order, table, separation)
    fix, worst = (0, None) if constant else _fixing_sweep(order, table, theta)
    if measure.decomposable:
        det, det_tree = _det_tree(measure, table, fix, theta)  # fixing <= det <= test
    else:
        det, det_tree = det_tree_cost_bruteforce(measure, table), None
    snd, snd_tree = (0, None) if constant else _snd_tree(bits, walked[n:])
    if measure.kind == "depth":
        bits.depth = (theta, det, separation)

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

    position, masks = bits.position, bits.masks
    check("test-witness-is-test", bits.is_test({position[a] for a in test_witness}))
    for i, (row, _, attrs) in enumerate(seps):
        agree = bits.full  # the rows equal to row i on its separator
        for p in [position[a] for a in attrs]:
            agree &= masks[p][row[p]]
        check("row-separator-separates", agree == 1 << i)
        if agree != 1 << i:
            break
    if worst is not None:
        check("worst-tuple-reproduces", fixing_cost_for_tuple(measure, table, worst)[0] == fix)
    if det_tree is not None:
        check("det-witness-validates", bool(_validated(det_tree, table)))
    if snd_tree is not None:
        check("snd-witness-validates", bool(_validated(snd_tree, table, strongly=True)))

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
