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
since a row always agrees with itself.  A test asks it of wide masks
that hold, lane by lane, the 1-rows agreeing with each 0-row, plus one
bit that every wide mask sets: S is a test when only that bit survives.

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

Row separations (label: the row alone), the 1-rows' minimal rules
(label: the 1-rows; the 0-rows' lanes start done) and closure separation
(label: the row's class on the kept column set; merged rows start done)
walk the kernel's row lanes, in chunks of as many rows as fit one wide
mask.  The fixing sweep first walks the tuple (0, ..., 0) alone, then
the value tuples in blocks of k^d tuples in product order, one lane
each.  A block's masks are value masks times repeated-lane constants,
with no Python loop over tuples; only its worst tuple, the lowest lane
of the block's maximum cost, is decoded.  A walk given a cap (the min
test cost for the sweep, cost(C) for a kept column set C) stops at the
first answer that reaches it: no lane can cost more, so the lanes
still open then cost exactly the cap, and the sweep stops after the
first block that reaches it.

The walker's bounds are constants, timed interleaved in one process
(2-vCPU VM, Python 3.11.7).  A wide mask holds at most
``tables.LANE_BITS`` = 2^12 bits; without a bound, the 2^14 value
tuples of a 14-column binary table would form one block of 2^14 lanes.
The bounds 2^11, 2^12, 2^13 and 2^14 took a ``params`` pass 9.2, 9.2,
9.5 and 9.4 ms, within the noise; the fixing sweeps of six k=2 tables
of 9-11 columns 7.9, 8.1, 9.5 and 12.7 ms, as smaller blocks stop
sooner once one reaches the cap; and the row and closure separations of
three tables of 150-300 rows 480, 327, 286 and 356 ms, as narrower
chunks take more walks and wider ones a smaller entry budget (median of
16 and of 8).  2^16 took those sweeps 24 ms and those separations
1.99 s.  ``identity_table(14)`` does not tell the bounds apart: its 15
rows fit one mask under each, and its first tuple settles its sweep.

Fewer than ``MIN_LANES`` = 8 row questions get a scalar walk each, and
so does the first tuple of the sweep, which settles it on 314 of the
540 non-constant reports of the ``verify`` benchmark's sampled tables
(at most 8 rows); there, scalar walks below 8 questions instead of 2
made the 900 reports 141.5 ms instead of 155.7 ms (fastest of 10), with
``params`` unchanged, and 16 and 32 measured within the noise of 8.  A
walk hands its open lanes to ``_first_constant`` once its stored masks
pass ``WALK_BYTES`` = 2 MiB.  A handed-off lane is walked again from
the start, so a walk does not hand off its last few lanes: handing them
off once at most 1/4, 1/16 or 1/64 of them were open, or never, took a
``params`` pass 10.4, 9.4, 9.1 and 9.7 ms, the six sweeps 16.3, 9.3,
7.8 and 8.0 ms and the three separations 1.21, 0.54, 0.32 and 0.34 s.
One lane left open alone is handed off, though, when less than half of
the order's 2^w entries has been walked: the scalar walk then redoes
fewer entries than may be left.  The zero row of ``identity_table(14)`` is
left open after 15 entries and needs all 16,384: its row separations
took 5.0 ms so against 9.5 ms walking on in the wide masks, while a
``params`` pass took 18.7 ms either way, the fixing sweeps 15.3 and
15.7 ms, and the row separations, closure separations and rules of
``random_table(2, 9, 300)``, ``(3, 7, 150)`` and ``(3, 6, 200)`` 62.2
and 60.2 ms (median of 12, on a busier host than the runs above).
Handing off the last lane wherever it is left made that ``params`` pass
29% and those separations 23% slower than walking on.

A walk inside a column set C stores no masks for the entries outside
C, since every entry below one of them in the order lies outside too,
so the budget counts subsets of C only.  Under depth, the closure
separation of ``random_table(2, 11, 200, seed=11)``, which walks 67
kept column sets, took 0.92 s counting every entry against the budget,
0.47 s skipping those outside C and 4.04 s as one scalar walk per row
(median of 3, busier host).  The budget bounds memory, not time: on the
14-column table of the zero row, the all-ones row, the unit rows and
their complements, whose first two rows stay open through all 16,384
entries, row separations took 11.6 ms under 1 MiB, 15.8 ms under 2 MiB
(cut after about 13,800 entries, both lanes then walked again), 9.8 ms
under 4 MiB or no bound and 9.0 ms as scalar walks, with tracemalloc
peaks of 1.08, 2.17, 2.56 and 0.66 MB (median of 10).

Closure separation never builds a projection.  For a kept column
set C, the rows agreeing with a row on C form one projected row, stood
for by its lowest row, and that row's separators in the projection are
the subsets of C on which it agrees with no other class: one lane walk
per C, restricted to subsets of C, with each lowest row's class as its
lane's label.  That restriction is exactly the order the projection
would build, because a key depends only on the attribute set.  C itself
separates every projected row, so the projection keeping C costs at
most cost(C).  The sweep therefore takes the kept column sets from the
dearest down and stops at the first one no dearer than the best value
so far: no later set can raise it.

Every solver and validator reads its table through one bit kernel,
``tables._TableBits``: rank order, value masks and the ones mask, all
built with the kernel, and the row lanes, built when first asked for.  It takes the kernel from ``tables._bits_of``, a
slot holding the kernel of the last table asked for, so calls on one
table object in a row share one kernel, and ``parameter_report``, which
calls the public solvers and validators one after another on its
table, builds the value masks once; the reports of several measures on
one table share them too.  The slot holds one table and no kernel is
stored on a table: a closure keeps tens of thousands of member tables
alive, and a variant that kept bits on its tables took FTheta growth
over the 28,341-member closure of ``random_table(2, 5, 14, seed=3)``
from 9.1 s to 12.9 s and its peak RSS from 28 MB to 186 MB (2-vCPU VM,
Python 3.11.7).

A non-depth report re-checks three depth-only inequalities, which need
the depth triple (min test, det and separation cost under depth).  A
depth report leaves its triple in a second one-table slot,
``_depth_slot``, and a later report reads it only when the slot holds
that very table object; otherwise it solves the triple.  Tables are
slotted, so the triple cannot be stored on them.  Nor can it live in the
kernel slot: ``verify.transfer_findings`` solves ``det_tree_cost`` on
the collapsed table between the depth report of a table and the next
measure's report, which replaces the kernel slot, so a triple kept there
would be gone when that report looks for it.  Re-solving the triple in
every non-depth report made a ``verify`` pass 25-45% slower.  Only depth
reports write the depth slot.

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
# the last depth report's table and its (min test, det, separation) costs
_depth_slot: tuple[DecisionTable | None, tuple[int, int, int] | None] = (None, None)
_NO_SUBSET = "no subset satisfied the predicate; full column set should"
# fewer than MIN_LANES row questions get the scalar walk each; a lane walk
# hands its open lanes to the scalar walk once its stored masks pass WALK_BYTES
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
    # keyed by plain ints, so a lookup runs no Attribute __lt__ or __hash__
    key = (tuple(sorted([a.index for a in columns])), card_first)
    memo = measure.subset_orders
    order = memo.get(key)
    if order is None:
        order = memo[key] = _SubsetOrder(measure, tuple(sorted(columns)), card_first)
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


@lru_cache(maxsize=1024)
def _repeat(width: int, count: int, unit: int = 1) -> int:
    """``unit`` in each of ``count`` lanes of ``width`` bits.  The default
    unit 1 gives bit 0 of each lane: times a value below 2^width, it
    copies the value into every lane.  Built by doubling, in O(log count)
    shifts, with no product of two wide ints, and kept for the next walk
    of the same shape."""
    out, block, size, done = 0, unit, 1, 0  # block holds size lanes
    while count:
        if count & 1:
            out |= block << done * width
            done += size
        count >>= 1
        if count:
            block |= block << size * width
            size *= 2
    return out


def _lane_walk(
    order: _SubsetOrder,
    lanes: int,
    width: int,
    shift: int,
    start: int,
    wide: list[int],
    low: int,
    open_: int,
    scalar: Callable[[int], tuple[int, int]],
    within: int = -1,
    cap: float = math.inf,
) -> list[tuple[int, int] | None]:
    """Per lane, (cost, column-rank mask) of the first subset S of the
    order inside ``within`` at which the lane turns constant, or None for
    a lane that does not ask and for one still open when an answer
    reaches ``cap``: the walk stops there, and the lanes it leaves open
    cost at least ``cap``.

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
    An entry outside ``within`` gets no masks: no subset below it in the
    order lies inside either.  ``scalar(j)`` answers each open lane j
    instead, from the start of the order, once the stored masks pass
    ``WALK_BYTES``, and once one lane is left open before half the
    order is walked; it answers the lane of a one-lane block too.
    """
    answers: list[tuple[int, int] | None] = [None] * lanes
    if not open_:
        return answers
    parents, lasts, masks, costs = order.parents, order.lasts, order.masks, order.costs
    outside = ~within
    agree: list[int] = []
    # one open lane gets the scalar walk; an int of lanes * width bits
    # takes about that many bits / 8 + 28 bytes, and its list slot 8 more
    room = WALK_BYTES // (lanes * width // 8 + 36) if open_ & open_ - 1 else 0
    for i in order.walk():
        if masks[i] & outside:
            agree.append(0)
            continue
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
            if not open_ & open_ - 1 and 2 * i < 1 << len(order.attrs):
                break  # redoing the entries walked on one narrow lane costs less than what may be left
    del agree
    for j in _set_lanes(open_, width):
        answers[j] = scalar(j)
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
    order: _SubsetOrder, bits: _TableBits, values: tuple[int, ...], mask: int
) -> tuple[tuple[Attribute, int], ...]:
    """The fixings from ``values`` (one per column position) on the
    columns of a column-rank mask."""
    chosen = zip(order.attrs, bits.ranks)
    return tuple((a, values[p]) for r, (a, p) in enumerate(chosen) if mask >> r & 1)


def _fixings(
    order: _SubsetOrder, bits: _TableBits, values: tuple[int, ...]
) -> tuple[int, tuple[tuple[Attribute, int], ...]]:
    """Cheapest fixings from ``values`` (one per column position) that
    leave rows of a single decision, as (cost, fixings)."""
    cost, mask = _first_constant(order, bits.full, bits.rank_values(values), bits.ones)
    return cost, _fixings_of(order, bits, values, mask)


def _row_walks(
    order: _SubsetOrder,
    bits: _TableBits,
    asking: int,
    labels: list[int],
    within: int = -1,
    cap: float = math.inf,
    chunk_lanes: dict[int, list[int]] | None = None,
) -> list[tuple[int, int] | None]:
    """Per row, the first subset answering the row's question, as
    ``_lane_walk`` gives it.

    Row j asks, when bit j of the row mask ``asking`` is set, whether
    its agreeing rows all lie in ``labels[j]``, a mask holding row j.
    Fewer than ``MIN_LANES`` questions get the scalar walk each; more are
    walked in chunks of as many rows as fit one wide mask of
    ``LANE_BITS``.  ``within`` and ``cap`` apply to every walk, and no
    question is asked after an answer reaches ``cap``.  A caller that
    walks one table's rows many times passes a dict as ``chunk_lanes``,
    which keeps each chunk's row lanes, by first row, between the calls.
    """
    full, rows = bits.full, bits.table.rows
    n = len(rows)
    answers: list[tuple[int, int] | None] = [None] * n
    if asking.bit_count() < MIN_LANES:
        for j in _set_lanes(asking, 1):
            answers[j] = _first_constant(order, full, bits.rank_values(rows[j]), labels[j], within)
            if answers[j][0] >= cap:
                break
        return answers
    width = n + 1
    size = max(1, LANE_BITS // width)
    for first in range(0, n, size):
        stop = min(n, first + size)
        chunk = asking >> first & (1 << stop - first) - 1
        if not chunk:
            continue
        low = full * _repeat(width, stop - first)
        # a lane keeps the agreeing rows outside its labels, so it empties when constant
        start = low ^ sum(m << j * width for j, m in enumerate(labels[first:stop]))
        open_ = sum(1 << j * width + n for j in _set_lanes(chunk, 1))  # the asking lanes' guard bits

        def scalar(j: int, first=first) -> tuple[int, int]:
            row = first + j
            return _first_constant(order, full, bits.rank_values(rows[row]), labels[row], within)

        wide = None if chunk_lanes is None else chunk_lanes.get(first)
        if wide is None:
            wide = bits.row_lanes(first, stop)
            if chunk_lanes is not None:
                chunk_lanes[first] = wide
        walked = _lane_walk(order, stop - first, width, 0, start, wide, low, open_, scalar, within, cap)
        answers[first:stop] = walked
        if any(a is not None and a[0] >= cap for a in walked):
            break
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
    for values, d in zip(bits.row_values(), table.decisions):
        if not d:
            full |= ones << shift
            wide = [w | (v & ones) << shift for w, v in zip(wide, values)]
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
    seps = _row_walks(order, bits, bits.full, [1 << j for j in range(len(table.rows))])
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
    row_values = bits.row_values()
    best = 0
    chunk_lanes: dict[int, list[int]] = {}  # a tall table's row lanes, built once for every C
    for cost_c, c in zip(reversed(order.costs), reversed(order.masks)):
        if cost_c <= best:
            break  # C separates every projected row, so no set from here on can raise best
        kept = [r for r in range(len(order.attrs)) if c >> r & 1]
        merged = lowest = 0
        classes = [0] * len(row_values)  # each projected row's class, at its lowest row
        for a, values in enumerate(row_values):
            if merged >> a & 1:
                continue  # an earlier row stands for a's projected row
            same = full
            for r in kept:
                same &= values[r]
            merged |= same
            lowest |= 1 << a
            classes[a] = same
        # no projected row costs more than C, so the walks stop at the first that does
        answers = _row_walks(order, bits, lowest, classes, c, cost_c, chunk_lanes)
        best = max(best, max(a[0] for a in answers if a is not None))
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
    return _fixing_sweep(measure, table, None)


def _fixing_sweep(
    measure: ComplexityMeasure, table: DecisionTable, cap: int | None
) -> tuple[int, tuple[int, ...] | None]:
    """``fixing_cost``, given the table's min test cost as ``cap`` or
    solving it when ``cap`` is None, after the guard rail."""
    if is_constant(table):
        return 0, None
    if table.k**table.n_cols > MAX_TUPLE_SPACE:
        raise TooLarge(
            f"{table.k}^{table.n_cols} value tuples exceed the exact-sweep guard rail"
        )
    if cap is None:
        cap = min_test_cost(measure, table)[0]
    order = _subset_order(measure, table.columns)
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

        def values_of(t: int, prefix=prefix) -> tuple[int, ...]:
            return prefix + tuple(t // k ** (d - 1 - q) % k for q in range(d))

        def scalar(t: int) -> tuple[int, int]:
            return _first_constant(order, full, bits.rank_values(values_of(t)), ones)

        answers = _lane_walk(order, lanes, width, sub, start, wide, low, open_, scalar, cap=cap)
        costs = [cap if a is None else a[0] for a in answers]  # a lane left open costs the cap
        top = max(costs)
        if top > best:
            best, worst_tuple = top, values_of(costs.index(top))
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
    its step and the floor, so ``extend`` and ``value`` run once per
    (state, column).  A path never tests a column twice, so the cost is
    at most u, the value with every column folded in; the root starts at
    bound u + 1 and must come in under it.

    The witness cannot differ from the unbounded search's.  A column is
    taken only when its worst case is strictly below the bound, and
    everything pruned costs at least the bound, so each node takes the
    first column in rank order of least worst case.  That column's
    children all came back below the bound, so they are exact and in
    ``memo`` for ``rebuild``.  The empty table has cost 0 and no tree by
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
    s0 = measure.initial_state()
    x = full & ones
    if x == 0 or x == full:
        return measure.value(s0), DecisionTree(k, (Leaf(table.decisions[0]),))
    extend, value = measure.extend, measure.value
    indices = [c.index for c in cols]
    memo: dict[tuple[int, object], tuple[int, int]] = {}
    floors: dict[tuple[int, object], int] = {}
    moves: dict[object, tuple[list, list[int], int]] = {}

    def add_moves(state):
        """The move-table row of ``state``: the state after each column,
        its value (the column's step), and the least step (the floor)."""
        after = [extend(state, i) for i in indices]
        steps = [value(s) for s in after]
        row = moves[state] = (after, steps, min(steps))
        return row

    def solve(mask: int, state, bound: int) -> int:
        key = (mask, state)
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        lo = floors.get(key, 0)
        if lo >= bound:
            return lo
        after, steps, _ = moves[state]
        best_p = -1
        for p in order:
            step = steps[p]
            if step >= bound:
                continue
            live = [m for m in [vm & mask for vm in masks[p]] if m]
            if len(live) < 2:
                continue
            st = after[p]
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
                bound, best_p = worst, p
        if best_p < 0:
            floors[key] = bound
            return bound
        memo[key] = (bound, best_p)
        return bound

    def rebuild(mask: int, state):
        x = mask & ones
        if x == 0 or x == mask:
            first = (mask & -mask).bit_length() - 1
            return Leaf(table.decisions[first])
        p = memo[(mask, state)][1]
        st = moves[state][0][p]
        edges = tuple(
            (v, rebuild(masks[p][v] & mask, st))
            for v in range(k)
            if masks[p][v] & mask
        )
        return Node(cols[p], edges)

    u = s0
    for i in indices:
        u = extend(u, i)
    u = value(u)
    try:
        add_moves(s0)
        total = solve(full, s0, u + 1)
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
    rules: list[tuple[tuple[Attribute, int], ...]] = []
    value = 0
    order = _subset_order(measure, table.columns)
    bits = _bits_of(table)
    ones = bits.ones
    # a 1-row's lane is constant once no 0-row agrees: the row's minimal_rule
    for row, answer in zip(table.rows, _row_walks(order, bits, ones, [ones] * len(table.rows))):
        if answer is None:
            continue
        cost, mask = answer
        fixings = _fixings_of(order, bits, row, mask)
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
    triple that the last depth report left in the depth slot if it was a
    report of this very table object, or solve it.
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
        held, triple = _depth_slot
        if held is not table:
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
    report leaves its depth triple in the depth slot for later reports.
    """
    global _depth_slot
    attr_set_cost, max_attr_cost = table_costs(measure, table)
    theta, test_witness = min_test_cost(measure, table)
    seps = tuple((row, *sep) for row, sep in zip(table.rows, _row_separations(measure, table)))
    separation = max((c for _, c, _ in seps), default=0)
    closure_sep = closure_separation_cost(measure, table)
    fix, worst = _fixing_sweep(measure, table, theta)
    if measure.decomposable:
        det, det_tree = det_tree_cost(measure, table)
    else:
        det, det_tree = det_tree_cost_bruteforce(measure, table), None
    snd, snd_tree = snd_tree_cost(measure, table)
    if measure.kind == "depth":
        _depth_slot = (table, (theta, det, separation))

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
