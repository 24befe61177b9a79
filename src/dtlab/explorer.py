"""Empirical growth functions over finitely enumerated closed classes.

Four worst-case growth functions are measured over the closure of a
generator set, all with a bounded measure:

* ``FW``     worst deterministic tree cost among members whose column set
             costs at most n,
* ``FTheta`` the same with the minimal test cost as the filter,
* ``F``      the same with the strongly nondeterministic tree cost as the
             filter (this one can be partial over infinite classes, so
             non-exhausted points are flagged possibly-undefined),
* ``G``      worst strongly nondeterministic tree cost among members
             whose column set costs at most n.

A point is exact only when every closure member passing its filter was
enumerated.  Full enumeration makes every point exact.  When enumeration
was truncated, FW and G points at n are still exact once all members
with at most n columns were seen, because a bounded measure forces a
member with column-set cost at most n to have at most n columns.  Points
that are not exhausted are certified lower bounds.

``growth`` sweeps the member tables once, base by base (a base is a
column set with its rows; its members differ only in their decisions;
``closure._base_tables`` groups the runs by value, never from the
enumeration's provenance records, so members that a caller reordered or
copied still group), keeping the running value best[n]
of every point n <= max_n.  A member with filter value f can only raise
the points n >= f, and best is nondecreasing in n, so its objective is
solved only when f <= max_n and an upper bound on the objective exceeds
best[f]; otherwise it cannot raise any point, now or later, because
running values only grow.  The bound is the cost u of the member's
column set: det <= min test cost <= u (the full column set is a test,
and a tree that tests each column of a test at most once per path costs
at most the test), and snd <= det.  FTheta is bounded by its own filter
value f, the min test cost, which is never looser than u: every report
checks det <= test.  Over the 16 ``explore`` benchmark generators under
depth with max_n 5 that takes FTheta from 12,569 solves to 119.

FW and G filter every member of a base by the same u, and G has a
sharper bound there.  A set on which no other row agrees with a row is
a rule for it, so snd <= s, the worst row separation cost of the base,
and the member whose only 1-row is the first worst-separated row costs
exactly s (its rule must tell that row from every other row).  So G
solves that member first, and a base that holds it costs G one solve.
FW solves the parity labelling first (decision = sum of the row's
values mod 2), under which, for k = 2, any two rows one value apart
disagree.  Each goes on in emission order only while best[u] is below
its bound.  Under depth with max_n 5, FW solves 64 members and G 62
over the 16 ``explore`` benchmark generators, and each solves 3 of the
1,689 members of the closure of ``random_table(3, 3, 10, seed=3)``.
Solving in another order changes which members are solved, never the
maxima.

The bounds rest on the measure axioms, which the built-in kinds
satisfy; a measure with an opaque part is arbitrary code, so under one
every member is solved.  A skipped solve never hides a raise: the tree
solvers cannot raise under built-in measures except ``snd_tree_cost`` on
members wider than its subset guard rail, and those are always solved.

``StepFunction`` is the staircase equal to the largest member of a set
of integers not exceeding n (zero below the smallest member); the
planted generator scenarios reproduce it exactly.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Sequence

from .closure import ClosureEnumeration, ClosureLimits, _base_tables, enumerate_closure
from .measures import ComplexityMeasure, depth, table_costs
from .solvers import (
    MAX_SUBSET_COLUMNS,
    _row_separations,
    det_tree_cost,
    min_test_cost,
    snd_tree_cost,
    table_separation_cost,
)
from .tables import DecisionTable, DtError, _check_count

GROWTH_FUNCTIONS = ("FW", "FTheta", "F", "G")


class UnboundedMeasure(DtError):
    """Growth functions are defined for bounded measures only."""


@dataclass(frozen=True)
class StepFunction:
    """H for a strictly increasing set of nonnegative integers.

    value(n) is 0 below the first point and otherwise the largest point
    not exceeding n.
    """

    points: tuple[int, ...]

    def __post_init__(self):
        p = self.points
        if not p:
            raise DtError("a step function needs at least one point")
        if any(not isinstance(x, int) or isinstance(x, bool) for x in p):
            raise DtError(f"step points must be integers, got {p!r}")
        if any(x < 0 for x in p) or any(a >= b for a, b in zip(p, p[1:])):
            raise DtError("step points must be strictly increasing and nonnegative")

    def value(self, n: int) -> int:
        best = 0
        for x in self.points:
            if x <= n:
                best = x
            else:
                break
        return best


@dataclass(frozen=True)
class GrowthPoint:
    n: int
    value: int
    exhausted: bool
    possibly_undefined: bool = False


@dataclass
class GrowthReport:
    fn: str
    points: list[GrowthPoint]
    generator_label: str
    measure_label: str
    members_seen: int
    closure_exhausted: bool
    members_solved: int  # objective solves; not printed, so output bytes do not depend on it

    def as_text(self) -> str:
        lines = [
            f"growth {self.fn}  generators={self.generator_label}  "
            f"measure={self.measure_label}  members={self.members_seen}  "
            f"closure_exhausted={'yes' if self.closure_exhausted else 'no'}"
        ]
        lines.append(f"{'n':>4}  {'value':>6}  exact")
        for p in self.points:
            flag = "yes" if p.exhausted else "no"
            if p.possibly_undefined:
                flag += " (possibly-undefined)"
            lines.append(f"{p.n:>4}  {p.value:>6}  {flag}")
        return "\n".join(lines) + "\n"

    def as_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["n", "value", "exhausted"])
        for p in self.points:
            w.writerow([p.n, p.value, "yes" if p.exhausted else "no"])
        return buf.getvalue()

    def values(self) -> list[int]:
        return [p.value for p in self.points]


def _check_measure(measure, needs: str) -> None:
    if not isinstance(measure, ComplexityMeasure):
        raise DtError(f"measure must be a ComplexityMeasure, got {measure!r}")
    if not measure.is_bounded:
        raise UnboundedMeasure(f"{needs} need a bounded measure (cost must dominate word length)")


def growth(
    fn: str,
    generators: Sequence[DecisionTable],
    measure: ComplexityMeasure,
    max_n: int,
    limits: ClosureLimits = ClosureLimits(),
    generator_label: str = "",
    enumeration: ClosureEnumeration | None = None,
) -> GrowthReport:
    """Measure one growth function on the closure of the generators.

    A precomputed ``enumeration`` of the same generators may be passed in
    so several growth functions can share one closure walk.
    """
    if fn not in GROWTH_FUNCTIONS:
        raise DtError(f"unknown growth function {fn!r}; pick one of {GROWTH_FUNCTIONS}")
    _check_count("max_n", max_n)
    _check_measure(measure, "growth functions")
    enum = enumeration if enumeration is not None else enumerate_closure(generators, limits)
    objective = snd_tree_cost if fn == "G" else det_tree_cost
    prune = measure.decomposable  # no opaque part, so the bounds hold
    best = [0] * (max_n + 1)
    solved = 0

    def solve(table: DecisionTable, f: int) -> None:
        nonlocal solved
        value = objective(measure, table)[0]
        solved += 1
        while f <= max_n and best[f] < value:
            best[f] = value
            f += 1

    def filter_value(table: DecisionTable) -> int:
        if fn == "FTheta":
            return min_test_cost(measure, table)[0]
        if fn == "F":
            return snd_tree_cost(measure, table)[0]
        return table_costs(measure, table)[0]

    for tables in _base_tables(enum.members):
        first = tables[0]
        # snd_tree_cost raises TooLarge past its guard rail, so such members are solved
        if not prune or (fn == "G" and first.n_cols > MAX_SUBSET_COLUMNS):
            for table in tables:
                solve(table, filter_value(table))
            continue
        u = table_costs(measure, first)[0]
        if fn in ("FTheta", "F"):
            for table in tables:
                f = filter_value(table)
                # FTheta's filter bounds det too: det <= min test cost = f <= u
                if f <= max_n and (f if fn == "FTheta" else u) > best[f]:
                    solve(table, f)
            continue
        # FW and G: every member of the base has filter value u
        if u > max_n or u <= best[u] or not first.n_rows:
            continue
        # one lead member likely to reach the bound goes first: for G the
        # one whose only 1-row is the first worst-separated row, for FW the
        # parity labelling
        if fn == "G":
            seps = [c for c, _ in _row_separations(measure, first)]
            bound = max(seps)
            if bound <= best[u]:
                continue
            worst = seps.index(bound)
            lead = tuple(int(i == worst) for i in range(first.n_rows))
        else:
            bound, lead = u, tuple(sum(row) % 2 for row in first.rows)
        lead_table = next((t for t in tables if t.decisions == lead), None)
        if lead_table is not None:
            solve(lead_table, u)
        for table in tables:
            if bound <= best[u]:
                break
            if table is not lead_table:
                solve(table, u)
    points: list[GrowthPoint] = []
    for n in range(max_n + 1):
        exhausted = enum.exhausted or (
            fn in ("FW", "G") and n <= enum.complete_column_count
        )
        points.append(
            GrowthPoint(
                n=n,
                value=best[n],
                exhausted=exhausted,
                possibly_undefined=(fn == "F" and not exhausted),
            )
        )
    return GrowthReport(
        fn=fn,
        points=points,
        generator_label=generator_label,
        measure_label=measure.describe(),
        members_seen=len(enum.members),
        closure_exhausted=enum.exhausted,
        members_solved=solved,
    )


@dataclass(frozen=True)
class ClassStats:
    """Extremes over the members whose single attributes all cost <= n.

    ``max_separation`` and ``max_rows`` are exact maxima only when
    ``exhausted`` is set; otherwise they are certified lower bounds.
    Separation is measured in the depth measure here.
    """

    members: int
    max_separation: int
    max_rows: int
    exhausted: bool


def class_stats(
    generators: Sequence[DecisionTable],
    measure: ComplexityMeasure,
    n: int,
    limits: ClosureLimits = ClosureLimits(),
    enumeration: ClosureEnumeration | None = None,
) -> ClassStats:
    """Count and bound the closure members with cheap single attributes."""
    _check_count("n", n)
    _check_measure(measure, "class statistics")
    enum = enumeration if enumeration is not None else enumerate_closure(generators, limits)
    h = depth()
    members = 0
    max_sep = 0
    max_rows = 0
    # separation, column costs and row count depend on the base alone
    for tables in _base_tables(enum.members):
        first = tables[0]
        _, single_worst = table_costs(measure, first)
        if single_worst > n:
            continue
        members += len(tables)
        max_sep = max(max_sep, table_separation_cost(h, first))
        max_rows = max(max_rows, first.n_rows)
    return ClassStats(
        members=members,
        max_separation=max_sep,
        max_rows=max_rows,
        exhausted=enum.exhausted,
    )
