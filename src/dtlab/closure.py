"""Column removal, decision relabeling, and closure enumeration.

Two operations generate the closure of a decision table: removing a set
of columns (rows that become equal on the remaining columns merge,
keeping the minimum decision) and relabeling decisions row by row.  The
closure of a table is every table reachable by one column removal
followed by one relabeling; the closure of a set of tables is the union
of the member closures.

Only the relabeling's values on actual rows matter, so the enumeration
walks 2^rows decision assignments per retained column subset instead of
all functions on value tuples; the emitted set is the same.  Emission is
deterministic: members appear in nondecreasing (column count, row count)
order, relabelings in binary counter order over canonically sorted rows
(counter bit j is the decision of sorted row j).

No member is emitted twice, and no set of seen keys is needed to ensure
it.  A member is a base (retained columns, sorted projected rows) plus a
decision vector.  Bases within one column count are distinct, bases of
different column counts have different column tuples, and the canonical
key of a table with at least one row spells out its columns, rows and
decisions.  So only zero-row members can coincide: they all share the key
of the empty table, and only the first of them is emitted.

A member stores only its table and provenance, in slots with no
``__dict__``.  Its canonical key and relabeling bits are read from the
table on demand: only ``dt closure``'s index prints them, while growth
sweeps and suites read the tables alone, so building them for every
member would be wasted work.

The cyclic garbage collector is paused while the members are built.
Members, bases and the returned enumeration hold no reference cycles,
so reference counting frees everything the walk drops, and a collection
could only walk live members again and again.  Unpaused, one pass of
the ``closure`` benchmark (about 35k members) ran 137 young, 12 middle
and 1 full collection, which took 16 ms of a 55 ms pass and freed
nothing (2-vCPU Xeon VM, Python 3.11.7).  Paused, each call's new
members are walked once, by the first young collection after it
returns: 2 collections per pass (one per generator), 6 ms.  The pause
is process-wide: cyclic garbage that another thread makes meanwhile
waits until the call returns.  A collector that was off on entry stays
off.

A projection's row count only grows as more columns are kept, so once
no base of a column count fits ``max_rows``, no base of a larger count
does, and the walk stops there instead of projecting every later column
subset.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from itertools import combinations, islice, product
from typing import Iterable, Mapping, Sequence

from .tables import (
    Attribute,
    BadDecision,
    CanonicalKey,
    DecisionTable,
    DtError,
    TableError,
    UnknownAttribute,
    as_attribute,
    canonical_key,
    empty_table,
)


class PartialRelabeling(TableError):
    """The relabeling assigns no decision to some row of the table."""


class BadLimit(DtError):
    """A closure limit is not a nonnegative integer."""


def remove_columns(removed: Iterable, table: DecisionTable) -> DecisionTable:
    """Delete the given columns; merge newly equal rows on minimum decision.

    Removing nothing returns the table unchanged; removing every column
    yields the empty table.
    """
    removed_set = frozenset(as_attribute(a) for a in removed)
    for a in removed_set:
        table.column_position(a)  # raises UnknownAttribute
    keep = [p for p, c in enumerate(table.columns) if c not in removed_set]
    if not keep:
        return empty_table(table.k)
    merged: dict[tuple[int, ...], int] = {}
    order: list[tuple[int, ...]] = []
    for row, d in table.entries():
        proj = tuple(row[p] for p in keep)
        if proj in merged:
            merged[proj] = min(merged[proj], d)
        else:
            merged[proj] = d
            order.append(proj)
    return DecisionTable(
        table.k,
        tuple(table.columns[p] for p in keep),
        tuple(order),
        tuple(merged[r] for r in order),
    )


def relabel(nu, table: DecisionTable) -> DecisionTable:
    """Replace the decision of each row with its image under ``nu``.

    ``nu`` is a mapping from row value tuples to {0, 1} or a callable of
    the value tuple.  It must cover every row of the table.
    """
    if callable(nu):
        lookup = nu
    else:
        mapping: Mapping = nu

        def lookup(row):
            if row not in mapping:
                raise KeyError(row)
            return mapping[row]

    new_decisions = []
    for row in table.rows:
        try:
            d = lookup(row)
        except KeyError:
            raise PartialRelabeling(f"relabeling assigns nothing to row {row}") from None
        if d not in (0, 1):
            raise BadDecision(f"relabeling produced {d!r} for row {row}")
        new_decisions.append(d)
    return DecisionTable(table.k, table.columns, table.rows, tuple(new_decisions))


def is_critical(table: DecisionTable) -> tuple[bool, dict[Attribute, tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Does every column own a row pair differing only in that column?

    Returns the verdict plus, per attribute, the first such pair in
    canonical row order.  The empty table is not critical.
    """
    witnesses: dict[Attribute, tuple[tuple[int, ...], tuple[int, ...]]] = {}
    if table.is_empty:
        return False, witnesses
    rows = sorted(table.rows)
    for pos, attr in enumerate(table.columns):
        found = None
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                a, b = rows[i], rows[j]
                if a[pos] != b[pos] and all(
                    a[q] == b[q] for q in range(len(table.columns)) if q != pos
                ):
                    found = (a, b)
                    break
            if found:
                break
        if found is None:
            return False, witnesses
        witnesses[attr] = found
    return True, witnesses


@dataclass(frozen=True)
class ClosureLimits:
    """Truncation knobs for closure enumeration; None means unlimited.

    A limit that is not a nonnegative integer raises :class:`BadLimit`.
    """

    max_tables: int | None = None
    max_columns: int | None = None
    max_rows: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_tables", "max_columns", "max_rows"):
            value = getattr(self, name)
            if value is not None and (
                not isinstance(value, int) or isinstance(value, bool) or value < 0
            ):
                raise BadLimit(f"{name} must be a nonnegative integer or None, got {value!r}")


@dataclass(frozen=True, slots=True)
class ClosureMember:
    """One emitted closure member with its provenance.

    ``removed`` is the column set deleted from the generator.  The key
    and ``nu_bits``, the decision string over the member's canonically
    sorted rows (leftmost character = first sorted row), are derived from
    the table on each read, so members that nobody prints cost nothing
    beyond their table.
    """

    table: DecisionTable
    generator_index: int
    removed: tuple[Attribute, ...]

    @property
    def key(self) -> CanonicalKey:
        return canonical_key(self.table)

    @property
    def nu_bits(self) -> str:
        return "".join(str(d) for _, d in sorted(self.table.entries()))


@dataclass
class ClosureEnumeration:
    """Materialized closure with exhaustion bookkeeping.

    ``exhausted`` is True only when no limit truncated anything.
    ``complete_column_count`` is the largest c such that every closure
    member with at most c columns was emitted.
    """

    members: list[ClosureMember] = field(default_factory=list)
    exhausted: bool = True
    complete_column_count: int = -1

    def keys(self) -> set[CanonicalKey]:
        return {m.key for m in self.members}

    def tables(self) -> list[DecisionTable]:
        return [m.table for m in self.members]


def enumerate_closure(
    generators: Sequence[DecisionTable],
    limits: ClosureLimits = ClosureLimits(),
) -> ClosureEnumeration:
    """Enumerate the closure of the generators, each member exactly once.

    The cyclic garbage collector is paused for the call (see the module
    docstring) and turned back on only if it was on at entry.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _enumerate(generators, limits)
    finally:
        if collecting:
            gc.enable()


def _enumerate(generators: Sequence[DecisionTable], limits: ClosureLimits) -> ClosureEnumeration:
    if not generators:
        return ClosureEnumeration(exhausted=True, complete_column_count=0)
    k = generators[0].k
    if any(g.k != k for g in generators):
        raise TableError("closure generators must share one value alphabet")

    out = ClosureEnumeration()
    empty_emitted = False
    max_cols = max((g.n_cols for g in generators), default=0)
    col_ceiling = max_cols if limits.max_columns is None else min(max_cols, limits.max_columns)
    if col_ceiling < max_cols:
        out.exhausted = False

    stopped = False
    for c in range(col_ceiling + 1):
        # bases: projected row sets with c retained columns, first provenance wins
        bases: dict[tuple, tuple[int, tuple[Attribute, ...]]] = {}
        for gi, g in enumerate(generators):
            if g.n_cols < c:
                continue
            for keep in combinations(range(g.n_cols), c):
                removed = tuple(
                    sorted((g.columns[p] for p in range(g.n_cols) if p not in keep))
                )
                proj = remove_columns(removed, g)
                base = (proj.columns, tuple(sorted(proj.rows)))
                if base not in bases:
                    bases[base] = (gi, removed)
        level_complete = True
        level_fits = False
        for base in sorted(bases, key=lambda b: (len(b[1]), tuple(a.index for a in b[0]), b[1])):
            cols, rows = base
            gi, removed = bases[base]
            n = len(rows)
            if limits.max_rows is not None and n > limits.max_rows:
                out.exhausted = False
                level_complete = False
                continue
            level_fits = True
            # the base has 2^n relabelings; max_tables stops the walk at the
            # first one that would exceed it, even a zero-row repeat
            take = 1 << n
            if limits.max_tables is not None and limits.max_tables - len(out.members) < take:
                take = limits.max_tables - len(out.members)
                out.exhausted = False
                level_complete = False
                stopped = True
            if n == 0:
                if take and not empty_emitted:
                    out.members.append(ClosureMember(DecisionTable(k, cols, rows, ()), gi, removed))
                    empty_emitted = True
            else:
                # product counts with its last place fastest; reversed, bit j
                # of the counter is the decision of sorted row j
                out.members.extend(
                    ClosureMember(DecisionTable(k, cols, rows, bits[::-1]), gi, removed)
                    for bits in islice(product((0, 1), repeat=n), take)
                )
            if stopped:
                break
        if level_complete and out.complete_column_count == c - 1:
            out.complete_column_count = c
        # rows only grow as columns are kept: no later base fits max_rows either
        if stopped or not level_fits:
            break
    return out
