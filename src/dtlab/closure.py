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
of the empty table, and only the first of them is emitted: each call's
labellings of zero rows are ``((),)`` until one zero-row member is
built and empty from then on.

A member is its table alone, in slots with no ``__dict__``.  Its
provenance, the generator it was projected from and the columns
removed, is the same for every member of its base, so the enumeration
keeps one ``ClosureBase`` record per base that emitted a member, holding
the position of the base's first member.  A member's canonical key
(``DecisionTable.key``) and relabeling bits (``nu_bits``) are read from
the table on demand: only ``dt closure``'s index prints them, while
growth sweeps and suites read the tables alone, so building them for
every member would be wasted work.

Building members is nearly all the work of an enumeration, so each
base's members are built in map passes that call no constructor and run
no bytecode per member: ``object.__new__`` mapped over the class makes
the base's tables, then one pass per field maps the bound ``__set__`` of
that field's slot descriptor over the tables and the field's values
(``repeat`` of the shared alphabet, columns and rows, the labellings for
the decisions), drained by a zero-length ``deque``.  That saves an
``__init__`` frame per member, and a descriptor's setter writes its slot
directly, where ``object.__setattr__`` first looks the name up on the
type.  It is sound only while ``DecisionTable`` has no
``__post_init__`` or any other check in its constructor, and while the
passes set exactly the fields the dataclass constructor sets, no more
and no fewer; ``tests/test_closure_kernel.py`` compares every member
with a constructor-built twin.
Setting the fields by ``object.__setattr__``, then through the slot
descriptors in a per-member loop, then in map passes each took time off
the ``closure`` benchmark (``BENCH_21.json``).  Members were then still
two objects each: the table, and a slotted wrapper holding the base's
provenance again for every member.  Keeping the provenance once per
base took one pass of the benchmark's seed-7 inputs (about 35k members,
two calls) from 21.5-32.6 ms to 12.6-16.1 ms (2-vCPU Xeon VM, Python
3.11.7, medians of 15 passes in each of three processes, not
normalised).

The decision tuples (the labellings) depend on the row count alone, so
``tables._labellings`` builds all labellings of each row count up to
``_SHARED_ROWS`` = 16 once per process and shares them, in one tuple
that no caller can change, with every later call, base and small-table
enumeration.  The kept
tuples take 21 MiB for every count up to 16, 11 MiB of it for 16 rows
(tracemalloc), less than the members of one 16-row base.  Labellings
that ``max_tables`` cuts short are built for their call only and never
kept, since a later call would read them as complete.  Each call keeps
its own labellings by row count too: there the zero-row switch, a cut
tuple and any tuple past the bound live.  A labelling is one
allocation, the reversed copy of ``product``'s reused result tuple.  On
the ``closure`` benchmark's seed-7 inputs this took the first call in a
fresh process from 13.8 to 12.8 ms and the second, whose 14-row
labellings the first left, from 19.4 to 14.9 ms (2-vCPU Xeon VM,
Python 3.11.7, medians of 15 processes).

The cyclic garbage collector is paused while the members are built.
Members, base records and the returned enumeration hold no reference
cycles, so reference counting frees everything the walk drops, and a
collection could only walk live members again and again.  Unpaused, a
pass ran 46 young and 4 middle collections, which took 2.2-2.5 ms of a
13.4-14.4 ms pass and freed nothing.  Paused, the new members are
walked once, by the first young collection after the call returns: one
tracked object per member, which takes that collection 1.0-1.4 ms,
where the wrapped members, two tracked objects each, took it 1.8-2.8 ms
(seed-7 inputs, 15 passes in each of three processes, timed with
``gc.callbacks``).  The pause is process-wide: cyclic garbage that
another thread makes meanwhile waits until the call returns.  A
collector that was off on entry stays off.

That one walk stays.  Calling ``gc.freeze()`` then ``gc.unfreeze()`` on
exit would skip it, by moving every tracked object in the process to the
oldest generation, where only a full collection looks again.  The
caller's young cyclic garbage goes there too: 300 calls with 100 cycles
(of 1 kB each) made between calls left all 30,000 cycles alive, where
the walk leaves 100, and peak RSS rose from 20 to 53 MB.  A young
collection on entry would free that garbage first, but a call runs no
collection (``tests/test_closure_gc.py``).

A projection's row count never shrinks as more columns are kept, so no
superset of a column set that does not fit ``max_rows`` fits either.
The walk keeps, per generator, the column sets of one count that fit,
and projects at the next count only those sets, each extended by a
larger column position, in order.  Without ``max_rows`` that is every
column set in ``combinations`` order.  A projection that does not fit
marks the enumeration and its column count incomplete where it is
projected and never becomes a base.  The walk stops at the first count
where no set fits.

Members come out base by base, so a run of members with equal columns
and rows is (part of) one base; ``_base_tables`` is the one grouping of
members into bases that the growth sweeps read.  It groups by value and
never reads the base records, which describe the members only in
emission order.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from collections import deque
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import groupby, repeat
from operator import attrgetter

from .tables import (
    Attribute,
    BadDecision,
    CanonicalKey,
    DecisionTable,
    DtError,
    TableError,
    _in_alphabet,
    _labellings,
    as_attribute,
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
        if not _in_alphabet(d, 2):
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
        # rows agreeing off the column differ in it; groups keep row order,
        # so the first pair of the first group of two is the first pair found
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for row in rows:
            groups.setdefault(row[:pos] + row[pos + 1 :], []).append(row)
        found = next(((g[0], g[1]) for g in groups.values() if len(g) > 1), None)
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
class ClosureBase:
    """The provenance of one base's members in an enumeration.

    ``generator_index`` names the generator the base was first projected
    from and ``removed`` the column set deleted from it; ``start`` is the
    position of the base's first member.
    """

    start: int
    generator_index: int
    removed: tuple[Attribute, ...]


def nu_bits(table: DecisionTable) -> str:
    """The decision string over the canonically sorted rows (leftmost
    character = first sorted row): a closure member's relabeling."""
    return "".join(str(d) for _, d in sorted(table.entries()))


@dataclass
class ClosureEnumeration:
    """Materialized closure with exhaustion bookkeeping.

    ``members`` are the member tables.  ``bases`` describes the members
    in emission order, one record per base that emitted a member: base
    i's members are ``members[bases[i].start:bases[i + 1].start]``, the
    last base's run to the end.  Reordering or replacing the members
    leaves the records stale, so nothing that reads members in another
    order may read ``bases``.
    ``exhausted`` is True only when no limit truncated anything.
    ``complete_column_count`` is the largest c such that every closure
    member with at most c columns was emitted.
    """

    members: list[DecisionTable] = field(default_factory=list)
    bases: list[ClosureBase] = field(default_factory=list)
    exhausted: bool = True
    complete_column_count: int = -1

    def keys(self) -> set[CanonicalKey]:
        return {m.key for m in self.members}


def _base_tables(members: Iterable[DecisionTable]) -> Iterator[list[DecisionTable]]:
    """The tables of each run of members with equal columns and rows.

    A base is a column set with its rows, and its members differ only in
    their decisions, so each run is (part of) one base.  Columns and rows
    are compared by value, so members out of emission order or holding
    copied tuples still group.
    """
    for _, run in groupby(members, key=attrgetter("columns", "rows")):
        yield list(run)


def enumerate_closure(
    generators: Sequence[DecisionTable],
    limits: ClosureLimits = ClosureLimits(),
) -> ClosureEnumeration:
    """Enumerate the closure of the generators, each member exactly once.

    The cyclic garbage collector is paused for the call (see the module
    docstring) and turned back on only if it was on at entry.
    """
    if not isinstance(generators, Sequence):
        raise TableError(
            f"closure generators must be a sequence of tables, got {type(generators).__name__}"
        )
    for i, g in enumerate(generators):
        if not isinstance(g, DecisionTable):
            raise TableError(f"closure generator {i} is not a DecisionTable: {g!r}")
    if not isinstance(limits, ClosureLimits):
        raise BadLimit(f"closure limits must be a ClosureLimits, got {type(limits).__name__}")
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
    max_cols = max((g.n_cols for g in generators), default=0)
    col_ceiling = max_cols if limits.max_columns is None else min(max_cols, limits.max_columns)
    if col_ceiling < max_cols:
        out.exhausted = False

    # by row count, shared by bases: the zero-row switch, a cut tuple and
    # tuples past the process-wide bound live here
    labellings: dict[int, tuple[tuple[int, ...], ...]] = {}
    new, consume = object.__new__, deque(maxlen=0).extend
    # the bound setters of the slot descriptors, read at call time
    set_k, set_columns = DecisionTable.k.__set__, DecisionTable.columns.__set__
    set_rows, set_decisions = DecisionTable.rows.__set__, DecisionTable.decisions.__set__
    # per generator, the kept column positions to project at this count
    candidates: list[list[tuple[int, ...]]] = [[()] for _ in generators]
    for c in range(col_ceiling + 1):
        # bases: fitting projected row sets with c retained columns, first provenance wins
        bases: dict[tuple, tuple[int, tuple[Attribute, ...]]] = {}
        level_complete = True
        for gi, g in enumerate(generators):
            fitting = []
            for keep in candidates[gi]:
                removed = tuple(
                    sorted((g.columns[p] for p in range(g.n_cols) if p not in keep))
                )
                proj = remove_columns(removed, g)
                if limits.max_rows is not None and proj.n_rows > limits.max_rows:
                    out.exhausted = False
                    level_complete = False
                    continue
                fitting.append(keep)
                base = (proj.columns, tuple(sorted(proj.rows)))
                if base not in bases:
                    bases[base] = (gi, removed)
            # no superset of a set that does not fit can fit
            candidates[gi] = [
                (*keep, p)
                for keep in fitting
                for p in range(keep[-1] + 1 if keep else 0, g.n_cols)
            ]
        for base in sorted(bases, key=lambda b: (len(b[1]), tuple(a.index for a in b[0]), b[1])):
            cols, rows = base
            gi, removed = bases[base]
            n = len(rows)
            # the base has 2^n relabelings; max_tables stops the walk at the
            # first one that would exceed it, even a zero-row repeat, and
            # leaves this column count incomplete
            take = 1 << n
            stopped = limits.max_tables is not None and limits.max_tables - len(out.members) < take
            if stopped:
                take = limits.max_tables - len(out.members)
                out.exhausted = False
            labels = labellings.get(n)
            if labels is None:
                # bit j of the counter is the decision of sorted row j.
                # Only the last base walked is cut, so a short tuple is
                # never read again
                labels = labellings[n] = _labellings(n, take)
            # the fields the dataclass constructor sets, one map pass per
            # field; a zero-row repeat has no labelling left and builds nothing
            take = min(take, len(labels))
            if take:
                out.bases.append(ClosureBase(len(out.members), gi, removed))
            tables = list(map(new, repeat(DecisionTable, take)))
            consume(map(set_k, tables, repeat(k)))
            consume(map(set_columns, tables, repeat(cols)))
            consume(map(set_rows, tables, repeat(rows)))
            consume(map(set_decisions, tables, labels))
            out.members.extend(tables)
            if not n:  # every zero-row table has the empty table's key
                labellings[0] = ()
            if stopped:
                return out
        if level_complete and out.complete_column_count == c - 1:
            out.complete_column_count = c
        if not bases:
            break
    return out
