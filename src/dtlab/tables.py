"""Decision tables over a finite value alphabet with 0/1 row decisions.

A table holds rows over E_k = {0, ..., k-1}; every row carries a decision
0 or 1.  Columns are labeled with attributes f0, f1, ... kept in a fixed
order, and rows are pairwise distinct as value tuples.  Two tables count
as the same table when one is a row permutation of the other; the
canonical key below is the equality arbiter for that relation.

The empty table (zero rows) is a legal instance.  All zero-row tables
collapse into a single canonical class, every parameter of which is zero.
A zero-column table may not carry rows.

Tables are immutable after validation and all operations here are pure,
so instances can be shared freely across threads.  A table is slotted:
no value is ever stored on it beyond its fields.

``_TableBits`` is the bit kernel of the solvers and validators: the
rows as bitmasks per column value, by column position and by column
rank, and the decisions as a row mask.  A search narrows the rows that
agree with a value tuple by AND-ing those masks, so the kernel holds no
pairwise row differences.  For searches that ask one question per row
at once, it also gives the row lanes: per column rank, one int holding
side by side, for each row j, the mask of the rows that agree with row j
at that rank, each in a lane of n + 1 bits whose top (guard) bit is 0.
One AND of such ints narrows every row's agreeing rows at once; the
solvers' lane walker reads the guard bits (``solvers`` says how).  The
test lanes, which ``is_test`` and the cheapest-test search share, hold
per column the 1-rows agreeing with each 0-row.  Lanes are built when
first asked for, and kept when they fit in one int of ``LANE_BITS`` bits
(the row lanes of 63 rows), so tables that never meet a lane search
never pay for them; longer tables get their row lanes chunk by chunk,
their test lanes on each call.

``_bits_of`` keeps the kernels of the last two distinct table objects
asked for in one slot, newest first, so calls on one table object share
a kernel, and so do calls that alternate between a table and one other,
such as a report's table and the collapsed table that ``verify`` solves
beside it.  A hit on the older kernel moves it to the front, and a third
table evicts the oldest, so the slot never keeps more than two tables
alive (``solvers`` says why).  The kernel is the one place that holds
facts about its table: besides its views, it carries the depth triple
that a depth report leaves for the later reports of that table object,
and the test-collapsed tables that ``verify`` builds from it, so the
transfers of every measure share one collapsed table and its kernel.
A kernel builds all its views but the lanes before it enters the slot,
and the slot, the triple and each kept view or table are set in one
assignment, so threads sharing a kernel only read fields that are
already complete (two threads may both build the same view); the subset
orders that the solvers memoize on a measure still need one measure
instance per thread.

File format (.dt, UTF-8, line oriented)::

    k 2
    attrs f2 f4 f3
    row 1 1 1 0
    row 0 1 1 0

``#`` starts a comment line; blank lines are ignored.  The empty table is
written as a ``k`` line plus a bare ``attrs`` line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice, product, repeat
from operator import getitem
from typing import Iterable, Iterator, Sequence


class DtError(Exception):
    """Base class for all errors raised by this package."""


class TableError(DtError):
    """Invalid table data."""


class DuplicateRow(TableError):
    pass


class DuplicateColumn(TableError):
    pass


class ValueOutOfRange(TableError):
    pass


class BadDecision(TableError):
    pass


class BadShape(TableError):
    pass


class UnknownAttribute(TableError):
    pass


class TooLarge(DtError):
    """Input exceeds a guard rail for exact computation."""


_ATTR_RE = re.compile(r"^f(\d+)$")


@dataclass(frozen=True, order=True)
class Attribute:
    """Attribute f<index>; equality and ordering are by index alone."""

    index: int

    @property
    def name(self) -> str:
        return f"f{self.index}"

    @classmethod
    def parse(cls, text: str) -> "Attribute":
        m = _ATTR_RE.match(text)
        if m is None:
            raise UnknownAttribute(f"attribute names must look like f3, got {text!r}")
        try:
            return cls(int(m.group(1)))
        except ValueError:  # more digits than int() converts
            raise UnknownAttribute(f"attribute index of {text[:20]}... is too long") from None

    def __repr__(self) -> str:
        return self.name


def as_attribute(a) -> Attribute:
    """Coerce an Attribute, bare index, or name string to an Attribute.

    A bool is not an index: ``True`` equals 1 but would be named ``fTrue``.
    """
    if isinstance(a, Attribute):
        return a
    if isinstance(a, int) and not isinstance(a, bool):
        if a < 0:
            raise UnknownAttribute(f"attribute index must be nonnegative, got {a}")
        return Attribute(a)
    if isinstance(a, str):
        return Attribute.parse(a)
    raise UnknownAttribute(f"cannot interpret {a!r} as an attribute")


class _WeakReferable:
    """A slotted base that gives its subclasses a ``__weakref__`` slot.

    ``dataclass(weakref_slot=True)`` does the same from Python 3.11 on;
    a base class does it on 3.10 too.
    """

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class DecisionTable(_WeakReferable):
    """An immutable, validated decision table.

    ``rows[i]`` is the value tuple of row i and ``decisions[i]`` its 0/1
    decision.  Dataclass equality is representation equality (row order
    matters); table equality in the row-permutation sense is decided by
    :func:`canonical_key`.

    A table keeps its four fields in slots and has no ``__dict__``, so
    nothing else can be stored on it; it can still be pickled, copied,
    hashed and weakly referenced.  Closure enumeration builds its
    members' tables by setting the four slots through their descriptors,
    without ``__init__``, so this class has no ``__post_init__``.
    """

    k: int
    columns: tuple[Attribute, ...]
    rows: tuple[tuple[int, ...], ...]
    decisions: tuple[int, ...]

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def is_empty(self) -> bool:
        return not self.rows

    def column_position(self, attr) -> int:
        attr = as_attribute(attr)
        for pos, c in enumerate(self.columns):
            if c == attr:
                return pos
        raise UnknownAttribute(f"{attr.name} is not a column of this table")

    def entries(self) -> Iterator[tuple[tuple[int, ...], int]]:
        return iter(zip(self.rows, self.decisions))

    def __repr__(self) -> str:
        cols = ",".join(c.name for c in self.columns)
        return f"DecisionTable(k={self.k}, cols=[{cols}], rows={self.n_rows})"


def _check_count(name: str, value, least: int | None = 0) -> None:
    """Raise a ``DtError`` naming ``name`` unless ``value`` is an int of at
    least ``least`` (of any size when None); a bool is not, as in
    ``_in_alphabet``."""
    if not isinstance(value, int) or isinstance(value, bool) or least is not None and value < least:
        what = "an integer" if least is None else "a nonnegative integer" if least == 0 else f"an integer >= {least}"
        raise DtError(f"{name} must be {what}, got {value!r}")


def _in_alphabet(value, k: int) -> bool:
    """Is ``value`` an int of E_k?  A bool is not: ``True`` equals 1 but
    prints, parses and keys as ``True``."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < k


# Row counts whose complete labellings are kept for the life of the
# process.  Retained bytes (tracemalloc): 0.27 MiB for 11 rows, 2.5 MiB
# for 14 and 11.0 MiB for 16, so 21.0 MiB for every count up to 16.
_SHARED_ROWS = 16
_shared_labellings: dict[int, tuple[tuple[int, ...], ...]] = {}


def _labellings(n: int, take: int) -> tuple[tuple[int, ...], ...]:
    """The decision vectors over n sorted rows in binary counter order,
    where bit j of the counter is the decision of row j: the first
    ``take`` of them, or all 2^n once the complete tuple is kept.

    The complete labellings of at most ``_SHARED_ROWS`` rows are built
    once per process and shared, as a tuple, by every caller.  A cut
    tuple is never kept, since a later caller would read it as complete;
    it and every tuple past the bound are built on each call.  A tuple
    enters the store complete, in one assignment, so threads that share
    the store read only complete ones.
    """
    labels = _shared_labellings.get(n)
    if labels is None:
        # product counts with its last place fastest, so each labelling is
        # its result reversed; product reuses its result tuple once the
        # reversed copy is taken, so a labelling is one allocation
        reverse = repeat(slice(None, None, -1))
        labels = tuple(map(getitem, islice(product((0, 1), repeat=n), take), reverse))
        if n <= _SHARED_ROWS and len(labels) == 1 << n:
            _shared_labellings[n] = labels
    return labels


def validate(k: int, columns: Sequence, rows: Iterable) -> DecisionTable:
    """Validate raw table data and build a :class:`DecisionTable`.

    ``rows`` is an iterable of ``(values, decision)`` pairs.  Column order
    and row order are preserved.
    """
    if not isinstance(k, int) or k < 2:
        raise BadShape(f"alphabet size k must be an integer >= 2, got {k!r}")
    cols = tuple(as_attribute(c) for c in columns)
    if len(set(cols)) != len(cols):
        raise DuplicateColumn(f"column attributes must be pairwise distinct: {cols}")
    vals: list[tuple[int, ...]] = []
    decs: list[int] = []
    seen: set[tuple[int, ...]] = set()
    for values, decision in rows:
        tup = tuple(values)
        if len(tup) != len(cols):
            raise BadShape(
                f"row {tup} has {len(tup)} entries but the table has {len(cols)} columns"
            )
        for v in tup:
            if not _in_alphabet(v, k):
                raise ValueOutOfRange(f"row entry {v!r} is outside E_{k}")
        if not _in_alphabet(decision, 2):
            raise BadDecision(f"decision must be 0 or 1, got {decision!r}")
        if tup in seen:
            raise DuplicateRow(f"row {tup} appears more than once")
        seen.add(tup)
        vals.append(tup)
        decs.append(decision)
    if not cols and vals:
        raise BadShape("a zero-column table cannot carry rows; the empty table has none")
    return DecisionTable(k, cols, tuple(vals), tuple(decs))


def empty_table(k: int = 2) -> DecisionTable:
    """The empty table (no rows, no columns)."""
    return DecisionTable(k, (), (), ())


# A canonical key is an opaque string: equal exactly for tables that are
# row permutations of one another.  All zero-row tables share one key.
CanonicalKey = str


def canonical_key(table: DecisionTable) -> CanonicalKey:
    if table.is_empty:
        return "empty"
    cols = ",".join(c.name for c in table.columns)
    body = ";".join(
        ",".join(map(str, values)) + ":" + str(d)
        for values, d in sorted(table.entries())
    )
    return f"k{table.k}|{cols}|{body}"


# the width bound of a wide mask: lanes side by side in one int hold at most this many bits
LANE_BITS = 1 << 12
# the kernel keeps a row mask per column and value, so it takes alphabets up to this size
MAX_ALPHABET = 1 << 16


class _TableBits:
    """Bit views of one table, all built with the kernel but the lanes.

    Bit i of a row mask stands for row i.  Bit r of a column mask stands
    for the column of rank r, the one with the r-th smallest attribute
    index.  ``ranks`` maps rank r to its column position, ``position``
    an attribute to its column position, ``masks`` a column position and
    a value to the mask of the rows with that value, ``rank_masks`` holds
    the value masks by rank, and ``ones`` is the mask of the rows labeled 1.
    ``row_lanes`` and ``test_lanes`` give lanes side by side in one int:
    the rows agreeing with each row, the 1-rows agreeing with each 0-row.
    ``depth`` is the table's (min test, det, separation) cost under
    depth once a depth report has set it, else None, and ``collapsed``
    maps a tuple of removed columns to the table without them, once
    ``verify`` has built it.  ``valid_det`` and ``valid_snd`` hold the
    last solver-built deterministic and strongly nondeterministic tree
    that a walk validated on the table, else None (``trees._validated``).
    An alphabet past ``MAX_ALPHABET`` raises ``TooLarge`` before
    anything of its size is allocated.
    """

    def __init__(self, table: DecisionTable):
        if table.k > MAX_ALPHABET:
            raise TooLarge(
                f"alphabet size {table.k} exceeds the {MAX_ALPHABET}-value guard rail of the table kernel"
            )
        self.table = table
        self.full = (1 << table.n_rows) - 1
        cols = table.columns
        self.ranks = sorted(range(len(cols)), key=lambda p: cols[p].index)
        self.position = {a: p for p, a in enumerate(cols)}
        self.masks = masks = [[0] * table.k for _ in cols]
        ones = 0
        for i, (row, d) in enumerate(table.entries()):
            bit = 1 << i
            if d:
                ones |= bit
            for p, v in enumerate(row):
                masks[p][v] |= bit
        self.ones = ones
        self.rank_masks = [masks[p] for p in self.ranks]
        self._lanes: list[int] | None = None
        self._tests: tuple[int, list[int]] | None = None
        self.depth: tuple[int, int, int] | None = None
        self.collapsed: dict[tuple[Attribute, ...], DecisionTable] = {}
        self.valid_det = self.valid_snd = None

    def row_lanes(self, first: int, stop: int) -> list[int]:
        """Per column rank, the lanes of questions ``first`` to ``stop - 1``,
        where question q asks of row q mod n, n the row count.

        Lane j is the n + 1 bits from bit j * (n + 1) on: the mask of the
        rows that agree with row (``first`` + j) mod n at that rank, below
        a guard bit left 0.  The lanes of all the rows are built on the
        first call that asks for them and kept, when they fit in
        ``LANE_BITS``; those of all the rows twice over, a report's
        separations and rules, repeat them.  A longer table gets its lanes
        chunk by chunk, built on each call, so the kernel never holds more
        than ``LANE_BITS`` bits of lanes per rank.
        """
        rows = self.table.rows
        n = len(rows)
        if first == 0 and stop == 2 * n > 0:
            return [lane | lane << n * (n + 1) for lane in self.row_lanes(0, n)]
        whole = first == 0 and stop == n
        if whole and self._lanes is not None:
            return self._lanes
        width = n + 1
        lanes = [
            sum(masks[rows[q % n][p]] << (q - first) * width for q in range(first, stop))
            for masks, p in zip(self.rank_masks, self.ranks)
        ]
        if whole and n * width <= LANE_BITS:
            self._lanes = lanes  # one assignment: a thread sees no lanes or all of them
        return lanes

    def rank_values(self, values: Sequence[int]) -> list[int]:
        """Per column rank, the mask of rows sharing ``values``' entry there
        (``values`` holds one value per column position)."""
        return [masks[values[p]] for masks, p in zip(self.rank_masks, self.ranks)]

    def test_lanes(self) -> tuple[int, list[int]]:
        """The all-lanes mask and the test lanes by column position: lane z
        holds the 1-rows that agree with the z-th 0-row there, in n bits
        above a marker bit that every mask sets, the only bit that the AND
        over a test leaves.  Kept as the row lanes are."""
        if self._tests is not None:
            return self._tests
        table, ones = self.table, self.ones
        full, lanes, shift = 1, [1] * table.n_cols, 1
        for row, d in zip(table.rows, table.decisions):
            if not d:
                full |= ones << shift
                lanes = [w | (m[v] & ones) << shift for w, m, v in zip(lanes, self.masks, row)]
                shift += table.n_rows
        if shift <= LANE_BITS:
            self._tests = full, lanes
        return full, lanes

    def columns_of(self, mask: int) -> tuple[Attribute, ...]:
        """The table's own column objects in a column-rank mask, by rank."""
        cols = self.table.columns
        return tuple([cols[p] for r, p in enumerate(self.ranks) if mask >> r & 1])

    def is_test(self, positions: Iterable[int]) -> bool:
        """Do rows with different decisions differ on the given positions?"""
        m, lanes = self._tests or self.test_lanes()
        for p in positions:
            m &= lanes[p]
        return m == 1


_slot: tuple[_TableBits, ...] = ()  # the kernels of the last two tables, newest first


def _bits_of(table: DecisionTable) -> _TableBits:
    """The kernel of ``table``: the slot's when it holds this very object,
    else a new one; either way it ends up first in the slot."""
    global _slot
    slot = _slot
    if slot and slot[0].table is table:
        return slot[0]
    bits = slot[1] if len(slot) > 1 and slot[1].table is table else _TableBits(table)
    _slot = (bits, *slot[:1])
    return bits


def restrict(table: DecisionTable, fixings: Iterable) -> DecisionTable:
    """Keep exactly the rows matching every ``(attribute, value)`` fixing.

    Columns are unchanged and surviving rows keep their order.  The result
    may have zero rows.  Conflicting fixings on one attribute simply leave
    no survivors.
    """
    resolved: list[tuple[int, int]] = []
    for attr, value in fixings:
        pos = table.column_position(attr)
        if not _in_alphabet(value, table.k):
            raise ValueOutOfRange(f"fixing value {value!r} is outside E_{table.k}")
        resolved.append((pos, value))
    keep = [
        i
        for i, row in enumerate(table.rows)
        if all(row[pos] == value for pos, value in resolved)
    ]
    return DecisionTable(
        table.k,
        table.columns,
        tuple(table.rows[i] for i in keep),
        tuple(table.decisions[i] for i in keep),
    )


def is_constant(table: DecisionTable) -> bool:
    """True when every row carries the same decision; the empty table counts."""
    return len(set(table.decisions)) <= 1


def is_test(table: DecisionTable, attrs: Iterable) -> bool:
    """Is ``attrs`` a test: do rows with different decisions differ on it?

    Every subset of the columns, including the empty one, is a test of a
    constant table.
    """
    positions = [table.column_position(a) for a in set(as_attribute(a) for a in attrs)]
    return _bits_of(table).is_test(positions)


# ---------------------------------------------------------------------------
# .dt file format


def format_table(table: DecisionTable) -> str:
    lines = [f"k {table.k}"]
    lines.append("attrs" + "".join(" " + c.name for c in table.columns))
    for values, d in table.entries():
        lines.append("row " + " ".join(map(str, values)) + f" {d}")
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> DecisionTable:
    k = None
    columns: list[Attribute] | None = None
    rows: list[tuple[tuple[int, ...], int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "k":
                if k is not None:
                    raise BadShape("duplicate k line")
                k = int(parts[1])
            elif tag == "attrs":
                if columns is not None:
                    raise BadShape("duplicate attrs line")
                columns = [Attribute.parse(p) for p in parts[1:]]
            elif tag == "row":
                if k is None or columns is None:
                    raise BadShape("row line before k/attrs header")
                *values, decision = [int(p) for p in parts[1:]]
                rows.append((tuple(values), decision))
            else:
                raise BadShape(f"unrecognized line tag {tag!r}")
        except (IndexError, ValueError) as exc:
            raise BadShape(f"line {lineno}: cannot parse {line!r}") from exc
    if k is None or columns is None:
        raise BadShape("table file needs a k line and an attrs line")
    return validate(k, columns, rows)


def load_table(path) -> DecisionTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_table(fh.read())


def save_table(table: DecisionTable, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_table(table))
