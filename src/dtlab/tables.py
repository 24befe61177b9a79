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
lanes are built when first asked for, and kept when all the rows fit in
one int of ``LANE_BITS`` bits (63 rows), so tables that never meet a
lane search never pay for them; longer tables get their lanes chunk by
chunk.  Each row's value masks by rank are built on first use too, and
always kept: they hold one reference per table entry.

``_bits_of`` keeps the kernel of the last table asked for in a
one-table slot, so calls on one table object in a row share a kernel,
and the slot never keeps more than one table alive (``solvers`` says
why).  A kernel builds all its views but those two before it enters the
slot, and the slot and each kept view are set in one assignment, so
threads sharing a kernel only read fields that are already complete (two
threads may both build the same view); the subset orders that the
solvers memoize on a measure still need one measure instance per thread.

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

    def attributes(self) -> frozenset[Attribute]:
        return frozenset(self.columns)

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


def _in_alphabet(value, k: int) -> bool:
    """Is ``value`` an int of E_k?  A bool is not: ``True`` equals 1 but
    prints, parses and keys as ``True``."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < k


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


class _TableBits:
    """Bit views of one table, all built with the kernel but the row lanes.

    Bit i of a row mask stands for row i.  Bit r of a column mask stands
    for the column of rank r, the one with the r-th smallest attribute
    index.  ``ranks`` maps rank r to its column position, ``position``
    an attribute to its column position, ``masks`` a column position and
    a value to the mask of the rows with that value, ``rank_masks`` holds
    the value masks by rank, and ``ones`` is the mask of the rows labeled 1.
    ``row_lanes`` gives the row masks of many rows side by side in one
    int, and ``row_values`` each row's value masks by rank.
    """

    def __init__(self, table: DecisionTable):
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
        self._row_values: list[list[int]] | None = None

    def row_lanes(self, first: int, stop: int) -> list[int]:
        """Per column rank, the lanes of rows ``first`` to ``stop - 1``.

        Lane j is the n + 1 bits from bit j * (n + 1) on, n the row count:
        the mask of the rows that agree with row ``first + j`` at that
        rank, below a guard bit left 0.  The lanes of all the rows are
        built on the first call that asks for them and kept, when they fit
        in ``LANE_BITS``; a longer table gets its lanes chunk by chunk,
        built on each call, so the kernel never holds more than
        ``LANE_BITS`` bits of lanes per rank.
        """
        rows = self.table.rows
        whole = first == 0 and stop == len(rows)
        if whole and self._lanes is not None:
            return self._lanes
        width = len(rows) + 1
        rows = rows[first:stop]
        lanes = [
            sum(masks[row[p]] << j * width for j, row in enumerate(rows))
            for masks, p in zip(self.rank_masks, self.ranks)
        ]
        if whole and len(rows) * width <= LANE_BITS:
            self._lanes = lanes  # one assignment: a thread sees no lanes or all of them
        return lanes

    def rank_values(self, values: Sequence[int]) -> list[int]:
        """Per column rank, the mask of rows sharing ``values``' entry there
        (``values`` holds one value per column position)."""
        return [masks[values[p]] for masks, p in zip(self.rank_masks, self.ranks)]

    def row_values(self) -> list[list[int]]:
        """``rank_values`` of each row, built on the first call and kept
        (one assignment, as for the row lanes)."""
        if self._row_values is None:
            self._row_values = [self.rank_values(row) for row in self.table.rows]
        return self._row_values

    def agreeing(self, i: int, positions: Iterable[int]) -> int:
        """Mask of the rows equal to row i on the given column positions."""
        row, masks = self.table.rows[i], self.masks
        m = self.full
        for p in positions:
            m &= masks[p][row[p]]
        return m

    def is_test(self, positions: Sequence[int]) -> bool:
        """Do rows with different decisions differ on the given positions?"""
        ones = self.ones
        return not any(
            self.agreeing(i, positions) & ones
            for i in range(self.table.n_rows)
            if not ones >> i & 1
        )


_slot: tuple[DecisionTable | None, _TableBits | None] = (None, None)


def _bits_of(table: DecisionTable) -> _TableBits:
    """The kernel of ``table``: the slot's when it holds this very object,
    else a new one that replaces it."""
    global _slot
    held, bits = _slot
    if held is not table:
        bits = _TableBits(table)
        _slot = (table, bits)
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
