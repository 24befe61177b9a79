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
so instances can be shared freely across threads.

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
        return cls(int(m.group(1)))

    def __repr__(self) -> str:
        return self.name


def as_attribute(a) -> Attribute:
    """Coerce an Attribute, bare index, or name string to an Attribute."""
    if isinstance(a, Attribute):
        return a
    if isinstance(a, int):
        if a < 0:
            raise UnknownAttribute(f"attribute index must be nonnegative, got {a}")
        return Attribute(a)
    if isinstance(a, str):
        return Attribute.parse(a)
    raise UnknownAttribute(f"cannot interpret {a!r} as an attribute")


@dataclass(frozen=True)
class DecisionTable:
    """An immutable, validated decision table.

    ``rows[i]`` is the value tuple of row i and ``decisions[i]`` its 0/1
    decision.  Dataclass equality is representation equality (row order
    matters); table equality in the row-permutation sense is decided by
    :func:`canonical_key`.
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
            if not isinstance(v, int) or not 0 <= v < k:
                raise ValueOutOfRange(f"row entry {v!r} is outside E_{k}")
        if decision not in (0, 1):
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


def key_head(k: int, columns: Sequence[Attribute]) -> str:
    """The canonical key of a table with rows, up to its first entry."""
    return f"k{k}|{','.join(c.name for c in columns)}|"


def key_entries(entries: Iterable[tuple[tuple[int, ...], int]]) -> str:
    """The canonical key text of ``(values, decision)`` entries, in order.

    The text of a run of entries is the texts of its parts joined by ``;``.
    """
    return ";".join(",".join(map(str, values)) + ":" + str(d) for values, d in entries)


def canonical_key(table: DecisionTable) -> CanonicalKey:
    if table.is_empty:
        return "empty"
    return key_head(table.k, table.columns) + key_entries(sorted(table.entries()))


def restrict(table: DecisionTable, fixings: Iterable) -> DecisionTable:
    """Keep exactly the rows matching every ``(attribute, value)`` fixing.

    Columns are unchanged and surviving rows keep their order.  The result
    may have zero rows.  Conflicting fixings on one attribute simply leave
    no survivors.
    """
    resolved: list[tuple[int, int]] = []
    for attr, value in fixings:
        pos = table.column_position(attr)
        if not isinstance(value, int) or not 0 <= value < table.k:
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
    zeros = [r for r, d in table.entries() if d == 0]
    ones = [r for r, d in table.entries() if d == 1]
    for a in zeros:
        for b in ones:
            if all(a[p] == b[p] for p in positions):
                return False
    return True


def separates_row(table: DecisionTable, row_index: int, positions: Sequence[int]) -> bool:
    """Does the given column set distinguish one row from every other row?"""
    target = table.rows[row_index]
    for i, other in enumerate(table.rows):
        if i == row_index:
            continue
        if all(other[p] == target[p] for p in positions):
            return False
    return True


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
