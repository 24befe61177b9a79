"""Complexity measures on attribute multisets.

A complexity measure assigns a nonnegative integer cost to every finite
multiset of attributes subject to four axioms: the cost is zero exactly
on the empty multiset (positivity), depends only on the multiset
(commutativity), never drops when the multiset grows (nondecreasing), and
is subadditive under multiset union.  A measure is *bounded* when its
cost always dominates the multiset size.

Built-in measure kinds:

``depth``
    multiset size,
``additive``
    sum of per-attribute weights,
``maxw``
    maximum per-attribute weight,
``sum`` / ``max``
    pointwise sum / max of child measures.

Weights are positive integers, so all arithmetic stays exact.  Every
built-in decomposes into an ``initial_state`` / ``extend`` / ``value``
accumulator contract used by the exact tree solver; ``opaque`` measures
(an arbitrary multiset function supplied as a callable) support ``cost``
only and are rejected by that contract.

Measure file format (.cm)::

    kind additive
    default 1
    weight f2 1
    weight f4 3

combinators are composed on the command line as ``sum:a.cm,b.cm`` or
``max:a.cm,b.cm``; the bare spec ``depth`` (or ``h``) is the depth
measure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .tables import Attribute, DecisionTable, DtError, as_attribute

KINDS = ("depth", "additive", "maxw", "sum", "max", "opaque")
# From the CLI, specs 320 levels deep ran and 350 exceeded Python's default recursion limit.
MAX_SPEC_NESTING = 100


class MeasureError(DtError):
    pass


class NotDecomposable(MeasureError):
    """The measure has no accumulator form; only brute-force solvers apply."""


@dataclass(frozen=True)
class ComplexityMeasure:
    """One of the built-in measure kinds, or an opaque multiset function.

    ``weight_items`` holds explicit per-attribute weights for ``additive``
    and ``maxw``; attributes not listed get ``default_weight``.
    """

    kind: str
    weight_items: tuple[tuple[int, int], ...] = ()
    default_weight: int = 1
    children: tuple["ComplexityMeasure", ...] = ()
    cost_fn: Callable | None = field(default=None, compare=False)
    # Subset orders of the solvers, with the tree search's move tables,
    # grown lazily and kept per instance
    # (not per value: opaque measures compare equal whatever cost_fn is).
    # The memo is not locked: solve with one instance in one thread at a time.
    subset_orders: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # weight_items as a dict, built once
    _weights: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # describe()'s string, built at its first call; every field it reads is immutable
    _label: str = field(default="", init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise MeasureError(f"unknown measure kind {self.kind!r}")
        for name in ("weight_items", "children"):  # a list could change under the kept label
            if not isinstance(getattr(self, name), tuple):
                raise MeasureError(f"{name} must be a tuple, got {getattr(self, name)!r}")
        for item in self.weight_items:
            if not (isinstance(item, tuple) and len(item) == 2):
                raise MeasureError(f"weight items must be (index, weight) pairs, got {item!r}")
            i, w = item
            if not isinstance(i, int) or isinstance(i, bool) or i < 0:
                raise MeasureError(f"weighted attribute indices must be nonnegative integers, got {i!r}")
            if i in self._weights:
                raise MeasureError(f"attribute index {i} is weighted twice")
            self._weights[i] = w
        for w in (self.default_weight, *self._weights.values()):
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise MeasureError(f"weights must be positive integers, got {w!r}")

    # -- basic costs

    def weight(self, attr) -> int:
        if isinstance(attr, Attribute):
            idx = attr.index
        elif type(attr) is int and attr >= 0:
            idx = attr  # an index needs no Attribute built around it
        else:
            idx = as_attribute(attr).index
        return self._weights.get(idx, self.default_weight)

    def cost(self, attrs: Iterable) -> int:
        """Cost of a multiset (any iterable; order and grouping ignored)."""
        items = [as_attribute(a) for a in attrs]
        if self.kind == "depth":
            return len(items)
        if self.kind == "additive":
            return sum(self.weight(a) for a in items)
        if self.kind == "maxw":
            return max((self.weight(a) for a in items), default=0)
        if self.kind == "sum":
            return sum(c.cost(items) for c in self.children)
        if self.kind == "max":
            return max(c.cost(items) for c in self.children)
        return self.cost_fn(tuple(sorted(a.index for a in items)))

    def set_cost(self, attrs: Iterable) -> int:
        """Cost of a finite attribute set (each element counted once)."""
        return self.cost(set(as_attribute(a) for a in attrs))

    # -- accumulator contract for exact tree search

    @property
    def decomposable(self) -> bool:
        """Does the measure have an accumulator form?  A combinator has
        one only when every child has one."""
        return self.kind != "opaque" and all(c.decomposable for c in self.children)

    def initial_state(self):
        if self.kind in ("depth", "additive", "maxw"):
            return 0
        if self.kind in ("sum", "max"):
            return tuple(c.initial_state() for c in self.children)
        raise NotDecomposable("opaque measures have no accumulator form")

    def extend(self, state, attr):
        """State after appending one attribute to the accumulated word."""
        if self.kind == "depth":
            return state + 1
        if self.kind == "additive":
            return state + self.weight(attr)
        if self.kind == "maxw":
            w = self.weight(attr)
            return state if state >= w else w
        if self.kind in ("sum", "max"):
            return tuple(c.extend(s, attr) for c, s in zip(self.children, state))
        raise NotDecomposable("opaque measures have no accumulator form")

    def value(self, state) -> int:
        if self.kind in ("depth", "additive", "maxw"):
            return state
        if self.kind == "sum":
            return sum(c.value(s) for c, s in zip(self.children, state))
        if self.kind == "max":
            return max(c.value(s) for c, s in zip(self.children, state))
        raise NotDecomposable("opaque measures have no accumulator form")

    @property
    def is_bounded(self) -> bool:
        """Does the cost always dominate the multiset size?

        Depth and additive measures are bounded because every weight is at
        least one.  A max-weight measure is not: long repetitions outgrow
        any fixed maximum.  A combinator is bounded as soon as one child
        is.  Opaque measures are conservatively reported unbounded.
        """
        if self.kind in ("depth", "additive"):
            return True
        if self.kind in ("sum", "max"):
            return any(c.is_bounded for c in self.children)
        return False

    def describe(self) -> str:
        if self._label:
            return self._label
        if self.kind in ("additive", "maxw"):
            ws = "".join(f",f{i}={w}" for i, w in self.weight_items)
            label = f"{self.kind}(default={self.default_weight}{ws})"
        elif self.kind in ("sum", "max"):
            label = f"{self.kind}({','.join(c.describe() for c in self.children)})"
        else:
            label = self.kind  # depth or opaque
        object.__setattr__(self, "_label", label)
        return label


def depth() -> ComplexityMeasure:
    return ComplexityMeasure("depth")


def _weight_tuple(weights) -> tuple[tuple[int, int], ...]:
    if weights is None:
        return ()
    return tuple(sorted((as_attribute(a).index, w) for a, w in dict(weights).items()))


def additive(weights=None, default: int = 1) -> ComplexityMeasure:
    return ComplexityMeasure("additive", _weight_tuple(weights), default)


def max_weight(weights=None, default: int = 1) -> ComplexityMeasure:
    return ComplexityMeasure("maxw", _weight_tuple(weights), default)


def sum_of(*children: ComplexityMeasure) -> ComplexityMeasure:
    if not children:
        raise MeasureError("sum combinator needs at least one child")
    return ComplexityMeasure("sum", children=tuple(children))


def max_of(*children: ComplexityMeasure) -> ComplexityMeasure:
    if not children:
        raise MeasureError("max combinator needs at least one child")
    return ComplexityMeasure("max", children=tuple(children))


def opaque(cost_fn: Callable) -> ComplexityMeasure:
    """Wrap a raw multiset-cost callable (gets a sorted index tuple)."""
    return ComplexityMeasure("opaque", cost_fn=cost_fn)


def table_costs(measure: ComplexityMeasure, table: DecisionTable) -> tuple[int, int]:
    """Cost of the full column set and the worst single column.

    Both are zero for a table without columns.
    """
    if table.n_cols == 0:
        return 0, 0
    total = measure.set_cost(table.columns)
    worst = max(measure.cost((c,)) for c in table.columns)
    return total, worst


# ---------------------------------------------------------------------------
# axiom checking


@dataclass
class AxiomReport:
    """Outcome of an exhaustive finite check of the measure axioms."""

    axioms_ok: bool
    bounded: bool
    first_violation: str | None
    bounded_violation: str | None
    multisets_checked: int

    @property
    def ok(self) -> bool:
        return self.axioms_ok


def check_axioms(measure: ComplexityMeasure, pool: Sequence, max_len: int) -> AxiomReport:
    """Exhaustively check the axioms on all multisets of size <= max_len.

    Positivity, nondecreasing growth, subadditivity (checked on every
    multiset pair whose union still fits), commutativity (every ordering
    of a multiset must fold to the same accumulator value), and the
    bounded-from-below property.  Violations are report content, never
    exceptions.
    """
    if max_len < 1:
        raise MeasureError("max_len must be at least 1")
    attrs = [as_attribute(a) for a in pool]
    multisets = [()]
    for size in range(1, max_len + 1):
        multisets.extend(itertools.combinations_with_replacement(attrs, size))

    first_violation = None
    bounded_violation = None

    def note(msg: str):
        nonlocal first_violation
        if first_violation is None:
            first_violation = msg

    if measure.cost(()) != 0:
        note("positivity: cost of the empty multiset is nonzero")
    for m in multisets:
        c = measure.cost(m)
        if m and c <= 0:
            note(f"positivity: cost {c} on nonempty multiset {m}")
            break
    for m in multisets:
        if bounded_violation is None and measure.cost(m) < len(m):
            bounded_violation = (
                f"bounded: cost {measure.cost(m)} < size {len(m)} on {m}"
            )
    if measure.decomposable:
        for m in multisets:
            if len(m) > 5 or first_violation:
                continue
            want = measure.cost(m)
            for word in set(itertools.permutations(m)):
                st = measure.initial_state()
                for a in word:
                    st = measure.extend(st, a)
                if measure.value(st) != want:
                    note(f"commutativity: ordering {word} folds to {measure.value(st)}, multiset cost {want}")
                    break
    for m1 in multisets:
        if first_violation:
            break
        c1 = measure.cost(m1)
        for m2 in multisets:
            if len(m1) + len(m2) > max_len:
                continue
            union = m1 + m2
            cu = measure.cost(union)
            if cu < c1:
                note(f"nondecreasing: cost({union})={cu} < cost({m1})={c1}")
                break
            if cu > c1 + measure.cost(m2):
                note(f"subadditive: cost({union})={cu} > {c1}+{measure.cost(m2)}")
                break
    return AxiomReport(
        axioms_ok=first_violation is None,
        bounded=bounded_violation is None,
        first_violation=first_violation,
        bounded_violation=bounded_violation,
        multisets_checked=len(multisets),
    )


# ---------------------------------------------------------------------------
# .cm file format


def format_measure(measure: ComplexityMeasure) -> str:
    if measure.kind not in ("depth", "additive", "maxw"):
        raise MeasureError(f"only primitive measure kinds serialize to .cm, not {measure.kind}")
    lines = [f"kind {measure.kind}"]
    if measure.kind != "depth":
        lines.append(f"default {measure.default_weight}")
        for i, w in measure.weight_items:
            lines.append(f"weight f{i} {w}")
    return "\n".join(lines) + "\n"


def parse_measure(text: str) -> ComplexityMeasure:
    kind = None
    default = 1
    weights: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "kind":
                kind = parts[1]
            elif parts[0] == "default":
                default = int(parts[1])
            elif parts[0] == "weight":
                weights[Attribute.parse(parts[1]).index] = int(parts[2])
            else:
                raise MeasureError(f"unrecognized line tag {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            raise MeasureError(f"line {lineno}: cannot parse {line!r}") from exc
    if kind == "depth":
        return depth()
    if kind == "additive":
        return additive(weights, default)
    if kind == "maxw":
        return max_weight(weights, default)
    raise MeasureError(f"measure file needs a kind line (depth|additive|maxw), got {kind!r}")


def load_measure(path) -> ComplexityMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_measure(fh.read())


def save_measure(measure: ComplexityMeasure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_measure(measure))


def load_measure_spec(spec: str) -> ComplexityMeasure:
    """Resolve a command-line measure spec.

    ``depth`` or ``h`` name the depth measure; ``sum:a.cm,b.cm`` and
    ``max:a.cm,b.cm`` compose children loaded from files; anything else is
    a .cm path.  A file that cannot be read or decoded raises
    ``MeasureError`` with the message of the underlying error, and so do
    combinators nested more than ``MAX_SPEC_NESTING`` deep: the measure
    and the solvers recurse once per level.
    """
    return _load_spec(spec, MAX_SPEC_NESTING)


def _load_spec(spec: str, levels: int) -> ComplexityMeasure:
    if spec in ("depth", "h"):
        return depth()
    for tag, combine in (("sum:", sum_of), ("max:", max_of)):
        if spec.startswith(tag):
            if levels == 0:
                raise MeasureError(
                    f"measure spec nests combinators too deeply (more than {MAX_SPEC_NESTING} levels)"
                )
            parts = spec[len(tag):].split(",")
            if "" in parts:
                raise MeasureError(f"measure spec {spec!r} has an empty part")
            return combine(*(_load_spec(p, levels - 1) for p in parts))
    try:
        return load_measure(spec)
    except (OSError, ValueError) as exc:  # missing file, bad path, not UTF-8
        raise MeasureError(str(exc)) from exc
