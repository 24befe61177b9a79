"""Seeded random tables and exhaustive small-table enumeration.

Randomness comes from splitmix64, a fixed 64-bit generator whose stream
is part of the external contract (see GENERATOR.md at the repository
root): any implementation fed the same seed must produce the same
tables.  Bounded draws use rejection sampling and Bernoulli draws use an
exact rational threshold, so no floating point enters the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Iterator

from .tables import (
    Attribute,
    DecisionTable,
    DtError,
    TooLarge,
    _check_count,
    _labellings,
    empty_table,
    validate,
)

_MASK64 = (1 << 64) - 1


class TooManyRows(DtError):
    pass


@dataclass
class SplitMix64:
    """The splitmix64 stream; see GENERATOR.md for the normative spec."""

    state: int

    def __post_init__(self):
        self.state &= _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection; exact, no modulo bias."""
        if n <= 0:
            raise DtError("below() needs a positive bound")
        bound = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < bound:
                return u % n

    def bernoulli(self, p: Fraction) -> int:
        """One exact Bernoulli(p) draw: compares a u64 against p * 2^64."""
        u = self.next_u64()
        return 1 if u * p.denominator < p.numerator * (1 << 64) else 0


def random_table(
    k: int,
    cols: int,
    rows: int,
    p1: Fraction | int = Fraction(1, 2),
    seed: int | SplitMix64 = 0,
) -> DecisionTable:
    """Sample a table with the given shape, deterministically per seed.

    Row tuples are drawn uniformly (digit by digit, rejecting repeats of
    whole tuples) until ``rows`` distinct ones exist; each accepted row
    immediately draws its Bernoulli(p1) decision.  Columns are f0..f(cols-1)
    and rows keep sampling order.  Passing a SplitMix64 continues that
    stream in place.  Every argument is checked before the first draw.
    """
    for name, value, least in (("k", k, 2), ("cols", cols, 0), ("rows", rows, 0)):
        _check_count(name, value, least)
    try:
        rate = Fraction(p1)
    except (TypeError, ValueError, OverflowError):
        rate = Fraction(-1)
    if isinstance(p1, bool) or not 0 <= rate <= 1:
        raise DtError(f"p1 must be a rational in [0, 1], got {p1!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, SplitMix64)):
        raise DtError(f"seed must be an integer or a SplitMix64, got {seed!r}")
    if rows > k**cols or (cols == 0 and rows > 0):
        raise TooManyRows(f"{rows} distinct rows do not exist over {cols} columns")
    if cols == 0:
        return empty_table(k)
    rng = seed if isinstance(seed, SplitMix64) else SplitMix64(seed)
    seen: set[tuple[int, ...]] = set()
    out = []
    while len(out) < rows:
        tup = tuple(rng.below(k) for _ in range(cols))
        if tup in seen:
            continue
        seen.add(tup)
        out.append((tup, rng.bernoulli(rate)))
    return validate(k, range(cols), out)


def count_small_tables(k: int, max_cols: int, max_rows: int, include_empty: bool = True) -> int:
    # a shape below one column or row asks for no table but the empty one
    for name, value, least in (("k", k, 2), ("max_cols", max_cols, None), ("max_rows", max_rows, None)):
        _check_count(name, value, least)
    total = 1 if include_empty else 0
    for c in range(1, max_cols + 1):
        space = k**c
        for r in range(1, min(max_rows, space) + 1):
            total += comb(space, r) * (1 << r)
    return total


def enumerate_small_tables(
    k: int,
    max_cols: int,
    max_rows: int,
    include_empty: bool = True,
    max_count: int = 2_000_000,
) -> Iterator[DecisionTable]:
    """Every table with at most the given shape, once per canonical class.

    Attribute names are fixed to f0..f(c-1), so choosing a sorted row set
    and then a decision vector hits each row-permutation class exactly
    once.  Order: column count, then row count, then row sets
    lexicographically, then decisions in binary counter order (bit j of
    the counter labels sorted row j), the closure's labellings.
    """
    total = count_small_tables(k, max_cols, max_rows, include_empty)
    if total > max_count:
        raise TooLarge(f"{total} tables exceed the enumeration cap of {max_count}")
    if include_empty:
        yield empty_table(k)
    if max_rows < 1:
        return  # no value space is needed when no row can be drawn
    for c in range(1, max_cols + 1):
        attrs = tuple(Attribute(i) for i in range(c))
        space = sorted(product(range(k), repeat=c))
        for r in range(1, min(max_rows, len(space)) + 1):
            # 17 rows take a cap above 3^17 tables; past the shared bound
            # the labellings are built for this call
            labels = _labellings(r, 1 << r)
            for rows in combinations(space, r):
                for decisions in labels:
                    yield DecisionTable(k, attrs, rows, decisions)
