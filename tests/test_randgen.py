from fractions import Fraction

import pytest

from dtlab.randgen import (
    SplitMix64,
    TooManyRows,
    count_small_tables,
    enumerate_small_tables,
    random_table,
)
from dtlab.tables import DtError, TooLarge, canonical_key, empty_table, validate


def test_splitmix64_reference_vector():
    # published first outputs for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_seed_wraps():
    assert SplitMix64(2**64).next_u64() == SplitMix64(0).next_u64()


def test_below_range_and_coverage():
    rng = SplitMix64(42)
    seen = {rng.below(3) for _ in range(200)}
    assert seen == {0, 1, 2}
    with pytest.raises(Exception):
        rng.below(0)


def test_bernoulli_degenerate():
    rng = SplitMix64(1)
    assert all(rng.bernoulli(Fraction(0)) == 0 for _ in range(20))
    assert all(rng.bernoulli(Fraction(1)) == 1 for _ in range(20))


def test_random_table_full_cube():
    t = random_table(2, 3, 8, Fraction(1, 2), seed=9)
    assert sorted(t.rows) == sorted(
        tuple((i >> p) & 1 for p in range(3)) for i in range(8)
    )


def test_random_table_constant_when_p_zero():
    t = random_table(2, 2, 3, 0, seed=5)
    assert set(t.decisions) == {0}
    t = random_table(2, 2, 3, 1, seed=5)
    assert set(t.decisions) == {1}


def test_random_table_deterministic():
    a = random_table(3, 3, 7, Fraction(1, 3), seed=123)
    b = random_table(3, 3, 7, Fraction(1, 3), seed=123)
    assert a == b
    c = random_table(3, 3, 7, Fraction(1, 3), seed=124)
    assert a != c


def test_random_table_guards():
    with pytest.raises(TooManyRows):
        random_table(2, 2, 5, Fraction(1, 2), seed=0)
    with pytest.raises(TooManyRows):
        random_table(2, 0, 1, Fraction(1, 2), seed=0)
    assert random_table(2, 0, 0, Fraction(1, 2), seed=0).is_empty


def test_enumerate_counts_one_column():
    tables = list(enumerate_small_tables(2, 1, 2))
    assert len(tables) == 9  # the empty table plus eight one-column tables
    assert tables[0].is_empty
    assert count_small_tables(2, 1, 2) == 9


def test_enumerate_zero_columns():
    tables = list(enumerate_small_tables(2, 0, 4))
    assert len(tables) == 1 and tables[0].is_empty


def test_enumerate_zero_rows_builds_no_value_space():
    # 2^30 value tuples per column count would never finish
    assert list(enumerate_small_tables(2, 30, 0)) == [empty_table(2)]
    assert list(enumerate_small_tables(3, 30, -1, include_empty=False)) == []


def test_enumerate_contains_renamed_or_pattern(or_image):
    renamed = validate(
        2, [0, 1], [(r, d) for r, d in or_image.entries()]
    )
    keys = {canonical_key(t) for t in enumerate_small_tables(2, 2, 4)}
    assert canonical_key(renamed) in keys


def test_enumerate_all_keys_distinct():
    tables = list(enumerate_small_tables(2, 2, 3))
    keys = [canonical_key(t) for t in tables]
    assert len(keys) == len(set(keys))
    assert len(tables) == count_small_tables(2, 2, 3)


def test_enumerate_shape_order():
    shapes = [(t.n_cols, t.n_rows) for t in enumerate_small_tables(2, 2, 2)]
    assert shapes == sorted(shapes)


def test_enumerate_cap():
    with pytest.raises(TooLarge):
        list(enumerate_small_tables(3, 5, 12, max_count=1000))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: random_table(2, 2, 1.5), "rows"),
        (lambda: random_table(2, 2.0, 1), "cols"),
        (lambda: random_table(2, 2, 1, seed="x"), "seed"),
        (lambda: random_table(2, 2, 1, seed=True), "seed"),
        (lambda: random_table(2, 2, 1, p1="x"), "p1"),
        (lambda: random_table(True, 2, 1), "k"),
        (lambda: list(enumerate_small_tables(1, 1, 1)), "k"),
        (lambda: list(enumerate_small_tables(2, 1.5, 1)), "max_cols"),
        (lambda: list(enumerate_small_tables(2, 1, True)), "max_rows"),
    ],
    ids=["rows-float", "cols-float", "seed-str", "seed-bool", "p1-str", "k-bool", "enum-k1", "enum-cols-float", "enum-rows-bool"],
)
def test_malformed_arguments_raise_a_named_dt_error(call, name):
    with pytest.raises(DtError, match=f"^{name} must be"):
        call()


def test_argument_checks_come_before_any_draw():
    """A valid call after a rejected one on the same stream draws what it
    would have drawn on a fresh one."""
    rng = SplitMix64(5)
    with pytest.raises(DtError):
        random_table(2, 3, 4, p1="x", seed=rng)
    assert random_table(2, 3, 4, seed=rng) == random_table(2, 3, 4, seed=5)
