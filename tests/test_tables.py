import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtlab.tables import (
    Attribute,
    BadDecision,
    BadShape,
    DuplicateColumn,
    DuplicateRow,
    UnknownAttribute,
    ValueOutOfRange,
    canonical_key,
    empty_table,
    format_table,
    is_constant,
    is_test,
    parse_table,
    restrict,
    validate,
)

from conftest import EXAMPLE6_ROWS, tables_st


def test_attribute_identity_and_parse():
    assert Attribute(3) == Attribute(3)
    assert Attribute(3) != Attribute(4)
    assert Attribute.parse("f12") == Attribute(12)
    assert Attribute(7).name == "f7"
    with pytest.raises(UnknownAttribute):
        Attribute.parse("g2")


def test_validate_worked_example(example6):
    assert example6.n_rows == 6
    assert example6.n_cols == 3
    assert [c.name for c in example6.columns] == ["f2", "f4", "f3"]


def test_validate_empty_table_ok():
    lam = validate(2, (), ())
    assert lam.is_empty and lam.n_cols == 0
    assert validate(3, [1, 2], ()).n_rows == 0


def test_validate_rejections():
    with pytest.raises(DuplicateRow):
        validate(2, [0, 1], [((1, 0), 1), ((1, 0), 0)])
    with pytest.raises(DuplicateColumn):
        validate(2, [0, 0], [((1, 0), 1)])
    with pytest.raises(ValueOutOfRange):
        validate(2, [0], [((2,), 1)])
    with pytest.raises(BadDecision):
        validate(2, [0], [((1,), 2)])
    with pytest.raises(BadShape):
        validate(2, [0, 1], [((1,), 1)])
    with pytest.raises(BadShape):
        validate(2, (), [((), 0)])
    with pytest.raises(BadShape):
        validate(1, [0], [((0,), 0)])


def test_validate_rejects_boolean_entries_and_decisions():
    # True == 1 and hashes alike, but it would print as "True" in .dt text
    # and in the canonical key
    with pytest.raises(ValueOutOfRange):
        validate(2, [0, 1], [((True, 0), 1), ((0, 1), False)])
    with pytest.raises(BadDecision):
        validate(2, [0, 1], [((1, 0), True)])
    with pytest.raises(BadDecision):
        validate(2, [0, 1], [((1, 0), 1.0)])
    table = validate(2, [0, 1], [((1, 0), 1), ((0, 1), 0)])
    assert parse_table(format_table(table)) == table


def test_restrict_single_fixing(example6):
    r = restrict(example6, [(3, 0)])
    assert set(r.rows) == {(1, 1, 0), (1, 0, 0), (0, 0, 0)}
    assert set(r.decisions) == {1}


def test_restrict_two_fixings(example6):
    r = restrict(example6, [(4, 1), (3, 0)])
    assert r.rows == ((1, 1, 0),)
    assert r.decisions == (1,)


def test_restrict_identity_and_errors(example6):
    assert restrict(example6, []) == example6
    with pytest.raises(UnknownAttribute):
        restrict(example6, [(9, 0)])
    with pytest.raises(ValueOutOfRange):
        restrict(example6, [(2, 5)])


def test_restrict_rejects_boolean_fixing_values(example6):
    with pytest.raises(ValueOutOfRange):
        restrict(example6, [(2, True)])


def test_restrict_conflicting_fixings_empty(example6):
    assert restrict(example6, [(2, 0), (2, 1)]).n_rows == 0


def test_is_constant(example6):
    assert not is_constant(example6)
    assert is_constant(restrict(example6, [(3, 0)]))
    assert is_constant(empty_table())


def test_canonical_key_row_permutation(example6):
    shuffled = validate(2, [2, 4, 3], list(reversed(EXAMPLE6_ROWS)))
    assert canonical_key(shuffled) == canonical_key(example6)


def test_canonical_key_distinctions(example6, or_image):
    assert canonical_key(example6) != canonical_key(or_image)
    one_row = validate(2, [0], [((0,), 0)])
    assert canonical_key(empty_table()) != canonical_key(one_row)
    flipped = validate(2, [2, 4, 3], [(r, 1 - d) for r, d in EXAMPLE6_ROWS])
    assert canonical_key(flipped) != canonical_key(example6)


def test_canonical_key_column_order_matters():
    a = validate(2, [0, 1], [((0, 1), 1)])
    b = validate(2, [1, 0], [((1, 0), 1)])
    assert canonical_key(a) != canonical_key(b)


def test_all_empty_tables_share_a_key():
    assert canonical_key(validate(2, [3, 5], ())) == canonical_key(empty_table())


def test_canonical_key_exhaustive_permutations():
    rows = [((0, 0), 0), ((0, 1), 1), ((1, 0), 1), ((1, 1), 0)]
    base = validate(2, [0, 1], rows)
    for perm in itertools.permutations(rows):
        assert canonical_key(validate(2, [0, 1], perm)) == canonical_key(base)


@given(tables_st(), st.data())
def test_restrict_composes_and_shrinks(table, data):
    fixings = data.draw(
        st.lists(
            st.tuples(st.sampled_from(table.columns), st.integers(0, table.k - 1)),
            max_size=3,
        )
    )
    split = data.draw(st.integers(0, len(fixings)))
    once = restrict(table, fixings)
    twice = restrict(restrict(table, fixings[:split]), fixings[split:])
    assert once == twice
    assert once.n_rows <= table.n_rows
    survivors = [r for r in table.rows if r in set(once.rows)]
    assert list(once.rows) == survivors


@given(tables_st(), st.randoms())
def test_canonical_key_shuffle_property(table, rnd):
    pairs = list(table.entries())
    rnd.shuffle(pairs)
    assert canonical_key(validate(table.k, table.columns, pairs)) == canonical_key(table)


def test_is_test_examples(example6):
    assert is_test(example6, [Attribute(4), Attribute(3)])
    assert not is_test(example6, [Attribute(2), Attribute(3)])
    assert not is_test(example6, [])
    constant = restrict(example6, [(3, 0)])
    assert is_test(constant, [])


def test_empty_table_measures_zero():
    lam = empty_table()
    assert lam.n_rows == 0 and lam.n_cols == 0


def test_format_parse_roundtrip(example6):
    text = format_table(example6)
    again = parse_table(text)
    assert again == example6


def test_format_golden(example6):
    assert format_table(example6) == (
        "k 2\n"
        "attrs f2 f4 f3\n"
        "row 1 1 1 0\n"
        "row 0 1 1 0\n"
        "row 1 1 0 1\n"
        "row 0 0 1 1\n"
        "row 1 0 0 1\n"
        "row 0 0 0 1\n"
    )


def test_parse_comments_and_blanks():
    text = "# header\nk 2\n\nattrs f0\n# note\nrow 0 1\nrow 1 0\n"
    t = parse_table(text)
    assert t.rows == ((0,), (1,)) and t.decisions == (1, 0)


def test_parse_empty_table_format():
    t = parse_table("k 2\nattrs\n")
    assert t.is_empty and t.n_cols == 0


def test_parse_rejects_garbage():
    with pytest.raises(BadShape):
        parse_table("attrs f0\nrow 0 1\n")
    with pytest.raises(BadShape):
        parse_table("k 2\nattrs f0\nrow x 1\n")
    with pytest.raises(BadShape):
        parse_table("k 2\nattrs f0\nwat\n")
