import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtlab.measures import (
    ComplexityMeasure,
    MeasureError,
    NotDecomposable,
    additive,
    check_axioms,
    depth,
    format_measure,
    load_measure_spec,
    max_of,
    max_weight,
    opaque,
    parse_measure,
    sum_of,
    table_costs,
)
from dtlab.tables import Attribute, empty_table

from conftest import measures_st


@pytest.fixture
def maxw_running():
    return max_weight({2: 1, 4: 3, 3: 2})


def test_depth_cost():
    assert depth().cost([2, 4, 3]) == 3
    assert depth().cost([]) == 0
    assert depth().cost([5, 5, 5]) == 3


def test_additive_cost(weighted):
    assert weighted.cost([4, 3]) == 5
    assert weighted.cost([2, 4, 3]) == 6
    assert weighted.cost([]) == 0


def test_maxw_cost(maxw_running):
    assert maxw_running.cost([2, 4, 3]) == 3
    assert maxw_running.cost([2]) == 1


def test_set_cost(weighted):
    assert depth().set_cost([]) == 0
    assert depth().set_cost([4, 3]) == 2
    assert weighted.set_cost([2, 3]) == 3
    assert weighted.set_cost([2, 2, 3]) == 3


def test_weights_must_be_positive():
    with pytest.raises(MeasureError):
        additive({2: 0})
    with pytest.raises(MeasureError):
        max_weight(default=0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: additive(default=1.5),
        lambda: additive({0: 2.7}),
        lambda: additive({0: "3"}),
        lambda: additive({0: True}),
        lambda: max_weight(default=True),
        lambda: ComplexityMeasure("maxw", ((0, 2.5),)),
    ],
    ids=["default-float", "weight-float", "weight-str", "weight-bool", "default-bool", "maxw-float"],
)
def test_weights_must_be_integers(build):
    # a fractional weight would make costs inexact; int() would silently truncate it
    with pytest.raises(MeasureError):
        build()


@pytest.mark.parametrize(
    "items",
    [((True, 3),), ((0, 1), (0, 2)), ((-1, 2),), (("a", 2),), ((1,),), [(0, 2)]],
    ids=["bool-index", "repeated-index", "negative-index", "str-index", "not-a-pair", "list"],
)
def test_weight_items_must_be_index_weight_pairs(items):
    # the label names every item, so an item the weights read otherwise would be misdescribed
    with pytest.raises(MeasureError):
        ComplexityMeasure("additive", items)


def test_children_must_be_a_tuple():
    with pytest.raises(MeasureError):
        ComplexityMeasure("sum", children=[depth()])


def test_describe_is_kept_and_names_every_kind():
    """Each measure's label is built once and kept, and it is the string
    the label has always been, for every kind and nested combinators."""
    fn = lambda idx: len(idx)  # noqa: E731
    labels = [
        (depth(), "depth"),
        (additive({3: 4, 0: 1}, 2), "additive(default=2,f0=1,f3=4)"),
        (max_weight(), "maxw(default=1)"),
        (opaque(fn), "opaque"),
        (sum_of(depth(), max_weight({1: 5})), "sum(depth,maxw(default=1,f1=5))"),
        (max_of(sum_of(additive({2: 3}), depth()), opaque(fn)), "max(sum(additive(default=1,f2=3),depth),opaque)"),
    ]
    for measure, label in labels:
        first = measure.describe()
        assert first == label
        assert measure.describe() is first


def test_table_costs(example6, weighted):
    assert table_costs(depth(), example6) == (3, 1)
    assert table_costs(weighted, example6) == (6, 3)
    assert table_costs(weighted, empty_table()) == (0, 0)


def test_combinator_cost():
    m = max_of(depth(), max_weight(default=5))
    assert m.cost([0]) == 5
    assert m.cost([0, 1, 2, 3, 4, 5]) == 6
    s = sum_of(depth(), additive({0: 2}, default=1))
    assert s.cost([0, 1]) == 2 + 3


def test_accumulator_examples(weighted):
    h = depth()
    st_ = h.initial_state()
    for a in (0, 1, 2):
        st_ = h.extend(st_, a)
    assert h.value(st_) == 3

    st_ = weighted.initial_state()
    st_ = weighted.extend(st_, 4)
    st_ = weighted.extend(st_, 3)
    assert weighted.value(st_) == 5

    pair = max_of(depth(), max_weight(default=5))
    st_ = pair.initial_state()
    assert isinstance(st_, tuple)
    st_ = pair.extend(st_, 9)
    assert pair.value(st_) == 5


def test_opaque_measure_cost_only():
    m = opaque(lambda idx: 2 * len(idx))
    assert m.cost([1, 2]) == 4
    assert not m.decomposable
    with pytest.raises(NotDecomposable):
        m.initial_state()


def test_check_axioms_depth():
    pool = [Attribute(i) for i in range(3)]
    report = check_axioms(depth(), pool, max_len=3)
    assert report.ok and report.bounded
    assert report.first_violation is None


def test_check_axioms_unit_additive_bounded():
    report = check_axioms(additive(default=1), [0, 1, 2], max_len=4)
    assert report.ok and report.bounded


def test_check_axioms_maxw_unbounded_at_six():
    m = max_weight(default=5)
    short = check_axioms(m, [0, 1, 2], max_len=5)
    assert short.ok and short.bounded
    long = check_axioms(m, [0, 1, 2], max_len=6)
    assert long.ok and not long.bounded
    assert "6" in long.bounded_violation


def test_check_axioms_flags_broken_measure():
    broken = opaque(lambda idx: max(0, len(idx) - 1))  # zero on singletons
    report = check_axioms(broken, [0, 1], max_len=2)
    assert not report.ok
    assert "positivity" in report.first_violation


def test_is_bounded_flags():
    assert depth().is_bounded
    assert additive({0: 7}).is_bounded
    assert not max_weight(default=9).is_bounded
    assert sum_of(depth(), max_weight()).is_bounded
    assert max_of(max_weight(), additive()).is_bounded
    assert not max_of(max_weight(), max_weight()).is_bounded


@given(measures_st())
def test_axioms_hold_for_all_builtins(measure):
    report = check_axioms(measure, [0, 1, 2, 3], max_len=4)
    assert report.ok, report.first_violation


@given(measures_st())
def test_fold_agrees_with_cost_on_all_short_words(measure):
    attrs = [0, 1, 2, 3]
    for length in range(0, 4):
        for word in itertools.product(attrs, repeat=length):
            st_ = measure.initial_state()
            for a in word:
                st_ = measure.extend(st_, a)
            assert measure.value(st_) == measure.cost(word)


def test_depth_is_size_everywhere():
    for length in range(5):
        for word in itertools.combinations_with_replacement(range(4), length):
            assert depth().cost(word) == length


def test_fold_exhaustive_to_length_five():
    fixed = [
        depth(),
        additive({0: 2, 1: 1, 2: 3, 3: 1}),
        max_weight({0: 2, 1: 5, 2: 1, 3: 3}),
        sum_of(depth(), max_weight(default=2)),
        max_of(additive(default=2), max_weight(default=4)),
    ]
    for measure in fixed:
        for length in range(6):
            for word in itertools.product(range(4), repeat=length):
                st_ = measure.initial_state()
                for a in word:
                    st_ = measure.extend(st_, a)
                assert measure.value(st_) == measure.cost(word)


def test_format_parse_roundtrip(weighted):
    again = parse_measure(format_measure(weighted))
    assert again == weighted
    assert parse_measure(format_measure(depth())) == depth()
    m = max_weight({7: 2}, default=4)
    assert parse_measure(format_measure(m)) == m


@pytest.mark.parametrize("spec", ["sum:", "max:a.cm,", "sum:,b.cm"])
def test_measure_spec_with_an_empty_part_is_named(spec):
    with pytest.raises(MeasureError, match=f"^measure spec '{spec}' has an empty part"):
        load_measure_spec(spec)


def test_measure_spec_builtin_and_combinators(tmp_path, weighted):
    assert load_measure_spec("h") == depth()
    assert load_measure_spec("depth") == depth()
    a = tmp_path / "a.cm"
    b = tmp_path / "b.cm"
    a.write_text(format_measure(weighted))
    b.write_text(format_measure(depth()))
    m = load_measure_spec(f"sum:{a},{b}")
    assert m.kind == "sum" and m.cost([4]) == 3 + 1
    m = load_measure_spec(f"max:{a},{b}")
    assert m.kind == "max" and m.cost([4]) == 3


def test_parse_measure_rejects_garbage():
    with pytest.raises(MeasureError):
        parse_measure("kind nope\n")
    with pytest.raises(MeasureError):
        parse_measure("default 3\n")
    with pytest.raises(MeasureError):
        parse_measure("kind additive\nweight f2 x\n")
