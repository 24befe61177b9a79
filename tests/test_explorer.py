import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtlab import explorer
from dtlab.closure import ClosureLimits, enumerate_closure
from dtlab.constructions import identity_table, single_attribute_generators
from dtlab.explorer import (
    GROWTH_FUNCTIONS,
    ClassStats,
    StepFunction,
    UnboundedMeasure,
    class_stats,
    growth,
)
from dtlab.measures import depth, max_weight
from dtlab.randgen import random_table
from dtlab.tables import DtError

from conftest import tables_st


def test_step_function_examples():
    h = StepFunction((2, 5, 9))
    assert h.value(0) == 0
    assert h.value(1) == 0
    assert h.value(3) == 2
    assert h.value(5) == 5
    assert h.value(8) == 5
    assert h.value(9) == 9
    assert h.value(100) == 9


def test_step_function_validation():
    with pytest.raises(DtError):
        StepFunction(())
    with pytest.raises(DtError):
        StepFunction((3, 3))
    with pytest.raises(DtError):
        StepFunction((-1, 2))
    with pytest.raises(DtError):
        StepFunction((1.5,))
    with pytest.raises(DtError):
        StepFunction((True, 2))
    with pytest.raises(DtError):
        StepFunction(("a",))


def test_growth_two_step_generators():
    gens, measure = single_attribute_generators({2, 5})
    report = growth("FW", gens, measure, max_n=6)
    assert report.values() == [0, 0, 2, 2, 2, 5, 5]
    assert all(p.exhausted for p in report.points)
    theta_report = growth("FTheta", gens, measure, max_n=6)
    assert theta_report.values() == report.values()


def test_growth_identity_family_linear():
    gens = [identity_table(m) for m in range(1, 5)]
    for fn in ("FW", "FTheta", "G"):
        report = growth(fn, gens, depth(), max_n=4)
        assert report.values() == [0, 1, 2, 3, 4]
        assert all(p.exhausted for p in report.points)


def test_growth_rejects_unbounded_measure():
    gens = [identity_table(2)]
    with pytest.raises(UnboundedMeasure):
        growth("FW", gens, max_weight(default=3), max_n=2)
    with pytest.raises(DtError):
        growth("XX", gens, depth(), max_n=2)
    with pytest.raises(DtError):
        growth("FW", gens, depth(), max_n=-1)


@pytest.mark.parametrize("max_n", [True, False, 2.0, "2", None])
def test_growth_rejects_max_n_that_is_no_integer(max_n):
    with pytest.raises(DtError, match="max_n"):
        growth("FW", [identity_table(2)], depth(), max_n=max_n)


@pytest.mark.parametrize("n", [True, False, 1.5, 2.0, "2", None, -1])
def test_class_stats_rejects_n_that_is_no_nonnegative_integer(n):
    with pytest.raises(DtError, match=r"^n must be a nonnegative integer"):
        class_stats([identity_table(2)], depth(), n)


def test_growth_points_monotone_and_sandwiched():
    gens, measure = single_attribute_generators({2, 5, 9})
    fw = growth("FW", gens, measure, max_n=10)
    ftheta = growth("FTheta", gens, measure, max_n=10)
    g = growth("G", gens, measure, max_n=10)
    for report in (fw, ftheta, g):
        vals = report.values()
        assert vals == sorted(vals)
    for n in range(11):
        assert fw.points[n].value <= ftheta.points[n].value <= n
        assert g.points[n].value <= n


@settings(max_examples=15)
@given(tables_st(max_cols=2, max_rows=3), st.sampled_from(GROWTH_FUNCTIONS))
def test_growth_monotone_property(table, fn):
    report = growth(fn, [table], depth(), max_n=table.n_cols + 1)
    vals = report.values()
    assert vals == sorted(vals)
    assert all(p.exhausted for p in report.points)
    if fn in ("FW", "FTheta"):
        assert all(p.value <= p.n for p in report.points)


def test_growth_truncation_flags():
    gens = [identity_table(m) for m in range(1, 4)]
    full = growth("FW", gens, depth(), max_n=3)
    limited = growth("FW", gens, depth(), max_n=3, limits=ClosureLimits(max_tables=8))
    assert not limited.closure_exhausted
    for p_full, p_lim in zip(full.points, limited.points):
        assert p_lim.value <= p_full.value  # truncated points are lower bounds
        if p_lim.exhausted:
            assert p_lim.value == p_full.value
    f_report = growth("F", gens, depth(), max_n=3, limits=ClosureLimits(max_tables=8))
    assert any(p.possibly_undefined for p in f_report.points)
    assert not any(p.possibly_undefined for p in growth("F", gens, depth(), max_n=3).points)


def test_growth_shares_enumeration():
    gens = [identity_table(2)]
    enum = enumerate_closure(gens)
    a = growth("FW", gens, depth(), max_n=2, enumeration=enum)
    b = growth("FW", gens, depth(), max_n=2)
    assert a.values() == b.values()


def test_growth_empty_filter_points_are_zero():
    gens, measure = single_attribute_generators({5})
    report = growth("FW", gens, measure, max_n=3)
    assert report.values() == [0, 0, 0, 0]  # only the empty table passes


def test_report_text_and_csv():
    gens, measure = single_attribute_generators({2})
    report = growth("FW", gens, measure, max_n=2, generator_label="steps(2,)")
    text = report.as_text()
    assert "growth FW" in text and "steps(2,)" in text
    csv_text = report.as_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "n,value,exhausted"
    assert lines[1] == "0,0,yes"
    assert lines[-1] == "2,2,yes"


def test_class_stats_step_generators():
    gens, measure = single_attribute_generators({2, 5})
    stats = class_stats(gens, measure, n=1)
    assert (stats.members, stats.max_separation, stats.max_rows) == (1, 0, 0)
    stats = class_stats(gens, measure, n=2)
    assert (stats.members, stats.max_separation, stats.max_rows) == (5, 1, 2)
    assert stats.exhausted


def test_class_stats_identity_family():
    gens = [identity_table(m) for m in range(1, 4)]
    stats = class_stats(gens, depth(), n=1)
    assert stats.max_rows == 4
    assert stats.max_separation == 3
    assert stats.exhausted


def test_class_stats_solves_separation_once_per_base(monkeypatch):
    # separation, column costs and row count depend on the base alone, so
    # the 2,993 members of this closure need one separation per base
    calls = []
    real = explorer.table_separation_cost

    def counting(measure, table):
        calls.append(table)
        return real(measure, table)

    monkeypatch.setattr(explorer, "table_separation_cost", counting)
    gens = [random_table(2, 4, 11, seed=3)]
    assert class_stats(gens, depth(), n=1) == ClassStats(2993, 4, 11, True)
    assert len(calls) == 16


def test_class_stats_rejects_unbounded():
    with pytest.raises(UnboundedMeasure):
        class_stats([identity_table(2)], max_weight(), n=1)


@pytest.mark.parametrize("run", [lambda m: growth("FW", [], m, 2), lambda m: class_stats([], m, 1)], ids=["growth", "class_stats"])
def test_a_measure_that_is_no_measure_is_named(run):
    with pytest.raises(DtError, match="^measure must be a ComplexityMeasure, got None"):
        run(None)
