import pytest

from dtlab.measures import depth
from dtlab.tables import DtError, validate
from dtlab.verify import (
    VerifySuiteConfig,
    lemma_findings,
    run_suite,
    shrink_table,
    standard_measures,
    staircase_scenario,
    step_scenario,
    table_stream,
    transfer_findings,
    unit_rows_scenario,
)

from conftest import EXAMPLE6_ROWS


def test_standard_measures_fixed():
    bundle = standard_measures()
    assert [label for label, _ in bundle] == ["depth", "additive", "maxw"]
    add = dict(bundle)["additive"]
    assert [add.cost([i]) for i in range(6)] == [1, 3, 2, 1, 3, 2]
    mx = dict(bundle)["maxw"]
    assert [mx.cost([i]) for i in range(6)] == [2, 5, 1, 2, 5, 1]


def test_table_stream_exhaustive_and_sampled():
    cfg = VerifySuiteConfig(suite="lemmas", k=2, max_cols=1, max_rows=2, samples=0)
    assert len(list(table_stream(cfg))) == 9
    cfg = VerifySuiteConfig(suite="lemmas", k=3, max_cols=2, max_rows=4, samples=17, seed=3)
    first = [t for t in table_stream(cfg)]
    second = [t for t in table_stream(cfg)]
    assert first == second
    assert len(first) == 17
    assert all(1 <= t.n_cols <= 2 and 1 <= t.n_rows <= 4 for t in first)


@pytest.mark.parametrize("suite, samples", [("lemmas", 3), ("dp-oracle", 1), ("constructions", 0)])
@pytest.mark.parametrize("field", ["max_cols", "max_rows"])
def test_zero_limits_rejected_when_sampling(suite, samples, field):
    with pytest.raises(DtError, match=f"{field} must be positive"):
        VerifySuiteConfig(suite=suite, samples=samples, **{field: 0})


@pytest.mark.parametrize(
    "fields, name",
    [
        (dict(k=2.5), "k"),
        (dict(k=True), "k"),
        (dict(max_cols=1.5, samples=2), "max_cols"),
        (dict(max_rows=2.0), "max_rows"),
        (dict(seed=1.5, samples=1), "seed"),
        (dict(seed=True, samples=1), "seed"),
        (dict(samples=True), "samples"),
        (dict(samples="3"), "samples"),
    ],
)
def test_count_fields_must_be_integers(fields, name):
    with pytest.raises(DtError, match=f"{name} must be an integer"):
        VerifySuiteConfig("lemmas", **fields)


def test_unknown_suite_rejected():
    with pytest.raises(DtError, match="unknown suite 'nope'"):
        VerifySuiteConfig("nope")


@pytest.mark.parametrize(
    "measures",
    [(("x", 3),), ("depth",), "depth", (("a", depth(), 3),)],
    ids=["not-a-measure", "bare-label", "string", "triple"],
)
def test_measures_must_be_label_measure_pairs(measures):
    config = dict(max_cols=1, max_rows=2, measures=measures)
    with pytest.raises(DtError, match="measures must be"):
        run_suite(VerifySuiteConfig("lemmas", **config))


@pytest.mark.parametrize("measures", [(), None])
def test_empty_measures_mean_standard_bundle(measures):
    config = VerifySuiteConfig("lemmas", max_cols=1, max_rows=2, measures=measures)
    assert config.measure_bundle() == standard_measures()
    standard = VerifySuiteConfig("lemmas", max_cols=1, max_rows=2, measures=standard_measures())
    assert run_suite(config) == run_suite(standard)


def test_zero_limits_allowed_when_exhaustive():
    report = run_suite(VerifySuiteConfig(suite="lemmas", max_cols=0, max_rows=0))
    assert report.passed and report.checked == 1


@pytest.mark.parametrize("suite", ["lemmas", "dp-oracle"])
def test_suite_builds_one_measure_bundle(monkeypatch, suite):
    import dtlab.verify as verify_mod

    built = []

    def counted():
        built.append(1)
        return standard_measures()

    monkeypatch.setattr(verify_mod, "standard_measures", counted)
    report = run_suite(VerifySuiteConfig(suite=suite, k=2, max_cols=2, max_rows=2))
    assert report.passed and report.checked > 1
    assert len(built) == 1


def test_lemma_suite_small_exhaustive_passes():
    cfg = VerifySuiteConfig(suite="lemmas", k=2, max_cols=2, max_rows=3, samples=0)
    report = run_suite(cfg)
    assert report.passed
    assert report.checked == 73


def test_lemma_suite_sampled_deterministic():
    cfg = VerifySuiteConfig(suite="lemmas", k=3, max_cols=2, max_rows=5, samples=30, seed=11)
    a = run_suite(cfg)
    b = run_suite(cfg)
    assert a.passed and b.passed
    assert a.as_text() == b.as_text()


def test_dp_oracle_suite_passes():
    cfg = VerifySuiteConfig(suite="dp-oracle", k=2, max_cols=2, max_rows=4, samples=0)
    report = run_suite(cfg)
    assert report.passed and report.checked > 0


def test_constructions_suite_passes():
    cfg = VerifySuiteConfig(
        suite="constructions", k=2, max_cols=3, max_rows=6, samples=40, seed=2
    )
    report = run_suite(cfg)
    assert report.passed
    assert report.checked == 5 * 40


def test_growth_suite_passes():
    report = run_suite(VerifySuiteConfig(suite="growth"))
    assert report.passed
    assert report.checked == 3 + 2 + 4


def test_scenarios_individually():
    assert all(c.ok for c in staircase_scenario())
    assert all(c.ok for c in step_scenario())
    assert all(c.ok for c in unit_rows_scenario())


def test_lemma_findings_clean_on_example(example6):
    for _, measure in standard_measures():
        assert lemma_findings(measure, example6) == []


def test_transfer_findings_clean(example6):
    assert transfer_findings(depth(), example6) == []


def test_shrink_table_minimizes():
    table = validate(2, [2, 4, 3], EXAMPLE6_ROWS)
    target = (0, 0, 1)

    def fails(t):
        return target in t.rows and t.n_rows >= 2

    shrunk = shrink_table(table, fails)
    assert fails(shrunk)
    assert shrunk.n_rows == 2
    assert target in shrunk.rows


def test_shrink_table_handles_raising_predicate():
    table = validate(2, [0], [((0,), 0), ((1,), 1)])

    def fails(t):
        if t.n_rows < 2:
            raise ValueError("degenerate")
        return True

    shrunk = shrink_table(table, fails)
    assert shrunk.n_rows == 2
