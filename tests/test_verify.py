import hashlib

import pytest

from dtlab import verify
from dtlab.constructions import BLUE
from dtlab.measures import depth
from dtlab.solvers import parameter_report
from dtlab.tables import DtError, is_constant, validate
from dtlab.verify import (
    ScenarioCheck,
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


@pytest.mark.parametrize(
    "fields, given",
    [
        (dict(k=4, max_cols=2, max_rows=2), "k 4, max_cols 2"),
        (dict(max_cols=5), "k 2, max_cols 5"),
        (dict(k=4, max_cols=2, samples=3, seed=1), "k 4, max_cols 2"),
    ],
)
def test_dp_oracle_config_beyond_oracle_rejected(fields, given):
    with pytest.raises(DtError, match=f"at most 4 columns and k <= 3; got {given}$"):
        VerifySuiteConfig("dp-oracle", **fields)


def test_dp_oracle_config_at_oracle_limits_checks_every_table():
    report = run_suite(VerifySuiteConfig("dp-oracle", k=3, max_cols=4, max_rows=2, samples=5, seed=2))
    assert report.passed and report.checked == 5


@pytest.mark.parametrize(
    "fields, given",
    [
        (dict(k=3), "k"),
        (dict(max_cols=2), "max_cols"),
        (dict(max_rows=5), "max_rows"),
        (dict(samples=5, seed=3, k=3), "k, samples, seed"),
        (dict(seed=1), "seed"),
        (dict(measures=(("depth", depth()),)), "measures"),
    ],
)
def test_growth_config_with_options_rejected(fields, given):
    with pytest.raises(DtError, match=f"takes no options; got {given}$"):
        VerifySuiteConfig("growth", **fields)


@pytest.mark.parametrize("measures", [(), None])
def test_growth_config_at_defaults_accepted(measures):
    assert VerifySuiteConfig("growth", measures=measures).suite == "growth"


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
    report = parameter_report(depth(), example6)
    assert transfer_findings(depth(), example6, report) == []


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


# Planted failures pin every suite's report: counts, text and finding
# tables.  The digests and texts below were written by the code before the
# suites shared one table loop and one check recorder.


def _finding_digests(report):
    tables = [
        (
            f.label,
            f.detail,
            None
            if f.table is None
            else (f.table.k, tuple(c.name for c in f.table.columns), f.table.rows, f.table.decisions),
        )
        for f in report.findings
    ]
    text = hashlib.sha256(report.as_text().encode()).hexdigest()
    return text, hashlib.sha256(repr(tables).encode()).hexdigest()


def test_planted_dp_oracle_findings_are_shrunk(monkeypatch):
    brute = verify.det_tree_cost_bruteforce
    monkeypatch.setattr(
        verify, "det_tree_cost_bruteforce", lambda m, t: brute(m, t) + (t.n_rows >= 2)
    )
    report = run_suite(VerifySuiteConfig("dp-oracle", k=2, max_cols=2, max_rows=3))
    assert (report.checked, len(report.findings)) == (73, 180)
    assert {f.table.n_rows for f in report.findings} == {2}
    assert report.findings[0].label == "dp-oracle[depth]"
    assert report.findings[0].detail == "search found 0, oracle found 1"
    assert _finding_digests(report) == (
        "4b98dfbc59f28a9910f42d9f5c090e7f30b40f283ece67579f192c0e3dc5eb36",
        "54b0ed64d9f57f7a61d7bd51f92b2928dc1f350bbf7d4eba65f70354b8d65eed",
    )


def test_planted_lemma_findings_are_shrunk(monkeypatch):
    real = verify.lemma_findings

    def planted(measure, table):
        extra = ["planted-a", "planted-b"] if table.n_rows >= 2 and not is_constant(table) else []
        return real(measure, table) + extra

    monkeypatch.setattr(verify, "lemma_findings", planted)
    config = VerifySuiteConfig("lemmas", k=3, max_cols=2, max_rows=4, samples=20, seed=5)
    report = run_suite(config)
    assert (report.checked, len(report.findings)) == (20, 30)
    assert {f.table.n_rows for f in report.findings} == {2}
    assert report.as_text().startswith(
        "suite lemmas: checked 20 inputs, 30 finding(s)\n"
        "FAIL lemmas[depth]: planted-a, planted-b\n"
        "k 3\nattrs f0 f1\nrow 2 1 0\nrow 0 0 1\n"
    )
    assert _finding_digests(report) == (
        "f8e997cbf70b565a817aec72f00d88f30d64dca752d2138c1465d81ed34f1ad2",
        "3043e0e3e8227bdaefb7376b709d7636b8ba658104081a2d5bf34831385037eb",
    )


def test_planted_two_color_findings_carry_no_table(monkeypatch):
    monkeypatch.setattr(verify, "two_color", lambda graph: {n: BLUE for n in graph.nodes})
    report = run_suite(VerifySuiteConfig("constructions", samples=5, seed=7))
    assert report.as_text() == (
        "suite constructions: checked 25 inputs, 2 finding(s)\n"
        "FAIL two-color: cut 0 of 2 edges, need 1\n"
        "FAIL two-color: cut 0 of 3 edges, need 2\n"
    )
    assert [f.table for f in report.findings] == [None, None]


def test_planted_construction_findings_keep_their_input_table(monkeypatch):
    real = verify.row_separation_cost

    def dearer(measure, table, row):
        cost, *rest = real(measure, table, row)
        return (cost + 1, *rest)

    monkeypatch.setattr(verify, "row_separation_cost", dearer)
    report = run_suite(VerifySuiteConfig("constructions", samples=2, seed=7))
    assert report.as_text() == (
        "suite constructions: checked 10 inputs, 2 finding(s)\n"
        "FAIL isolate-row[additive]: snd=1 w=1 row-separation=2\n"
        "k 2\nattrs f0\nrow 1 1\nrow 0 0\n"
        "FAIL isolate-row[depth]: snd=2 w=2 row-separation=3\n"
        "k 2\nattrs f0 f1\nrow 1 0 0\nrow 1 1 1\nrow 0 1 1\nrow 0 0 1\n"
    )


def test_planted_growth_finding_carries_no_table(monkeypatch):
    real = verify.staircase_scenario
    monkeypatch.setattr(
        verify,
        "staircase_scenario",
        lambda: real() + [ScenarioCheck("planted", False, "planted failure")],
    )
    report = run_suite(VerifySuiteConfig("growth"))
    assert report.as_text() == (
        "suite growth: checked 10 inputs, 1 finding(s)\nFAIL planted: planted failure\n"
    )
    assert report.findings[0].table is None
