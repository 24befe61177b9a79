"""Verification suites: every proved inequality, re-checked by machine.

Four suites, all deterministic for a fixed configuration:

``lemmas``        runs the full parameter report (which re-checks every
                  known inequality between the parameters) plus the
                  tree-transfer property on a stream of exhaustively
                  enumerated or seeded random tables, under each
                  configured measure,
``dp-oracle``     cross-checks the memoized deterministic-tree search
                  against the independent brute-force oracle; a config
                  whose tables could exceed the oracle's guard rails
                  (k <= 3, at most 4 columns) is rejected,
``constructions`` re-verifies the advertised postconditions of every
                  table construction on sampled inputs,
``growth``        reruns the planted growth scenarios and compares
                  against their known exact values; it takes no options,
                  and a config that sets any is rejected.

A failing lemma or dp-oracle check is shrunk by greedy row removal to a
locally minimal failing table before it is reported; a failing
constructions check reports its input table as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .closure import remove_columns
from .constructions import (
    ConflictGraph,
    adversarial_relabel,
    critical_core_relabel,
    identity_table,
    isolate_row,
    minimum_key_core,
    multicolored_count,
    separation_tight_table,
    single_attribute_generators,
    two_color,
    unit_rows_family,
)
from .closure import enumerate_closure
from .explorer import GrowthReport, StepFunction, growth
from .measures import ComplexityMeasure, additive, depth, max_weight, table_costs
from .randgen import SplitMix64, enumerate_small_tables, random_table
from .solvers import (
    BRUTEFORCE_LIMITS,
    BRUTEFORCE_MAX_COLUMNS,
    BRUTEFORCE_MAX_K,
    ParameterReport,
    det_tree_cost,
    det_tree_cost_bruteforce,
    min_test_cost,
    parameter_report,
    row_separation_cost,
    snd_tree_cost,
    table_separation_cost,
    closure_separation_cost,
)
from .tables import DecisionTable, DtError, _bits_of, format_table
from .trees import _validated

SUITES = ("lemmas", "dp-oracle", "constructions", "growth")


def standard_measures() -> tuple[tuple[str, ComplexityMeasure], ...]:
    """The fixed measure bundle for the suites.

    Weights are assigned by attribute index (enumerated and sampled
    tables use the canonical names f0, f1, ...): additive weights cycle
    1, 3, 2 and max weights cycle 2, 5, 1.
    """
    add_w = {i: (1, 3, 2)[i % 3] for i in range(16)}
    max_w = {i: (2, 5, 1)[i % 3] for i in range(16)}
    return (
        ("depth", depth()),
        ("additive", additive(add_w)),
        ("maxw", max_weight(max_w)),
    )


@dataclass(frozen=True)
class VerifySuiteConfig:
    """Everything a suite run depends on; equal configs give equal reports."""

    suite: str
    k: int = 2
    max_cols: int = 3
    max_rows: int = 4
    samples: int = 0
    seed: int = 0
    measures: tuple[tuple[str, ComplexityMeasure], ...] = ()

    def __post_init__(self) -> None:
        if self.suite not in SUITES:
            raise DtError(f"unknown suite {self.suite!r}; pick one of {SUITES}")
        for name in ("k", "max_cols", "max_rows", "samples", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise DtError(f"{name} must be an integer, got {value!r}")
        if self.k < 2:
            raise DtError(f"k must be at least 2, got {self.k}")
        for name in ("max_cols", "max_rows", "samples"):
            if getattr(self, name) < 0:
                raise DtError(f"{name} must be nonnegative, got {getattr(self, name)}")
        # the constructions suite samples at least one round whatever samples says
        if self.samples > 0 or self.suite == "constructions":
            for name in ("max_cols", "max_rows"):
                if getattr(self, name) == 0:
                    raise DtError(f"{name} must be positive when tables are sampled, got 0")
        if self.measures is not None and not (
            isinstance(self.measures, (tuple, list))
            and all(
                isinstance(entry, tuple)
                and len(entry) == 2
                and isinstance(entry[0], str)
                and isinstance(entry[1], ComplexityMeasure)
                for entry in self.measures
            )
        ):
            raise DtError(f"measures must be (label, measure) pairs, got {self.measures!r}")
        if self.suite == "dp-oracle" and (
            self.k > BRUTEFORCE_MAX_K or self.max_cols > BRUTEFORCE_MAX_COLUMNS
        ):
            raise DtError(
                f"the dp-oracle suite checks against the brute-force oracle, and the "
                f"{BRUTEFORCE_LIMITS}; got k {self.k}, max_cols {self.max_cols}"
            )
        if self.suite == "growth":
            # the planted scenarios fix their own tables and measures
            defaults = {f.name: f.default for f in fields(self)}
            given = [
                name
                for name in ("k", "max_cols", "max_rows", "samples", "seed")
                if getattr(self, name) != defaults[name]
            ]
            if self.measures:
                given.append("measures")
            if given:
                raise DtError(
                    f"the growth suite runs fixed planted scenarios and takes no options; "
                    f"got {', '.join(given)}"
                )

    def measure_bundle(self) -> tuple[tuple[str, ComplexityMeasure], ...]:
        return self.measures if self.measures else standard_measures()


@dataclass
class Finding:
    label: str
    detail: str
    table: DecisionTable | None = None


@dataclass
class VerifyReport:
    suite: str
    checked: int
    findings: list[Finding] = field(default_factory=list)

    def record(self, ok: bool, label: str, detail: str, table: DecisionTable | None = None) -> None:
        """Count one checked input; unless ``ok``, report it as a finding."""
        self.checked += 1
        if not ok:
            self.findings.append(Finding(label, detail, table))

    @property
    def passed(self) -> bool:
        return not self.findings

    def as_text(self) -> str:
        lines = [
            f"suite {self.suite}: checked {self.checked} inputs, "
            f"{len(self.findings)} finding(s)"
        ]
        for f in self.findings:
            lines.append(f"FAIL {f.label}: {f.detail}")
            if f.table is not None:
                lines.append(format_table(f.table).rstrip())
        if not self.findings:
            lines.append("all checks passed")
        return "\n".join(lines) + "\n"


def table_stream(config: VerifySuiteConfig) -> Iterator[DecisionTable]:
    """Exhaustive stream when samples == 0, else a seeded random stream."""
    if config.samples == 0:
        yield from enumerate_small_tables(config.k, config.max_cols, config.max_rows)
        return
    rng = SplitMix64(config.seed)
    for _ in range(config.samples):
        cols = 1 + rng.below(config.max_cols)
        rows = 1 + rng.below(min(config.max_rows, config.k**cols))
        yield random_table(config.k, cols, rows, Fraction(1, 2), rng)


def shrink_table(table: DecisionTable, fails: Callable[[DecisionTable], bool]) -> DecisionTable:
    """Greedy row removal to a locally minimal table still failing."""
    current = table
    improved = True
    while improved:
        improved = False
        for i in range(current.n_rows):
            cand = DecisionTable(
                current.k,
                current.columns,
                current.rows[:i] + current.rows[i + 1 :],
                current.decisions[:i] + current.decisions[i + 1 :],
            )
            try:
                still_failing = fails(cand)
            except Exception:
                still_failing = False
            if still_failing:
                current = cand
                improved = True
                break
    return current


def transfer_findings(measure: ComplexityMeasure, table: DecisionTable, report: ParameterReport) -> list[str]:
    """A cheapest deterministic tree for the test-collapsed table must
    also be a deterministic tree for the original table.

    ``report`` is ``parameter_report(measure, table)``, and its results
    are reused: the test is its minimal-test witness.  When that test
    keeps every column, the collapsed table equals the table, so the tree
    to check is the report's own det tree.  A tree equal to the last det
    tree that validated on the table's kernel is not walked again
    (``trees._validated``): neither the report's tree, which its
    ``det-witness-validates`` check has just validated and kept, nor a
    searched tree equal to it.  A tree that failed is walked again, for
    its diagnostics.  A measure with an opaque part has no report tree,
    and the tree search raises ``NotDecomposable``.  The collapsed table
    depends only on the table and the removed columns, so it is built
    once and kept on the table's kernel, where the transfers under the
    other measures find it, and with it its own kernel in the slot.
    """
    if table.is_empty or table.n_cols == 0:
        return []
    keep = set(report.test_witness or table.columns[:1])
    removed = tuple(a for a in table.columns if a not in keep)
    tree = report.det_tree
    if removed or tree is None:
        kept = _bits_of(table).collapsed
        collapsed = kept.get(removed)
        if collapsed is None:
            collapsed = kept[removed] = remove_columns(removed, table)
        _, tree = det_tree_cost(measure, collapsed)
    result = _validated(tree, table)
    if not result:
        return ["det-tree-transfer: " + "; ".join(result.diagnostics)]
    return []


def lemma_findings(measure: ComplexityMeasure, table: DecisionTable) -> list[str]:
    report = parameter_report(measure, table)
    return [*report.failed_checks, *transfer_findings(measure, table, report)]


def _table_suite(
    config: VerifySuiteConfig,
    tables: Iterable[DecisionTable],
    findings: Callable[[ComplexityMeasure, DecisionTable], str],
) -> VerifyReport:
    """Check every table under every measure of the bundle.

    ``findings(measure, table)`` describes what fails, or is empty.  A
    failing table is shrunk to a locally minimal one that still fails.
    """
    report = VerifyReport(suite=config.suite, checked=0)
    measures = config.measure_bundle()
    for table in tables:
        report.checked += 1
        for label, measure in measures:
            detail = findings(measure, table)
            if detail:
                shrunk = shrink_table(table, lambda t: bool(findings(measure, t)))
                report.findings.append(Finding(f"{config.suite}[{label}]", detail, shrunk))
    return report


def run_lemma_suite(config: VerifySuiteConfig) -> VerifyReport:
    return _table_suite(
        config, table_stream(config), lambda m, t: ", ".join(lemma_findings(m, t))
    )


def run_dp_oracle_suite(config: VerifySuiteConfig) -> VerifyReport:
    def mismatch(measure: ComplexityMeasure, table: DecisionTable) -> str:
        got = det_tree_cost(measure, table)[0]
        want = det_tree_cost_bruteforce(measure, table)
        return f"search found {got}, oracle found {want}" if got != want else ""

    return _table_suite(config, table_stream(config), mismatch)


def _random_graph(rng: SplitMix64) -> ConflictGraph:
    n = 1 + rng.below(6)
    nodes = tuple((i,) for i in range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.below(2):
                edges.append((nodes[i], nodes[j]))
    return ConflictGraph(nodes, tuple(edges))


def run_constructions_suite(config: VerifySuiteConfig) -> VerifyReport:
    """Re-verify construction postconditions on seeded random inputs.

    Each construction gets ``samples`` independent inputs (at least one).
    All comparisons run through the exact solvers.
    """
    report = VerifyReport(suite="constructions", checked=0)
    rng = SplitMix64(config.seed)
    rounds = max(1, config.samples)
    measures = config.measure_bundle()

    def random_input() -> DecisionTable:
        cols = 1 + rng.below(config.max_cols)
        rows = 2 + rng.below(max(1, min(config.max_rows, config.k**cols) - 1))
        return random_table(config.k, cols, rows, Fraction(1, 2), rng)

    for _ in range(rounds):
        # greedy two-coloring cuts at least half the edges
        graph = _random_graph(rng)
        cut = multicolored_count(graph, two_color(graph))
        need = -(-len(graph.edges) // 2)
        detail = f"cut {cut} of {len(graph.edges)} edges, need {need}"
        report.record(cut >= need, "two-color", detail)

        table = random_input()
        label, measure = measures[rng.below(len(measures))]

        # separation-tight member: three equal costs plus the rule bound
        tight = separation_tight_table(measure, table)
        sep_src = table_separation_cost(measure, table)
        det = det_tree_cost(measure, tight)[0]
        w = table_costs(measure, tight)[0]
        sep = table_separation_cost(measure, tight)
        snd = snd_tree_cost(measure, tight)[0]
        v_src = table_costs(measure, table)[1]
        report.record(
            det == w == sep == sep_src and snd <= v_src,
            f"separation-tight[{label}]",
            f"det={det} w={w} sep={sep} source-sep={sep_src} snd={snd} vmax={v_src}",
            table,
        )

        # adversarial relabeling of the critical core
        core = minimum_key_core(table)
        _, hard = adversarial_relabel(core)
        theta = min_test_cost(depth(), hard)[0]
        det_h = det_tree_cost(depth(), hard)[0]
        w_core = core.n_cols
        report.record(
            theta >= -(-w_core // 2) and 2 * table.k**det_h > w_core,
            "adversarial-relabel",
            f"theta={theta} det={det_h} columns={w_core}",
            core,
        )

        # full pipeline: critical core plus relabeling bounds the row count
        star = critical_core_relabel(table)
        det_star = det_tree_cost(depth(), star)[0]
        s_hat = closure_separation_cost(depth(), table)
        report.record(
            table.k ** ((det_star + 2) * s_hat) >= table.n_rows,
            "critical-core-relabel",
            f"k^((det+2)*closure_sep) = {table.k}^{(det_star + 2) * s_hat} "
            f"< rows {table.n_rows}",
            table,
        )

        # isolating one row pins the rule cost to the separation cost
        row = table.rows[rng.below(table.n_rows)]
        lone = isolate_row(measure, table, row)
        snd_lone = snd_tree_cost(measure, lone)[0]
        w_lone = table_costs(measure, lone)[0]
        want = row_separation_cost(measure, table, row)[0]
        report.record(
            snd_lone == w_lone == want,
            f"isolate-row[{label}]",
            f"snd={snd_lone} w={w_lone} row-separation={want}",
            table,
        )
    return report


# ---------------------------------------------------------------------------
# planted growth scenarios with known exact answers


@dataclass
class ScenarioCheck:
    name: str
    ok: bool
    detail: str


def _exact_growth(name: str, report: GrowthReport, want: list[int]) -> ScenarioCheck:
    """Every point of the report is exact and equals ``want``."""
    ok = report.values() == want and all(p.exhausted for p in report.points)
    return ScenarioCheck(name, ok, f"values {report.values()} want {want}")


def staircase_scenario(max_m: int = 5) -> list[ScenarioCheck]:
    """Identity-style staircase family under depth: every growth function
    climbs exactly linearly and every point is exact."""
    gens = [identity_table(m) for m in range(1, max_m + 1)]
    enum = enumerate_closure(gens)
    h = depth()
    label = f"staircase<= {max_m}"
    return [
        _exact_growth(
            f"staircase-{fn}",
            growth(fn, gens, h, max_n=max_m, generator_label=label, enumeration=enum),
            list(range(max_m + 1)),
        )
        for fn in ("FW", "FTheta", "G")
    ]


def step_scenario(indices: Sequence[int] = (2, 5, 9), max_n: int = 10) -> list[ScenarioCheck]:
    """Single-attribute generators weighted by index: the deterministic
    growth functions reproduce the step function of the index set."""
    gens, measure = single_attribute_generators(indices)
    enum = enumerate_closure(gens)
    step = StepFunction(tuple(sorted(indices)))
    want = [step.value(n) for n in range(max_n + 1)]
    label = f"steps{tuple(indices)}"
    return [
        _exact_growth(
            f"steps-{fn}",
            growth(fn, gens, measure, max_n=max_n, generator_label=label, enumeration=enum),
            want,
        )
        for fn in ("FW", "FTheta")
    ]


def unit_rows_scenario(phi: Sequence[int] = (0, 1, 4, 9)) -> list[ScenarioCheck]:
    """The tuned staircase family: member n costs phi(n) deterministically
    but only n nondeterministically, and F reproduces phi exactly."""
    max_n = len(phi) - 1
    members = [unit_rows_family(phi, n) for n in range(1, max_n + 1)]
    measure = members[-1].measure
    checks = []
    for n, fam in enumerate(members, start=1):
        w = table_costs(measure, fam.table)[0]
        snd = snd_tree_cost(measure, fam.table)[0]
        det = det_tree_cost(measure, fam.table)[0]
        ok = w == phi[n] and snd == n and det == phi[n]
        detail = f"w={w} snd={snd} det={det} phi={phi[n]}"
        checks.append(ScenarioCheck(f"unit-rows-member-{n}", ok, detail))
    label = f"unit-rows phi={tuple(phi)}"
    rep = growth("F", [f.table for f in members], measure, max_n=max_n, generator_label=label)
    checks.append(_exact_growth("unit-rows-F", rep, list(phi[: max_n + 1])))
    return checks


def run_growth_suite(config: VerifySuiteConfig) -> VerifyReport:
    report = VerifyReport(suite="growth", checked=0)
    for check in staircase_scenario() + step_scenario() + unit_rows_scenario():
        report.record(check.ok, check.name, check.detail)
    return report


def run_suite(config: VerifySuiteConfig) -> VerifyReport:
    if config.suite == "lemmas":
        return run_lemma_suite(config)
    if config.suite == "dp-oracle":
        return run_dp_oracle_suite(config)
    if config.suite == "constructions":
        return run_constructions_suite(config)
    return run_growth_suite(config)  # the config admits no other suite
