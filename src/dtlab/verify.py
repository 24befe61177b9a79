"""Verification suites: every proved inequality, re-checked by machine.

Four suites, all deterministic for a fixed configuration:

``lemmas``        runs the full parameter report (which re-checks every
                  known inequality between the parameters) plus the
                  tree-transfer property on a stream of exhaustively
                  enumerated or seeded random tables, under each
                  configured measure,
``dp-oracle``     cross-checks the memoized deterministic-tree search
                  against the independent brute-force oracle,
``constructions`` re-verifies the advertised postconditions of every
                  table construction on sampled inputs,
``growth``        reruns the planted growth scenarios and compares
                  against their known exact values.

A failing check is shrunk by greedy row removal to a locally minimal
failing table before it is reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

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
from .explorer import StepFunction, growth
from .measures import ComplexityMeasure, additive, depth, max_weight, table_costs
from .randgen import SplitMix64, enumerate_small_tables, random_table
from .solvers import (
    det_tree_cost,
    det_tree_cost_bruteforce,
    min_test_cost,
    parameter_report,
    row_separation_cost,
    snd_tree_cost,
    table_separation_cost,
    closure_separation_cost,
)
from .tables import DecisionTable, DtError, format_table
from .trees import validate_deterministic

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
        if self.k < 2:
            raise DtError(f"k must be at least 2, got {self.k}")
        for name in ("max_cols", "max_rows", "samples"):
            if getattr(self, name) < 0:
                raise DtError(f"{name} must be nonnegative, got {getattr(self, name)}")

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


def transfer_findings(measure: ComplexityMeasure, table: DecisionTable) -> list[str]:
    """A cheapest deterministic tree for the test-collapsed table must
    also be a deterministic tree for the original table."""
    if table.is_empty or table.n_cols == 0:
        return []
    _, test = min_test_cost(measure, table)
    if not test:
        test = (table.columns[0],)
    keep = set(test)
    removed = tuple(a for a in table.columns if a not in keep)
    collapsed = remove_columns(removed, table)
    _, tree = det_tree_cost(measure, collapsed)
    result = validate_deterministic(tree, table)
    if not result:
        return ["det-tree-transfer: " + "; ".join(result.diagnostics)]
    return []


def lemma_findings(measure: ComplexityMeasure, table: DecisionTable) -> list[str]:
    report = parameter_report(measure, table)
    bad = list(report.failed_checks)
    bad.extend(transfer_findings(measure, table))
    return bad


def run_lemma_suite(config: VerifySuiteConfig) -> VerifyReport:
    report = VerifyReport(suite="lemmas", checked=0)
    for table in table_stream(config):
        report.checked += 1
        for label, measure in config.measure_bundle():
            bad = lemma_findings(measure, table)
            if bad:
                shrunk = shrink_table(table, lambda t: bool(lemma_findings(measure, t)))
                report.findings.append(
                    Finding(
                        label=f"lemmas[{label}]",
                        detail=", ".join(bad),
                        table=shrunk,
                    )
                )
    return report


def run_dp_oracle_suite(config: VerifySuiteConfig) -> VerifyReport:
    report = VerifyReport(suite="dp-oracle", checked=0)
    for table in table_stream(config):
        if table.n_cols > 4 or table.k > 3:
            continue
        report.checked += 1
        for label, measure in config.measure_bundle():
            got = det_tree_cost(measure, table)[0]
            want = det_tree_cost_bruteforce(measure, table)
            if got != want:
                def mismatch(t, m=measure):
                    if t.is_empty:
                        return False
                    return det_tree_cost(m, t)[0] != det_tree_cost_bruteforce(m, t)

                shrunk = shrink_table(table, mismatch)
                report.findings.append(
                    Finding(
                        label=f"dp-oracle[{label}]",
                        detail=f"search found {got}, oracle found {want}",
                        table=shrunk,
                    )
                )
    return report


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
        coloring = two_color(graph)
        cut = multicolored_count(graph, coloring)
        need = -(-len(graph.edges) // 2)
        report.checked += 1
        if cut < need:
            report.findings.append(
                Finding("two-color", f"cut {cut} of {len(graph.edges)} edges, need {need}")
            )

        table = random_input()
        label, measure = measures[rng.below(len(measures))]

        # separation-tight member: three equal costs plus the rule bound
        report.checked += 1
        tight = separation_tight_table(measure, table)
        sep_src = table_separation_cost(measure, table)
        det = det_tree_cost(measure, tight)[0]
        w = table_costs(measure, tight)[0]
        sep = table_separation_cost(measure, tight)
        snd = snd_tree_cost(measure, tight)[0]
        v_src = table_costs(measure, table)[1]
        if not (det == w == sep == sep_src and snd <= v_src):
            report.findings.append(
                Finding(
                    f"separation-tight[{label}]",
                    f"det={det} w={w} sep={sep} source-sep={sep_src} snd={snd} vmax={v_src}",
                    table,
                )
            )

        # adversarial relabeling of the critical core
        report.checked += 1
        core = minimum_key_core(table)
        _, hard = adversarial_relabel(core)
        theta = min_test_cost(depth(), hard)[0]
        det_h = det_tree_cost(depth(), hard)[0]
        w_core = core.n_cols
        if not (theta >= -(-w_core // 2) and 2 * table.k**det_h > w_core):
            report.findings.append(
                Finding(
                    "adversarial-relabel",
                    f"theta={theta} det={det_h} columns={w_core}",
                    core,
                )
            )

        # full pipeline: critical core plus relabeling bounds the row count
        report.checked += 1
        star = critical_core_relabel(table)
        det_star = det_tree_cost(depth(), star)[0]
        s_hat = closure_separation_cost(depth(), table)
        if table.k ** ((det_star + 2) * s_hat) < table.n_rows:
            report.findings.append(
                Finding(
                    "critical-core-relabel",
                    f"k^((det+2)*closure_sep) = {table.k}^{(det_star + 2) * s_hat} "
                    f"< rows {table.n_rows}",
                    table,
                )
            )

        # isolating one row pins the rule cost to the separation cost
        report.checked += 1
        row = table.rows[rng.below(table.n_rows)]
        lone = isolate_row(measure, table, row)
        snd_lone = snd_tree_cost(measure, lone)[0]
        w_lone = table_costs(measure, lone)[0]
        want = row_separation_cost(measure, table, row)[0]
        if not (snd_lone == w_lone == want):
            report.findings.append(
                Finding(
                    f"isolate-row[{label}]",
                    f"snd={snd_lone} w={w_lone} row-separation={want}",
                    table,
                )
            )
    return report


# ---------------------------------------------------------------------------
# planted growth scenarios with known exact answers


@dataclass
class ScenarioCheck:
    name: str
    ok: bool
    detail: str


def staircase_scenario(max_m: int = 5) -> list[ScenarioCheck]:
    """Identity-style staircase family under depth: every growth function
    climbs exactly linearly and every point is exact."""
    gens = [identity_table(m) for m in range(1, max_m + 1)]
    enum = enumerate_closure(gens)
    h = depth()
    checks = []
    for fn in ("FW", "FTheta", "G"):
        rep = growth(
            fn, gens, h, max_n=max_m, generator_label=f"staircase<= {max_m}", enumeration=enum
        )
        want = list(range(max_m + 1))
        ok = rep.values() == want and all(p.exhausted for p in rep.points)
        checks.append(
            ScenarioCheck(
                name=f"staircase-{fn}",
                ok=ok,
                detail=f"values {rep.values()} want {want}",
            )
        )
    return checks


def step_scenario(indices: Sequence[int] = (2, 5, 9), max_n: int = 10) -> list[ScenarioCheck]:
    """Single-attribute generators weighted by index: the deterministic
    growth functions reproduce the step function of the index set."""
    gens, measure = single_attribute_generators(indices)
    enum = enumerate_closure(gens)
    step = StepFunction(tuple(sorted(indices)))
    want = [step.value(n) for n in range(max_n + 1)]
    checks = []
    for fn in ("FW", "FTheta"):
        rep = growth(
            fn, gens, measure, max_n=max_n, generator_label=f"steps{tuple(indices)}",
            enumeration=enum,
        )
        ok = rep.values() == want and all(p.exhausted for p in rep.points)
        checks.append(
            ScenarioCheck(
                name=f"steps-{fn}",
                ok=ok,
                detail=f"values {rep.values()} want {want}",
            )
        )
    return checks


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
        checks.append(
            ScenarioCheck(
                name=f"unit-rows-member-{n}",
                ok=ok,
                detail=f"w={w} snd={snd} det={det} phi={phi[n]}",
            )
        )
    rep = growth(
        "F",
        [f.table for f in members],
        measure,
        max_n=max_n,
        generator_label=f"unit-rows phi={tuple(phi)}",
    )
    ok = rep.values() == list(phi[: max_n + 1]) and all(p.exhausted for p in rep.points)
    checks.append(
        ScenarioCheck(
            name="unit-rows-F",
            ok=ok,
            detail=f"values {rep.values()} want {list(phi[: max_n + 1])}",
        )
    )
    return checks


def run_growth_suite(config: VerifySuiteConfig) -> VerifyReport:
    report = VerifyReport(suite="growth", checked=0)
    for check in staircase_scenario() + step_scenario() + unit_rows_scenario():
        report.checked += 1
        if not check.ok:
            report.findings.append(Finding(check.name, check.detail))
    return report


def run_suite(config: VerifySuiteConfig) -> VerifyReport:
    if config.suite == "lemmas":
        return run_lemma_suite(config)
    if config.suite == "dp-oracle":
        return run_dp_oracle_suite(config)
    if config.suite == "constructions":
        return run_constructions_suite(config)
    if config.suite == "growth":
        return run_growth_suite(config)
    raise ValueError(f"unknown suite {config.suite!r}; pick one of {SUITES}")
