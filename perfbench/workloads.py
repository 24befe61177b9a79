"""Workload inputs, timed passes and answer digests for the dtlab benchmark.

A workload seed picks one of ``POOL`` input variants (``seed % POOL``).
Each variant's inputs are drawn from dtlab's own splitmix64 stream and
``random_table``; the package only ever sees the generated tables.  The
expected answer of every top-level call of every variant is frozen in
``expected.json`` (written by ``freeze.py`` from the commit that defined
the benchmark), so a run never trusts the code it measures for its answers.

Table shapes are dense (rows near half of k^cols or more) because on
dense shapes the work per table, and the closure size, barely changes
from seed to seed; sparse shapes such as (2,6,20) vary by a third.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

MODULES = ("tables", "measures", "closure", "trees", "solvers", "explorer", "verify", "randgen")
POOL = 16

# Base seed of each workload; variant v uses base + v.
BASE_SEEDS = {"params": 20260900, "explore": 20261000, "verify": 20260810, "closure": 20261100}

PARAMS_SHAPES = ((2, 6, 32), (3, 5, 40))
EXPLORE_SHAPE = (2, 4, 11)
EXPLORE_MAX_N = 5
VERIFY_SAMPLES = 300
VERIFY_SAMPLED = dict(k=3, max_cols=3, max_rows=8)
VERIFY_EXHAUSTIVE = dict(k=2, max_cols=2, max_rows=4)
CLOSURE_SHAPES = ((2, 4, 14), (3, 3, 14))

WORKLOADS = ("params", "explore", "verify", "closure")


class BenchError(Exception):
    """The benchmark cannot run here (for example, no dtlab sources)."""


def import_dtlab() -> SimpleNamespace:
    """Import dtlab afresh from this checkout's ``src`` and return its modules.

    Any loaded copy is dropped first, so each call pays the full import.
    """
    if not (SRC / "dtlab" / "__init__.py").is_file():
        raise BenchError(f"no dtlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "dtlab" or m.startswith("dtlab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dtlab")
    if Path(pkg.__file__).resolve().parent != (SRC / "dtlab").resolve():
        raise BenchError(f"imported dtlab from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"dtlab.{m}") for m in MODULES})


def variant_of(seed: int) -> int:
    return seed % POOL


# ---------------------------------------------------------------------------
# inputs


def build_inputs(workload: str, variant: int, dt: SimpleNamespace) -> dict[str, Any]:
    """Generate the workload's inputs for one variant from splitmix64."""
    rng = dt.randgen.SplitMix64(BASE_SEEDS[workload] + variant)
    if workload == "params":
        tables = [dt.randgen.random_table(*s, seed=rng.next_u64()) for s in PARAMS_SHAPES]
        return {"tables": tables, "measures": dt.verify.standard_measures()}
    if workload == "explore":
        generator = dt.randgen.random_table(*EXPLORE_SHAPE, seed=rng.next_u64())
        return {"generators": [generator], "measure": dt.measures.depth()}
    if workload == "verify":
        # The sampled-suite procedure of GENERATOR.md, drawn here so the
        # package receives tables rather than the seed.
        k, max_cols, max_rows = (VERIFY_SAMPLED[x] for x in ("k", "max_cols", "max_rows"))
        tables = []
        for _ in range(VERIFY_SAMPLES):
            cols = 1 + rng.below(max_cols)
            rows = 1 + rng.below(min(max_rows, k**cols))
            tables.append(dt.randgen.random_table(k, cols, rows, seed=rng))
        config = dt.verify.VerifySuiteConfig("lemmas", **VERIFY_EXHAUSTIVE)
        return {"tables": tables, "config": config, "measures": dt.verify.standard_measures()}
    if workload == "closure":
        return {"generators": [dt.randgen.random_table(*s, seed=rng.next_u64()) for s in CLOSURE_SHAPES]}
    raise BenchError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# one pass: a closed loop of top-level calls, each started after the last returned


@dataclass
class Call:
    """One top-level call of a pass: what it produced, or what it raised."""

    kind: str
    answer: Any = None
    error: BaseException | None = None


def _call(kind: str, fn: Callable, *args, **kwargs) -> Call:
    try:
        return Call(kind, fn(*args, **kwargs))
    except Exception as exc:  # a raising call is a failed item, not a crash
        return Call(kind, error=exc)


def run_pass(workload: str, inputs: dict[str, Any], dt: SimpleNamespace) -> list[Call]:
    """Run every top-level call of the workload once, in order.

    Functions are looked up on their modules at call time so that the
    tracer's wrappers, when installed, see every call.
    """
    if workload == "params":
        return [
            _call("report", dt.solvers.parameter_report, m, t)
            for t in inputs["tables"]
            for _, m in inputs["measures"]
        ]
    if workload == "explore":
        enum = _call("closure", dt.closure.enumerate_closure, inputs["generators"])
        calls = [enum]
        for fn in ("FW", "G"):
            if enum.error is not None:
                calls.append(Call("growth", error=enum.error))
                continue
            calls.append(
                _call(
                    "growth", dt.explorer.growth, fn, inputs["generators"], inputs["measure"],
                    EXPLORE_MAX_N, enumeration=enum.answer,
                )
            )
        return calls
    if workload == "verify":
        calls = [_call("suite", dt.verify.run_suite, inputs["config"])]
        lemma_findings = dt.verify.lemma_findings
        for t in inputs["tables"]:
            calls.append(
                _call("table", lambda t=t: (t, [lemma_findings(m, t) for _, m in inputs["measures"]]))
            )
        return calls
    if workload == "closure":
        return [_call("closure", dt.closure.enumerate_closure, [g]) for g in inputs["generators"]]
    raise BenchError(f"unknown workload {workload!r}")


def pass_items(workload: str, calls: list[Call]) -> int:
    """Items completed by a pass, in the workload's own unit."""
    ok = [c for c in calls if c.error is None]
    if workload == "params":
        return len(ok)
    if workload == "explore":
        return sum(c.answer.members_seen for c in ok if c.kind == "growth")
    if workload == "verify":
        return sum(c.answer.checked if c.kind == "suite" else 1 for c in ok)
    return sum(len(c.answer.members) for c in ok)


# ---------------------------------------------------------------------------
# answers: canonical forms, digests, and the check against frozen digests


def _table_form(t) -> list:
    return [t.k, [a.index for a in t.columns], sorted([list(r), d] for r, d in zip(t.rows, t.decisions))]


def _node_form(node) -> list:
    if hasattr(node, "decision"):
        return ["leaf", node.decision]
    return ["node", node.attribute.index, [[v, _node_form(c)] for v, c in node.edges]]


def _tree_form(tree) -> list | None:
    if tree is None:
        return None
    return [tree.k, [_node_form(c) for c in tree.children]]


def _digest_json(form) -> str:
    text = json.dumps(form, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _enumeration_digest(enum) -> str:
    """The canonical keys of the members, in emission order."""
    h = hashlib.sha256(repr((len(enum.members), enum.exhausted, enum.complete_column_count)).encode())
    h.update("\n".join(m.key for m in enum.members).encode())
    return h.hexdigest()[:16]


def call_digest(call: Call) -> str:
    """Digest of one call's answer; raising calls digest to their error."""
    if call.error is not None:
        return "error:" + type(call.error).__name__
    a = call.answer
    if call.kind == "report":
        return _digest_json({
            "measure": a.measure,
            "values": a.values(),
            "test_witness": [x.index for x in a.test_witness],
            "row_separators": [[list(r), c, [x.index for x in s]] for r, c, s in a.row_separators],
            "worst_tuple": None if a.worst_tuple is None else list(a.worst_tuple),
            "det_tree": _tree_form(a.det_tree),
            "snd_tree": _tree_form(a.snd_tree),
            "checks": list(a.checks),
            "failed_checks": list(a.failed_checks),
        })
    if call.kind == "growth":
        return _digest_json({
            "fn": a.fn,
            "points": [[p.n, p.value, p.exhausted, p.possibly_undefined] for p in a.points],
            "measure": a.measure_label,
            "members_seen": a.members_seen,
            "closure_exhausted": a.closure_exhausted,
        })
    if call.kind == "closure":
        return _enumeration_digest(a)
    if call.kind == "suite":
        return _digest_json({
            "suite": a.suite,
            "checked": a.checked,
            "passed": a.passed,
            "findings": [[f.label, f.detail] for f in a.findings],
        })
    if call.kind == "table":
        table, findings = a
        return _digest_json({"table": _table_form(table), "findings": findings})
    raise BenchError(f"unknown call kind {call.kind!r}")


def call_ok(call: Call) -> bool:
    """The call returned, and its answer does not flag itself as wrong."""
    if call.error is not None:
        return False
    a = call.answer
    if call.kind == "report":
        return a.consistent
    if call.kind == "suite":
        return a.passed
    if call.kind == "table":
        return not any(a[1])
    return True


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path) as f:
        return json.load(f)


def count_failures(calls: list[Call], expected: list[str]) -> tuple[int, list[str]]:
    """Failed calls of one pass against that variant's frozen digests.

    A call fails when it raised, flags its own answer as wrong, has an
    answer that cannot be digested, or digests differently from the
    frozen answer.  Expected calls that never happened fail too.
    """
    failed = max(0, len(expected) - len(calls))
    digests = []
    for i, c in enumerate(calls):
        try:
            d = call_digest(c)
        except Exception as exc:  # a changed answer type is a wrong answer
            d = "undigestible:" + type(exc).__name__
        digests.append(d)
        if not call_ok(c) or i >= len(expected) or d != expected[i]:
            failed += 1
    return failed, digests
