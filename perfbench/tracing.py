"""Spans around dtlab's public functions, installed from outside the package.

``Tracer.install`` replaces each function listed in ``TRACED`` with a
wrapper that records one span per call: name, start, end, parent span
and run id.  A name bound elsewhere by ``from .solvers import x`` is a
separate binding, so every dtlab module attribute that is the original
function is rebound too.  ``uninstall`` restores every binding it changed.

Spans stay in flat arrays in memory until ``write`` is called at the end
of the run.  Self time is a span's duration minus the durations of its
direct child spans.  A generator function gets one span per resumption,
so its ``calls`` counts items produced.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

TRACED = {
    "solvers": (
        "parameter_report", "min_test_cost", "row_separation_cost", "closure_separation_cost",
        "fixing_cost", "fixing_cost_for_tuple", "min_cost_subset", "det_tree_cost",
        "det_tree_cost_bruteforce", "snd_tree_cost", "minimal_rule", "inequality_findings",
    ),
    "measures": ("ComplexityMeasure.set_cost", "table_costs"),
    "tables": ("canonical_key", "is_test", "is_constant"),
    "closure": ("enumerate_closure", "remove_columns"),
    "trees": ("validate_deterministic", "validate_strongly_nondeterministic"),
    "explorer": ("growth",),
    "verify": ("run_suite", "lemma_findings", "transfer_findings"),
    "randgen": ("random_table", "enumerate_small_tables"),
}

# Work counts read off return values: metric name -> (traced function, count).
COUNTS = {
    "closure.members": ("closure.enumerate_closure", lambda r: len(r.members)),
    "explorer.members_seen": ("explorer.growth", lambda r: r.members_seen),
    "verify.checked": ("verify.run_suite", lambda r: r.checked),
}

TRACE_METRICS = (
    ("trace.overhead_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
)


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"), (f"{name}.self_s", "s")]
    out += [(name, "count") for name in COUNTS]
    return out + list(TRACE_METRICS)


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        counters = [(metric, count) for metric, (src, count) in COUNTS.items() if src == name]
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = tracer._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(sid)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                sid = tracer._open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(sid)
                for metric, count in counters:
                    tracer.counts[(tracer.run_id, metric)] += count(result)
                return result

        return functools.update_wrapper(wrapper, fn)

    # -- patching

    def install(self, dt: SimpleNamespace) -> None:
        """Wrap every traced function of the loaded dtlab modules."""
        loaded = [m for n, m in sys.modules.items() if n == "dtlab" or n.startswith("dtlab.")]
        for mod_name, fns in TRACED.items():
            mod = getattr(dt, mod_name)
            for qual in fns:
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, self._wrap(f"{mod_name}.{qual}", orig))
                    continue
                orig = getattr(mod, qual)
                wrapper = self._wrap(f"{mod_name}.{qual}", orig)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, attr, wrapper)

    def _patch(self, obj, attr: str, new) -> None:
        self._patches.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    # -- results

    def per_run(self) -> dict[int, dict[str, float]]:
        """Per-layer metrics of each run id, computed from the spans."""
        names = self.names
        child = defaultdict(float)
        for sid in range(len(self.start)):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        runs: dict[int, dict[str, float]] = {}
        for sid in range(len(self.start)):
            r = runs.setdefault(self.run[sid], {})
            name = names[self.name_id[sid]]
            dur = self.end[sid] - self.start[sid]
            r[f"{name}.calls"] = r.get(f"{name}.calls", 0) + 1
            r[f"{name}.total_s"] = r.get(f"{name}.total_s", 0.0) + dur
            r[f"{name}.self_s"] = r.get(f"{name}.self_s", 0.0) + dur - child.get(sid, 0.0)
        for (run, metric), value in self.counts.items():
            runs.setdefault(run, {})[metric] = value
        return runs

    def layer_medians(self) -> dict[str, float]:
        """Median over run ids of every span and count metric (0 if absent)."""
        runs = list(self.per_run().values()) or [{}]
        out = {}
        for name, unit in layer_metrics():
            if name.startswith("trace."):
                continue
            median = statistics.median_low if unit == "count" else statistics.median
            out[name] = median([r.get(name, 0) for r in runs])
        return out

    def write(self, path: Path, header: str) -> None:
        """Write every span as tab-separated text, gzip-compressed."""
        names = self.names
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(header.rstrip("\n") + "\n")
            f.write("span\tparent\trun\tname\tstart_s\tend_s\n")
            for sid in range(len(self.start)):
                f.write(
                    f"{sid}\t{self.parent[sid]}\t{self.run[sid]}\t{names[self.name_id[sid]]}"
                    f"\t{self.start[sid]:.9f}\t{self.end[sid]:.9f}\n"
                )
