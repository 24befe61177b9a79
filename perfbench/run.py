"""dtlab benchmark: one workload, one process, one caller, closed loop.

    python3 perfbench/run.py --workload params --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run imports dtlab from this checkout's ``src`` and builds the
workload's inputs (``SETUPS`` times; ``setup_s`` is their median), runs
one warm-up pass, then repeats timed passes over the same inputs until
``--seconds`` have passed.  Each pass issues its top-level calls one
after another; no threads or pools.  Every call's answer is checked
against the frozen digests in ``expected.json``.

End-to-end times are normalised by a reference loop timed around each
setup and pass (see ``Clock``); the raw wall times are printed and kept
in the result file too.  With ``--trace 0`` the last line of stdout
reports the end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate and it
reports the per-layer metrics and the tracing overhead instead.  Earlier
lines give every metric with its unit, the error rate and the
environment.  Wall times compare only on one machine; counts
(``*.calls``, ``closure.members``, ``explorer.members_seen``,
``verify.checked``) are exact on any machine.  ``--workload all`` runs
each workload in its own child process, one after another.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads as W  # noqa: E402

SETUPS = 15
MIN_PASSES = 3
MAX_TRACED = 5  # traced passes per run; bounds span memory and output size
OUT_DIR = Path(__file__).resolve().parent / "out"

# End-to-end times are scaled to a machine on which reference_loop takes
# REF_SECONDS; that is about its time on the 2-core Xeon VM this benchmark
# was written on, so normalised and raw seconds there are close.
REF_SECONDS = 0.1
REF_ITERATIONS = 150_000

E2E_METRICS = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def reference_loop() -> float:
    """Fixed pure-Python work (tuples, dicts, str), independent of dtlab.

    Returns its wall time.  The machine's speed drifts; this loop slows
    down with it.
    """
    t0 = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    digits = 0
    for i in range(REF_ITERATIONS):
        key = (i & 255, i % 7)
        counts[key] = counts.get(key, 0) + 1
        digits += len(str(i))
    sorted(counts.items())
    return time.perf_counter() - t0


class Clock:
    """Times work between two reference loops, to cancel machine speed drift.

    The raw wall time of a timing is kept, and so is the normalised time,
    ``raw * REF_SECONDS / mean(reference before, reference after)``: the
    seconds the work takes on a machine where the reference loop takes
    ``REF_SECONDS``.  On a host whose speed swings by 1.5x for minutes at
    a time, raw medians of separate runs spread by 30%; normalised ones
    by a few percent.
    """

    def __init__(self):
        self.last_ref = reference_loop()
        self.raw: list[float] = []
        self.normalised: list[float] = []
        self.refs: list[float] = []

    def time(self, fn):
        gc.collect()
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        ref_after = reference_loop()
        ref = (self.last_ref + ref_after) / 2
        self.last_ref = ref_after
        self.raw.append(raw)
        self.normalised.append(raw * REF_SECONDS / ref)
        self.refs.append(ref)
        return result


def environment() -> dict:
    """What a wall time depends on, recorded with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((W.SRC / "dtlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "dtlab_commit": _git_commit(),
        "dtlab_source_sha256": src.hexdigest(),
        "comparable": "wall times and rates only on the same machine; "
        "counts (*.calls, closure.members, explorer.members_seen, verify.checked) exactly anywhere",
    }


def _git_commit() -> str:
    git = W.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Run:
    """State of one benchmark run: inputs, answers checked, failures."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.variant = W.variant_of(seed)
        expected = W.load_expected()
        if expected.get("pool") != W.POOL:
            raise W.BenchError("expected.json was frozen for another variant pool")
        self.expected = expected["workloads"][workload][self.variant]
        self.setup_clock = Clock()
        for _ in range(SETUPS):
            self.dt, self.inputs = self.setup_clock.time(self.setup)
        self.attempted = 0
        self.failed = 0
        self.items = None
        self.digests = None
        self.mismatched_digests = False

    def setup(self):
        dt = W.import_dtlab()
        return dt, W.build_inputs(self.workload, self.variant, dt)

    def timed_pass(self, clock: Clock, inputs=None) -> None:
        """One closed-loop pass timed on ``clock``; answers are checked after."""
        inputs = self.inputs if inputs is None else inputs
        calls = clock.time(lambda: W.run_pass(self.workload, inputs, self.dt))
        failed, digests = W.count_failures(calls, self.expected)
        self.attempted += max(len(calls), len(self.expected))
        self.failed += failed
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            self.mismatched_digests = True
        self.items = W.pass_items(self.workload, calls)


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    run.timed_pass(Clock())  # warm-up: checked, not reported
    clock = Clock()
    t_end = time.perf_counter() + seconds
    while len(clock.raw) < MIN_PASSES or time.perf_counter() < t_end:
        run.timed_pass(clock)
    wall = statistics.median(clock.normalised)
    metrics = {
        "setup_s": statistics.median(run.setup_clock.normalised),
        "wall_s": wall,
        "items_per_s": run.items / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "passes": len(clock.raw),
        "raw_setup_s": statistics.median(run.setup_clock.raw),
        "raw_wall_s": statistics.median(clock.raw),
        "reference_loop_s": statistics.median(clock.refs),
    }
    return metrics, raw


def measure_traced(run: Run, seconds: float, spans_path: Path, header: str) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer metrics from the spans.

    A traced repetition rebuilds the inputs under the tracer too, so the
    generator layer (randgen) shows up, but only the pass is timed.  Span
    times and the trace.* walls are raw wall times.
    """
    run.timed_pass(Clock())
    tracer = tracing.Tracer()
    plain, traced = Clock(), Clock()
    t_end = time.perf_counter() + seconds
    while len(traced.raw) < MIN_PASSES or (len(traced.raw) < MAX_TRACED and time.perf_counter() < t_end):
        first_plain = len(traced.raw) % 2 == 0
        if first_plain:
            run.timed_pass(plain)
        tracer.run_id = len(traced.raw)
        tracer.install(run.dt)
        try:
            inputs = W.build_inputs(run.workload, run.variant, run.dt)
            run.timed_pass(traced, inputs)
        finally:
            tracer.uninstall()
        if not first_plain:
            run.timed_pass(plain)
    metrics = tracer.layer_medians()
    metrics["trace.traced_wall_s"] = statistics.median(traced.raw)
    metrics["trace.untraced_wall_s"] = statistics.median(plain.raw)
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    tracer.write(spans_path, header)
    return metrics, {"passes": len(plain.raw) + len(traced.raw)}


def run_workload(args) -> int:
    try:
        run = Run(args.workload, args.seed)
    except (W.BenchError, OSError, KeyError, ImportError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        header = "# " + json.dumps({"workload": args.workload, "seed": args.seed, "env": env})
        values, extra = measure_traced(run, args.seconds, OUT_DIR / f"spans-{args.workload}.tsv.gz", header)
        units = dict(tracing.layer_metrics())
    else:
        values, extra = measure(run, args.seconds)
        units = dict(E2E_METRICS)
    correct = run.failed == 0 and not run.mismatched_digests
    for name, unit in units.items():
        print(f"metric {name} = {values[name]!r} {unit}")
    print(f"error_rate = {run.failed / run.attempted!r} ({run.failed} of {run.attempted} calls failed)")
    for name, value in extra.items():
        print(f"{name} = {value!r}")
    print(f"items per pass = {run.items}; variant = {run.variant}")
    if run.mismatched_digests:
        print("answers differ between passes (traced vs untraced or pass to pass)")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, env=env,
                  error_rate=run.failed / run.attempted, **extra)
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, one at a time."""
    rows = []
    for name in W.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    print("\nworkload  metric                         value  unit")
    for name, result in rows:
        for metric, v in result["metrics"].items():
            print(f"{name:<9} {metric:<28} {v['value']:>12.6g}  {v['unit']}")
        print(f"{name:<9} {'error_rate':<28} {result['failed'] / result['attempted']:>12.6g}  ratio")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
