"""Freeze the expected answer digests of every workload variant.

    python3 perfbench/freeze.py

Run once, at the commit that defines the benchmark, to write
``expected.json``.  Later commits are checked against that file; do not
regenerate it from code under measurement.  Refuses to freeze an answer
that flags itself as wrong (a raising call, an inconsistent report or a
failing suite).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402


def main() -> int:
    dt = W.import_dtlab()
    frozen = {"pool": W.POOL, "workloads": {}}
    for name in W.WORKLOADS:
        per_variant = []
        for v in range(W.POOL):
            calls = W.run_pass(name, W.build_inputs(name, v, dt), dt)
            bad = [c.kind for c in calls if not W.call_ok(c)]
            if bad:
                print(f"{name} variant {v}: calls flag themselves wrong: {bad}", file=sys.stderr)
                return 1
            per_variant.append([W.call_digest(c) for c in calls])
            print(f"{name} variant {v}: {len(calls)} calls", flush=True)
        frozen["workloads"][name] = per_variant
    W.EXPECTED_PATH.write_text(json.dumps(frozen, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
