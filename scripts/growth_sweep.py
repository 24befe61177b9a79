#!/usr/bin/env python3
"""Sweep the planted growth scenarios and write plot-ready CSVs.

Usage: python scripts/growth_sweep.py [out_dir]

Produces one CSV per (scenario, growth function) plus a summary text
file, and prints each report.  The planted scenarios have known exact
answers, so this doubles as a quick end-to-end smoke run.
"""

import argparse
import sys
from pathlib import Path

from dtlab.closure import enumerate_closure
from dtlab.constructions import (
    identity_table,
    single_attribute_generators,
    unit_rows_family,
)
from dtlab.explorer import growth
from dtlab.measures import depth


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument(
        "out_dir", nargs="?", type=Path, default=Path("growth_out"),
        help="directory for the CSVs and summary.txt (default: growth_out)",
    )
    out_dir = parser.parse_args().out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []

    # one closure walk per generator set, shared by its growth functions
    staircase = [identity_table(m) for m in range(1, 6)]
    enum = enumerate_closure(staircase)
    for fn in ("FW", "FTheta", "G"):
        reports.append(
            growth(fn, staircase, depth(), max_n=5, generator_label="staircase<=5", enumeration=enum)
        )

    gens, measure = single_attribute_generators({2, 5, 9})
    enum = enumerate_closure(gens)
    for fn in ("FW", "FTheta"):
        reports.append(
            growth(fn, gens, measure, max_n=12, generator_label="steps(2,5,9)", enumeration=enum)
        )

    phi = (0, 1, 4, 9, 16)
    members = [unit_rows_family(phi, n) for n in range(1, len(phi))]
    reports.append(
        growth(
            "F",
            [m.table for m in members],
            members[-1].measure,
            max_n=len(phi) - 1,
            generator_label=f"unit-rows phi={phi}",
        )
    )

    summary = []
    for report in reports:
        stem = f"{report.fn}_{report.generator_label}".replace(" ", "")
        stem = "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in stem)
        (out_dir / f"{stem}.csv").write_text(report.as_csv(), encoding="utf-8")
        print(report.as_text())
        summary.append(report.as_text())
    (out_dir / "summary.txt").write_text("\n".join(summary), encoding="utf-8")
    print(f"wrote {len(reports)} reports to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
