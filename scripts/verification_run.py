#!/usr/bin/env python3
"""Full verification sweep: exhaustive + sampled, all four suites.

Usage: python scripts/verification_run.py [--quick]

Exits nonzero if any suite reports a finding.  --quick shrinks the
sampled streams for a fast sanity pass.
"""

import argparse
import sys
import time

from dtlab.verify import VerifySuiteConfig, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument(
        "--quick", action="store_true", help="shrink the sampled streams for a fast sanity pass"
    )
    quick = parser.parse_args().quick
    samples = 100 if quick else 1000
    rounds = 25 if quick else 100
    configs = [
        VerifySuiteConfig(suite="lemmas", k=2, max_cols=3, max_rows=4, samples=0),
        VerifySuiteConfig(
            suite="lemmas", k=3, max_cols=3, max_rows=8, samples=samples, seed=20260810
        ),
        VerifySuiteConfig(suite="dp-oracle", k=2, max_cols=3, max_rows=4, samples=0),
        VerifySuiteConfig(
            suite="dp-oracle", k=3, max_cols=3, max_rows=8, samples=max(200, samples // 5),
            seed=20260810,
        ),
        VerifySuiteConfig(
            suite="constructions", k=2, max_cols=4, max_rows=8, samples=rounds, seed=99
        ),
        VerifySuiteConfig(suite="growth"),
    ]
    failed = False
    for config in configs:
        start = time.monotonic()
        report = run_suite(config)
        elapsed = time.monotonic() - start
        print(f"[{elapsed:6.1f}s] {report.as_text()}")
        failed = failed or not report.passed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
