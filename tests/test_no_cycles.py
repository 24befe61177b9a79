"""Solvers and validators leave no reference cycles behind.

A call that leaves a cycle keeps its memo, trees and paths alive until
the cyclic garbage collector runs; with the collector off, everything a
call drops must be freed by reference counting alone.
"""

import gc

from dtlab.measures import depth, sum_of
from dtlab.randgen import SplitMix64, random_table
from dtlab.solvers import det_tree_cost, det_tree_cost_bruteforce, parameter_report
from dtlab.trees import (
    attributes_of,
    complete_paths,
    format_tree,
    parse_tree,
    validate_deterministic,
    validate_strongly_nondeterministic,
)
from dtlab.verify import VerifySuiteConfig, lemma_findings, run_suite, standard_measures


def test_solvers_and_validators_leave_no_cycles():
    measures = [m for _, m in standard_measures()]
    measures.append(sum_of(measures[2], depth()))
    rng = SplitMix64(20261018)
    tables = []
    for _ in range(12):
        k = 2 + rng.below(2)
        cols = 1 + rng.below(4)
        tables.append(random_table(k, cols, 1 + rng.below(min(8, k**cols)), seed=rng))
    gc.collect()
    gc.disable()
    try:
        for measure in measures:
            for table in tables:
                report = parameter_report(measure, table)
                _, tree = det_tree_cost(measure, table)
                det_tree_cost_bruteforce(measure, table)
                validate_deterministic(tree, table)
                if report.snd_tree is not None:
                    validate_strongly_nondeterministic(report.snd_tree, table)
                complete_paths(tree)
                attributes_of(tree)
                parse_tree(format_tree(tree), tree.k).node_count()
                lemma_findings(measure, table)
        # a suite builds and drops its own measure bundle, with their subset orders
        run_suite(VerifySuiteConfig("lemmas", max_cols=2, max_rows=3))
        assert gc.collect() == 0
    finally:
        gc.enable()
