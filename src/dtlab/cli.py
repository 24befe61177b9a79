"""Command line interface.

Subcommands::

    dt params <t.dt> [-m <measure>] [--kv]
    dt tree det|snd <t.dt> [-m <measure>] [-o out.tree]
    dt closure <t.dt> --out DIR [--limit N] [--max-cols C] [--max-rows R]
    dt construct lemma12|lemma13|lemma14|isolate|fig5|thresholds|gens ...
    dt explore --fn FW|FTheta|F|G --gen <dir|builtin:...> [-m <measure>] ...
    dt verify --suite lemmas|dp-oracle|constructions|growth ...

Measure specs: ``depth`` (or ``h``), a ``.cm`` path, or ``sum:a.cm,b.cm``
/ ``max:a.cm,b.cm``.  Exit codes: 0 success, 1 verification failure,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import constructions, verify
from .closure import ClosureLimits, enumerate_closure, nu_bits
from .explorer import GROWTH_FUNCTIONS, growth
from .measures import (
    ComplexityMeasure,
    depth,
    load_measure_spec,
    save_measure,
)
from .solvers import det_tree_cost, parameter_report, snd_tree_cost
from .tables import DtError, load_table, save_table
from .trees import format_tree, save_tree


def _measure_arg(spec: str | None) -> ComplexityMeasure:
    return depth() if spec is None else load_measure_spec(spec)


def _int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p != ""]


# ---------------------------------------------------------------------------
# params


def _cmd_params(args) -> int:
    table = load_table(args.table)
    measure = _measure_arg(args.measure)
    report = parameter_report(measure, table)
    if args.kv:
        print(f"k={report.k}")
        for key, value in report.values().items():
            print(f"{key}={value}")
        print(f"consistent={'yes' if report.consistent else 'no'}")
    else:
        rows = [
            ("table", str(args.table)),
            ("k", str(report.k)),
            ("measure", report.measure),
            ("rows", str(report.rows)),
            ("columns", str(report.columns)),
            ("attr-set-cost", str(report.attr_set_cost)),
            ("max-attr-cost", str(report.max_attr_cost)),
            ("min-test-cost", str(report.min_test_cost)),
            ("separation-cost", str(report.separation_cost)),
            ("closure-sep-cost", str(report.closure_separation_cost)),
            ("fixing-cost", str(report.fixing_cost)),
            ("det-tree-cost", str(report.det_cost)),
            ("snd-tree-cost", str(report.snd_cost)),
            ("test-witness", " ".join(a.name for a in report.test_witness) or "-"),
            (
                "worst-tuple",
                " ".join(map(str, report.worst_tuple)) if report.worst_tuple else "-",
            ),
            ("consistent", "yes" if report.consistent else "no"),
        ]
        width = max(len(k) for k, _ in rows)
        for key, value in rows:
            print(f"{key:<{width}}  {value}")
    if not report.consistent:
        print("failed checks: " + ", ".join(report.failed_checks), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# tree witnesses


def _cmd_tree(args) -> int:
    table = load_table(args.table)
    measure = _measure_arg(args.measure)
    if args.kind == "det":
        cost, tree = det_tree_cost(measure, table)
    else:
        cost, tree = snd_tree_cost(measure, table)
    print(f"cost {cost}")
    if tree is None:
        print("no tree witness (empty or constant table)")
        return 0
    if args.output:
        save_tree(tree, args.output)
        print(f"wrote {args.output}")
    else:
        print(format_tree(tree))
    return 0


# ---------------------------------------------------------------------------
# closure


def _cmd_closure(args) -> int:
    table = load_table(args.table)
    limits = ClosureLimits(
        max_tables=args.limit, max_columns=args.max_cols, max_rows=args.max_rows
    )
    enum = enumerate_closure([table], limits)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    index_lines = [
        f"# closure of {args.table}",
        f"# members {len(enum.members)} exhausted {'yes' if enum.exhausted else 'no'}",
    ]
    starts = {b.start: b for b in enum.bases}
    base = None
    for i, member in enumerate(enum.members):
        base = starts.get(i, base)
        name = f"{i:04d}.dt"
        save_table(member, outdir / name)
        removed = ",".join(a.name for a in base.removed) or "-"
        nu = nu_bits(member) or "-"
        index_lines.append(
            f"{i} {name} gen={base.generator_index} removed={removed} "
            f"nu={nu} key={member.key}"
        )
    (outdir / "index.txt").write_text("\n".join(index_lines) + "\n", encoding="utf-8")
    print(
        f"wrote {len(enum.members)} member(s) to {outdir} "
        f"(exhausted: {'yes' if enum.exhausted else 'no'})"
    )
    return 0


# ---------------------------------------------------------------------------
# constructions


_NU_NAMES = {
    "xor": lambda row: sum(row) % 2,
    "or": lambda row: 1 if any(row) else 0,
    "and": lambda row: 1 if all(row) else 0,
    "const0": lambda row: 0,
    "const1": lambda row: 1,
}


def _nu_arg(spec: str):
    if spec in _NU_NAMES:
        return _NU_NAMES[spec]
    if spec.startswith("bits:"):
        bits = spec[len("bits:"):]

        def nu(row, bits=bits):
            j = sum(row)
            if j >= len(bits) or bits[j] not in "01":
                raise DtError(
                    f"bits labeling {bits!r} needs one 0/1 digit per step pattern"
                )
            return int(bits[j])

        return nu
    raise DtError(f"unknown labeling {spec!r}; use one of {sorted(_NU_NAMES)} or bits:<s>")


def _cmd_construct(args) -> int:
    if args.what == "lemma12":
        table = load_table(args.table)
        out = constructions.separation_tight_table(_measure_arg(args.measure), table)
        save_table(out, args.output)
    elif args.what == "lemma13":
        table = load_table(args.table)
        _, out = constructions.adversarial_relabel(table)
        save_table(out, args.output)
    elif args.what == "lemma14":
        table = load_table(args.table)
        out = constructions.critical_core_relabel(table)
        save_table(out, args.output)
    elif args.what == "isolate":
        table = load_table(args.table)
        row = tuple(_int_list(args.row))
        out = constructions.isolate_row(_measure_arg(args.measure), table, row)
        save_table(out, args.output)
    elif args.what == "fig5":
        phi = _int_list(args.phi)
        fam = constructions.unit_rows_family(phi, args.n)
        save_table(fam.table, args.output)
        save_measure(fam.measure, args.out_measure)
        mult, rem = fam.decomposition
        print(f"phi({args.n}) = {mult}*{args.n} + {rem}")
    elif args.what == "thresholds":
        system = constructions.ThresholdSystem(
            tuple(_int_list(args.thresholds)), _nu_arg(args.nu)
        )
        save_table(constructions.threshold_table(system), args.output)
    elif args.what == "gens":
        tables, measure = constructions.single_attribute_generators(_int_list(args.set))
        outdir = Path(args.out_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for t in tables:
            save_table(t, outdir / f"gen_{t.columns[0].name}.dt")
        save_measure(measure, outdir / "measure.cm")
        print(f"wrote {len(tables)} generator(s) and measure.cm to {outdir}")
        return 0
    else:
        raise DtError(f"unknown construction {args.what!r}")
    print(f"wrote {args.output}")
    return 0


# ---------------------------------------------------------------------------
# explore


def _scenario_generators(spec: str):
    """Resolve --gen: a directory of .dt files or a builtin scenario.

    Builtins: ``builtin:idN`` (staircase family through N),
    ``builtin:thm3:I,J,...`` (single-attribute generators, bundled
    measure), ``builtin:unitrows:P0,P1,...`` (tuned staircase family, bundled
    measure).
    """
    if spec.startswith("builtin:id"):
        top = int(spec[len("builtin:id"):])
        return [constructions.identity_table(m) for m in range(1, top + 1)], None
    if spec.startswith("builtin:thm3:"):
        indices = _int_list(spec[len("builtin:thm3:"):])
        return constructions.single_attribute_generators(indices)
    if spec.startswith("builtin:unitrows:"):
        phi = _int_list(spec[len("builtin:unitrows:"):])
        members = [constructions.unit_rows_family(phi, n) for n in range(1, len(phi))]
        if not members:
            raise DtError(f"{spec!r} needs phi tabulated through at least n=1")
        return [m.table for m in members], members[-1].measure
    paths = sorted(Path(spec).glob("*.dt"))
    if not paths:
        raise DtError(f"no .dt files in {spec!r}")
    return [load_table(p) for p in paths], None


def _cmd_explore(args) -> int:
    generators, bundled = _scenario_generators(args.gen)
    if args.measure:
        measure = load_measure_spec(args.measure)
    elif bundled is not None:
        measure = bundled
    else:
        measure = depth()
    limits = ClosureLimits(max_tables=args.limit_tables)
    report = growth(
        args.fn,
        generators,
        measure,
        max_n=args.max_n,
        limits=limits,
        generator_label=args.gen,
    )
    print(report.as_text(), end="")
    if args.csv:
        Path(args.csv).write_text(report.as_csv(), encoding="utf-8")
        print(f"wrote {args.csv}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    measures = tuple(
        (spec, load_measure_spec(spec)) for spec in (args.measure or [])
    )
    config = verify.VerifySuiteConfig(
        suite=args.suite,
        k=args.k,
        max_cols=args.max_cols,
        max_rows=args.max_rows,
        samples=args.samples,
        seed=args.seed,
        measures=measures,
    )
    report = verify.run_suite(config)
    print(report.as_text(), end="")
    if not report.passed:
        dump_dir = Path(args.dump_dir)
        dump_dir.mkdir(parents=True, exist_ok=True)
        for i, finding in enumerate(report.findings):
            if finding.table is not None:
                path = dump_dir / f"counterexample_{i:03d}.dt"
                save_table(finding.table, path)
                print(f"dumped {path}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dt",
        description="Exact decision-table parameters, closures, constructions, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="all parameters of a table, with witnesses")
    p.add_argument("table")
    p.add_argument("-m", "--measure", default=None)
    p.add_argument("--kv", action="store_true", help="machine readable key=value lines")
    p.set_defaults(handler=_cmd_params)

    p = sub.add_parser("tree", help="cheapest tree witness for a table")
    p.add_argument("kind", choices=("det", "snd"))
    p.add_argument("table")
    p.add_argument("-m", "--measure", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(handler=_cmd_tree)

    p = sub.add_parser("closure", help="enumerate the closure of a table into a directory")
    p.add_argument("table")
    p.add_argument("--out", required=True)
    p.add_argument("--limit", type=int, default=100_000)
    p.add_argument("--max-cols", type=int, default=None)
    p.add_argument("--max-rows", type=int, default=None)
    p.set_defaults(handler=_cmd_closure)

    p = sub.add_parser("construct", help="run a table construction")
    what = p.add_subparsers(dest="what", required=True)

    c = what.add_parser("lemma12", help="closure member tying tree, column, and separation costs")
    c.add_argument("table")
    c.add_argument("-m", "--measure", default=None)
    c.add_argument("-o", "--output", required=True)

    c = what.add_parser("lemma13", help="adversarial relabeling of a critical table")
    c.add_argument("table")
    c.add_argument("-o", "--output", required=True)

    c = what.add_parser("lemma14", help="critical core plus adversarial relabeling")
    c.add_argument("table")
    c.add_argument("-o", "--output", required=True)

    c = what.add_parser("isolate", help="closure member with one isolated 1-row")
    c.add_argument("table")
    c.add_argument("--row", required=True, help="comma separated row values")
    c.add_argument("-m", "--measure", default=None)
    c.add_argument("-o", "--output", required=True)

    c = what.add_parser("fig5", help="tuned staircase family member and measure")
    c.add_argument("--phi", required=True, help="comma separated values phi(0),phi(1),...")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("-o", "--output", required=True, help="table output path")
    c.add_argument("--out-measure", required=True, help="measure output path")

    c = what.add_parser("thresholds", help="step-pattern table of threshold attributes")
    c.add_argument("--thresholds", required=True, help="comma separated thresholds")
    c.add_argument("--nu", default="xor", help="xor|or|and|const0|const1|bits:<s>")
    c.add_argument("-o", "--output", required=True)

    c = what.add_parser("gens", help="single-attribute generators and their measure")
    c.add_argument("--set", required=True, help="comma separated positive indices")
    c.add_argument("--out-dir", required=True)

    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("explore", help="growth functions over an enumerated closure")
    p.add_argument("--fn", required=True, choices=GROWTH_FUNCTIONS)
    p.add_argument("--gen", required=True, help="directory of .dt files or builtin:...")
    p.add_argument("-m", "--measure", default=None)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--limit-tables", type=int, default=100_000)
    p.add_argument("--csv", default=None)
    p.set_defaults(handler=_cmd_explore)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=verify.SUITES)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--max-cols", type=int, default=3)
    p.add_argument("--max-rows", type=int, default=4)
    p.add_argument("--samples", type=int, default=0, help="0 means exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-m", "--measure", action="append", default=None)
    p.add_argument("--dump-dir", default=".")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DtError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
