"""Fuzz ``cli.main``: any argv over a small vocabulary, run against fuzzed
input files, exits 0, 1 or 2 and never raises.

Each subcommand draws a well-shaped argv most of the time, so the fuzzer
reaches the solvers, and sometimes a token soup, so it reaches argparse's
own errors (``SystemExit(2)``).  Integer flags stay at or below 2, and
the flags with a large default (``--limit``, ``--limit-tables``) are
always given, so every example finishes in milliseconds.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dtlab.cli import main
from dtlab.measures import format_measure
from dtlab.tables import format_table

from conftest import measures_st, tables_st
from test_parser_fuzz import MEASURE_VOCAB, TREE_VOCAB


def soup(vocab, sep=" "):
    tokens = st.one_of(st.sampled_from(vocab), st.integers(-1, 2).map(str), st.text(max_size=3))
    return st.lists(tokens, max_size=30).map(sep.join)


TABLE_TOKENS = ["k", "attrs", "row", "f0", "f1", "f2", "#", "\n", "x"]
FILES = ["t.dt", "m.cm", "x.tree", "missing.dt", "gens", "."]
MEASURES = ["depth", "h", "m.cm", "t.dt", "x.tree", "missing.cm", "sum:m.cm,h", "max:h,m.cm", "sum:", ""]

ints = st.integers(-2, 2).map(str)
files = st.one_of(st.just("t.dt"), st.sampled_from(FILES))  # mostly the fuzzed table
measures = st.one_of(st.just("m.cm"), st.sampled_from(MEASURES))


def opt(*parts):
    """The flag and its drawn value, or nothing."""
    return st.one_of(st.just([]), st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts)).map(list))


def argv(*parts):
    return st.tuples(*parts).map(lambda groups: [t for g in groups for t in g])


def one(*parts):
    return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts)).map(list)


CONSTRUCT = st.one_of(
    argv(one("lemma12", files), opt("-m", measures), one("-o", "out.dt")),
    argv(one(st.sampled_from(["lemma13", "lemma14"]), files, "-o", "out.dt")),
    argv(
        one("isolate", files, "--row", st.sampled_from(["0,1,1", "1,1,0", "1", "", "a", "0,0"])),
        opt("-m", measures),
        one("-o", "out.dt"),
    ),
    argv(one("fig5", "--phi", st.sampled_from(["0,1,4", "0", "", "1,0", "0,2,2,5", "x"]), "--n", ints,
             "-o", "out.dt", "--out-measure", "out.cm")),
    argv(one("thresholds", "--thresholds", st.sampled_from(["1,2", "", "2,1", "0", "-1,3"]),
             "-o", "out.dt"),
         opt("--nu", st.sampled_from(["xor", "or", "and", "const0", "const1", "bits:01", "bits:2", "bits:", "no"]))),
    argv(one("gens", "--set", st.sampled_from(["1,2", "", "0", "-1", "2,2", "1,x"]), "--out-dir", "gdir")),
)

GENERATORS = ["builtin:id2", "builtin:id0", "builtin:thm3:1,2", "builtin:thm3:", "builtin:unitrows:0,1",
              "builtin:unitrows:", "builtin:idx", "gens", "missing"]

COMMANDS = {
    "params": argv(one("params", files), opt("-m", measures), opt("--kv")),
    "tree": argv(
        one("tree", st.sampled_from(["det", "snd", "both"]), files), opt("-m", measures), opt("-o", "out.tree")
    ),
    "closure": argv(
        one("closure", files, "--out", "cdir", "--limit", ints), opt("--max-cols", ints), opt("--max-rows", ints)
    ),
    "construct": CONSTRUCT.map(lambda rest: ["construct", *rest]),
    "explore": argv(
        one("explore", "--fn", st.sampled_from(["FW", "FTheta", "F", "G", "H"]), "--gen",
            st.sampled_from(GENERATORS), "--max-n", ints, "--limit-tables", ints),
        opt("-m", measures),
        opt("--csv", "out.csv"),
    ),
    "verify": argv(
        one("verify", "--suite", st.sampled_from(["lemmas", "dp-oracle", "constructions", "growth", "none"]),
            "--max-cols", ints, "--max-rows", ints, "--dump-dir", "dump"),
        opt("--k", ints),
        opt("--samples", ints),
        opt("--seed", ints),
        opt("-m", measures),
    ),
}

ARGV_VOCAB = sorted({"--kv", "-m", "-o", "--out", "--limit", "--fn", "--gen", "--max-n", "--suite", "det",
                     "FW", "lemmas", *COMMANDS, *FILES, *MEASURES})


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@given(
    data=st.data(),
    table_text=st.one_of(tables_st(max_cols=3, max_rows=5).map(format_table), soup(TABLE_TOKENS)),
    measure_text=st.one_of(measures_st(max_attr=3).filter(lambda m: m.kind in ("depth", "additive", "maxw"))
                           .map(format_measure), soup(MEASURE_VOCAB)),
    tree_text=st.one_of(st.just("(root (f0 (0 (leaf 0)) (1 (leaf 1))))"), soup(TREE_VOCAB)),
)
def test_main_exits_0_1_or_2(base_dir, command, data, table_text, measure_text, tree_text):
    args = data.draw(st.one_of(
        COMMANDS[command],
        st.lists(st.sampled_from(ARGV_VOCAB), max_size=8).map(lambda rest: [command, *rest]),
    ))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(dir=base_dir) as work:
        os.chdir(work)
        try:
            for name, text in [("t.dt", table_text), ("m.cm", measure_text), ("x.tree", tree_text)]:
                with open(name, "w", encoding="utf-8") as fh:
                    fh.write(text)
            os.mkdir("gens")
            with open("gens/g.dt", "w", encoding="utf-8") as fh:
                fh.write(table_text)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                try:
                    code = main(args)
                except SystemExit as exc:  # argparse rejects the argv
                    code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2), (args, out.getvalue())
