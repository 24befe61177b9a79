"""CLI outputs pinned byte for byte to the transcripts in tests/golden/.

Each case runs ``dtlab.cli.main`` (or a script under ``scripts/``) in a
fresh directory holding copies of ``data/example.dt`` and
``data/weights.cm``, so every echoed path is relative and stable.  A
transcript holds the command, its exit code, stdout, stderr and every
file it writes.  The transcripts were captured from a known-good
checkout, never from the code under test; they pin the README tour on
the worked example, the README ``dt closure``, ``dt explore`` and
``dt verify`` runs, a truncated ``dt closure`` and
``scripts/growth_sweep.py``.
"""

import contextlib
import io
import os
import runpy
import shutil
import sys
from pathlib import Path

import pytest

from dtlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = ("example.dt", "weights.cm")

# name -> dt arguments
CASES = {
    "params": "params data/example.dt",
    "params-kv": "params data/example.dt --kv",
    "params-weights": "params data/example.dt -m data/weights.cm",
    "params-weights-kv": "params data/example.dt -m data/weights.cm --kv",
    "tree-det": "tree det data/example.dt",
    "tree-det-weights": "tree det data/example.dt -m data/weights.cm",
    "tree-det-output": "tree det data/example.dt -o opt.tree",
    "tree-snd": "tree snd data/example.dt",
    "tree-snd-weights": "tree snd data/example.dt -m data/weights.cm",
    "construct-lemma12": "construct lemma12 data/example.dt -o tight.dt",
    "construct-lemma12-weights": "construct lemma12 data/example.dt -m data/weights.cm -o tight.dt",
    "construct-lemma14": "construct lemma14 data/example.dt -o star.dt",
    "construct-isolate": "construct isolate data/example.dt --row 1,1,0 -o lone.dt",
    "construct-isolate-weights": (
        "construct isolate data/example.dt --row 0,0,1 -m data/weights.cm -o lone.dt"
    ),
    "explore-fw": "explore --fn FW --gen builtin:thm3:2,5,9 --max-n 10 --csv fw.csv",
    "explore-g": "explore --fn G --gen builtin:id5 --max-n 5",
    "explore-f": "explore --fn F --gen builtin:unitrows:0,1,4,9 --max-n 3",
    "verify-growth": "verify --suite growth",
    "verify-lemmas": "verify --suite lemmas --k 2 --max-cols 3 --max-rows 4",
    "closure": "closure data/example.dt --out D --limit 10000",
    "closure-limited": "closure data/example.dt --out D --limit 37 --max-rows 3",
}
SWEEP = "growth-sweep"  # python scripts/growth_sweep.py sweep


def run_sweep(argv: list[str]) -> int:
    saved = sys.argv
    sys.argv = [str(ROOT / "scripts" / "growth_sweep.py"), *argv]
    try:
        runpy.run_path(sys.argv[0], run_name="__main__")
    except SystemExit as exc:
        return exc.code
    finally:
        sys.argv = saved
    return 0


def transcript(workdir: Path, name: str) -> str:
    """The exit code, stdout, stderr and written files of case ``name``,
    run with ``workdir`` as the current directory."""
    if name == SWEEP:
        command, run, argv = "python scripts/growth_sweep.py", run_sweep, ["sweep"]
    else:
        command, run, argv = "dt", main, CASES[name].split()
    (workdir / "data").mkdir()
    for f in INPUTS:
        shutil.copy(ROOT / "data" / f, workdir / "data" / f)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        os.chdir(cwd)
    parts = [f"$ {command} {' '.join(argv)}", f"exit {code}", "--- stdout", out.getvalue()]
    parts += ["--- stderr", err.getvalue()]
    written = sorted(p for p in workdir.rglob("*") if p.is_file() and p.parent != workdir / "data")
    for path in written:
        rel = path.relative_to(workdir).as_posix()
        parts += [f"--- file {rel}", path.read_text(encoding="utf-8")]
    return "\n".join(parts)


@pytest.mark.parametrize("name", [*CASES, SWEEP])
def test_output_matches_golden(tmp_path, name):
    want = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert transcript(tmp_path, name) == want
