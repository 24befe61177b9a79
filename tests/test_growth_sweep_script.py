"""Smoke run of scripts/growth_sweep.py: it writes one CSV per report and a
summary whose planted scenarios carry their known exact values."""

import os
import re
import subprocess
import sys
from pathlib import Path

from dtlab.explorer import StepFunction

ROOT = Path(__file__).resolve().parent.parent


def summary_values(text):
    """{(fn, generator label): [value at n = 0, 1, ...]} from summary.txt."""
    out = {}
    for block in text.strip().split("\n\n"):
        head, _, *rows = block.splitlines()
        fn, label = re.match(r"growth (\S+)\s+generators=(.+?)\s+measure=", head).groups()
        out[(fn, label)] = [int(r.split()[1]) for r in rows]
    return out


def run_script(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "growth_sweep.py"), *args],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_growth_sweep_script(tmp_path):
    done = run_script(str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert len(list(tmp_path.glob("*.csv"))) == 6
    values = summary_values((tmp_path / "summary.txt").read_text(encoding="utf-8"))
    staircase = list(range(6))
    steps = [StepFunction((2, 5, 9)).value(n) for n in range(13)]
    assert values == {
        ("FW", "staircase<=5"): staircase,
        ("FTheta", "staircase<=5"): staircase,
        ("G", "staircase<=5"): staircase,
        ("FW", "steps(2,5,9)"): steps,
        ("FTheta", "steps(2,5,9)"): steps,
        ("F", "unit-rows phi=(0, 1, 4, 9, 16)"): [0, 1, 4, 9, 16],
    }


def test_growth_sweep_help_writes_nothing(tmp_path):
    done = run_script("--help", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: growth_sweep.py")
    assert list(tmp_path.iterdir()) == []


def test_growth_sweep_unknown_argument_exits_2(tmp_path):
    done = run_script("--bogus", cwd=tmp_path)
    assert done.returncode == 2
    assert "unrecognized arguments: --bogus" in done.stderr
    assert list(tmp_path.iterdir()) == []
