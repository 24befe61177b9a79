"""Smoke run of scripts/verification_run.py --quick: every suite runs on
its full input count and reports no finding."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "verification_run.py"), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_verification_run_quick():
    done = run_script("--quick")
    assert done.returncode == 0, done.stdout + done.stderr
    suites = re.findall(r"suite (\S+): checked (\d+) inputs, (\d+) finding\(s\)", done.stdout)
    assert suites == [
        ("lemmas", "1785", "0"),
        ("lemmas", "100", "0"),
        ("dp-oracle", "1785", "0"),
        ("dp-oracle", "200", "0"),
        ("constructions", "125", "0"),
        ("growth", "9", "0"),
    ]


def test_verification_run_help():
    done = run_script("--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: verification_run.py [-h] [--quick]")
    assert "checked" not in done.stdout  # no suite ran


def test_verification_run_unknown_argument_exits_2():
    # a misspelt --quick must not fall through to the full sweep
    done = run_script("--quik")
    assert done.returncode == 2
    assert "unrecognized arguments: --quik" in done.stderr
    assert done.stdout == ""
