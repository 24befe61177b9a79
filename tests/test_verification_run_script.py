"""Smoke run of scripts/verification_run.py --quick: every suite runs on
its full input count and reports no finding."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_verification_run_quick():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "verification_run.py"), "--quick"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
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
