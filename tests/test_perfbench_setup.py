"""The benchmark's set-up still finds the private tables it warms.

``perfbench/worker.py`` imports ``groups._tables`` and ``gray._offsets``;
its ``--setup-only`` mode imports the package, builds the fixtures and warms
those tables, and prints one JSON line.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_setup_only_runs():
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["setup_s"] > 0
