"""The benchmark's self-check passes against the package in ``src``: every
workload emits the metrics BENCHMARK.json declares and passes its gates, so
a change to the projector, the CLI's stderr lines or projector files that
the benchmark reads shows up here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck():
    done = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith("selfcheck: ok\n")
