"""Self-check of the benchmark at tiny input sizes.

    python3 perfbench/selfcheck.py

Run from the repository root.  Checks that every workload, traced and
untraced, emits exactly the metrics BENCHMARK.json declares, with their
units, and passes its gates; that a corrupted pruned output is caught by
the gates; and that a document whose pruning fails makes the run incorrect.  Exits 1 with a message on the first failed check.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile

import run

SCALE = 0.02


def fail(message: str) -> None:
    print(f"selfcheck: {message}", file=sys.stderr)
    sys.exit(1)


def check_metrics(root: str, spec: dict) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            result, failures = run.run(workload, 1, 0.05, trace, root, SCALE)
            label = f"{workload} trace={int(trace)}"
            if failures or not result["correct"] or result["failed"]:
                fail(f"{label}: gates {failures}, {result['failed']} failed operations")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            if emitted != declared:
                missing = sorted(set(declared) - set(emitted))
                extra = sorted(set(emitted) - set(declared))
                wrong = sorted(n for n in declared if n in emitted and emitted[n] != declared[n])
                fail(f"{label}: missing {missing}, undeclared {extra}, wrong unit {wrong}")
            print(f"selfcheck: {label}: {len(emitted)} metrics ok")


@contextlib.contextmanager
def prepared(root: str, workload: str):
    """A runner for a workload at tiny size, its inputs written and set up."""
    P = run.load_program(root)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=out_dir)
    try:
        runner = run.Runner(P, run.build_workload(workload, 1, SCALE, workdir), workdir)
        runner.prepare()
        yield runner
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_corruption_caught(root: str) -> None:
    with prepared(root, "xmark-batch") as runner:
        for kind in run.KINDS:
            for i in range(runner.size(kind)):
                runner.op(kind, i)
        if runner.check(1):
            fail(f"clean run fails its gates: {runner.check(1)}")
        original = runner.stream_out[0]
        runner.stream_out[0] = original.replace("</name>", "x</name>", 1)
        if runner.stream_out[0] == original:
            fail("the sample output has no <name> element to corrupt")
        failures = runner.check(1)
        if not failures:
            fail("a corrupted pruned output passed every gate")
        print(f"selfcheck: corrupted output caught by {len(failures)} gate(s)")


def check_failure_caught(root: str) -> None:
    """One stream document is cut short, so the CLI prune of it exits 1 on
    every repetition while the other documents and operations succeed."""
    with prepared(root, "deep-select") as runner:
        broken = len(runner.wl.stream_docs) - 1
        with open(runner.wl.stream_docs[broken].path, "r+b") as fh:
            fh.truncate(len(runner.wl.stream_docs[broken].data) // 2)
        metrics = run.measure(runner, 0.05)
        failures = runner.check(1)
        if not any(f.startswith(f"stream doc{broken}:") for f in failures):
            fail(f"a document whose pruning always fails passed the gates: {failures}")
        if not runner.failed or any(sum(runner.bad[k]) for k in ("setup", "tree", "infer")):
            fail(f"expected failures in stream operations only: {runner.bad}")
        stream_ok = 1 - 1 / len(runner.wl.stream_docs)
        if metrics["ok_frac"][0] > stream_ok:
            fail(f"ok_frac {metrics['ok_frac'][0]} hides a failing stream document")
        print(f"selfcheck: failed document caught, ok_frac {metrics['ok_frac'][0]:.3f}")


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_metrics(root, spec)
    check_corruption_caught(root)
    check_failure_caught(root)
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
