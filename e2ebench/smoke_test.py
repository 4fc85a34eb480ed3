#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

    python3 e2ebench/smoke_test.py

Runs every workload run.py knows (those of BENCHMARK.json and the ungated
`sparse_churn` baseline) at smoke scale on seed 2 (not the default seed),
untraced and traced, and checks that each run passes its
digest gates and prints every metric BENCHMARK.json names, in the text
lines and in the final JSON object. Also checks that the digest gate
rejects a repetition that does not reproduce its reference. Takes about a
minute.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SEED = 2


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def run_once(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd[1:])} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_gate_rejects_mismatch():
    reference = {"digests": "9-c-d 3-a-b", "docs": [20, 10], "failed": 0}
    rep = {"digest": "9-c-d", "checkpoint_digests": "9-c-d 3-a-c", "ts_lost": 0, "matches": 9}
    if run.check("gate-test", reference, [rep]):
        fail("the digest gate accepted a repetition that differs from its reference")
    if run.check("gate-test", reference, [dict(rep, checkpoint_digests="9-c-d")]):
        fail("the digest gate accepted a repetition that skipped a reference")
    if not run.check("gate-test", reference, [dict(rep, checkpoint_digests="9-c-d 3-a-b")]):
        fail("the digest gate rejected a matching repetition")


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }
    if expected[0] != run.END_TO_END or expected[1] != run.PER_LAYER:
        fail("BENCHMARK.json and run.py name different metrics")
    check_gate_rejects_mismatch()
    if not {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS):
        fail("BENCHMARK.json names a workload run.py does not know")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            lines, result = run_once(workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                fail(f"{workload}: {result}")
            if [(k, v["unit"]) for k, v in result["metrics"].items()] != expected[trace]:
                fail(f"{workload} trace {trace}: metrics {list(result['metrics'])}")
            printed = {line.split()[0] for line in lines[:-1] if line.split()}
            missing = [name for name, _ in expected[trace] if name not in printed]
            if missing:
                fail(f"{workload} trace {trace}: not printed: {missing}")
            print(f"ok {workload} trace {trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations")
    print("smoke test passed")


if __name__ == "__main__":
    main()
