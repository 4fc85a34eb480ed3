#!/usr/bin/env python3
"""End-to-end benchmark of the MMQJP engine: XML text in, matches delivered.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `e2ebench` worker from source, then for one workload:

1. runs the workload's reference engines on the same seeded input
   (`e2ebench verify`) to get the digests the measured runs must reproduce;
2. runs repetitions (`e2ebench rep`, one process each, so every repetition
   starts from a fresh heap and its own peak-RSS mark) until `--seconds` of
   them have run;
3. takes each batch and each subscription at the mean time the
   repetitions took for it and computes the timing metrics from those
   (see `typical`);
4. with `--trace 1`, alternates untraced and traced repetitions and reports
   the per-layer breakdown of the traced ones plus the tracing overhead.

Prints every metric as `name value unit`, then one JSON object as the last
line. Exits non-zero, without the JSON line, if the build or a repetition
fails; exits 1 after printing it if the digests disagree.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Set-ups per repetition (setup_s is the median of all set-ups) and the
# fewest untraced repetitions a run makes, whatever `--seconds` says.
WORKLOADS = {
    "rss_growing": {"setups": 20, "min_reps": 12},
    "sparse_churn": {"setups": 1, "min_reps": 6},
    "sparse_sharded": {"setups": 1, "min_reps": 6},
}

END_TO_END = [
    ("docs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("xml.parse_ms", "ms"),
    ("xml.mb_per_s", "MB/s"),
    ("xpath.stage1_ms", "ms"),
    ("xpath.patterns", "count"),
    ("ingest.ms", "ms"),
    ("stage2.rvj_ms", "ms"),
    ("stage2.rl_ms", "ms"),
    ("stage2.rr_ms", "ms"),
    ("stage2.conjunctive_ms", "ms"),
    ("stage2.materialize_ms", "ms"),
    ("stage2.rows_materialized", "count"),
    ("view_cache.hit_ratio", "ratio"),
    ("view_cache.invalidated", "count"),
    ("output.build_ms", "ms"),
    ("output.matches", "count"),
    ("deliver.consume_ms", "ms"),
    ("deliver.drop_ms", "ms"),
    ("state.maintenance_ms", "ms"),
    ("state.rows_resident", "count"),
    ("state.rows_evicted", "count"),
    ("state.docs_retained", "count"),
    ("registry.register_ms", "ms"),
    ("registry.unregister_ms", "ms"),
    ("registry.subscribe_p50_ms", "ms"),
    ("registry.templates", "count"),
    ("engine.call_ms", "ms"),
    ("engine.unaccounted_ms", "ms"),
    ("shard.busy_max_ms", "ms"),
    ("shard.skew", "ratio"),
    ("shard.coordination_ms", "ms"),
    ("shard.stage1_total_ms", "ms"),
    ("trace.stats_ms", "ms"),
    ("trace.overhead_frac", "frac"),
    ("loop.wall_ms", "ms"),
    ("closure.residual_frac", "frac"),
]

# The per-layer self times of a single engine, plus its unaccounted call
# time, delivery and the tracer's own stats() calls, must add up to the
# loop's wall time within this share of it.
CLOSURE_TOLERANCE = 0.05

# Traced repetitions a `--trace 1` run makes besides its untraced ones.
TRACED_MIN_REPS = 3

# Leave room below the 180 s limit for the build check and the reference.
HARD_STOP_S = 120.0


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the worker; return the path of its binary."""
    manifest = HERE / "Cargo.toml"
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("cargo build failed")
    target = os.environ.get("CARGO_TARGET_DIR")
    target = Path(target) if target else HERE / "target"
    binary = target.resolve() / "release" / "e2ebench"
    if not binary.is_file():
        raise BenchError(f"built binary not found at {binary}")
    return binary


def worker(binary, args, timeout):
    proc = subprocess.run(
        [str(binary), *args], stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise BenchError(f"e2ebench {' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"e2ebench {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def median(reps, key):
    return statistics.median(r[key] for r in reps)


def percentile(values, p):
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = min(max(math.ceil(p * len(ordered)), 1), len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def tail(values):
    """The highest of p99.9, p99 and p90 with at least ten samples beyond it."""
    for p, label in ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")):
        value, beyond = percentile(values, p)
        if beyond >= 10:
            return value, label, beyond
    value, beyond = percentile(values, 0.9)
    return value, "p90", beyond


def typical(reps):
    """Timing metrics of the repetitions, each step at its mean time.

    On a shared host, other tenants halve the speed of a core in episodes
    of seconds, so single repetitions swing by up to 2x. Each batch and
    each subscription is taken at the mean of the times the repetitions
    took for it, and the rest of the loop (unsubscriptions, the loop
    itself) at the mean repetition's. The metrics are computed from those
    times as from one repetition: the loop time is their sum, so
    `docs_per_s` is the documents of all repetitions over their loop time,
    and every document of a batch has the batch's latency.

    The mean moves in proportion to the share of the run the host was
    slow. The fastest time of each step moves with whether the host was
    fast at all, which on the sharded engine, fast only while both cores
    are, is often not; the median jumps between the two speeds as that
    share crosses one half.
    """
    mean_batch = [statistics.fmean(times) for times in zip(*(r["batch_ms"] for r in reps))]
    mean_sub = [statistics.fmean(times) for times in zip(*(r["subscribe_ms"] for r in reps))]
    rest = statistics.fmean(r["loop_ms"] - sum(r["batch_ms"]) - sum(r["subscribe_ms"]) for r in reps)
    loop_ms = sum(mean_batch) + sum(mean_sub) + rest
    latencies = [t for t, n in zip(mean_batch, reps[0]["batch_docs"]) for _ in range(int(n))]
    tail_ms, label, beyond = tail(latencies)
    return {
        "docs_per_s": len(latencies) / (loop_ms / 1e3),
        "latency_p50_ms": percentile(latencies, 0.5)[0],
        "latency_tail_ms": tail_ms,
        "subscribe_p50_ms": percentile(mean_sub, 0.5)[0],
        "tail": f"{label}, {beyond} samples beyond",
    }


def end_to_end(reps):
    """The end-to-end metrics of a run: the typical timings, the median of
    every set-up, and the median peak resident-set growth."""
    metrics = typical(reps)
    metrics["setup_s"] = statistics.median(s for r in reps for s in r["setup_s"])
    metrics["peak_rss_mb"] = median(reps, "peak_rss_mb")
    return metrics


def check(workload, reference, reps):
    """Every repetition must reproduce each reference digest on that
    reference's checked prefix, agree with every other repetition on the
    whole run, and have its generator timestamps restored from the text."""
    problems = []
    if reference["failed"]:
        problems.append(f"reference runs had {reference['failed']} failed operations")
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        problems.append(f"repetitions disagree: {sorted(digests)}")
    expected = reference["digests"].split()
    for i, r in enumerate(reps):
        got = r["checkpoint_digests"].split()
        if len(got) != len(expected):
            problems.append(f"rep {i}: {len(got)} checkpoint digests, {len(expected)} references")
        for have, want, docs in zip(got, expected, reference["docs"]):
            if have != want:
                problems.append(
                    f"rep {i}: digest {have} over the first {int(docs)} documents, reference {want}"
                )
        if r["ts_lost"]:
            problems.append(f"rep {i}: {r['ts_lost']} documents lost their timestamp")
        if r["matches"] == 0:
            problems.append(f"rep {i}: no matches")
    for p in problems:
        log(f"{workload}: CHECK FAILED: {p}")
    return not problems


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = ap.parse_args()
    spec = WORKLOADS[args.workload]
    common = ["--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]

    try:
        binary = build()
        start = time.monotonic()
        reference = worker(binary, ["verify", *common], timeout=HARD_STOP_S)
        trace_dir = HERE / "traces"
        trace_file = trace_dir / f"{args.workload}.jsonl"
        untraced, traced = [], []
        while True:
            elapsed = time.monotonic() - start
            enough = len(untraced) >= spec["min_reps"] and len(traced) >= (TRACED_MIN_REPS if args.trace else 0)
            if (enough and elapsed >= args.seconds) or elapsed >= HARD_STOP_S:
                break
            trace_this = args.trace and len(traced) < len(untraced)
            reps = traced if trace_this else untraced
            rep_args = ["rep", *common, "--setups", str(spec["setups"])]
            if trace_this:
                trace_dir.mkdir(exist_ok=True)
                rep_args += ["--trace-out", str(trace_file)]
            result = worker(binary, rep_args, timeout=HARD_STOP_S)
            log(f"{'traced' if trace_this else 'untraced'} rep {len(reps)}: "
                f"{result['docs_per_s']:.1f} docs/s, {int(result['matches'])} matches")
            reps.append(result)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        log(f"e2ebench: {e}")
        return 2

    reps = untraced + traced
    correct = check(args.workload, reference, reps)
    attempted = sum(int(r["attempted"]) for r in reps)
    failed = sum(int(r["failed"]) for r in reps)

    print(f"workload {args.workload} seed {args.seed} scale {args.scale}: "
          f"{len(untraced)} untraced + {len(traced)} traced repetitions, "
          f"{int(reps[0]['docs'])} documents each")
    e2e = end_to_end(untraced)
    for name, unit in END_TO_END:
        extra = f"  ({e2e['tail']})" if name == "latency_tail_ms" else ""
        print(f"{name} {e2e[name]:.6g} {unit}{extra}")
    raw = [r["docs_per_s"] for r in untraced]
    print(f"docs_per_s of single repetitions: median {statistics.median(raw):.6g}, "
          f"min {min(raw):.6g}, max {max(raw):.6g} 1/s")
    print(f"subscribe_p50_ms {e2e['subscribe_p50_ms']:.6g} ms  (not gated: unsteady on a shared host)")
    print(f"failed_frac {failed / max(attempted, 1):.6g} frac  ({failed} of {attempted} operations)")

    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    if args.trace:
        computed = ("trace.overhead_frac", "registry.subscribe_p50_ms")
        layers = {name: median(traced, name) for name, _ in PER_LAYER if name not in computed}
        layers["trace.overhead_frac"] = 1 - median(traced, "docs_per_s") / median(untraced, "docs_per_s")
        layers["registry.subscribe_p50_ms"] = typical(traced)["subscribe_p50_ms"]
        for name, unit in PER_LAYER:
            print(f"{name} {layers[name]:.6g} {unit}")
        if layers["shard.busy_max_ms"] == 0:
            closed = abs(layers["closure.residual_frac"]) <= CLOSURE_TOLERANCE
            print(f"closure: layer self times cover the loop wall time within "
                  f"{layers['closure.residual_frac']:+.2%} (tolerance {CLOSURE_TOLERANCE:.0%}): "
                  f"{'ok' if closed else 'NOT CLOSED'}")
        print(f"spans of the last traced repetition: {trace_file.relative_to(HERE.parent)}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
