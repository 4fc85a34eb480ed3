//! Figure 17 (beyond the paper): wall-clock RSS throughput of the
//! `ShardedEngine` vs shard count, for MMQJP and MMQJP with view
//! materialization on the Figure-16 workload.
//!
//! The document stream is replicated to every shard and each shard runs
//! Stage 1 over every document for its own patterns, so the `parse` column
//! (total Stage-1 work summed across shards) grows with the shard count.
//! Expected shape on an `N`-core machine: throughput grows with the shard
//! count until the cores saturate. On a single-core runner the sweep
//! degenerates to ≈ 1× — the table still prints the speedup and parse
//! columns so the trend is visible wherever the bench runs.
//!
//! The run also times the engine's Stage 1 (the shared automaton pass)
//! against the per-pattern DOM matcher kept as its test oracle, on the same
//! patterns and documents, and asserts both give identical edge bindings.
//!
//! When the `MMQJP_BENCH_JSON_FIG17` environment variable names a file, the
//! run additionally writes the series as JSON (`BENCH_fig17.json` in CI) so
//! the sharding trajectory is tracked as an artifact from PR to PR. (A
//! separate variable from fig16's `MMQJP_BENCH_JSON`, which is set for the
//! whole bench run in CI and must keep naming fig16's artifact.)

use mmqjp_bench::{
    figure_header, run_front_stage1_comparison, run_sharded_rss_benchmark, scale,
    FrontStage1Comparison, ShardedRssRun,
};
use mmqjp_core::ProcessingMode;

/// Fixed workload seed: the query set and stream are deterministic, so two
/// runs on the same machine and scale differ only by timer noise.
const SEED: u64 = 16;

pub fn main() {
    figure_header(
        "Figure 17",
        "RSS stream — wall-clock throughput vs shard count",
    );
    let scale = scale();
    let items = scale.rss_items();
    let batch = scale.rss_batch();
    let shard_counts = scale.shard_counts();
    let num_queries = *scale.query_counts().last().expect("non-empty sweep");
    println!(
        "stream: {items} items, 418 channels, batch size {batch}, {num_queries} queries, \
         {} cores available",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // (mode label, shards, run) tuples for the JSON artifact.
    let mut series: Vec<(&'static str, usize, ShardedRssRun)> = Vec::new();
    for mode in [ProcessingMode::MmqjpViewMat, ProcessingMode::Mmqjp] {
        println!("\n=== Figure 17 — {} ===", mode.label());
        println!(
            "{:>24}  {:>18}  {:>12}  {:>12}  {:>12}  {:>10}",
            "shards", "throughput", "speedup", "parse", "join", "matches"
        );
        let mut base = None;
        for &shards in &shard_counts {
            let run = run_sharded_rss_benchmark(mode, shards, num_queries, items, batch, SEED);
            series.push((mode.label(), shards, run));
            let base = *base.get_or_insert(run.wall_throughput);
            let speedup = if base > 0.0 {
                run.wall_throughput / base
            } else {
                0.0
            };
            println!(
                "{:>24}  {:>18}  {:>11.2}x  {:>12}  {:>12}  {:>10}",
                format!("{shards} shards"),
                format!("{:.0} docs/s", run.wall_throughput),
                speedup,
                format!("{:.1} ms", run.parse_time.as_secs_f64() * 1e3),
                format!("{:.1} ms", run.join_time.as_secs_f64() * 1e3),
                run.matches,
            );
        }
    }

    // Stage 1 vs its DOM oracle at the full query count: the shared
    // automaton answers every pattern in one traversal, so its time must
    // stay clearly below one matcher walk per pattern. The comparison
    // panics if the two ever disagree.
    let front = run_front_stage1_comparison(num_queries, items, SEED);
    let ratio = front.streaming.as_secs_f64() / front.dom.as_secs_f64().max(f64::MIN_POSITIVE);
    println!(
        "\nStage 1 at {num_queries} queries: shared pass {:.1} ms vs DOM oracle {:.1} ms \
         ({ratio:.2}x), {} edge bindings each",
        front.streaming.as_secs_f64() * 1e3,
        front.dom.as_secs_f64() * 1e3,
        front.bindings,
    );

    if let Ok(path) = std::env::var("MMQJP_BENCH_JSON_FIG17") {
        // Bench binaries run with the package directory as CWD; anchor
        // relative paths at the workspace root so CI finds the artifact.
        let mut target = std::path::PathBuf::from(&path);
        if target.is_relative() {
            target = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(target);
        }
        let json = fig17_json(
            &format!("{:?}", scale),
            items,
            batch,
            num_queries,
            &front,
            &series,
        );
        match std::fs::write(&target, json) {
            Ok(()) => println!("\nwrote sharding series to {}", target.display()),
            // Fail loudly: CI uploads this file, and a swallowed write error
            // would only surface later as a misleading missing-artifact
            // failure.
            Err(e) => panic!("failed to write {}: {e}", target.display()),
        }
    }
}

/// Hand-rolled JSON for the sharding series (no serde_json in the build
/// environment): `{"figure", "scale", "items", "batch", "queries", "seed",
/// "cores", "stage1_*", "note", "series": [...]}`.
fn fig17_json(
    scale: &str,
    items: usize,
    batch: usize,
    queries: usize,
    front: &FrontStage1Comparison,
    series: &[(&str, usize, ShardedRssRun)],
) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ratio = front.streaming.as_secs_f64() / front.dom.as_secs_f64().max(f64::MIN_POSITIVE);
    let mut out = String::from("{\n");
    out.push_str("  \"figure\": \"fig17_sharded_throughput\",\n");
    out.push_str(&format!("  \"scale\": \"{scale}\",\n"));
    out.push_str(&format!("  \"items\": {items},\n"));
    out.push_str(&format!("  \"batch\": {batch},\n"));
    out.push_str(&format!("  \"queries\": {queries},\n"));
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str(&format!(
        "  \"stage1_streaming_ms\": {:.3},\n",
        front.streaming.as_secs_f64() * 1e3
    ));
    out.push_str(&format!(
        "  \"stage1_dom_ms\": {:.3},\n",
        front.dom.as_secs_f64() * 1e3
    ));
    out.push_str(&format!("  \"stage1_ratio\": {ratio:.3},\n"));
    out.push_str(&format!(
        "  \"note\": \"docs_per_sec is end-to-end wall clock; parse_ms is total Stage-1 \
         work summed across shards (grows with the shard count, since every shard runs \
         Stage 1 over every document); stage1_ratio is the shared automaton pass's \
         Stage-1 time over the per-pattern DOM oracle's at {queries} queries (same \
         patterns and documents, identical edge bindings; must stay <= 0.7); every row's \
         matches must be nonzero — the workload joins fields with themselves, so \
         cross-document joins fire; absolute numbers vary by machine — only ratios \
         within one run are comparable across runs\",\n",
    ));
    out.push_str("  \"series\": [\n");
    let entries: Vec<String> = series
        .iter()
        .map(|(mode, shards, run)| {
            format!(
                "    {{\"mode\": \"{mode}\", \"shards\": {shards}, \
                 \"docs_per_sec\": {:.1}, \"parse_ms\": {:.3}, \"join_ms\": {:.3}, \
                 \"matches\": {}}}",
                run.wall_throughput,
                run.parse_time.as_secs_f64() * 1e3,
                run.join_time.as_secs_f64() * 1e3,
                run.matches,
            )
        })
        .collect();
    out.push_str(&entries.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}
