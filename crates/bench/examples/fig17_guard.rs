//! CI guard over the Figure-17 sharding artifact.
//!
//! Reads `BENCH_fig17.json` (regenerated by the `fig17_sharded_throughput`
//! bench when `MMQJP_BENCH_JSON_FIG17` is set) and fails when
//!
//! - the artifact was produced with another seed or lacks its workload
//!   header (batch, queries, scale), so it cannot be compared across runs;
//! - any series row reports zero matches (a degenerate workload makes every
//!   throughput number on the row meaningless);
//! - the engine's Stage 1 (the shared automaton pass) is no longer clearly
//!   faster than the per-pattern DOM oracle on the same patterns.
//!
//! Usage: `cargo run -p mmqjp-bench --release --example fig17_guard [path]`
//! (the path defaults to `BENCH_fig17.json` at the workspace root). The
//! artifact is hand-rolled JSON written by our own bench, so a minimal
//! line scanner is enough — no JSON dependency.

/// The workload seed baked into `fig17_sharded_throughput`. Cross-run
/// comparisons of the committed artifact are meaningless if the query set
/// changed, so the guard refuses artifacts produced with any other seed.
const EXPECTED_SEED: u64 = 16;
/// The shared automaton's Stage-1 time over the per-pattern DOM oracle's,
/// measured best-of-N by the bench on the same patterns and documents with
/// identical output. One traversal answering every pattern must beat one
/// matcher walk per pattern by a clear margin, not a rounding error.
const STAGE1_RATIO_MAX: f64 = 0.7;

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../BENCH_fig17.json")
            .to_string_lossy()
            .into_owned()
    });
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));

    // Comparability preconditions: a committed artifact produced with a
    // different seed, or missing the workload-scale header, cannot be
    // compared against future runs — fail before checking any ratio.
    let mut header = Header::default();
    let mut stage1_ratio = None;
    let mut rows = 0usize;
    for line in text.lines() {
        let Some(mode) = str_field(line, "\"mode\":") else {
            // Header line (series rows all carry a mode).
            header.seed = header.seed.or_else(|| int_field(line, "\"seed\":"));
            header.batch = header.batch.or_else(|| int_field(line, "\"batch\":"));
            header.queries = header.queries.or_else(|| int_field(line, "\"queries\":"));
            header.scale = header
                .scale
                .or_else(|| str_field(line, "\"scale\":").map(str::to_owned));
            stage1_ratio = stage1_ratio.or_else(|| f64_field(line, "\"stage1_ratio\":"));
            continue;
        };
        let (Some(shards), Some(_dps), Some(matches)) = (
            int_field(line, "\"shards\":"),
            f64_field(line, "\"docs_per_sec\":"),
            int_field(line, "\"matches\":"),
        ) else {
            panic!("series row missing a required field in {path}: {line}");
        };
        // A zero-match row means the workload degenerated (as it once did,
        // when the query generator paired unrelated fields into never-
        // satisfiable joins) and every throughput number on the row is
        // measuring an empty pipeline.
        assert!(
            matches > 0,
            "zero matches for {mode} at {shards} shards — the fig17 workload stopped \
             producing joins, so its throughput numbers are meaningless"
        );
        rows += 1;
    }
    assert!(rows > 0, "no series rows in {path}");

    let seed = header
        .seed
        .unwrap_or_else(|| panic!("no seed header in {path}"));
    assert!(
        seed == EXPECTED_SEED,
        "artifact seed {seed} != expected {EXPECTED_SEED}: the workload is not the one this \
         guard's thresholds were calibrated for"
    );
    let batch = header
        .batch
        .unwrap_or_else(|| panic!("no batch header in {path}"));
    let queries = header
        .queries
        .unwrap_or_else(|| panic!("no queries header in {path}"));
    let scale = header
        .scale
        .unwrap_or_else(|| panic!("no scale header in {path}"));
    assert!(
        batch > 0 && queries > 0,
        "degenerate workload header in {path}: batch {batch}, queries {queries}"
    );
    println!(
        "fig17 guard preconditions: seed {seed}, scale {scale}, batch {batch}, {queries} queries, \
         {rows} series rows with matches"
    );

    let stage1_ratio = stage1_ratio.unwrap_or_else(|| panic!("no stage1_ratio header in {path}"));
    println!("fig17 guard Stage 1: shared pass / DOM oracle ratio {stage1_ratio:.3}");
    assert!(
        stage1_ratio <= STAGE1_RATIO_MAX,
        "Stage 1 regressed: the shared automaton pass takes {stage1_ratio:.3}x the time of \
         the per-pattern DOM oracle (must stay <= {STAGE1_RATIO_MAX}) — one traversal \
         answering all {queries} queries' patterns should be clearly cheaper than one matcher \
         walk per pattern"
    );
    println!("fig17 guard passed");
}

/// Comparability headers scanned from the artifact's preamble.
#[derive(Default)]
struct Header {
    seed: Option<u64>,
    batch: Option<u64>,
    queries: Option<u64>,
    scale: Option<String>,
}

/// The integer following `key` on `line`, if present.
fn int_field(line: &str, key: &str) -> Option<u64> {
    let rest = line.split(key).nth(1)?;
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// The quoted string following `key` on `line`, if present.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.split(key).nth(1)?.trim_start();
    let rest = rest.strip_prefix('"')?;
    rest.split('"').next()
}

/// The float following `key` on `line`, if present.
fn f64_field(line: &str, key: &str) -> Option<f64> {
    let rest = line.split(key).nth(1)?;
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    digits.parse().ok()
}
