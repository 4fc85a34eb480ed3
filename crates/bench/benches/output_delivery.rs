//! Output micro-benchmark: what one delivered match costs, in nanoseconds,
//! for a consumer that drops every output unread (produce + drop) and for
//! one that reads every output document (produce + materialize + drop).
//!
//! Workload: the Fig. 16 RSS stream (at most 2000 items, the end-to-end
//! `rss_growing` size, in batches of 100) against 50 generated
//! subscriptions with infinite windows, on MMQJP with documents retained,
//! so the match count grows with the state. "Produce" is the engine's
//! output phase (`PhaseTimings::output`); "materialize" dereferences every
//! `MatchOutput::document`; "drop" frees the batch's outputs. Each leg runs
//! `REPS` times on a fresh engine and keeps its fastest run.
//!
//! This is not a paper figure: it keeps the cost that lazy output moves to
//! the consumer visible next to the cost it saves.

use mmqjp_bench::{engine_with_config, figure_header, print_table, scale};
use mmqjp_core::EngineConfig;
use mmqjp_workload::{RssQueryGenerator, RssStreamConfig, RssStreamGenerator};
use mmqjp_xml::Document;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const SEED: u64 = 16;
const QUERIES: usize = 50;
const BATCH: usize = 100;
const MAX_ITEMS: usize = 2000;
const REPS: usize = 3;

/// Per-phase totals of one pass over the stream.
#[derive(Clone, Copy)]
struct Pass {
    matches: usize,
    produce: Duration,
    materialize: Duration,
    drop: Duration,
}

impl Pass {
    fn total(&self) -> Duration {
        self.produce + self.materialize + self.drop
    }

    fn ns_per_match(&self, d: Duration) -> String {
        format!("{:.0}", d.as_nanos() as f64 / self.matches.max(1) as f64)
    }
}

fn run_pass(docs: &[Document], materialize: bool) -> Pass {
    let generator = RssQueryGenerator::new(0.8);
    let queries = generator.generate_queries(QUERIES, &mut StdRng::seed_from_u64(SEED));
    let mut engine = engine_with_config(EngineConfig::default(), &queries);
    let mut pass = Pass {
        matches: 0,
        produce: Duration::ZERO,
        materialize: Duration::ZERO,
        drop: Duration::ZERO,
    };
    let mut nodes = 0usize;
    for chunk in docs.chunks(BATCH) {
        let outputs = engine
            .process_batch(chunk.to_vec())
            .expect("batch processes");
        pass.matches += outputs.len();
        if materialize {
            let t = Instant::now();
            nodes += outputs
                .iter()
                .filter_map(|m| m.document.as_ref())
                .map(|doc| doc.len())
                .sum::<usize>();
            pass.materialize += t.elapsed();
        }
        let t = Instant::now();
        drop(outputs);
        pass.drop += t.elapsed();
    }
    assert!(!materialize || nodes > pass.matches, "every output is read");
    pass.produce = engine.stats().timings.output;
    pass
}

pub fn main() {
    figure_header(
        "Output delivery",
        "ns per match: produce + drop vs produce + materialize + drop",
    );
    let items = scale().rss_items().min(MAX_ITEMS);
    println!("stream: {items} items, batch size {BATCH}, {QUERIES} queries, seed {SEED}");
    let docs = RssStreamGenerator::new(RssStreamConfig {
        items,
        ..RssStreamConfig::default()
    })
    .documents();

    let columns: Vec<String> = ["matches", "produce", "materialize", "drop", "total"]
        .iter()
        .map(|c| (*c).to_owned())
        .collect();
    let mut rows = Vec::new();
    for (label, materialize) in [("produce + drop", false), ("+ materialize", true)] {
        let best = (0..REPS)
            .map(|_| run_pass(&docs, materialize))
            .min_by_key(Pass::total)
            .expect("at least one repetition");
        rows.push((
            label.to_owned(),
            vec![
                best.matches.to_string(),
                best.ns_per_match(best.produce),
                best.ns_per_match(best.materialize),
                best.ns_per_match(best.drop),
                best.ns_per_match(best.total()),
            ],
        ));
    }
    print_table(
        "Output delivery (ns per match)",
        "consumer",
        &columns,
        &rows,
    );
}
