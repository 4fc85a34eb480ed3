//! Seeded workload inputs, serialized to XML text before any timing starts.
//!
//! The engine only ever sees what this module produces: query objects and
//! document *text*. Every document's generator timestamp is recorded next to
//! its text, because the serializer does not write the engine-level
//! timestamp; the closed loop restores it from the text after parsing.

use mmqjp_core::EngineConfig;
use mmqjp_workload::{
    ComplexSchemaWorkload, RssQueryGenerator, RssStreamConfig, RssStreamGenerator,
};
use mmqjp_xml::rss::ITEM_FIELDS;
use mmqjp_xml::{serialize, DocumentBuilder, Timestamp};
use mmqjp_xscl::{FromClause, Window, XsclQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One serialized document and the timestamp its generator gave it.
pub struct TextDoc {
    pub text: String,
    pub ts: u64,
}

/// Where a parsed document carries its generator timestamp.
#[derive(Clone, Copy)]
pub enum TsSource {
    /// The text of the first element with this tag (RSS `timestamp` leaf).
    Leaf(&'static str),
    /// An attribute of the root element.
    RootAttr(&'static str),
}

/// One step of the closed loop.
pub enum Step {
    /// Parse, process and deliver these documents as one batch.
    Batch(Vec<TextDoc>),
    /// Register a subscription mid-stream.
    Subscribe(XsclQuery),
    /// Unregister the `n`-th registration of the run (initial set first).
    Unsubscribe(usize),
    /// Register this subscription and at once unregister it: times
    /// mid-stream subscription on a workload whose script has none. The
    /// probe never sees a document, so it cannot change the matches.
    Probe(XsclQuery),
}

/// Which engine the workload runs and how its output is checked.
pub struct Workload {
    pub config: EngineConfig,
    pub initial: Vec<XsclQuery>,
    pub steps: Vec<Step>,
    pub ts_source: TsSource,
    /// The reference engines run on the same input, each with the number
    /// of leading documents whose matches the measured run must reproduce.
    pub references: Vec<(EngineConfig, usize)>,
}

/// `full` is the measured size; `smoke` is a seconds-long run of the same
/// shape for the benchmark's own smoke test.
#[derive(Clone, Copy, PartialEq)]
pub enum Scale {
    Full,
    Smoke,
}

pub const WORKLOADS: [&str; 3] = ["rss_growing", "sparse_churn", "sparse_sharded"];

pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
    match name {
        "rss_growing" => Some(rss_growing(seed, scale)),
        "sparse_churn" => Some(sparse(seed, scale, 1)),
        "sparse_sharded" => Some(sparse(seed, scale, 2)),
        _ => None,
    }
}

/// Fig. 16's RSS scenario: 50 subscriptions with infinite windows over a
/// stream whose join state and match volume grow with every batch.
///
/// The stream is the workload's fixed corpus, as the paper's recorded feed
/// trace was: `RssStreamConfig::default()` cut to `items`. The seed draws
/// the subscriptions. A few joins on the Zipf-skewed `channel_url` and
/// `title` values of one 100-item batch decide that batch's work, so a
/// seeded stream would let the seed swing latency and peak memory by a
/// quarter between runs.
fn rss_growing(seed: u64, scale: Scale) -> Workload {
    const QUERIES: usize = 50;
    const BATCH: usize = 100;
    let items = match scale {
        Scale::Full => 2_000,
        Scale::Smoke => 400,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let generator = RssQueryGenerator::new(0.8);
    let initial = balanced_rss_queries(&generator, &mut rng);
    debug_assert_eq!(initial.len(), QUERIES);
    // The probe repeats a registered two-field query, so that its
    // registration cost does not depend on the seed.
    let probe = initial
        .iter()
        .find(|q| q.predicates().len() == 2)
        .expect("the mix has two-field queries")
        .clone();
    let stream = RssStreamGenerator::new(RssStreamConfig {
        items,
        ..RssStreamConfig::default()
    });
    let docs: Vec<TextDoc> = stream
        .documents()
        .iter()
        .map(|d| TextDoc {
            text: serialize(d),
            ts: d.timestamp().raw(),
        })
        .collect();
    let mut steps = Vec::new();
    let mut docs = docs.into_iter().peekable();
    while docs.peek().is_some() {
        steps.push(Step::Batch(docs.by_ref().take(BATCH).collect()));
        steps.push(Step::Probe(probe.clone()));
    }
    Workload {
        config: EngineConfig::default(),
        initial,
        steps,
        ts_source: TsSource::Leaf("timestamp"),
        references: vec![(
            EngineConfig::sequential().with_retain_documents(false),
            items / 2,
        )],
    }
}

/// 50 generator queries drawn to a fixed mix: four single-field joins per
/// item field, one query for each field subset of size two to four, and
/// five on all five fields; 31 distinct queries in 5 templates, close to the
/// generator's Zipf(0.8) expectation of 18.9, 10.9, 7.9, 6.2 and 5.4 per
/// size. A handful of single-field joins on the Zipf-skewed `channel_url`
/// decide most of the match volume, so an unstratified draw of 50 lets the
/// seed swing the work per run by a factor of two.
fn balanced_rss_queries(generator: &RssQueryGenerator, rng: &mut StdRng) -> Vec<XsclQuery> {
    let per_size = [4, 1, 1, 1, 5];
    let mut quota: Vec<usize> = (0u32..32)
        .map(|mask| match mask.count_ones() {
            0 => 0,
            k => per_size[k as usize - 1],
        })
        .collect();
    let mut picked = Vec::new();
    while quota.iter().any(|&q| q > 0) {
        let query = generator.generate_query(rng);
        let text = query.to_string();
        let mask = ITEM_FIELDS
            .iter()
            .enumerate()
            .filter(|(_, field)| text.contains(*field))
            .fold(0, |m, (i, _)| m | 1 << i);
        if quota[mask] > 0 {
            quota[mask] -= 1;
            picked.push(query);
        }
    }
    picked
}

/// The massively multi-query regime: thousands of complex-schema
/// subscriptions with finite windows, one document per batch, and a Poisson
/// subscribe/unsubscribe script interleaved with the documents. `shards > 1`
/// runs the identical script through the sharded engine.
fn sparse(seed: u64, scale: Scale, shards: usize) -> Workload {
    // Leaf values are drawn from this many strings, so that few document
    // pairs join: a one-predicate query matches a given earlier document
    // with probability 1 / VOCABULARY.
    const VOCABULARY: usize = 4_096;
    // The widest window fills after 64 documents, so most of a run is in
    // steady state with eviction on.
    const WINDOWS: [u64; 4] = [8, 16, 32, 64];
    const CHURN_RATE: f64 = 0.5;
    let (queries, docs) = match scale {
        Scale::Full => (10_000, 200),
        Scale::Smoke => (1_000, 100),
    };
    let schema = ComplexSchemaWorkload::new(4, 4, 0.8);
    let mut rng = StdRng::seed_from_u64(seed);
    // Registration `n` gets the `n`-th window, cycling.
    let query = |n: usize, rng: &mut StdRng| {
        let window = Window::Time(WINDOWS[n % WINDOWS.len()]);
        with_window(schema.generate_query(rng), window)
    };
    let initial: Vec<XsclQuery> = (0..queries).map(|n| query(n, &mut rng)).collect();
    let mut registered = queries;
    let mut live: Vec<usize> = (0..queries).collect();
    let mut steps = Vec::new();
    for i in 0..docs {
        for _ in 0..poisson(&mut rng, CHURN_RATE) {
            steps.push(Step::Subscribe(query(registered, &mut rng)));
            live.push(registered);
            registered += 1;
        }
        // A birth-death process: departures scale with the live population,
        // which so stays near its initial size.
        let departures = CHURN_RATE * live.len() as f64 / queries as f64;
        for _ in 0..poisson(&mut rng, departures) {
            let victim = rng.gen_range(0..live.len());
            steps.push(Step::Unsubscribe(live.swap_remove(victim)));
        }
        let ts = i as u64 + 1;
        let mut b = DocumentBuilder::new("doc");
        b.attribute("ts", ts.to_string());
        b.timestamp(Timestamp(ts));
        for m in 0..schema.branching() {
            b.open(schema.mid_tag(m));
            for l in 0..schema.branching() {
                let value = rng.gen_range(0..VOCABULARY);
                b.child_text(schema.leaf_tag(m, l), format!("v{value}"));
            }
            b.close();
        }
        let text = serialize(&b.finish());
        steps.push(Step::Batch(vec![TextDoc { text, ts }]));
    }
    let single = EngineConfig::mmqjp_view_mat().with_prune_state_by_window(true);
    // Plain MMQJP on a prefix checks view materialization; the sharded
    // engine must also reproduce the single engine on the whole script.
    let plain = (
        EngineConfig::mmqjp().with_prune_state_by_window(true),
        docs / 4,
    );
    let (config, references) = if shards > 1 {
        (
            single.clone().with_num_shards(shards),
            vec![(single, docs), plain],
        )
    } else {
        (single, vec![plain])
    };
    Workload {
        config,
        initial,
        steps,
        ts_source: TsSource::RootAttr("ts"),
        references,
    }
}

fn with_window(query: XsclQuery, window: Window) -> XsclQuery {
    match query.from {
        FromClause::Join {
            left,
            op,
            predicates,
            right,
            ..
        } => XsclQuery::join(left, op, predicates, window, right),
        FromClause::Single(_) => query,
    }
}

/// Knuth's product method; the rates here are below one.
fn poisson(rng: &mut StdRng, lambda: f64) -> usize {
    let limit = (-lambda).exp();
    let mut k = 0;
    let mut p: f64 = rng.gen_range(0.0..1.0);
    while p > limit && k < 64 {
        k += 1;
        p *= rng.gen_range(0.0..1.0);
    }
    k
}
