//! Long-stream state boundedness: under continuous windowed ingestion the
//! engine's resident state (join-state rows, retained documents and
//! timestamps) plateaus instead of growing with stream length, in every
//! processing mode and with `retain_documents = true` — and incremental
//! window expiry never changes results: an engine that expired state
//! incrementally over a long stream produces exactly the matches of a fresh
//! engine fed only the in-window suffix of the stream.

use mmqjp_core::{EngineConfig, MatchOutput, MmqjpEngine, ProcessingMode, ShardedEngine};
use mmqjp_integration_tests::all_modes;
use mmqjp_workload::{ChurnConfig, ChurnWorkload};
use mmqjp_xml::{Document, Timestamp};
use proptest::prelude::*;
use std::sync::Arc;

/// The churn workload used by the plateau tests: 250 items spanning 500
/// time units against 30/80/200 windows, so every window fills by
/// mid-stream and churns for the rest.
fn workload() -> ChurnWorkload {
    ChurnWorkload::new(ChurnConfig {
        items: 250,
        num_queries: 36,
        windows: vec![30, 80, 200],
        ..ChurnConfig::default()
    })
}

fn engine_for(mode: ProcessingMode, workload: &ChurnWorkload) -> MmqjpEngine {
    let config = EngineConfig {
        mode,
        ..EngineConfig::default()
    }
    .with_prune_state_by_window(true)
    .with_retain_documents(true);
    let mut engine = MmqjpEngine::new(config);
    for q in workload.queries() {
        engine.register_query(q).unwrap();
    }
    engine
}

#[test]
fn state_and_doc_store_plateau_in_every_mode() {
    let workload = workload();
    let docs = workload.documents();
    for mode in all_modes() {
        let mut engine = engine_for(mode, &workload);
        // Once the largest window (200 time units = 100 items) has filled,
        // resident state must stop growing. Track the resident maxima over
        // the second half of the stream and compare against the half-way
        // snapshot.
        let mut matches = 0usize;
        let mut at_half = None;
        let mut second_half_max_rows = 0usize;
        let mut second_half_max_docs = 0usize;
        for (i, doc) in docs.iter().enumerate() {
            matches += engine.process_document(doc.clone()).unwrap().len();
            let stats = engine.stats();
            if i + 1 == docs.len() / 2 {
                at_half = Some(stats);
            } else if i + 1 > docs.len() / 2 {
                second_half_max_rows =
                    second_half_max_rows.max(stats.rdoc_tuples + stats.rbin_tuples);
                second_half_max_docs = second_half_max_docs.max(stats.docs_retained);
            }
        }
        let at_half = at_half.expect("stream is longer than 2 documents");
        let stats = engine.stats();
        assert!(matches > 0, "{mode:?}: the workload must produce matches");
        let half_rows = at_half.rdoc_tuples + at_half.rbin_tuples;
        assert!(
            second_half_max_rows <= half_rows + half_rows / 4,
            "{mode:?}: join state must plateau: {half_rows} rows at half, \
             {second_half_max_rows} max afterwards"
        );
        assert!(
            second_half_max_docs <= at_half.docs_retained + at_half.docs_retained / 4,
            "{mode:?}: doc store must plateau: {} at half, {} max afterwards",
            at_half.docs_retained,
            second_half_max_docs
        );
        // Every processed document is accounted for: still resident or
        // counted as evicted.
        assert_eq!(stats.docs_retained + stats.docs_evicted, docs.len());
        assert!(stats.state_rows_evicted > 0, "{mode:?}: state must churn");
        assert!(stats.state_buckets_evicted > 0);
    }
}

#[test]
fn sharded_engine_state_is_bounded_too() {
    let workload = workload();
    let docs = workload.documents();
    let config = EngineConfig::mmqjp()
        .with_prune_state_by_window(true)
        .with_retain_documents(true)
        .with_num_shards(2);
    let mut sharded = ShardedEngine::new(config);
    for q in workload.queries() {
        sharded.register_query(q).unwrap();
    }
    let mut single = engine_for(ProcessingMode::Mmqjp, &workload);
    for doc in &docs {
        let mut expected = single.process_document(doc.clone()).unwrap();
        mmqjp_core::sort_matches(&mut expected);
        let got = sharded.process_batch(vec![doc.clone()]).unwrap();
        assert_eq!(got, expected, "sharded output diverges under churn");
    }
    // Every shard's retention is bounded by the windows (a 200-time-unit
    // span is 100 items, plus up to one bucket of eviction lag), not by the
    // stream length.
    for (i, stats) in sharded.shard_stats().unwrap().into_iter().enumerate() {
        assert!(
            stats.docs_retained < docs.len() * 2 / 3,
            "shard {i} retains {} of {} documents",
            stats.docs_retained,
            docs.len()
        );
        assert_eq!(stats.docs_retained + stats.docs_evicted, docs.len());
    }
}

// ---------------------------------------------------------------------------
// Subscription churn: resident state plateaus with a stable live population
// ---------------------------------------------------------------------------

#[test]
fn subscription_churn_state_plateaus_over_10k_cycles() {
    // 10 000 subscribe/unsubscribe cycles with a stable live population
    // (see POPULATION/DOC_EVERY below), documents interleaved throughout.
    // Resident state — query/template/pattern populations, join-state
    // buckets and retained documents — must stay flat: the engine of a
    // long-running deployment sheds dead subscriptions instead of
    // accumulating them.
    // A pool of 16 query shapes over a 12-strong live population: at any
    // moment some shapes have no live subscriber, so churn keeps dropping
    // and re-creating patterns instead of only shrinking shared ones. Shape
    // 0 is structurally unique (a two-value-join template of its own), so
    // its template is retired and re-created once per pool rotation.
    let pool: Vec<mmqjp_xscl::XsclQuery> = (0..16)
        .map(|i| {
            let text = if i == 0 {
                "S//item->lr[.//f0->l0][.//f1->l1] FOLLOWED BY{l0=r0 AND l1=r1, 30} \
                 S//item->rr[.//f0->r0][.//f1->r1]"
                    .to_owned()
            } else {
                format!(
                    "S//item->lr[.//f{i}->l0] FOLLOWED BY{{l0=r0, {}}} S//item->rr[.//f{i}->r0]",
                    30 + 10 * (i % 3) as u64
                )
            };
            mmqjp_xscl::parse_query(&text).unwrap()
        })
        .collect();
    let doc = |i: u64| {
        let mut b = mmqjp_xml::DocumentBuilder::new("item");
        for tag in 0..6 {
            b.child_text(format!("f{tag}"), "v0");
        }
        b.finish().with_timestamp(Timestamp(1 + i * 5))
    };

    const POPULATION: usize = 12;
    const CYCLES: usize = 10_000;
    const DOC_EVERY: usize = 8;
    let mut engine = MmqjpEngine::new(
        EngineConfig::mmqjp()
            .with_prune_state_by_window(true)
            .with_retain_documents(true),
    );
    let mut live: std::collections::VecDeque<mmqjp_core::QueryId> =
        std::collections::VecDeque::new();
    for q in pool.iter().cycle().take(POPULATION) {
        live.push_back(engine.register_query(q.clone()).unwrap());
    }

    let mut matches = 0usize;
    let mut docs_sent = 0u64;
    let mut warm = None;
    let mut later_max = mmqjp_core::EngineStats::default();
    for cycle in 0..CYCLES {
        // One churn cycle: a new subscription arrives, the oldest departs —
        // the live population stays at POPULATION throughout.
        live.push_back(
            engine
                .register_query(pool[cycle % pool.len()].clone())
                .unwrap(),
        );
        let oldest = live.pop_front().expect("population is non-empty");
        engine.unregister_query(oldest).unwrap();
        if cycle % DOC_EVERY == 0 {
            docs_sent += 1;
            matches += engine.process_document(doc(docs_sent)).unwrap().len();
        }
        if cycle == CYCLES / 10 {
            warm = Some(engine.stats());
        } else if cycle > CYCLES / 10 && cycle % 25 == 0 {
            let stats = engine.stats();
            later_max.queries_registered =
                later_max.queries_registered.max(stats.queries_registered);
            later_max.templates = later_max.templates.max(stats.templates);
            later_max.distinct_patterns = later_max.distinct_patterns.max(stats.distinct_patterns);
            later_max.state_buckets = later_max.state_buckets.max(stats.state_buckets);
            later_max.docs_retained = later_max.docs_retained.max(stats.docs_retained);
        }
    }
    let warm = warm.expect("warmup snapshot taken");
    assert!(matches > 0, "the stream must keep matching through churn");
    let stats = engine.stats();
    assert_eq!(
        stats.queries_registered, POPULATION,
        "live population is stable"
    );
    assert_eq!(stats.queries_unregistered, CYCLES);
    // Populations plateau: the post-warmup maxima never exceed small
    // constants tied to the pool, not to the cycle count.
    assert_eq!(later_max.queries_registered, POPULATION);
    assert!(
        later_max.templates <= warm.templates + 1,
        "templates grew: {} -> {}",
        warm.templates,
        later_max.templates
    );
    assert!(
        later_max.distinct_patterns <= warm.distinct_patterns + 2,
        "patterns grew: {} -> {}",
        warm.distinct_patterns,
        later_max.distinct_patterns
    );
    assert!(
        later_max.state_buckets <= warm.state_buckets * 2 + 8,
        "state buckets grew: {} -> {}",
        warm.state_buckets,
        later_max.state_buckets
    );
    assert!(
        later_max.docs_retained <= warm.docs_retained * 2 + 8,
        "doc store grew: {} -> {}",
        warm.docs_retained,
        later_max.docs_retained
    );
    // Retirement kept pace with churn: patterns and templates were dropped
    // throughout, not leaked.
    assert!(stats.patterns_dropped > 0);
    assert!(stats.templates_retired > 0);
}

// ---------------------------------------------------------------------------
// Incremental expiry == fresh engine on the in-window suffix
// ---------------------------------------------------------------------------

/// A flat document over a tiny vocabulary, so joins fire often.
fn doc_from(leaves: &[(usize, usize)]) -> Document {
    let mut b = mmqjp_xml::DocumentBuilder::new("item");
    for (tag, value) in leaves {
        b.child_text(format!("f{tag}"), format!("v{value}"));
    }
    b.finish()
}

/// A self-join query over the flat vocabulary with the given window.
fn query_with_window(pairs: &[(usize, usize)], window: u64) -> String {
    let mut left = String::new();
    let mut right = String::new();
    let mut joins = Vec::new();
    for (i, (lf, rf)) in pairs.iter().enumerate() {
        left.push_str(&format!("[.//f{lf}->l{i}]"));
        right.push_str(&format!("[.//f{rf}->r{i}]"));
        joins.push(format!("l{i}=r{i}"));
    }
    format!(
        "S//item->lr{left} FOLLOWED BY{{{}, {window}}} S//item->rr{right}",
        joins.join(" AND ")
    )
}

/// A match keyed by timestamps: `(query, left ts, right ts, bindings)`.
type TsKey = (u64, u64, u64, Vec<(Arc<str>, u64, u32)>);

/// Matches keyed by timestamps instead of document ids, so runs over
/// different document subsets are comparable.
fn ts_keys(matches: &[MatchOutput], ts_of: impl Fn(u64) -> u64) -> Vec<TsKey> {
    let mut keys: Vec<_> = matches
        .iter()
        .map(|m| {
            let mut bindings: Vec<(Arc<str>, u64, u32)> = m
                .bindings
                .iter()
                .map(|b| (b.variable.clone(), ts_of(b.doc.raw()), b.node.raw()))
                .collect();
            bindings.sort();
            (
                m.query.raw(),
                ts_of(m.left_doc.raw()),
                ts_of(m.right_doc.raw()),
                bindings,
            )
        })
        .collect();
    keys.sort();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Feed a long in-order stream through an engine with incremental
    /// window expiry; the matches of the final document must equal those of
    /// a fresh engine that only ever saw the documents still inside the
    /// final document's window.
    #[test]
    fn incremental_expiry_equals_fresh_engine_on_window_suffix(
        doc_leaves in prop::collection::vec(
            prop::collection::vec((0usize..4, 0usize..3), 1..5), 3..14),
        join_pairs in prop::collection::vec((0usize..4, 0usize..4), 1..3),
        window_steps in 1u64..8,
        mode_index in 0usize..3,
    ) {
        // Timestamps advance by 10 per document; the window covers
        // `window_steps` documents back.
        let window = window_steps * 10;
        let docs: Vec<Document> = doc_leaves.iter().map(|l| doc_from(l)).collect();
        let timestamps: Vec<u64> = (0..docs.len()).map(|i| (i as u64 + 1) * 10).collect();
        let query = query_with_window(&join_pairs, window);
        let mode = [
            ProcessingMode::Sequential,
            ProcessingMode::Mmqjp,
            ProcessingMode::MmqjpViewMat,
        ][mode_index];
        let config = EngineConfig { mode, ..EngineConfig::default() }
            .with_prune_state_by_window(true)
            .with_retain_documents(false);

        // Incremental: the whole stream, expiring as it goes.
        let mut incremental = MmqjpEngine::new(config.clone());
        incremental.register_query_text(&query).unwrap();
        let mut last = Vec::new();
        for (doc, &ts) in docs.iter().zip(&timestamps) {
            last = incremental
                .process_document(doc.clone().with_timestamp(Timestamp(ts)))
                .unwrap();
        }
        let inc_ts = |id: u64| timestamps[(id - 1) as usize];
        let incremental_keys = ts_keys(&last, inc_ts);

        // Fresh: only the documents inside the last document's window.
        let last_ts = *timestamps.last().unwrap();
        let suffix_start = docs.len()
            - timestamps.iter().filter(|&&ts| last_ts - ts <= window).count();
        let mut fresh = MmqjpEngine::new(config);
        fresh.register_query_text(&query).unwrap();
        let mut fresh_last = Vec::new();
        for (doc, &ts) in docs[suffix_start..].iter().zip(&timestamps[suffix_start..]) {
            fresh_last = fresh
                .process_document(doc.clone().with_timestamp(Timestamp(ts)))
                .unwrap();
        }
        let fresh_ts = |id: u64| timestamps[suffix_start + (id - 1) as usize];
        let fresh_keys = ts_keys(&fresh_last, fresh_ts);

        prop_assert_eq!(
            incremental_keys,
            fresh_keys,
            "{:?}: incremental expiry changed the final document's matches",
            mode
        );
    }
}
