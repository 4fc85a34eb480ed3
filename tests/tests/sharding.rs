//! Integration tests for the multi-core `ShardedEngine`: determinism of the
//! merged output under thread interleaving, edge cases of `process_batch` on
//! both engine types, and cross-shard statistics aggregation.

use mmqjp_core::{CoreError, EngineConfig, EngineStats, MmqjpEngine, ShardedEngine};
use mmqjp_integration_tests::{
    all_modes, d1, d2, run_stream_sharded, sharded_engine_with_queries, Q1, SHARD_COUNTS,
};
use mmqjp_workload::{
    ChurnConfig, ChurnWorkload, RssQueryGenerator, RssStreamConfig, RssStreamGenerator,
};
use mmqjp_xml::{Document, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rss_workload(
    seed: u64,
    queries: usize,
    items: usize,
) -> (Vec<mmqjp_xscl::XsclQuery>, Vec<Document>) {
    let generator = RssQueryGenerator::new(0.8);
    let mut rng = StdRng::seed_from_u64(seed);
    let qs = generator.generate_queries(queries, &mut rng);
    let docs = RssStreamGenerator::new(RssStreamConfig {
        items,
        channels: 10,
        title_vocabulary: 12,
        description_vocabulary: 18,
        ..RssStreamConfig::default()
    })
    .documents();
    (qs, docs)
}

/// Two sharded engines built from the same seed must produce identical
/// (ordered) outputs even though their worker threads interleave differently
/// run to run — the canonical merge order erases all scheduling
/// nondeterminism. Each engine is run twice to double the number of observed
/// interleavings.
#[test]
fn sharded_output_is_deterministic_across_interleavings() {
    let (queries, docs) = rss_workload(42, 80, 60);
    let run = || {
        let config = EngineConfig::mmqjp_view_mat().with_retain_documents(false);
        let mut engine = sharded_engine_with_queries(config, 4, &queries);
        run_stream_sharded(&mut engine, docs.clone())
    };
    let first = run();
    assert!(!first.is_empty(), "the workload must produce matches");
    for attempt in 0..3 {
        let again = run();
        assert_eq!(first, again, "run {attempt} diverged");
    }
}

/// Batched sharded output is deterministic across thread interleavings too:
/// the stream is fed in batches of ten, and each batch's merged output must
/// be identical run to run.
#[test]
fn batched_output_is_deterministic_across_interleavings() {
    let (queries, docs) = rss_workload(45, 60, 50);
    let run = || {
        let config = EngineConfig::mmqjp_view_mat().with_retain_documents(false);
        let mut engine = sharded_engine_with_queries(config, 4, &queries);
        docs.chunks(10)
            .map(|chunk| engine.process_batch(chunk.to_vec()).unwrap())
            .collect::<Vec<_>>()
    };
    let first = run();
    assert!(
        first.iter().any(|b| !b.is_empty()),
        "the workload must produce matches"
    );
    for attempt in 0..3 {
        assert_eq!(first, run(), "run {attempt} diverged");
    }
}

/// Per-shard statistics sum exactly to the aggregate — no counter is dropped
/// or double-counted — and the query/document accounting matches the
/// replicate-documents / partition-queries design.
#[test]
fn shard_stats_sum_to_aggregate() {
    let (queries, docs) = rss_workload(43, 50, 40);
    for &num_shards in &SHARD_COUNTS {
        let config = EngineConfig::mmqjp().with_retain_documents(false);
        let mut engine = sharded_engine_with_queries(config, num_shards, &queries);
        let num_docs = docs.len();
        run_stream_sharded(&mut engine, docs.clone());
        let per_shard = engine.shard_stats().unwrap();
        assert_eq!(per_shard.len(), num_shards);
        let total = engine.stats().unwrap();
        assert_eq!(total, per_shard.iter().copied().sum());
        assert_eq!(total.queries_registered, queries.len());
        assert_eq!(total.documents_processed, num_docs * num_shards);
        assert_eq!(
            engine.queries_per_shard().iter().sum::<usize>(),
            queries.len()
        );
    }
}

// ---------------------------------------------------------------------------
// The full shard-count × mode sweep over batched streams
// ---------------------------------------------------------------------------

/// Run `docs` in batches of `batch` through a single engine in `config`'s
/// mode, sorting each batch canonically — the byte-level reference every
/// shard count must reproduce.
fn single_engine_reference(
    config: &EngineConfig,
    queries: &[mmqjp_xscl::XsclQuery],
    docs: &[Document],
    batch: usize,
) -> Vec<mmqjp_core::MatchOutput> {
    let mut engine = MmqjpEngine::new(config.clone());
    for q in queries {
        engine.register_query(q.clone()).unwrap();
    }
    let mut out = Vec::new();
    for chunk in docs.chunks(batch) {
        let mut matches = engine.process_batch(chunk.to_vec()).unwrap();
        mmqjp_core::sort_matches(&mut matches);
        out.extend(matches);
    }
    out
}

/// Sweep every shard count × mode over a scenario and assert (a) the
/// batched sharded output is byte-identical to the single engine's
/// canonically-ordered batches and (b) the statistics decompose exactly
/// into shard sums, with every document processed by every shard.
fn assert_sweep_matches_single_engine(
    queries: &[mmqjp_xscl::XsclQuery],
    docs: &[Document],
    batch: usize,
    tweak: impl Fn(EngineConfig) -> EngineConfig,
) {
    for mode in all_modes() {
        let config = tweak(
            EngineConfig {
                mode,
                ..EngineConfig::default()
            }
            .with_retain_documents(false),
        );
        let expected = single_engine_reference(&config, queries, docs, batch);
        for &num_shards in &SHARD_COUNTS {
            let mut sharded = sharded_engine_with_queries(config.clone(), num_shards, queries);
            let mut got = Vec::new();
            for chunk in docs.chunks(batch) {
                got.extend(sharded.process_batch(chunk.to_vec()).unwrap());
            }
            assert_eq!(got, expected, "{mode:?} Sharded({num_shards}) diverges");

            // Exact stats decomposition: aggregate == shard sum.
            let per_shard = sharded.shard_stats().unwrap();
            let total = sharded.stats().unwrap();
            let shard_sum: EngineStats = per_shard.iter().copied().sum();
            assert_eq!(total, shard_sum);
            assert_eq!(total.documents_processed, docs.len() * num_shards);
            assert_eq!(total.results_emitted, expected.len());
        }
    }
}

#[test]
fn sharded_sweep_on_windowed_rss_stream() {
    // Finite windows exercise the temporal filter on every shard.
    let generator = RssQueryGenerator::new(0.8).with_window(mmqjp_xscl::Window::Time(15));
    let mut rng = StdRng::seed_from_u64(44);
    let queries = generator.generate_queries(20, &mut rng);
    let docs = RssStreamGenerator::new(RssStreamConfig {
        items: 30,
        channels: 6,
        title_vocabulary: 8,
        description_vocabulary: 12,
        ..RssStreamConfig::default()
    })
    .documents();
    assert_sweep_matches_single_engine(&queries, &docs, 7, |c| c);
}

#[test]
fn sharded_sweep_on_churn_stream_with_pruning() {
    // The sustained-operation scenario: heterogeneous windows with
    // incremental state expiry active on every shard.
    let workload = ChurnWorkload::new(ChurnConfig {
        items: 40,
        num_queries: 18,
        windows: vec![15, 40],
        ..ChurnConfig::default()
    });
    let queries = workload.queries();
    let docs = workload.documents();
    assert_sweep_matches_single_engine(&queries, &docs, 9, |c| c.with_prune_state_by_window(true));
}

// ---------------------------------------------------------------------------
// process_batch edge cases, exercised identically on both engine types
// ---------------------------------------------------------------------------

#[test]
fn empty_batch_is_a_no_op_on_both_engines() {
    for mode in all_modes() {
        let config = EngineConfig {
            mode,
            ..EngineConfig::default()
        };
        let mut single = MmqjpEngine::new(config.clone());
        single.register_query_text(Q1).unwrap();
        assert!(single.process_batch(Vec::new()).unwrap().is_empty());
        assert_eq!(single.stats().documents_processed, 0);

        let mut sharded = ShardedEngine::new(config.with_num_shards(3));
        sharded.register_query_text(Q1).unwrap();
        assert!(sharded.process_batch(Vec::new()).unwrap().is_empty());
        assert_eq!(sharded.stats().unwrap().documents_processed, 0);
    }
}

#[test]
fn zero_registered_queries_absorb_documents() {
    for mode in all_modes() {
        let config = EngineConfig {
            mode,
            ..EngineConfig::default()
        };
        let mut single = MmqjpEngine::new(config.clone());
        assert!(single.process_batch(vec![d1(), d2()]).unwrap().is_empty());
        assert_eq!(single.stats().documents_processed, 2);

        // Every shard of a query-less sharded engine is an empty shard; the
        // engine must still ingest state cleanly.
        let mut sharded = ShardedEngine::new(config.with_num_shards(4));
        assert!(sharded.process_batch(vec![d1(), d2()]).unwrap().is_empty());
        assert_eq!(sharded.stats().unwrap().documents_processed, 2 * 4);
    }
}

#[test]
fn single_block_only_query_sets_match_on_both_engines() {
    // No join queries at all: Stage 2 is idle and matches come straight from
    // the Stage-1 pattern matcher of whichever shard holds each subscription.
    let subscriptions = [
        "S//blog[.//author]",
        "S//book[.//title]",
        "S//blog[.//category]",
    ];
    for mode in all_modes() {
        let config = EngineConfig {
            mode,
            ..EngineConfig::default()
        };
        let mut single = MmqjpEngine::new(config.clone());
        for s in subscriptions {
            single.register_query_text(s).unwrap();
        }
        let mut expected = Vec::new();
        for doc in [d1(), d2()] {
            let mut matches = single.process_batch(vec![doc]).unwrap();
            mmqjp_core::sort_matches(&mut matches);
            expected.extend(matches);
        }
        assert_eq!(expected.len(), 3); // book: title; blog: author + category

        for &num_shards in &SHARD_COUNTS {
            let mut sharded = ShardedEngine::new(config.clone().with_num_shards(num_shards));
            for s in subscriptions {
                sharded.register_query_text(s).unwrap();
            }
            let mut got = Vec::new();
            for doc in [d1(), d2()] {
                got.extend(sharded.process_batch(vec![doc]).unwrap());
            }
            assert_eq!(got, expected, "Sharded({num_shards}) diverges");
        }
    }
}

#[test]
fn out_of_order_batch_errors_identically_on_both_engines() {
    let mut config = EngineConfig::mmqjp();
    config.enforce_in_order = true;

    let mut single = MmqjpEngine::new(config.clone());
    single.register_query_text(Q1).unwrap();
    single
        .process_document(d1().with_timestamp(Timestamp(100)))
        .unwrap();
    let single_err = single
        .process_batch(vec![d2().with_timestamp(Timestamp(50))])
        .unwrap_err();

    let mut sharded = ShardedEngine::new(config.with_num_shards(3));
    sharded.register_query_text(Q1).unwrap();
    sharded
        .process_document(d1().with_timestamp(Timestamp(100)))
        .unwrap();
    let sharded_err = sharded
        .process_batch(vec![d2().with_timestamp(Timestamp(50))])
        .unwrap_err();

    assert_eq!(single_err, sharded_err);
    assert!(matches!(
        sharded_err,
        CoreError::OutOfOrderDocument {
            timestamp: 50,
            newest: 100
        }
    ));

    // Both engines recover identically: a later in-order document matches.
    let a = single
        .process_document(d2().with_timestamp(Timestamp(150)))
        .map(|mut m| {
            mmqjp_core::sort_matches(&mut m);
            m
        })
        .unwrap();
    let b = sharded
        .process_document(d2().with_timestamp(Timestamp(150)))
        .unwrap();
    assert_eq!(a, b);
    assert_eq!(a.len(), 1);
}
