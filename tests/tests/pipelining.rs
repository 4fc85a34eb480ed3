//! Stress tests for the sharded engine's batch boundary: many tiny batches,
//! empty and interleaved-empty batches, skewed and degenerate shard
//! populations, and error handling mid-stream. The invariants are: no batch
//! is reordered, dropped, or duplicated; every batch's merged output is
//! byte-identical to a single engine's canonically-ordered output for the
//! same batch; and an error leaves the engine synchronized and usable.

use mmqjp_core::{sort_matches, CoreError, EngineConfig, MatchOutput, MmqjpEngine, ShardedEngine};
use mmqjp_integration_tests::{assert_audit_clean_sharded, sharded_engine_with_queries, Q1};
use mmqjp_workload::{RssQueryGenerator, RssStreamConfig, RssStreamGenerator};
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
        channels: 8,
        title_vocabulary: 10,
        description_vocabulary: 15,
        ..RssStreamConfig::default()
    })
    .documents();
    (qs, docs)
}

/// Batch-at-a-time reference on a single engine with the same per-shard
/// config, each batch sorted canonically: pins the expected bytes and the
/// batch alignment every sharded run must reproduce.
fn single_engine_reference(
    config: &EngineConfig,
    queries: &[mmqjp_xscl::XsclQuery],
    batches: &[Vec<Document>],
) -> Vec<Vec<MatchOutput>> {
    let mut engine = MmqjpEngine::new(config.clone());
    for q in queries {
        engine.register_query(q.clone()).unwrap();
    }
    batches
        .iter()
        .map(|b| {
            let mut matches = engine.process_batch(b.clone()).unwrap();
            sort_matches(&mut matches);
            matches
        })
        .collect()
}

/// Feed `batches` one `process_batch` call at a time.
fn run_batches(engine: &mut ShardedEngine, batches: &[Vec<Document>]) -> Vec<Vec<MatchOutput>> {
    batches
        .iter()
        .map(|b| engine.process_batch(b.clone()).unwrap())
        .collect()
}

/// Many tiny batches: with one document per batch every call fans out to
/// and collects from every shard. Nothing may be reordered, dropped, or
/// duplicated.
#[test]
fn many_tiny_batches_keep_order_and_lose_nothing() {
    let (queries, docs) = rss_workload(51, 40, 60);
    let config = EngineConfig::mmqjp().with_retain_documents(false);
    let batches: Vec<Vec<Document>> = docs.chunks(1).map(<[_]>::to_vec).collect();
    let expected = single_engine_reference(&config, &queries, &batches);
    assert!(
        expected.iter().any(|b| !b.is_empty()),
        "the workload must produce matches"
    );

    let mut engine = sharded_engine_with_queries(config, 3, &queries);
    let results = run_batches(&mut engine, &batches);
    assert_eq!(results.len(), expected.len(), "a batch was dropped");
    assert_eq!(results, expected, "batches reordered or corrupted");
    // Total match accounting survives the fan-out and merge.
    assert_eq!(
        engine.stats().unwrap().results_emitted,
        expected.iter().map(Vec::len).sum::<usize>()
    );
    assert_audit_clean_sharded(&engine);
}

/// One shard: the coordinator degenerates to a single producer/consumer
/// pair; every batch must still be handed over exactly once.
#[test]
fn one_shard_pipeline_is_equivalent() {
    let (queries, docs) = rss_workload(52, 25, 40);
    let config = EngineConfig::mmqjp_view_mat().with_retain_documents(false);
    let batches: Vec<Vec<Document>> = docs.chunks(3).map(<[_]>::to_vec).collect();
    let expected = single_engine_reference(&config, &queries, &batches);
    let mut engine = sharded_engine_with_queries(config, 1, &queries);
    assert_eq!(run_batches(&mut engine, &batches), expected);
    assert_audit_clean_sharded(&engine);
}

/// Zero queries: batches must still flow through every shard without
/// deadlocking or dropping a batch, and every result is empty.
#[test]
fn zero_query_pipeline_flows_empty_batches() {
    let (_, docs) = rss_workload(53, 1, 30);
    let config = EngineConfig::mmqjp().with_retain_documents(false);
    let mut engine = sharded_engine_with_queries(config, 4, &[]);
    let batches: Vec<Vec<Document>> = docs.chunks(1).map(<[_]>::to_vec).collect();
    let results = run_batches(&mut engine, &batches);
    assert_eq!(results.len(), batches.len());
    assert!(results.iter().all(Vec::is_empty));
    // Every document reaches all four shards.
    assert_eq!(engine.stats().unwrap().documents_processed, 30 * 4);
    assert_audit_clean_sharded(&engine);
}

/// Empty batches interleaved with real ones: each must land at the right
/// position in the result sequence, and an empty batch must not disturb the
/// stream position of the batches around it.
#[test]
fn interleaved_empty_batches_stay_aligned() {
    let (queries, docs) = rss_workload(54, 30, 20);
    let config = EngineConfig::mmqjp().with_retain_documents(false);
    let mut batches: Vec<Vec<Document>> = Vec::new();
    for (i, chunk) in docs.chunks(2).enumerate() {
        if i % 3 == 0 {
            batches.push(Vec::new());
        }
        batches.push(chunk.to_vec());
    }
    batches.push(Vec::new());
    let expected = single_engine_reference(&config, &queries, &batches);
    let mut engine = sharded_engine_with_queries(config, 2, &queries);
    assert_eq!(run_batches(&mut engine, &batches), expected);
    assert_audit_clean_sharded(&engine);
}

/// Slow-shard scenario: a shard count far above the query count leaves most
/// shards idle while one or two do all the Stage-2 work — the collector
/// must wait for the slow shard on every batch without deadlock or
/// reordering.
#[test]
fn skewed_shard_load_does_not_reorder_or_deadlock() {
    let (queries, docs) = rss_workload(55, 3, 40);
    let config = EngineConfig::mmqjp().with_retain_documents(false);
    let batches: Vec<Vec<Document>> = docs.chunks(2).map(<[_]>::to_vec).collect();
    let expected = single_engine_reference(&config, &queries, &batches);
    let mut engine = sharded_engine_with_queries(config, 7, &queries);
    // Most shards hold no queries at all.
    assert!(
        engine
            .queries_per_shard()
            .iter()
            .filter(|&&n| n == 0)
            .count()
            >= 4
    );
    assert_eq!(run_batches(&mut engine, &batches), expected);
    assert_audit_clean_sharded(&engine);
}

/// An out-of-order document rejected mid-stream: the batch returns the
/// error, every shard stays in step, and the engine continues exactly like
/// a single engine after a rejected batch.
#[test]
fn error_mid_stream_leaves_the_pipeline_synchronized() {
    let mut config = EngineConfig::mmqjp();
    config.enforce_in_order = true;
    let mut single = MmqjpEngine::new(config.clone());
    single.register_query_text(Q1).unwrap();
    let mut engine = ShardedEngine::new(config.with_num_shards(3));
    engine.register_query_text(Q1).unwrap();

    let d1 = mmqjp_integration_tests::d1();
    let d2 = mmqjp_integration_tests::d2();
    let first = vec![d1.with_timestamp(Timestamp(100))];
    let stale = vec![d2.clone().with_timestamp(Timestamp(50))];
    assert!(engine.process_batch(first.clone()).unwrap().is_empty());
    single.process_batch(first).unwrap();
    let err = engine.process_batch(stale.clone()).unwrap_err();
    assert!(matches!(
        err,
        CoreError::OutOfOrderDocument {
            timestamp: 50,
            newest: 100
        }
    ));
    assert_eq!(single.process_batch(stale).unwrap_err(), err);

    // A later in-order batch still matches against the state from the
    // first batch, with the same bytes as the single engine.
    let later = vec![d2.with_timestamp(Timestamp(150))];
    let out = engine.process_batch(later.clone()).unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out, single.process_batch(later).unwrap());
    // Even after a rejected batch, the invariant audit stays clean.
    assert_audit_clean_sharded(&engine);
}
