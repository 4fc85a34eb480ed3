//! Deterministic chaos harness for the self-healing sharded pipeline.
//!
//! The central property is differential: under *any* seeded fault schedule —
//! worker panics, dropped replies, corrupted document bytes, out-of-order
//! timestamps — a [`FaultPolicy::Quarantine`] engine must
//! produce byte-identical output to a fresh, fault-free engine fed only the
//! surviving documents, and its invariant audit must come back clean after
//! every recovery. Alongside the differential sweep there are targeted tests
//! for each policy: FailFast containment (a panic becomes a typed error, not
//! a hang), Degrade (dead shards go dark, the rest keep serving, a manual
//! respawn restores full service), and Quarantine's handling of poison
//! input mid-stream.
//!
//! The three default seeds are fixed so CI failures replay exactly; override
//! them with `MMQJP_CHAOS_SEEDS=1,2,3` to widen the sweep.

use std::collections::HashSet;
use std::time::Duration;

use mmqjp_core::{
    corrupt_bytes, CoreError, EngineConfig, FaultInjector, FaultKind, FaultPlan, FaultPolicy,
    MatchOutput, QuarantineRecord, ShardedEngine,
};
use mmqjp_integration_tests::{
    assert_audit_clean_sharded, match_keys, sharded_engine_with_queries,
};
use mmqjp_workload::{RssQueryGenerator, RssStreamConfig, RssStreamGenerator};
use mmqjp_xml::{parse_document, parse_document_streaming, serialize, Document, Timestamp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The fixed seeds the CI chaos job runs. `MMQJP_CHAOS_SEEDS` (comma-
/// separated) overrides them for wider local sweeps.
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("MMQJP_CHAOS_SEEDS") {
        Ok(spec) => spec
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .collect(),
        Err(_) => vec![11, 29, 47],
    }
}

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

/// Build an engine under the given fault policy with the plan installed
/// before any queries register (floors start at zero, like the reference).
fn chaos_engine(
    config: EngineConfig,
    num_shards: usize,
    policy: FaultPolicy,
    plan: FaultPlan,
    queries: &[mmqjp_xscl::XsclQuery],
) -> ShardedEngine {
    let mut engine =
        ShardedEngine::new(config.with_num_shards(num_shards).with_fault_policy(policy));
    engine.set_fault_injector(FaultInjector::new(plan));
    for q in queries {
        engine.register_query(q.clone()).expect("query registers");
    }
    engine
}

/// Re-parse a corrupted byte blob with *both* parsers. They must agree on
/// accept/reject and neither may panic (the malformed-input contract); a
/// blob both accept re-enters the stream, one both reject leaves it. Bytes
/// that are not even UTF-8 never reach either parser.
fn reparse_if_agreed(bytes: &[u8]) -> Option<Document> {
    let text = String::from_utf8(bytes.to_vec()).ok()?;
    let dom = parse_document(&text);
    let streaming = parse_document_streaming(&text);
    assert_eq!(
        dom.is_ok(),
        streaming.is_ok(),
        "DOM and streaming parsers disagree on corrupt input:\n  dom: {dom:?}\n  streaming: {streaming:?}\n  input: {text:?}"
    );
    dom.ok()
}

/// Apply the plan's *document-content* faults to the input stream — the
/// engine only delivers worker-directed faults; mutating the bytes it is fed
/// is the harness's job, identically for the engine under test and (via the
/// quarantine records) the reference.
fn apply_document_faults(
    plan: &FaultPlan,
    batches: &[Vec<Document>],
    seed: u64,
) -> Vec<Vec<Document>> {
    batches
        .iter()
        .enumerate()
        .map(|(index, batch)| {
            let mut docs = batch.clone();
            for fault in plan.faults_at(index as u64) {
                match fault {
                    FaultKind::CorruptDocument { doc_index } if *doc_index < docs.len() => {
                        let timestamp = docs[*doc_index].timestamp();
                        let bytes = corrupt_bytes(
                            &serialize(&docs[*doc_index]),
                            seed ^ ((index as u64) << 8) ^ *doc_index as u64,
                        );
                        match reparse_if_agreed(&bytes) {
                            // Serialization drops the stream timestamp, so
                            // a surviving mutant is re-stamped with the
                            // original's to stay in order.
                            Some(doc) => docs[*doc_index] = doc.with_timestamp(timestamp),
                            None => {
                                docs.remove(*doc_index);
                            }
                        }
                    }
                    FaultKind::OutOfOrderTimestamp { doc_index } if *doc_index < docs.len() => {
                        let stale = docs[*doc_index].clone().with_timestamp(Timestamp(1));
                        docs[*doc_index] = stale;
                    }
                    _ => {}
                }
            }
            docs
        })
        .collect()
}

/// The surviving-document stream: the chaos engine's input minus every
/// document its quarantine records rejected, batch positions preserved.
fn survivor_batches(mutated: &[Vec<Document>], records: &[QuarantineRecord]) -> Vec<Vec<Document>> {
    let quarantined: HashSet<(u64, usize)> =
        records.iter().map(|r| (r.batch, r.doc_index)).collect();
    mutated
        .iter()
        .enumerate()
        .map(|(batch, docs)| {
            docs.iter()
                .enumerate()
                .filter(|(i, _)| !quarantined.contains(&(batch as u64, *i)))
                .map(|(_, d)| d.clone())
                .collect()
        })
        .collect()
}

/// The worker-directed faults the engine will actually deliver for this
/// plan: each one retires a worker and forces a respawn, so the count pins
/// both `faults_injected` and `shards_respawned`.
fn worker_fault_count(plan: &FaultPlan, batches: u64) -> usize {
    (0..batches)
        .flat_map(|b| plan.faults_at(b))
        .filter(|f| {
            matches!(
                f,
                FaultKind::PanicShard { .. } | FaultKind::DropResponse { .. }
            )
        })
        .count()
}

/// The differential property itself. Runs one seeded fault schedule against
/// a Quarantine engine, derives the surviving stream from its quarantine
/// records, and demands byte-identical output from a fresh fault-free engine
/// fed only the survivors — plus a clean audit and exact failure-model
/// accounting on the chaos side.
fn run_chaos_differential(
    seed: u64,
    base_config: EngineConfig,
    num_shards: usize,
    num_queries: usize,
    items: usize,
) {
    let (queries, docs) = rss_workload(seed, num_queries, items);
    let batches: Vec<Vec<Document>> = docs.chunks(4).map(<[_]>::to_vec).collect();
    let plan = FaultPlan::seeded(seed, batches.len() as u64, num_shards);
    let mut config = base_config.with_retain_documents(false);
    config.enforce_in_order = true;

    let mutated = apply_document_faults(&plan, &batches, seed);

    let mut chaos = chaos_engine(
        config.clone(),
        num_shards,
        FaultPolicy::Quarantine,
        plan.clone(),
        &queries,
    );
    let chaos_out: Vec<Vec<MatchOutput>> = mutated
        .iter()
        .map(|batch| {
            chaos
                .process_batch(batch.clone())
                .expect("quarantine absorbs every injected fault")
        })
        .collect();

    let records = chaos.take_quarantine_records();
    for record in &records {
        assert!(
            matches!(record.error, CoreError::OutOfOrderDocument { .. }),
            "unexpected quarantine reason: {:?}",
            record.error
        );
        assert!(record.doc_index < mutated[record.batch as usize].len());
    }

    let survivors = survivor_batches(&mutated, &records);
    let mut reference = sharded_engine_with_queries(config, num_shards, &queries);
    let expected: Vec<Vec<MatchOutput>> = survivors
        .iter()
        .map(|batch| {
            reference
                .process_batch(batch.clone())
                .expect("the surviving stream is clean by construction")
        })
        .collect();

    assert_eq!(
        chaos_out, expected,
        "chaos output diverged from the survivor reference \
         (seed {seed}, shards {num_shards})"
    );
    assert_audit_clean_sharded(&chaos);

    let stats = chaos.stats().expect("every shard is live after healing");
    assert_eq!(stats.docs_quarantined, records.len());
    let worker_faults = worker_fault_count(&plan, batches.len() as u64);
    assert_eq!(stats.faults_injected, worker_faults);
    assert_eq!(stats.shards_respawned, worker_faults);
    if worker_faults > 0 {
        assert!(
            stats.timings.recovery > Duration::ZERO,
            "respawns must be accounted in the recovery phase"
        );
    }
    assert!(chaos.degraded_shards().is_empty());
}

/// The CI chaos matrix: three fixed seeds over two shard layouts,
/// batch-at-a-time ingestion.
#[test]
fn chaos_differential_across_seeds_and_topologies() {
    for seed in chaos_seeds() {
        for num_shards in [2, 3] {
            run_chaos_differential(seed, EngineConfig::mmqjp(), num_shards, 24, 48);
        }
    }
}

/// The same property in view-materialized mode, where healing must also
/// rebuild a consistent view cache on the respawned shard.
#[test]
fn chaos_differential_view_mat() {
    for seed in chaos_seeds() {
        run_chaos_differential(seed, EngineConfig::mmqjp_view_mat(), 3, 24, 48);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The differential property holds for arbitrary seeds across modes
    /// and shard counts — smaller workloads than the fixed-seed matrix,
    /// many more schedules.
    #[test]
    fn chaos_differential_holds_for_any_seed(
        seed in 0u64..1_000_000,
        num_shards in 1usize..5,
        view_mat in 0u8..2,
    ) {
        let base = if view_mat == 1 {
            EngineConfig::mmqjp_view_mat()
        } else {
            EngineConfig::mmqjp()
        };
        run_chaos_differential(seed, base, num_shards, 16, 32);
    }
}

/// Hand-scheduled worker deaths only (no poison input): healing must be
/// fully transparent — identical output to a never-failed engine, exact
/// respawn/fault accounting, state replayed, audit clean.
#[test]
fn injected_worker_deaths_heal_transparently() {
    let (queries, docs) = rss_workload(61, 24, 40);
    let batches: Vec<Vec<Document>> = docs.chunks(4).map(<[_]>::to_vec).collect();
    let plan = FaultPlan::none()
        .at(1, FaultKind::PanicShard { shard: 0 })
        .at(3, FaultKind::DropResponse { shard: 2 })
        .at(6, FaultKind::PanicShard { shard: 1 })
        .at(8, FaultKind::DropResponse { shard: 0 });
    let config = EngineConfig::mmqjp().with_retain_documents(false);

    let mut chaos = chaos_engine(config.clone(), 3, FaultPolicy::Quarantine, plan, &queries);
    let chaos_out: Vec<Vec<MatchOutput>> = batches
        .iter()
        .map(|b| chaos.process_batch(b.clone()).expect("healed inline"))
        .collect();

    let mut reference = sharded_engine_with_queries(config, 3, &queries);
    let expected: Vec<Vec<MatchOutput>> = batches
        .iter()
        .map(|b| reference.process_batch(b.clone()).expect("fault-free"))
        .collect();
    assert_eq!(chaos_out, expected);
    assert!(
        expected.iter().any(|b| !b.is_empty()),
        "the workload must produce matches for the comparison to bite"
    );

    let stats = chaos.stats().expect("all shards live after healing");
    assert_eq!(stats.shards_respawned, 4);
    assert_eq!(stats.faults_injected, 4);
    assert_eq!(stats.docs_quarantined, 0);
    assert!(chaos.take_quarantine_records().is_empty());
    assert!(stats.rows_replayed > 0, "healing replays in-window state");
    assert!(stats.timings.recovery > Duration::ZERO);
    assert_audit_clean_sharded(&chaos);
    assert!(chaos.degraded_shards().is_empty());
}

/// FailFast containment: an injected panic surfaces as the typed
/// [`CoreError::ShardPanicked`] — never a hang, never an unwinding test
/// harness — and the dead shard stays dead (no retention to rebuild from).
#[test]
fn failfast_turns_a_panic_into_a_typed_error() {
    let (queries, docs) = rss_workload(81, 10, 12);
    let batches: Vec<Vec<Document>> = docs.chunks(4).map(<[_]>::to_vec).collect();
    let plan = FaultPlan::none().at(1, FaultKind::PanicShard { shard: 0 });
    let config = EngineConfig::mmqjp().with_retain_documents(false);
    let mut engine = chaos_engine(config, 2, FaultPolicy::FailFast, plan, &queries);

    engine
        .process_batch(batches[0].clone())
        .expect("no fault scheduled for batch 0");
    let err = engine.process_batch(batches[1].clone()).unwrap_err();
    match err {
        CoreError::ShardPanicked { shard, payload } => {
            assert_eq!(shard, 0);
            assert!(
                payload.contains("injected fault"),
                "panic payload should carry the original message, got {payload:?}"
            );
        }
        other => panic!("expected ShardPanicked, got {other:?}"),
    }
    assert_eq!(engine.degraded_shards(), vec![0]);

    // The shard is gone for good under FailFast: subsequent batches fail
    // with a typed availability error and a respawn is refused (nothing was
    // retained to rebuild from).
    let err = engine.process_batch(batches[2].clone()).unwrap_err();
    assert!(matches!(err, CoreError::ShardUnavailable { shard: 0 }));
    assert!(matches!(
        engine.respawn_shard(0).unwrap_err(),
        CoreError::ShardUnavailable { shard: 0 }
    ));
}

/// Degrade: a dead shard's queries go dark while every surviving shard
/// keeps serving; stats and audit skip the corpse; a manual respawn rebuilds
/// it from the retained ledger and replay log, after which output is again
/// identical to a never-failed engine.
#[test]
fn degrade_keeps_serving_and_manual_respawn_restores() {
    let (queries, docs) = rss_workload(71, 30, 40);
    let batches: Vec<Vec<Document>> = docs.chunks(4).map(<[_]>::to_vec).collect();
    let plan = FaultPlan::none().at(2, FaultKind::PanicShard { shard: 1 });
    let config = EngineConfig::mmqjp().with_retain_documents(false);

    let mut degraded = chaos_engine(config.clone(), 4, FaultPolicy::Degrade, plan, &queries);
    let mut reference = sharded_engine_with_queries(config, 4, &queries);

    for (index, batch) in batches.iter().enumerate() {
        if index == 6 {
            assert_eq!(degraded.degraded_shards(), vec![1]);
            degraded.respawn_shard(1).expect("manual respawn rebuilds");
            assert!(degraded.degraded_shards().is_empty());
        }
        let out = degraded
            .process_batch(batch.clone())
            .expect("degrade keeps serving");
        let expected = reference.process_batch(batch.clone()).expect("fault-free");
        if (2..6).contains(&index) {
            // Shard 1 is dark: its matches are missing, everyone else's are
            // intact and canonically ordered.
            let out_keys: HashSet<_> = match_keys(&out).into_iter().collect();
            let expected_keys: HashSet<_> = match_keys(&expected).into_iter().collect();
            assert!(
                out_keys.is_subset(&expected_keys),
                "a degraded engine must never invent matches (batch {index})"
            );
        } else {
            assert_eq!(out, expected, "batch {index}");
        }
        // Stats and audit stay reachable throughout the outage.
        degraded.stats().expect("dead shards report zeroes");
        assert_audit_clean_sharded(&degraded);
    }
    assert_eq!(degraded.stats().unwrap().shards_respawned, 1);
}

/// Poison input mid-stream under Quarantine: the stale document is skipped
/// and recorded, every batch stays aligned, and output matches a reference
/// that never saw the poison.
#[test]
fn quarantine_skips_poison_and_stays_aligned() {
    let (queries, docs) = rss_workload(93, 16, 24);
    let batches: Vec<Vec<Document>> = docs.chunks(3).map(<[_]>::to_vec).collect();
    let mut config = EngineConfig::mmqjp().with_retain_documents(false);
    config.enforce_in_order = true;

    // Make one document in batch 3 stale by hand.
    let mut poisoned = batches.clone();
    let stale = poisoned[3][1].clone().with_timestamp(Timestamp(1));
    poisoned[3][1] = stale;

    let mut chaos = chaos_engine(
        config.clone(),
        3,
        FaultPolicy::Quarantine,
        FaultPlan::none(),
        &queries,
    );
    let out: Vec<Vec<MatchOutput>> = poisoned
        .iter()
        .map(|b| {
            chaos
                .process_batch(b.clone())
                .expect("poison is quarantined, not fatal")
        })
        .collect();

    let records = chaos.take_quarantine_records();
    assert_eq!(records.len(), 1);
    assert_eq!((records[0].batch, records[0].doc_index), (3, 1));

    let survivors = survivor_batches(&poisoned, &records);
    let mut reference = sharded_engine_with_queries(config, 3, &queries);
    let expected: Vec<Vec<MatchOutput>> = survivors
        .iter()
        .map(|b| {
            reference
                .process_batch(b.clone())
                .expect("survivors are clean")
        })
        .collect();
    assert_eq!(out, expected);
    assert_audit_clean_sharded(&chaos);
    assert_eq!(chaos.stats().unwrap().docs_quarantined, 1);
}
