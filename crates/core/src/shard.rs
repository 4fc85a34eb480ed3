//! Multi-core processing through query-population sharding.
//!
//! The paper's Join Processor is a single-threaded component; its evaluation
//! is inherently shareable across queries but not, by itself, across cores.
//! [`ShardedEngine`] scales it out by hash-partitioning the *query
//! population* across `N` independent [`MmqjpEngine`] shards and replicating
//! the *document stream* to all of them. Each shard runs on a long-lived
//! worker thread, owns its own registry, join state and view cache, and
//! evaluates its query subset in the configured
//! [`ProcessingMode`](crate::ProcessingMode) — a shard is just a smaller
//! engine, so sharding composes with Sequential, MMQJP and MMQJP+VM alike.
//! Every shard runs the shared Stage-1 automaton pass over every document,
//! restricted to its own queries' patterns, so the per-document pass is
//! repeated once per shard.
//!
//! ```text
//!   docs ─▶ fan-out (one clone per shard)
//!             │       │       │
//!             ▼       ▼       ▼
//!          ┌─────┐ ┌─────┐ ┌─────┐
//!   qid ──▶│shard│ │shard│ │shard│   Stage 1: shared automaton pass
//!   hash   │ S1  │ │ S1  │ │ S1  │   over the shard's own patterns
//!          │ S2  │ │ S2  │ │ S2  │   Stage 2: the shard's templates
//!          └──┬──┘ └──┬──┘ └──┬──┘
//!             ▼       ▼       ▼
//!          canonical merge (sort_matches)
//! ```
//!
//! # Determinism
//!
//! Every shard sees the full document stream in arrival order, so the
//! shards assign identical document ids and timestamps and each query
//! produces exactly the matches it would produce in a single engine. The
//! merged batch output is sorted into the canonical
//! `(query, left_doc, right_doc, bindings)` order (see
//! [`sort_matches`](crate::sort_matches)), which makes the result
//! independent of shard count and thread interleaving: a `ShardedEngine`
//! with any `N` returns exactly a canonically-sorted single-engine batch.
//!
//! # Thread-safety audit
//!
//! The engine state is `Send` by construction: the registry, witness
//! relations and view cache own their data outright (no `Rc`, no
//! thread-bound interior mutability), and the one shared component — the
//! [`StringInterner`] — is behind `Arc` + `RwLock` and is shared by all
//! shards so symbols stay comparable engine-wide. The `assert_send`
//! bindings at the bottom of this module enforce this at compile time.

use crate::audit::AuditViolation;
use crate::config::{EngineConfig, FaultPolicy};
use crate::engine::MmqjpEngine;
use crate::error::{CoreError, CoreResult};
use crate::fault::{FaultInjector, FaultKind, QuarantineRecord, WorkerFault};
use crate::output::{sort_matches, MatchOutput};
use crate::recovery::{self, ReplayLog, RetainedQuery};
use crate::stats::EngineStats;
use mmqjp_relational::StringInterner;
use mmqjp_xml::{DocId, Document, Timestamp};
use mmqjp_xscl::{QueryId, XsclQuery};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// A request sent to a shard worker thread. Every request carries a reply
/// channel; the worker answers each request exactly once, in order.
enum Request {
    /// Register a query under the given engine-global id.
    Register {
        query: Box<XsclQuery>,
        global: QueryId,
        reply: Sender<CoreResult<()>>,
    },
    /// Unregister the query registered under the given engine-global id.
    Unregister {
        global: QueryId,
        reply: Sender<CoreResult<()>>,
    },
    /// Process a document batch and return the shard's matches, with query
    /// ids already translated back to engine-global ids.
    Batch {
        docs: Vec<Document>,
        /// Injected fault to deliver while serving this request (chaos
        /// harness only; always `None` in production).
        fault: Option<WorkerFault>,
        reply: Sender<CoreResult<Vec<MatchOutput>>>,
    },
    /// Snapshot the shard's statistics.
    Stats { reply: Sender<EngineStats> },
    /// Run the shard engine's invariant audit (see [`MmqjpEngine::audit`])
    /// and return its violations.
    Audit { reply: Sender<Vec<AuditViolation>> },
}

/// The pending reply of one shard to one batch.
type BatchReply = Receiver<CoreResult<Vec<MatchOutput>>>;

/// One shard: the channel into its worker thread and the join handle.
struct Shard {
    sender: Option<Sender<Request>>,
    handle: Option<JoinHandle<()>>,
}

/// How the coordinator's batch screening treats a poison (out-of-order)
/// document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PoisonHandling {
    /// Historical [`FaultPolicy::FailFast`] semantics: the poison document
    /// consumes its sequence number, then the batch fails.
    Consume,
    /// [`FaultPolicy::Quarantine`]: record the document and skip it without
    /// consuming a sequence number, so survivors get exactly the ids a
    /// fresh engine fed only survivors would assign.
    Quarantine,
    /// [`FaultPolicy::Degrade`]: fail the batch atomically (no sequence
    /// numbers consumed, no dispatch), keeping the coordinator's watermark
    /// mirror in lockstep with shards that never saw the batch.
    Atomic,
}

/// A multi-core MMQJP engine: `N` independent [`MmqjpEngine`] shards over a
/// hash-partitioned query population, merged into a deterministic,
/// canonically-ordered match stream.
///
/// The API mirrors [`MmqjpEngine`]: register queries, then feed documents or
/// batches. [`EngineConfig::num_shards`] selects the shard count; every
/// other config knob applies to each shard individually. Every document
/// batch is replicated to every shard.
///
/// ```
/// use mmqjp_core::{EngineConfig, ShardedEngine};
/// use mmqjp_xml::rss;
///
/// let mut engine = ShardedEngine::new(EngineConfig::default().with_num_shards(4));
/// engine.register_query_text(
///     "S//book->x1[.//author->x2][.//title->x3] \
///      FOLLOWED BY{x2=x5 AND x3=x6, 100} \
///      S//blog->x4[.//author->x5][.//title->x6]",
/// ).unwrap();
///
/// let d1 = rss::book_announcement(&["Danny Ayers"], "RSS", &[], "Wrox", "0764579169");
/// let d2 = rss::blog_article("Danny Ayers", "http://...", "RSS", "Books", "...");
/// assert!(engine.process_document(d1).unwrap().is_empty());
/// assert_eq!(engine.process_document(d2).unwrap().len(), 1);
/// // Each of the four shards ran Stage 1 over both documents.
/// assert_eq!(engine.stats().unwrap().documents_processed, 2 * 4);
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    config: EngineConfig,
    interner: Arc<StringInterner>,
    shards: Vec<Shard>,
    queries_per_shard: Vec<usize>,
    next_query: u64,
    live_queries: usize,
    /// Mirror of every shard's document sequence. Maintained only when
    /// `fault_policy != FailFast`: the coordinator then screens and stamps
    /// batches itself (shards restamp identically), so it always knows the
    /// stream position a dead shard must be rebuilt at.
    mirror_seq: u64,
    /// Mirror of the newest timestamp; see [`mirror_seq`](Self::mirror_seq).
    mirror_newest: u64,
    /// Batches ingested so far — the index fault plans and quarantine
    /// records are keyed by. Counts every `process_batch` call, empty or
    /// not.
    batches_ingested: u64,
    /// Live subscriptions retained for recovery, keyed by global query id
    /// (ascending = original registration order). Empty under
    /// [`FaultPolicy::FailFast`].
    retained: BTreeMap<u64, RetainedQuery>,
    /// Bounded log of stamped survivor batches for replay; empty under
    /// [`FaultPolicy::FailFast`].
    replay_log: ReplayLog,
    /// Cached replay-log retention bound, recomputed on registration churn
    /// so eviction does not rescan every retained query per batch.
    retention: Option<u64>,
    /// Quarantined (poison) documents awaiting
    /// [`take_quarantine_records`](Self::take_quarantine_records).
    quarantine: Vec<QuarantineRecord>,
    /// Deterministic fault injector (chaos harness only); `None` in
    /// production.
    injector: Option<FaultInjector>,
    /// Faults scheduled for the batch currently being ingested, drained as
    /// each worker request is built.
    pending_faults: Vec<FaultKind>,
    /// Coordinator-side counters (`docs_quarantined`, `shards_respawned`,
    /// `faults_injected`, recovery timings) merged into
    /// [`stats`](Self::stats).
    supervisor_stats: EngineStats,
}

impl ShardedEngine {
    /// Create a sharded engine with [`EngineConfig::num_shards`] shards
    /// (a count of `0` is treated as `1`), each running the configured
    /// processing mode on its own worker thread.
    pub fn new(config: EngineConfig) -> Self {
        let num_shards = config.num_shards.max(1);
        let interner = Arc::new(StringInterner::new());
        let shards = (0..num_shards)
            .map(|i| {
                let engine = MmqjpEngine::with_interner(config.clone(), Arc::clone(&interner));
                spawn_shard_worker(i, engine, Vec::new())
                    // lint:allow one-time startup; a failed spawn leaves no engine to return
                    .expect("spawning a shard worker thread succeeds")
            })
            .collect();
        ShardedEngine {
            config,
            interner,
            shards,
            queries_per_shard: vec![0; num_shards],
            next_query: 0,
            live_queries: 0,
            mirror_seq: 0,
            mirror_newest: 0,
            batches_ingested: 0,
            retained: BTreeMap::new(),
            replay_log: ReplayLog::default(),
            retention: Some(0),
            quarantine: Vec::new(),
            injector: None,
            pending_faults: Vec::new(),
            supervisor_stats: EngineStats::default(),
        }
    }

    /// The engine configuration (shared by every shard).
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total number of live registered queries across all shards.
    pub fn num_queries(&self) -> usize {
        self.live_queries
    }

    /// Total number of query ids ever assigned (freed ids are tombstoned,
    /// never reused).
    pub fn total_queries_registered(&self) -> usize {
        self.next_query as usize
    }

    /// Number of live queries assigned to each shard, by shard index.
    pub fn queries_per_shard(&self) -> &[usize] {
        &self.queries_per_shard
    }

    /// The string interner shared by all shards.
    pub fn interner(&self) -> &Arc<StringInterner> {
        &self.interner
    }

    /// The shard a query id is assigned to.
    pub fn shard_of(&self, id: QueryId) -> usize {
        shard_of(id, self.shards.len())
    }

    /// Register a query from its textual XSCL form. Returns the query id.
    pub fn register_query_text(&mut self, text: &str) -> CoreResult<QueryId> {
        let query = mmqjp_xscl::parse_query(text)?;
        self.register_query(query)
    }

    /// Register a parsed query on the shard its id hashes to. Returns the
    /// engine-global query id, which matches the id a single [`MmqjpEngine`]
    /// registering the same queries in the same order would assign.
    pub fn register_query(&mut self, query: XsclQuery) -> CoreResult<QueryId> {
        let global = QueryId(self.next_query);
        let shard = shard_of(global, self.shards.len());
        // Under a recovering fault policy the coordinator retains each live
        // query (plus its arrival floor) so a dead shard can be rebuilt.
        let retain = (self.config.fault_policy != FaultPolicy::FailFast).then(|| RetainedQuery {
            query: query.clone(),
            floor: self.stream_position().0,
        });
        let (reply, response) = channel();
        self.send(
            shard,
            Request::Register {
                query: Box::new(query),
                global,
                reply,
            },
        )?;
        response
            .recv()
            .map_err(|_| CoreError::ShardUnavailable { shard })??;
        // Failed registrations consume no id, matching the single engine.
        self.next_query += 1;
        self.live_queries += 1;
        self.queries_per_shard[shard] += 1;
        if let Some(retained) = retain {
            self.retained.insert(global.raw(), retained);
            self.refresh_retention();
        }
        Ok(global)
    }

    /// Unregister a query on the shard that owns it. Mirrors
    /// [`MmqjpEngine::unregister_query`]: the owning shard incrementally
    /// releases the query's footprint, and the freed id is never reused.
    /// Errors with [`CoreError::UnknownQuery`] for ids never assigned or
    /// already unregistered, and [`CoreError::ShardUnavailable`] if the
    /// owning shard's worker is gone.
    pub fn unregister_query(&mut self, id: QueryId) -> CoreResult<()> {
        let shard = shard_of(id, self.shards.len());
        let (reply, response) = channel();
        self.send(shard, Request::Unregister { global: id, reply })?;
        response
            .recv()
            .map_err(|_| CoreError::ShardUnavailable { shard })??;
        self.live_queries -= 1;
        self.queries_per_shard[shard] -= 1;
        if self.retained.remove(&id.raw()).is_some() {
            self.refresh_retention();
        }
        Ok(())
    }

    /// Process one document, returning its matches in canonical order.
    pub fn process_document(&mut self, doc: Document) -> CoreResult<Vec<MatchOutput>> {
        self.process_batch(vec![doc])
    }

    /// Process a batch of documents in arrival order.
    ///
    /// The batch is fanned out to every live shard before any reply is
    /// collected, so the shards process it concurrently; each shard keeps
    /// the full join state for its query subset. The per-shard matches are
    /// merged into the canonical `(query, left_doc, right_doc, bindings)`
    /// order. The batched-evaluation trade-off of
    /// [`MmqjpEngine::process_batch`] applies unchanged.
    pub fn process_batch(&mut self, docs: Vec<Document>) -> CoreResult<Vec<MatchOutput>> {
        let batch_index = self.begin_batch();
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let policy = self.config.fault_policy;
        let position = self.stream_position();
        // Under a recovering policy the coordinator screens and stamps the
        // batch itself: shards then see only clean survivors (restamping
        // them identically), and the stamped batch is what the replay log
        // keeps. Under FailFast the shards screen as before and the
        // coordinator stays off the hot path entirely.
        let docs = if policy == FaultPolicy::FailFast {
            docs
        } else {
            let survivors = screen_and_stamp(
                docs,
                &mut self.mirror_seq,
                &mut self.mirror_newest,
                self.config.enforce_in_order,
                poison_handling(policy),
                batch_index,
                &mut self.quarantine,
                &mut self.supervisor_stats.docs_quarantined,
            )?;
            if survivors.is_empty() {
                return Ok(Vec::new());
            }
            survivors
        };
        let log_entry = (policy != FaultPolicy::FailFast).then(|| docs.clone());
        // Only Degrade serves around a dead shard; under any other policy a
        // dead shard at dispatch time is a hard availability error (the
        // send below reports it).
        let live: Vec<usize> = (0..self.shards.len())
            .filter(|&s| policy != FaultPolicy::Degrade || self.shards[s].sender.is_some())
            .collect();
        let Some(&last) = live.last() else {
            return Err(CoreError::ShardUnavailable { shard: 0 });
        };
        // The last live shard takes ownership of the batch; the others get
        // clones.
        let mut responses = Vec::with_capacity(live.len());
        let mut docs = Some(docs);
        for &shard in &live {
            let batch = if shard == last {
                // lint:allow the loop takes the batch only on its final iteration
                docs.take().expect("batch is moved out exactly once")
            } else {
                // lint:allow the loop takes the batch only on its final iteration
                docs.as_ref().expect("batch not yet moved").clone()
            };
            let fault = self.worker_fault_for_shard(shard);
            let (reply, response) = channel();
            self.send(
                shard,
                Request::Batch {
                    docs: batch,
                    fault,
                    reply,
                },
            )?;
            responses.push((shard, response));
        }
        self.collect_shard_outputs(responses, log_entry, position)
    }

    // ------------------------------------------------------------------
    // Failure model
    // ------------------------------------------------------------------

    /// Install a deterministic fault injector. Each subsequent batch asks
    /// the injector for its scheduled faults ([`FaultKind`]) and delivers
    /// the worker-directed ones (panic a shard, drop a reply) while serving
    /// that batch. Document-content faults are the chaos harness's job — it
    /// owns the input stream and must mutate the reference stream
    /// identically — so the engine ignores them.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Drain the quarantined-document records accumulated since the last
    /// call (only [`FaultPolicy::Quarantine`] produces any). Each record
    /// pins the poison document by `(batch, doc_index)` of the ingestion
    /// call that rejected it.
    pub fn take_quarantine_records(&mut self) -> Vec<QuarantineRecord> {
        std::mem::take(&mut self.quarantine)
    }

    /// The bounded replay log backing shard recovery. Empty under
    /// [`FaultPolicy::FailFast`].
    pub fn replay_log(&self) -> &ReplayLog {
        &self.replay_log
    }

    /// Shards whose worker has died and not (yet) been respawned. Always
    /// empty under [`FaultPolicy::Quarantine`] between calls (dead shards
    /// are healed inline) and under [`FaultPolicy::FailFast`] before the
    /// first failure.
    pub fn degraded_shards(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.sender.is_none())
            .map(|(i, _)| i)
            .collect()
    }

    /// Respawn shard `shard`'s worker with deterministically rebuilt state:
    /// a fresh engine, the shard's surviving subscriptions re-registered at
    /// their original arrival floors, and the retained document stream
    /// replayed (see [`recovery`]). Requires a recovering fault policy —
    /// under [`FaultPolicy::FailFast`] nothing is retained to rebuild from,
    /// so this errors with [`CoreError::ShardUnavailable`]. Under
    /// [`FaultPolicy::Quarantine`] the supervisor calls this automatically;
    /// under [`FaultPolicy::Degrade`] call it manually to restore a
    /// degraded shard.
    pub fn respawn_shard(&mut self, shard: usize) -> CoreResult<()> {
        let (ingested, newest) = self.stream_position();
        self.respawn_shard_at(shard, ingested, newest)
    }

    /// [`respawn_shard`](Self::respawn_shard) at an explicit stream
    /// position — the supervisor heals mid-collection, when the watermarks
    /// already include the in-flight batch that the replay log does not.
    fn respawn_shard_at(&mut self, shard: usize, ingested: u64, newest: u64) -> CoreResult<()> {
        if self.config.fault_policy == FaultPolicy::FailFast {
            return Err(CoreError::ShardUnavailable { shard });
        }
        let t0 = Instant::now();
        self.retire_shard(shard);
        let queries: Vec<(u64, RetainedQuery)> = self
            .retained
            .iter()
            .filter(|(global, _)| shard_of(QueryId(**global), self.shards.len()) == shard)
            .map(|(global, retained)| (*global, retained.clone()))
            .collect();
        let (engine, globals, _rows) = recovery::rebuild_shard_engine(
            &self.config,
            &self.interner,
            &queries,
            &self.replay_log,
            ingested,
            newest,
        )?;
        let globals = globals.into_iter().map(QueryId).collect();
        self.shards[shard] = spawn_shard_worker(shard, engine, globals)
            .map_err(|_| CoreError::ShardUnavailable { shard })?;
        self.supervisor_stats.shards_respawned += 1;
        self.supervisor_stats.timings.recovery += t0.elapsed();
        Ok(())
    }

    /// Retire a dead or desynchronized shard worker: close its request
    /// channel (ending its loop if it is still alive) and reap the thread.
    fn retire_shard(&mut self, shard: usize) {
        self.shards[shard].sender = None;
        if let Some(handle) = self.shards[shard].handle.take() {
            let _ = handle.join();
        }
    }

    /// Heal a shard that died while serving the in-flight batch: respawn it
    /// at the pre-batch stream position (the replay log does not contain
    /// the in-flight batch yet), then re-serve it this batch's documents —
    /// fault-free — and return its matches. The rebuilt state plus the
    /// retried batch leave the shard byte-identical to one that never died.
    fn heal_shard(
        &mut self,
        shard: usize,
        log_entry: Option<&Vec<Document>>,
        position: (u64, u64),
    ) -> CoreResult<Vec<MatchOutput>> {
        let t0 = Instant::now();
        self.respawn_shard_at(shard, position.0, position.1)?;
        let docs = log_entry
            .cloned()
            .ok_or(CoreError::ShardUnavailable { shard })?;
        let (reply, response) = channel();
        self.send(
            shard,
            Request::Batch {
                docs,
                fault: None,
                reply,
            },
        )?;
        let outputs = response
            .recv()
            .map_err(|_| CoreError::ShardUnavailable { shard })?;
        self.supervisor_stats.timings.recovery += t0.elapsed();
        outputs
    }

    /// Advance the batch counter and fetch the faults scheduled for the new
    /// batch, if an injector is installed.
    fn begin_batch(&mut self) -> u64 {
        let index = self.batches_ingested;
        self.batches_ingested += 1;
        self.pending_faults = match self.injector.as_mut() {
            Some(injector) => injector.faults_for(index),
            None => Vec::new(),
        };
        index
    }

    /// Drain the pending worker fault aimed at shard `shard` for the
    /// current batch, if any.
    fn worker_fault_for_shard(&mut self, shard: usize) -> Option<WorkerFault> {
        let position = self.pending_faults.iter().position(|f| {
            matches!(f, FaultKind::PanicShard { shard: s } if *s == shard)
                || matches!(f, FaultKind::DropResponse { shard: s } if *s == shard)
        })?;
        let fault = match self.pending_faults.swap_remove(position) {
            FaultKind::PanicShard { .. } => WorkerFault::Panic,
            FaultKind::DropResponse { .. } => WorkerFault::DropReply,
            _ => return None,
        };
        self.supervisor_stats.faults_injected += 1;
        Some(fault)
    }

    /// The global stream position: documents ingested and the newest
    /// timestamp, as mirrored by the coordinator.
    fn stream_position(&self) -> (u64, u64) {
        (self.mirror_seq, self.mirror_newest)
    }

    /// Recompute the cached replay-log retention bound from the retained
    /// query population.
    fn refresh_retention(&mut self) {
        self.retention = recovery::retention_bound(
            self.retained.values().map(|r| &r.query),
            self.config.doc_retention_cap,
        );
    }

    /// Aggregate statistics: the field-wise sum of every shard's
    /// [`EngineStats`] (see the `Sum` impl on [`EngineStats`] for the exact
    /// semantics — notably `documents_processed` counts per-shard work, so
    /// it is `num_shards ×` the number of ingested documents), plus the
    /// coordinator's own failure-model
    /// counters (`docs_quarantined`, `shards_respawned`, `faults_injected`
    /// and recovery timings). Errors with [`CoreError::ShardUnavailable`]
    /// if a shard worker is gone — except under [`FaultPolicy::Degrade`],
    /// where dead shards contribute zeroes (their state died with them).
    pub fn stats(&self) -> CoreResult<EngineStats> {
        let mut total: EngineStats = self.shard_stats()?.into_iter().sum();
        total += self.supervisor_stats;
        Ok(total)
    }

    /// Statistics of a Stage-1 front stage ahead of the shards. The engine
    /// has none — every shard runs its own Stage 1 — so this is always
    /// all-zero. It is kept so callers that add it to the shard sum keep
    /// compiling and get the same totals.
    pub fn front_stats(&self) -> EngineStats {
        EngineStats::default()
    }

    /// Per-shard statistics snapshots, by shard index. Under
    /// [`FaultPolicy::Degrade`] a dead shard reports all-zero stats (its
    /// state died with it); under any other policy a dead shard errors with
    /// [`CoreError::ShardUnavailable`].
    pub fn shard_stats(&self) -> CoreResult<Vec<EngineStats>> {
        let degrade = self.config.fault_policy == FaultPolicy::Degrade;
        let mut responses = Vec::with_capacity(self.shards.len());
        for shard in 0..self.shards.len() {
            if degrade && self.shards[shard].sender.is_none() {
                responses.push(None);
                continue;
            }
            let (reply, response) = channel();
            self.send(shard, Request::Stats { reply })?;
            responses.push(Some(response));
        }
        responses
            .into_iter()
            .enumerate()
            .map(|(shard, response)| match response {
                Some(response) => response
                    .recv()
                    .map_err(|_| CoreError::ShardUnavailable { shard }),
                None => Ok(EngineStats::default()),
            })
            .collect()
    }

    /// Run a full invariant audit across the engine: every shard engine's
    /// own [`MmqjpEngine::audit`] (violations come back wrapped in
    /// [`AuditViolation::Shard`]) and the coordinator's per-shard query
    /// accounting. When a recovering fault policy is active, additionally
    /// checks the recovery machinery itself: the retained-query ledger
    /// tracks every live query and the replay log stays within its
    /// retention bound. Read-only; a healthy engine
    /// returns an empty vector. Errors with [`CoreError::ShardUnavailable`]
    /// if a shard worker is gone — except under [`FaultPolicy::Degrade`],
    /// where dead shards are skipped (they have no state left to audit).
    pub fn audit(&self) -> CoreResult<Vec<AuditViolation>> {
        let degrade = self.config.fault_policy == FaultPolicy::Degrade;
        let mut out = Vec::new();
        let mut responses = Vec::with_capacity(self.shards.len());
        for shard in 0..self.shards.len() {
            if degrade && self.shards[shard].sender.is_none() {
                responses.push(None);
                continue;
            }
            let (reply, response) = channel();
            self.send(shard, Request::Audit { reply })?;
            responses.push(Some(response));
        }
        for (shard, response) in responses.into_iter().enumerate() {
            let Some(response) = response else { continue };
            let violations = response
                .recv()
                .map_err(|_| CoreError::ShardUnavailable { shard })?;
            out.extend(
                violations
                    .into_iter()
                    .map(|violation| AuditViolation::Shard {
                        shard,
                        violation: Box::new(violation),
                    }),
            );
        }

        let summed: usize = self.queries_per_shard.iter().sum();
        if summed != self.live_queries {
            out.push(AuditViolation::QueriesPerShardSum {
                tracked: self.live_queries,
                summed,
            });
        }

        if self.config.fault_policy != FaultPolicy::FailFast {
            if self.retained.len() != self.live_queries {
                out.push(AuditViolation::RetainedQueryCount {
                    retained: self.retained.len(),
                    live: self.live_queries,
                });
            }
            if let (Some(oldest), Some(bound)) =
                (self.replay_log.oldest_entry_max_ts(), self.retention)
            {
                let cutoff = self.stream_position().1.saturating_sub(bound);
                if oldest < cutoff {
                    out.push(AuditViolation::ReplayLogOverRetention { oldest, cutoff });
                }
            }
        }

        Ok(out)
    }

    fn send(&self, shard: usize, request: Request) -> CoreResult<()> {
        self.shards[shard]
            .sender
            .as_ref()
            .ok_or(CoreError::ShardUnavailable { shard })?
            .send(request)
            .map_err(|_| CoreError::ShardUnavailable { shard })
    }

    /// Collect every shard's reply for one batch — even after an error, so
    /// the shards advance in lockstep — and merge the matches into
    /// canonical order.
    ///
    /// This is also where the supervisor lives: a reply of
    /// [`CoreError::ShardPanicked`] or a disconnected channel marks the
    /// shard dead, and the fault policy decides what happens next —
    /// FailFast propagates the death as this batch's error, Quarantine
    /// heals the shard inline (respawn, replay, retry this batch's
    /// documents), and Degrade retires the shard and keeps serving the rest.
    /// Once collection completes the batch is committed to the replay log
    /// (dispatched ⇒ logged), which is then evicted to its retention bound.
    fn collect_shard_outputs(
        &mut self,
        responses: Vec<(usize, BatchReply)>,
        log_entry: Option<Vec<Document>>,
        position: (u64, u64),
    ) -> CoreResult<Vec<MatchOutput>> {
        let mut merged = Vec::new();
        let mut first_error: Option<CoreError> = None;
        for (shard, response) in responses {
            let received = response.recv();
            // A panic reply or a dead channel both mean the worker's state
            // is gone or suspect: retire it, then apply the fault policy. A
            // typed error from a live worker (e.g. a rejected document in
            // the FailFast path) is this batch's error under every policy —
            // the worker itself is fine.
            let death = matches!(received, Err(_) | Ok(Err(CoreError::ShardPanicked { .. })));
            let outcome = if death {
                self.retire_shard(shard);
                match self.config.fault_policy {
                    FaultPolicy::FailFast => Err(match received {
                        Ok(Err(e)) => e,
                        _ => CoreError::ShardUnavailable { shard },
                    }),
                    FaultPolicy::Degrade => {
                        // Serve what the surviving shards produced; the dead
                        // shard's queries go dark until a manual respawn.
                        continue;
                    }
                    FaultPolicy::Quarantine => self.heal_shard(shard, log_entry.as_ref(), position),
                }
            } else {
                received.unwrap_or(Err(CoreError::ShardUnavailable { shard }))
            };
            match outcome {
                Ok(outputs) => merged.extend(outputs),
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                }
            }
        }
        // Dispatched ⇒ logged: the surviving shards absorbed this batch even
        // if one of them reported an error, so a future rebuild must replay
        // it. Eviction keeps the log within the live retention bound.
        if let Some(docs) = log_entry {
            self.replay_log.record(docs);
            let newest = self.stream_position().1;
            self.replay_log.evict(newest, self.retention);
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        sort_matches(&mut merged);
        Ok(merged)
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        for shard in &mut self.shards {
            // Dropping the sender closes the channel; the loop exits.
            shard.sender.take();
        }
        for shard in &mut self.shards {
            if let Some(handle) = shard.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("alive", &self.sender.is_some())
            .finish()
    }
}

/// Deterministic shard assignment: a Fibonacci-style multiplicative hash of
/// the query id. Using the *high* bits keeps the distribution even for the
/// sequential ids the engine assigns (the low bits of `id * odd-constant`
/// would reduce to `id mod n`).
fn shard_of(id: QueryId, num_shards: usize) -> usize {
    ((id.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % num_shards as u64) as usize
}

/// Spawn the worker thread for shard `shard` around `engine`.
/// `initial_globals` seeds the local→global id map — empty at construction,
/// the shard's surviving ids (ascending, matching the rebuilt engine's
/// re-registration order) on respawn.
fn spawn_shard_worker(
    shard: usize,
    engine: MmqjpEngine,
    initial_globals: Vec<QueryId>,
) -> std::io::Result<Shard> {
    let (sender, receiver) = channel();
    let handle = thread::Builder::new()
        .name(format!("mmqjp-shard-{shard}"))
        .spawn(move || shard_worker(engine, receiver, shard, initial_globals))?;
    Ok(Shard {
        sender: Some(sender),
        handle: Some(handle),
    })
}

/// Map a fault policy to the coordinator's poison handling.
fn poison_handling(policy: FaultPolicy) -> PoisonHandling {
    match policy {
        FaultPolicy::FailFast => PoisonHandling::Consume,
        FaultPolicy::Quarantine => PoisonHandling::Quarantine,
        FaultPolicy::Degrade => PoisonHandling::Atomic,
    }
}

/// Screen and stamp one batch against the stream watermarks, mirroring
/// `MmqjpEngine::process_batch`'s screening exactly: each surviving
/// document consumes the next sequence number as its id (and, when it
/// arrives with timestamp `0`, as its timestamp), and an out-of-order
/// document is handled per `handling` — consume-and-fail, quarantine-and-
/// skip, or fail-the-batch-atomically (watermarks restored).
#[allow(clippy::too_many_arguments)]
fn screen_and_stamp(
    docs: Vec<Document>,
    seq: &mut u64,
    newest: &mut u64,
    enforce_in_order: bool,
    handling: PoisonHandling,
    batch_index: u64,
    quarantine: &mut Vec<QuarantineRecord>,
    docs_quarantined: &mut usize,
) -> CoreResult<Vec<Document>> {
    let entry = (*seq, *newest);
    let mut survivors = Vec::with_capacity(docs.len());
    for (doc_index, mut doc) in docs.into_iter().enumerate() {
        let tentative = *seq + 1;
        let ts = match doc.timestamp().raw() {
            0 => tentative,
            raw => raw,
        };
        if enforce_in_order && ts < *newest {
            let error = CoreError::OutOfOrderDocument {
                timestamp: ts,
                newest: *newest,
            };
            match handling {
                PoisonHandling::Consume => {
                    *seq = tentative;
                    return Err(error);
                }
                PoisonHandling::Atomic => {
                    (*seq, *newest) = entry;
                    return Err(error);
                }
                PoisonHandling::Quarantine => {
                    quarantine.push(QuarantineRecord {
                        batch: batch_index,
                        doc_index,
                        timestamp: ts,
                        error,
                    });
                    *docs_quarantined += 1;
                    continue;
                }
            }
        }
        *seq = tentative;
        doc.set_id(DocId(tentative));
        doc.set_timestamp(Timestamp(ts));
        *newest = (*newest).max(ts);
        survivors.push(doc);
    }
    Ok(survivors)
}

/// Render a caught panic payload for [`CoreError::ShardPanicked`].
fn panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Serve one engine-touching request with panics contained: the result of
/// `f` goes back on `reply`, and a caught panic is reported as a typed
/// [`CoreError::ShardPanicked`] instead of a silently dropped channel.
/// Returns `false` when the worker must retire — a panicking engine's state
/// is suspect, so the supervisor must respawn the shard rather than keep
/// talking to it.
fn serve<T>(
    shard: usize,
    reply: &Sender<CoreResult<T>>,
    f: impl FnOnce() -> CoreResult<T>,
) -> bool {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => {
            let _ = reply.send(result);
            true
        }
        Err(payload) => {
            let _ = reply.send(Err(CoreError::ShardPanicked {
                shard,
                payload: panic_payload(payload.as_ref()),
            }));
            false
        }
    }
}

/// The worker loop: owns one shard's engine and serves requests until the
/// sending half of the channel is dropped or a request panics (see
/// [`serve`]).
///
/// `global_ids` maps the shard-local query index (the order queries were
/// registered on this shard) to the engine-global [`QueryId`], so the matches
/// leaving the shard always speak the global id space.
// The spawned worker thread must own its receiver (`'static` loop).
#[allow(clippy::needless_pass_by_value)]
fn shard_worker(
    engine: MmqjpEngine,
    requests: Receiver<Request>,
    shard: usize,
    initial_globals: Vec<QueryId>,
) {
    let mut local_of: HashMap<QueryId, QueryId> = initial_globals
        .iter()
        .enumerate()
        .map(|(local, &global)| (global, QueryId(local as u64)))
        .collect();
    let mut global_ids: Vec<QueryId> = initial_globals;
    let mut engine = engine;
    while let Ok(request) = requests.recv() {
        let alive = match request {
            Request::Register {
                query,
                global,
                reply,
            } => serve(shard, &reply, || {
                engine.register_query(*query).map(|local| {
                    debug_assert_eq!(local.raw() as usize, global_ids.len());
                    global_ids.push(global);
                    local_of.insert(global, local);
                })
            }),
            Request::Unregister { global, reply } => {
                serve(shard, &reply, || match local_of.get(&global) {
                    Some(&local) => engine.unregister_query(local).map(|()| {
                        local_of.remove(&global);
                    }),
                    None => Err(CoreError::UnknownQuery { id: global.raw() }),
                })
            }
            Request::Batch { docs, fault, reply } => {
                if matches!(fault, Some(WorkerFault::DropReply)) {
                    // Injected desynchronization: the batch is neither
                    // processed nor answered; the dropped reply surfaces at
                    // the coordinator as a dead channel.
                    drop(reply);
                    continue;
                }
                let panic_requested = matches!(fault, Some(WorkerFault::Panic));
                serve(shard, &reply, || {
                    if panic_requested {
                        // lint:allow deliberate injected fault, contained by serve
                        panic!("injected fault: shard worker panic");
                    }
                    engine.process_batch(docs).map(|mut outputs| {
                        for output in &mut outputs {
                            output.query = global_ids[output.query.raw() as usize];
                        }
                        outputs
                    })
                })
            }
            Request::Stats { reply } => {
                let _ = reply.send(engine.stats());
                true
            }
            Request::Audit { reply } => {
                let _ = reply.send(engine.audit());
                true
            }
        };
        if !alive {
            break;
        }
    }
}

// Compile-time audit that everything crossing (or living on) a shard
// thread is `Send`: the engine with its registry / relations / view cache,
// the shared interner, and the request/response payloads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<MmqjpEngine>();
    assert_send::<Arc<StringInterner>>();
    assert_send::<Request>();
    assert_send::<CoreResult<Vec<MatchOutput>>>();
    assert_send::<EngineStats>();
    assert_send::<ShardedEngine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProcessingMode;
    use mmqjp_xml::rss;

    const Q1: &str = "S//book->x1[.//author->x2][.//title->x3] \
        FOLLOWED BY{x2=x5 AND x3=x6, 100} \
        S//blog->x4[.//author->x5][.//title->x6]";
    const Q2: &str = "S//book->x1[.//author->x2][.//category->x7] \
        FOLLOWED BY{x2=x5 AND x7=x8, 200} \
        S//blog->x4[.//author->x5][.//category->x8]";
    const Q3: &str = "S//blog->x4[.//author->x5][.//title->x6] \
        FOLLOWED BY{x5=x5' AND x6=x6', 300} \
        S//blog->x4'[.//author->x5'][.//title->x6']";
    /// A single-block subscription (no join): answered straight from each
    /// shard's Stage-1 pass.
    const Q_SINGLE: &str = "S//book->x1[.//author->x2]";

    fn d1() -> Document {
        rss::book_announcement(
            &["Danny Ayers", "Andrew Watt"],
            "Beginning RSS and Atom Programming",
            &["Scripting & Programming", "Web Site Development"],
            "Wrox",
            "0764579169",
        )
        .with_timestamp(Timestamp(10))
    }

    fn d2() -> Document {
        rss::blog_article(
            "Danny Ayers",
            "http://dannyayers.com/topics/books/rss-book",
            "Beginning RSS and Atom Programming",
            "Scripting & Programming",
            "Just heard ...",
        )
        .with_timestamp(Timestamp(20))
    }

    fn sharded(config: EngineConfig) -> ShardedEngine {
        let mut e = ShardedEngine::new(config);
        e.register_query_text(Q1).unwrap();
        e.register_query_text(Q2).unwrap();
        e.register_query_text(Q3).unwrap();
        e
    }

    #[test]
    fn walkthrough_matches_single_engine_for_every_shard_count() {
        let mut single = MmqjpEngine::new(EngineConfig::mmqjp());
        for q in [Q1, Q2, Q3] {
            single.register_query_text(q).unwrap();
        }
        single.process_document(d1()).unwrap();
        let mut expected = single.process_document(d2()).unwrap();
        sort_matches(&mut expected);
        assert_eq!(expected.len(), 2);

        for shards in [1, 2, 3, 7] {
            let mut e = sharded(EngineConfig::mmqjp().with_num_shards(shards));
            assert_eq!(e.num_shards(), shards);
            assert!(e.process_document(d1()).unwrap().is_empty());
            let outputs = e.process_document(d2()).unwrap();
            assert_eq!(outputs, expected, "shard count {shards} diverges");
        }
    }

    #[test]
    fn single_block_walkthrough_matches_single_engine_for_every_shard_count() {
        let mut single = MmqjpEngine::new(EngineConfig::mmqjp());
        for q in [Q1, Q2, Q3, Q_SINGLE] {
            single.register_query_text(q).unwrap();
        }
        let mut expected_d1 = single.process_document(d1()).unwrap();
        sort_matches(&mut expected_d1);
        let mut expected_d2 = single.process_document(d2()).unwrap();
        sort_matches(&mut expected_d2);
        // Q_SINGLE matches the book announcement on arrival; Q1 and Q2 join
        // it with the blog article.
        assert!(!expected_d1.is_empty());
        assert_eq!(expected_d2.len(), 2);

        for shards in [1, 2, 3, 7] {
            let mut e = ShardedEngine::new(EngineConfig::mmqjp().with_num_shards(shards));
            for q in [Q1, Q2, Q3, Q_SINGLE] {
                e.register_query_text(q).unwrap();
            }
            assert_eq!(e.num_shards(), shards);
            let out1 = e.process_document(d1()).unwrap();
            assert_eq!(out1, expected_d1, "shard count {shards} diverges on d1");
            let out2 = e.process_document(d2()).unwrap();
            assert_eq!(out2, expected_d2, "shard count {shards} diverges on d2");
        }
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let e = ShardedEngine::new(EngineConfig::mmqjp().with_num_shards(0));
        assert_eq!(e.num_shards(), 1);
    }

    #[test]
    fn queries_are_distributed_and_ids_are_global() {
        let mut e = ShardedEngine::new(EngineConfig::mmqjp().with_num_shards(4));
        let mut expected = vec![0usize; 4];
        for i in 0..20 {
            let id = e.register_query_text(Q1).unwrap();
            assert_eq!(id, QueryId(i));
            expected[e.shard_of(id)] += 1;
        }
        assert_eq!(e.num_queries(), 20);
        assert_eq!(e.queries_per_shard(), expected.as_slice());
        assert_eq!(e.queries_per_shard().iter().sum::<usize>(), 20);
        // With 20 sequential ids the multiplicative hash touches > 1 shard.
        assert!(expected.iter().filter(|&&c| c > 0).count() > 1);
    }

    #[test]
    fn failed_registration_consumes_no_id() {
        let mut e = ShardedEngine::new(EngineConfig::mmqjp().with_num_shards(3));
        assert!(e.register_query_text("not a query at all ///").is_err());
        assert_eq!(e.num_queries(), 0);
        let id = e.register_query_text(Q1).unwrap();
        assert_eq!(id, QueryId(0));
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let mut e = sharded(EngineConfig::mmqjp_view_mat().with_num_shards(2));
        e.process_document(d1()).unwrap();
        e.process_document(d2()).unwrap();
        // A repeated blog article re-joins under already-cached string
        // values, so the view caches register hits as well as misses.
        e.process_document(d2().with_timestamp(Timestamp(30)))
            .unwrap();
        let per_shard = e.shard_stats().unwrap();
        assert_eq!(per_shard.len(), 2);
        let total = e.stats().unwrap();
        assert_eq!(total, per_shard.iter().copied().sum());
        // There is no front stage: its stats are all-zero.
        assert_eq!(e.front_stats(), EngineStats::default());
        assert_eq!(total.queries_registered, 3);
        // Every shard sees every document.
        assert_eq!(total.documents_processed, 3 * e.num_shards());
        // Q1/Q2 match (book, blog) for each of the two blog timestamps; Q3
        // (blog FOLLOWED BY blog) matches the repeated article pair.
        assert_eq!(total.results_emitted, 5);
        // View-cache counters aggregate across shards: the merged stats are
        // the exact field-wise sums of nonzero per-shard counters.
        assert!(total.view_cache_misses > 0, "caches were exercised");
        assert!(total.view_cache_hits > 0, "repeat strvals hit the caches");
        assert_eq!(
            total.view_cache_hits,
            per_shard.iter().map(|s| s.view_cache_hits).sum::<usize>()
        );
        assert_eq!(
            total.view_cache_misses,
            per_shard.iter().map(|s| s.view_cache_misses).sum::<usize>()
        );
        assert_eq!(
            total.view_cache_evictions,
            per_shard
                .iter()
                .map(|s| s.view_cache_evictions)
                .sum::<usize>()
        );
        assert_eq!(e.config().mode, ProcessingMode::MmqjpViewMat);
        assert!(!e.interner().is_empty());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut e = sharded(EngineConfig::mmqjp().with_num_shards(2));
        assert!(e.process_batch(Vec::new()).unwrap().is_empty());
        assert_eq!(e.stats().unwrap().documents_processed, 0);
    }

    #[test]
    fn out_of_order_document_errors_like_the_single_engine() {
        let mut config = EngineConfig::mmqjp().with_num_shards(3);
        config.enforce_in_order = true;
        let mut e = sharded(config);
        e.process_document(d1().with_timestamp(Timestamp(100)))
            .unwrap();
        let err = e
            .process_document(d2().with_timestamp(Timestamp(50)))
            .unwrap_err();
        assert!(matches!(err, CoreError::OutOfOrderDocument { .. }));
        // The engine keeps working after the rejected document.
        let out = e
            .process_document(d2().with_timestamp(Timestamp(120)))
            .unwrap();
        assert!(!out.is_empty());
    }

    #[test]
    fn unregister_routes_to_the_owning_shard() {
        for shards in [1, 2, 4] {
            let mut e = sharded(EngineConfig::mmqjp().with_num_shards(shards));
            assert_eq!(e.num_queries(), 3);
            e.process_document(d1()).unwrap();
            // Q1 departs; Q2 keeps matching d2.
            e.unregister_query(QueryId(0)).unwrap();
            assert_eq!(e.num_queries(), 2);
            assert_eq!(e.total_queries_registered(), 3);
            assert_eq!(e.queries_per_shard().iter().sum::<usize>(), 2);
            let out = e.process_document(d2()).unwrap();
            assert_eq!(out.len(), 1, "{shards} shards");
            assert_eq!(out[0].query, QueryId(1));
            let stats = e.stats().unwrap();
            assert_eq!(stats.queries_registered, 2);
            assert_eq!(stats.queries_unregistered, 1);
            // Double unregister and unknown ids error without poisoning the
            // engine.
            assert!(matches!(
                e.unregister_query(QueryId(0)),
                Err(CoreError::UnknownQuery { .. })
            ));
            assert!(matches!(
                e.unregister_query(QueryId(99)),
                Err(CoreError::UnknownQuery { .. })
            ));
            assert_eq!(e.num_queries(), 2);
            // Freed global ids are never reused.
            let id = e.register_query_text(Q1).unwrap();
            assert_eq!(id, QueryId(3));
        }
    }

    #[test]
    fn more_shards_than_queries_leaves_some_shards_empty() {
        let mut e = ShardedEngine::new(EngineConfig::mmqjp().with_num_shards(7));
        e.register_query_text(Q1).unwrap();
        assert!(e.queries_per_shard().contains(&0));
        e.process_document(d1()).unwrap();
        let out = e.process_document(d2()).unwrap();
        assert_eq!(out.len(), 1);
    }
}
