//! The MMQJP engine: two-stage processing of XML streams against a large set
//! of registered XSCL queries (Algorithms 1–5 of the paper).

use crate::audit::AuditViolation;
use crate::config::{EngineConfig, FaultPolicy, ProcessingMode};
use crate::cqt::PlanInputKind;
use crate::error::{CoreError, CoreResult};
use crate::fault::QuarantineRecord;
use crate::output::{Binding, MatchOutput, OutputDocument};
use crate::registry::{QueryRuntime, Registration, Registry};
use crate::relations::{rl_row, schemas, WitnessBatch};
use crate::state::{key_int, key_sym, JoinState};
use crate::stats::{EngineStats, PhaseTimings};
use crate::view_cache::ViewCache;
use mmqjp_relational::{
    ChunkedRows, ExecScratch, FxHashMap, PlanInput, Relation, RowRef, StringInterner, Symbol,
};
use mmqjp_xml::{DocId, Document, NodeId};
use mmqjp_xpath::{EdgeBinding, PatternMatcher, SharedPass, TreePattern};
use mmqjp_xscl::{JoinOp, QueryId, SelectClause, XsclQuery};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// The Massively Multi-Query Join Processing engine.
///
/// See the crate-level documentation for an overview and a quick-start
/// example. The engine is single-threaded by design (the paper's system is a
/// single Join Processor instance); concurrency is achieved by partitioning
/// streams across engine instances.
#[derive(Debug)]
pub struct MmqjpEngine {
    config: EngineConfig,
    interner: Arc<StringInterner>,
    registry: Registry,
    /// The windowed join state: time-bucketed `Rbin`/`Rdoc`/`RdocTS`,
    /// per-bucket secondary indexes and the document-retention maps.
    state: JoinState,
    view_cache: ViewCache,
    /// Pooled executor buffers (selection vectors, join hash tables,
    /// row-id intermediates) reused by every plan execution of this engine.
    scratch: ExecScratch,
    stats: EngineStats,
    next_doc_seq: u64,
    newest_timestamp: u64,
    /// 0-based index of the next batch `process_batch` will ingest; pins
    /// [`QuarantineRecord`]s to their position in the stream.
    batches_ingested: u64,
    /// Poison documents skipped under [`FaultPolicy::Quarantine`], drained
    /// by [`take_quarantine_records`](Self::take_quarantine_records).
    quarantine: Vec<QuarantineRecord>,
}

impl MmqjpEngine {
    /// Create an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        MmqjpEngine::with_interner(config, Arc::new(StringInterner::new()))
    }

    /// Create an engine sharing an existing string interner.
    ///
    /// [`StringInterner`] is thread-safe, so several engines (for example the
    /// shards of a [`ShardedEngine`](crate::ShardedEngine)) can intern
    /// through the same instance concurrently; symbols stay comparable across
    /// all of them and shared strings are stored once.
    pub fn with_interner(config: EngineConfig, interner: Arc<StringInterner>) -> Self {
        let view_cache = ViewCache::new(config.view_cache_capacity);
        let mut registry = Registry::new(Arc::clone(&interner));
        registry.set_verify_plans(config.verify_plans);
        MmqjpEngine {
            registry,
            state: JoinState::new(config.prune_state_by_window),
            view_cache,
            scratch: ExecScratch::new(),
            stats: EngineStats::default(),
            next_doc_seq: 0,
            newest_timestamp: 0,
            batches_ingested: 0,
            quarantine: Vec::new(),
            interner,
            config,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> EngineStats {
        let mut s = self.stats;
        s.queries_registered = self.registry.num_queries();
        s.templates = self.registry.num_templates();
        s.distinct_patterns = self.registry.num_patterns();
        s.rbin_tuples = self.state.rbin_len();
        s.rdoc_tuples = self.state.rdoc_len();
        s.state_buckets = self.state.num_buckets();
        s.docs_retained = self.state.docs_retained();
        s.plans_compiled = self.registry.plans_compiled();
        s.rows_materialized = self.scratch.rows_materialized() as usize;
        s.scratch_reuses = self.scratch.scratch_reuses() as usize;
        let vc = self.view_cache.stats();
        s.view_cache_hits = vc.hits;
        s.view_cache_misses = vc.misses;
        s.view_cache_evictions = vc.evictions;
        s
    }

    /// Run a full invariant audit over the engine's redundant bookkeeping —
    /// registry refcounts, catalog discipline, join-state indexes and
    /// counters, document accounting and the timestamp watermark — returning
    /// every violated invariant as a typed [`AuditViolation`]. Read-only and
    /// side-effect free; a healthy engine returns an empty vector, and any
    /// violation indicates an engine bug (see [`crate::audit`]).
    pub fn audit(&self) -> Vec<AuditViolation> {
        let mut out = Vec::new();
        self.registry.audit(&mut out);
        self.state.audit(self.newest_timestamp, &mut out);
        // Out-of-order rejections consume sequence numbers without counting
        // a document, so processed <= assigned (never more).
        if self.stats.documents_processed as u64 > self.next_doc_seq {
            out.push(AuditViolation::DocumentAccounting {
                documents_processed: self.stats.documents_processed,
                doc_seq: self.next_doc_seq,
            });
        }
        out
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.registry.num_queries()
    }

    /// Number of distinct query templates.
    pub fn num_templates(&self) -> usize {
        self.registry.num_templates()
    }

    /// Number of distinct Stage-1 tree patterns.
    pub fn num_patterns(&self) -> usize {
        self.registry.num_patterns()
    }

    /// Access the query registry (templates, queries, catalog).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The shared string interner.
    pub fn interner(&self) -> &Arc<StringInterner> {
        &self.interner
    }

    /// Register a query from its textual XSCL form. Returns the query id.
    pub fn register_query_text(&mut self, text: &str) -> CoreResult<QueryId> {
        let query = mmqjp_xscl::parse_query(text)?;
        self.register_query(query)
    }

    /// Register a parsed query. Returns the query id.
    ///
    /// A subscription registered mid-stream only joins documents that
    /// arrive after it: resident join state from earlier documents is never
    /// matched against it, so registration order (not just the query set)
    /// defines each query's visible stream.
    pub fn register_query(&mut self, query: XsclQuery) -> CoreResult<QueryId> {
        self.registry
            .register(query, self.config.mode, self.next_doc_seq)
    }

    /// Re-register a query at its *original* arrival floor instead of the
    /// current sequence number. Recovery only: a respawned shard replays
    /// documents its queries had already seen, and each re-registered query
    /// must match exactly the suffix of the stream it matched before the
    /// crash (see [`crate::recovery`]).
    pub(crate) fn register_query_at_floor(
        &mut self,
        query: XsclQuery,
        floor: u64,
    ) -> CoreResult<QueryId> {
        self.registry.register(query, self.config.mode, floor)
    }

    /// Drain the quarantine ledger: every poison document skipped so far
    /// under [`FaultPolicy::Quarantine`], in arrival order. Empty under
    /// other policies (poison then fails its batch instead).
    pub fn take_quarantine_records(&mut self) -> Vec<QuarantineRecord> {
        std::mem::take(&mut self.quarantine)
    }

    /// Rebuild join state from an already-processed batch (ids and
    /// timestamps stamped, order already enforced): Stage 1 plus state
    /// maintenance only. Stage 2 and output construction are skipped — the
    /// batch's matches were delivered before the crash, and the view cache
    /// is a pure cache that may start cold. Counts `rows_replayed` and the
    /// `recovery` phase, but not `documents_processed` (each document was
    /// already counted once, globally, in its original life). Returns the
    /// number of witness rows rebuilt.
    pub(crate) fn replay_batch(&mut self, docs: &[Document]) -> CoreResult<usize> {
        if docs.is_empty() {
            return Ok(0);
        }
        let t0 = Instant::now();
        let mut batch = WitnessBatch::new();
        let mut pass = SharedPass::default();
        // Replay re-derives join state only; the Stage-1 timings of the
        // original run are not counted twice (the whole replay is recovery).
        let mut timings = PhaseTimings::default();
        let docs: Vec<Arc<Document>> = docs.iter().cloned().map(Arc::new).collect();
        for doc in &docs {
            self.next_doc_seq = self.next_doc_seq.max(doc.id().raw());
            self.newest_timestamp = self.newest_timestamp.max(doc.timestamp().raw());
            self.stage1(doc, &mut pass, &mut batch, None, &mut timings)?;
        }
        let rows = batch.rbin_w.len() + batch.rdoc_w.len();
        self.maintain_state(batch, &docs, None)?;
        self.stats.rows_replayed += rows;
        self.stats.timings.recovery += t0.elapsed();
        Ok(rows)
    }

    /// Restore the stream watermarks after a replay whose retained suffix
    /// may not reach the live stream position (the log is bounded; the
    /// sequence counter and timestamp watermark are not). Monotonic: never
    /// moves either watermark backwards.
    pub(crate) fn restore_watermarks(&mut self, ingested: u64, newest: u64) {
        self.next_doc_seq = self.next_doc_seq.max(ingested);
        self.newest_timestamp = self.newest_timestamp.max(newest);
    }

    /// Unregister a query, incrementally releasing every shared structure it
    /// participated in: its `RT` tuples are removed in place (an emptied
    /// template is retired from the catalog), its Stage-1 pattern and
    /// requested-edge registrations are released through reference counts,
    /// the window bounds are recomputed so document retention can tighten,
    /// and view-cache slices carrying rows under now-dead canonical
    /// variables are reclaimed (see
    /// [`EngineConfig::purge_views_on_unregister`]).
    ///
    /// The cost is O(the departing query's footprint) — never a registry
    /// rebuild. Freed [`QueryId`]s are tombstoned and never reused, so shard
    /// assignment and the canonical output order stay deterministic across
    /// churn. Join-state rows that only the departed query's patterns
    /// produced are left to age out with their time bucket (they are
    /// semantically inert — no live `RT` tuple joins them — and window
    /// expiry bounds their lifetime); everything else is reclaimed eagerly.
    ///
    /// Errors with [`CoreError::UnknownQuery`] for ids never assigned or
    /// already unregistered.
    pub fn unregister_query(&mut self, id: QueryId) -> CoreResult<()> {
        let effects = self.registry.unregister(id)?;
        self.stats.queries_unregistered += 1;
        self.stats.templates_retired += effects.templates_retired;
        self.stats.patterns_dropped += effects.patterns_dropped;
        if self.config.purge_views_on_unregister && !effects.dead_vars.is_empty() {
            let dead: HashSet<Symbol> = effects.dead_vars.iter().copied().collect();
            self.stats.view_slices_invalidated += self.view_cache.purge_dead_vars(&dead);
        }
        // When the retention bound tightened, re-derive the bucket width so
        // eviction granularity follows the surviving windows (a one-time
        // re-partition of resident state; never widens). Skipped while no
        // retention bound exists at all (an infinite-window query is live
        // and no cap is set): nothing can be evicted then, so re-bucketing
        // unbounded state would be pure cost — the tighten happens when the
        // bound-blocking query itself departs.
        if effects.window_changed
            && self.config.state_bucket_width.is_none()
            && self.doc_retention_bound().is_some()
        {
            if let Some(width) = self.width_hint().map(JoinState::derive_width) {
                self.state.tighten_width(width)?;
            }
        }
        Ok(())
    }

    /// Process one document, returning the matches it produced.
    pub fn process_document(&mut self, doc: Document) -> CoreResult<Vec<MatchOutput>> {
        self.process_batch(vec![doc])
    }

    /// Process a batch of documents in arrival order.
    ///
    /// All documents of the batch are joined against the *pre-batch* join
    /// state, then merged into the state together — exactly the batched
    /// evaluation the paper uses for its RSS throughput experiment. With a
    /// batch size of one this is identical to [`process_document`]; with
    /// larger batches, matches *within* the batch are not reported (the same
    /// trade-off the paper makes).
    ///
    /// [`process_document`]: MmqjpEngine::process_document
    pub fn process_batch(&mut self, docs: Vec<Document>) -> CoreResult<Vec<MatchOutput>> {
        let batch_index = self.batches_ingested;
        self.batches_ingested += 1;
        if docs.is_empty() {
            return Ok(Vec::new());
        }
        let mut timings = PhaseTimings::default();

        // ---- Stage 1: XPath evaluation & witness construction -------------
        let t0 = Instant::now();
        let mut batch = WitnessBatch::new();
        let mut prepared_docs = Vec::with_capacity(docs.len());
        let mut single_block_outputs = Vec::new();
        // Reused across the batch's documents so the shared automaton pass
        // stays allocation-free after the first document.
        let mut pass = SharedPass::default();
        for (doc_index, mut doc) in docs.into_iter().enumerate() {
            // Screen before committing the sequence number, so a quarantined
            // document leaves no gap: the surviving stream gets the exact
            // ids a fresh engine fed only the survivors would assign.
            let tentative = self.next_doc_seq + 1;
            let ts = match doc.timestamp().raw() {
                0 => tentative,
                raw => raw,
            };
            if self.config.enforce_in_order && ts < self.newest_timestamp {
                let error = CoreError::OutOfOrderDocument {
                    timestamp: ts,
                    newest: self.newest_timestamp,
                };
                if self.config.fault_policy == FaultPolicy::FailFast {
                    // Historical semantics: the rejected document consumes
                    // its sequence number and fails the whole batch.
                    self.next_doc_seq = tentative;
                    return Err(error);
                }
                self.quarantine.push(QuarantineRecord {
                    batch: batch_index,
                    doc_index,
                    timestamp: ts,
                    error,
                });
                self.stats.docs_quarantined += 1;
                continue;
            }
            self.next_doc_seq = tentative;
            doc.set_id(DocId(tentative));
            doc.set_timestamp(mmqjp_xml::Timestamp(ts));
            self.newest_timestamp = self.newest_timestamp.max(ts);
            // Shared from here on: the document store and every output that
            // reads this document hold the same allocation.
            let doc = Arc::new(doc);

            self.stage1(
                &doc,
                &mut pass,
                &mut batch,
                Some(&mut single_block_outputs),
                &mut timings,
            )?;
            prepared_docs.push(doc);
        }
        timings.xpath += t0.elapsed().saturating_sub(timings.ingest);

        // Every document quarantined: nothing entered the stream, so there
        // is no Stage 2 to run and no state to maintain.
        if prepared_docs.is_empty() {
            self.stats.timings += timings;
            return Ok(single_block_outputs);
        }

        // ---- Stage 2: value-join processing --------------------------------
        // The compiled plans execute over *borrowed* state: the registry's
        // templates (plans and RT relations), the segmented join state and
        // the batch's witness relations are read in place — nothing is
        // cloned or moved per batch. Split field borrows keep the scratch
        // pool and view cache writable alongside.
        let mut outputs = single_block_outputs;
        // The per-batch RbinW index built during view-materialized
        // evaluation is handed on to maintenance so it is never built twice.
        let mut rbinw_index: Option<RbinwByDocnode> = None;
        if self.registry.num_templates() > 0 && !batch.is_empty() {
            let result_rows = self.evaluate_stage2(&batch, &mut rbinw_index, &mut timings)?;
            let t_out = Instant::now();
            for (rid, rows) in result_rows {
                outputs.extend(self.produce_outputs(rid, &rows, &prepared_docs)?);
            }
            timings.output += t_out.elapsed();
        }

        // ---- Maintenance (Algorithm 2 / 5) ---------------------------------
        let t_maint = Instant::now();
        let maintenance = self.maintain_state(batch, &prepared_docs, rbinw_index);
        timings.maintenance += t_maint.elapsed();
        maintenance?;

        self.stats.documents_processed += prepared_docs.len();
        self.stats.results_emitted += outputs.len();
        self.stats.timings += timings;
        Ok(outputs)
    }

    /// Stage 1 for one stamped document: one shared automaton pass answers
    /// every registered pattern, the join-side edge bindings it yields are
    /// ingested into `batch`, and — when `singles` is given — the
    /// single-block subscriptions are answered from the same pass. The only
    /// Stage-1 implementation: batch processing and recovery replay both
    /// run it. Witness-relation construction is timed into
    /// `timings.ingest`; the caller owns the surrounding `xpath` interval.
    fn stage1(
        &mut self,
        doc: &Arc<Document>,
        pass: &mut SharedPass,
        batch: &mut WitnessBatch,
        singles: Option<&mut Vec<MatchOutput>>,
        timings: &mut PhaseTimings,
    ) -> CoreResult<()> {
        self.registry
            .pattern_index_mut()
            .shared_pass_reusing(doc, pass);
        if let Some(singles) = singles {
            self.match_single_blocks_from_pass(doc, pass, singles);
        }
        let index = self.registry.pattern_index();
        let with_patterns: Vec<(&TreePattern, Vec<EdgeBinding>)> = index
            .edge_bindings_from_pass(doc, self.registry.requested_edges(), pass)
            .into_iter()
            .map(|(pid, bindings)| (index.pattern(pid), bindings))
            .collect();
        let t_ingest = Instant::now();
        batch.add_document(doc, &with_patterns, &self.interner)?;
        timings.ingest += t_ingest.elapsed();
        Ok(())
    }

    /// Stage-2 dispatch over the configured processing mode.
    fn evaluate_stage2(
        &mut self,
        batch: &WitnessBatch,
        rbinw_index: &mut Option<RbinwByDocnode>,
        timings: &mut PhaseTimings,
    ) -> CoreResult<ResultRows> {
        match self.config.mode {
            ProcessingMode::Sequential => evaluate_sequential(
                &self.registry,
                &self.state,
                &mut self.scratch,
                batch,
                timings,
            ),
            ProcessingMode::Mmqjp => {
                let (rows, _) = evaluate_mmqjp(
                    &self.registry,
                    &self.state,
                    &mut self.view_cache,
                    &mut self.scratch,
                    batch,
                    false,
                    timings,
                )?;
                Ok(rows)
            }
            ProcessingMode::MmqjpViewMat => {
                let (rows, index) = evaluate_mmqjp(
                    &self.registry,
                    &self.state,
                    &mut self.view_cache,
                    &mut self.scratch,
                    batch,
                    true,
                    timings,
                )?;
                *rbinw_index = index;
                Ok(rows)
            }
        }
    }

    // --------------------------------------------------------------------
    // Output production (Algorithm 3)
    // --------------------------------------------------------------------

    /// Turn a result relation into match outputs, applying the temporal
    /// constraint. `rid_override` is `-1` for template results (which carry a
    /// qid column) and a concrete rid for Sequential results. `batch_docs`
    /// are the batch's stamped documents, in arrival order.
    fn produce_outputs(
        &self,
        rid_override: i64,
        rows: &Relation,
        batch_docs: &[Arc<Document>],
    ) -> CoreResult<Vec<MatchOutput>> {
        let mut outputs = Vec::new();
        let template_mode = rid_override < 0;
        for row in rows.iter() {
            let (rid, d1, d2, nodes_offset) = if template_mode {
                (
                    result_int(row, 0, "qid")?,
                    result_int(row, 1, "d1")?,
                    result_int(row, 2, "d2")?,
                    3usize,
                )
            } else {
                (
                    rid_override,
                    result_int(row, 0, "d1")?,
                    result_int(row, 1, "d2")?,
                    2usize,
                )
            };
            let Some((query, registration)) = self.registry.resolve_rid(rid) else {
                continue;
            };
            // Document ids are u64 end-to-end; a negative id in a result row
            // cannot refer to any retained or in-batch document.
            let (Ok(d1), Ok(d2)) = (u64::try_from(d1), u64::try_from(d2)) else {
                continue;
            };
            let (d1, d2) = (DocId(d1), DocId(d2));
            // A subscription only joins documents that arrived after its
            // registration (document ids are arrival sequence numbers).
            if d1.raw() <= query.arrival_floor || d2.raw() <= query.arrival_floor {
                continue;
            }
            let Some(ts1) = self.state.doc_timestamp(d1) else {
                continue;
            };
            let Some(cur_doc) = batch_document(batch_docs, d2) else {
                continue;
            };
            let ts2 = cur_doc.timestamp().raw();
            let window = query.window.unwrap_or(mmqjp_xscl::Window::Infinite);
            let temporal_ok = match query.op {
                Some(JoinOp::FollowedBy) => ts2 > ts1 && window.accepts_delta(ts2 - ts1),
                Some(JoinOp::Join) => {
                    let delta = ts2.abs_diff(ts1);
                    window.accepts_delta(delta)
                }
                None => true,
            };
            if !temporal_ok {
                continue;
            }
            outputs.push(self.build_match(query, registration, row, nodes_offset, d1, cur_doc)?);
        }
        Ok(outputs)
    }

    /// One match of `registration` between the retained document `d1` and
    /// the batch document `cur_doc`.
    fn build_match(
        &self,
        query: &QueryRuntime,
        registration: &Registration,
        row: RowRef<'_>,
        nodes_offset: usize,
        d1: DocId,
        cur_doc: &Arc<Document>,
    ) -> CoreResult<MatchOutput> {
        let d2 = cur_doc.id();
        let template = &self
            .registry
            .template_runtime(registration.template)
            .ok_or(CoreError::internal(
                "a resolved registration's template is live",
            ))?
            .template;
        let num_left = template.num_left();
        let num_vars = template.num_meta_vars();

        let mut bindings = Vec::with_capacity(num_vars);
        for i in 0..num_vars {
            let doc = if i < num_left { d1 } else { d2 };
            bindings.push(Binding {
                variable: registration.assignment[i].clone(),
                doc,
                node: result_node(row, nodes_offset + i)?,
            });
        }

        // Map template sides back to the query's own left/right blocks.
        let (left_doc, right_doc) = if registration.swapped {
            (d2, d1)
        } else {
            (d1, d2)
        };

        let document = if self.config.retain_documents && query.select == SelectClause::Star {
            self.output_document(registration, row, nodes_offset, d1, cur_doc)?
        } else {
            None
        };

        Ok(MatchOutput {
            query: query.id,
            publish: query.publish.clone(),
            left_doc,
            right_doc,
            bindings,
            document,
        })
    }

    /// The `SELECT *` output of a join match, as a handle on the previous
    /// (retained) and current (in-batch) documents. Each side is rooted at
    /// its pattern-root binding when the template carries one
    /// ([`Registration::output_roots`]), otherwise at the document root.
    fn output_document(
        &self,
        registration: &Registration,
        row: RowRef<'_>,
        nodes_offset: usize,
        d1: DocId,
        cur_doc: &Arc<Document>,
    ) -> CoreResult<Option<OutputDocument>> {
        let Some(prev_doc) = self.state.document(d1) else {
            return Ok(None);
        };
        let root = |pos: Option<usize>| match pos {
            Some(pos) => result_node(row, nodes_offset + pos),
            None => Ok(NodeId::ROOT),
        };
        let prev_root = root(registration.output_roots[0])?;
        let cur_root = root(registration.output_roots[1])?;

        // The output puts the query's left block first.
        let (prev_doc, cur_doc) = (Arc::clone(prev_doc), Arc::clone(cur_doc));
        Ok(Some(if registration.swapped {
            OutputDocument::join(cur_doc, cur_root, prev_doc, prev_root)
        } else {
            OutputDocument::join(prev_doc, prev_root, cur_doc, cur_root)
        }))
    }

    /// Answer single-block subscriptions from a shared automaton pass: the
    /// pass already ran satisfiability and usefulness pruning, so each
    /// subscription only replays witness enumeration over its own useful
    /// sets.
    fn match_single_blocks_from_pass(
        &self,
        doc: &Arc<Document>,
        pass: &SharedPass,
        outputs: &mut Vec<MatchOutput>,
    ) {
        for q in self.registry.queries() {
            let (Some(pattern), Some(pid)) = (&q.single_pattern, q.single_pid) else {
                continue;
            };
            let Some(useful) = pass.useful(pid) else {
                continue;
            };
            if useful.first().map_or(true, Vec::is_empty) {
                continue;
            }
            let matcher = PatternMatcher::new(pattern);
            for w in matcher.witnesses_from_useful(&**doc, useful) {
                let bindings = w
                    .bindings()
                    .iter()
                    .map(|(v, n)| Binding {
                        variable: Arc::from(v.as_str()),
                        doc: doc.id(),
                        node: *n,
                    })
                    .collect();
                let document = if self.config.retain_documents && q.select == SelectClause::Star {
                    Some(OutputDocument::whole(Arc::clone(doc)))
                } else {
                    None
                };
                outputs.push(MatchOutput {
                    query: q.id,
                    publish: q.publish.clone(),
                    left_doc: doc.id(),
                    right_doc: doc.id(),
                    bindings,
                    document,
                });
            }
        }
    }

    // --------------------------------------------------------------------
    // State maintenance (Algorithm 2 / Algorithm 5)
    // --------------------------------------------------------------------

    fn maintain_state(
        &mut self,
        batch: WitnessBatch,
        docs: &[Arc<Document>],
        rbinw_index: Option<RbinwByDocnode>,
    ) -> CoreResult<()> {
        // Algorithm 5: fold the current documents' RR contributions into the
        // cached RL slices so future documents find them materialized.
        if self.config.mode == ProcessingMode::MmqjpViewMat {
            // Group the batch's RdocW rows by string value and append the
            // corresponding RbinW rows to the matching cache slices (only for
            // string values already cached — new values will be computed on
            // first use). The RbinW index was usually already built during
            // evaluation; it is only rebuilt when Stage 2 was skipped.
            let rbinw_by_docnode = match rbinw_index {
                Some(index) => index,
                None => rbinw_by_docnode(&batch)?,
            };
            for row in batch.rdoc_w.iter() {
                let sym = key_sym(&row[2], "RdocW", "strVal")?;
                if !self.view_cache.contains(sym) {
                    continue;
                }
                let docid = key_int(&row[0], "RdocW", "docid")?;
                let node = key_int(&row[1], "RdocW", "node")?;
                let mut addition = Relation::new(schemas::rl());
                for &bin_row in rbinw_by_docnode
                    .get(&(docid, node))
                    .map(|v| v.as_slice())
                    .unwrap_or(&[])
                {
                    let b = batch.rbin_w.row(bin_row);
                    addition.push_values(rl_row(b, sym))?;
                }
                if !addition.is_empty() {
                    self.view_cache.append(sym, &addition)?;
                }
            }
        }

        // Algorithm 2: append the batch into its timestamp buckets,
        // maintaining the per-bucket indexes and the retention ledger. The
        // bucket width follows the registered windows; if documents were
        // processed before any windowed query existed, the provisional width
        // is revised (with a one-time re-partition) once a bound appears.
        let derived = match self.config.state_bucket_width {
            Some(w) => Some(w.max(1)),
            None => self.width_hint().map(JoinState::derive_width),
        };
        self.state.ensure_width(derived)?;
        // The batch is consumed here: its witness rows move whole into the
        // segmented store, no per-row field copies.
        self.state
            .absorb(batch, docs, self.config.retain_documents)?;

        // Window expiry: drop whole buckets that no registered window can
        // reach — O(expired rows), no index rebuild — and invalidate exactly
        // the view-cache slices whose string values lost rows.
        if self.config.prune_state_by_window {
            if let Some(window) = self.registry.max_window() {
                let cutoff = self.newest_timestamp.saturating_sub(window);
                let eviction = self.state.evict_join_state(cutoff);
                if !eviction.expired_strvals.is_empty() {
                    let before = self.view_cache.len();
                    self.view_cache
                        .invalidate_if(|k| eviction.expired_strvals.contains(&k));
                    self.stats.view_slices_invalidated += before - self.view_cache.len();
                }
                self.stats.state_buckets_evicted += eviction.buckets;
                self.stats.state_rows_evicted += eviction.rows;
            }
        }

        // Document retention is bounded even when join-state pruning is off:
        // once a document has aged beyond every registered window (and the
        // configured cap), neither the temporal filter nor output
        // construction can ever need it again.
        if let Some(bound) = self.doc_retention_bound() {
            let cutoff = self.newest_timestamp.saturating_sub(bound);
            self.stats.docs_evicted += self.state.evict_documents(cutoff);
        }
        Ok(())
    }

    /// How long documents (and their timestamps) must be retained: the
    /// maximum registered window, tightened or replaced by
    /// [`EngineConfig::doc_retention_cap`]. `None` — retain forever — only
    /// when some window is infinite *and* no cap is configured.
    fn doc_retention_bound(&self) -> Option<u64> {
        min_bound(self.registry.max_window(), self.config.doc_retention_cap)
    }

    /// The retention span the bucket width is derived from. Uses the largest
    /// *finite* window even when infinite windows exist (width is a pure
    /// granularity parameter — see [`JoinState`]).
    fn width_hint(&self) -> Option<u64> {
        min_bound(
            self.registry.max_finite_window(),
            self.config.doc_retention_cap,
        )
    }
}

// ------------------------------------------------------------------------
// Stage-2 evaluation strategies (compiled-plan execution)
// ------------------------------------------------------------------------
//
// These are free functions over the engine's parts (registry, state, view
// cache, scratch) rather than `&mut self` methods so the borrow checker can
// see that plan execution only *reads* the registry and join state while
// writing the scratch pool — which is what lets the hot path run without
// moving or cloning any relation.

/// The per-batch evaluation context: chunked views over the segmented join
/// state (built once, O(#buckets)), the batch's witness relations and the
/// optional `RL`/`RR` intermediates. Every plan execution of the batch
/// resolves its input slots against this.
struct EvalInputs<'a> {
    rbin: ChunkedRows<'a>,
    rdoc: ChunkedRows<'a>,
    batch: &'a WitnessBatch,
    rl: Option<Relation>,
    rr: Option<Relation>,
    /// Basic MMQJP mode only: the resident `Rdoc` rows whose string value
    /// occurs in the current batch, computed once per batch and shared by
    /// every template. Sound because every basic-plan `Rdoc` atom equates
    /// its strVal variable with an `RdocW` atom's — rows with absent string
    /// values can never join.
    rdoc_restricted: Option<Relation>,
    /// Basic MMQJP mode only: the resident `Rbin` rows of documents that
    /// survive the `Rdoc` restriction. Only substituted for plans that also
    /// read `Rdoc` (all left-side atoms share its document variable there).
    rbin_restricted: Option<Relation>,
}

impl<'a> EvalInputs<'a> {
    fn new(state: &'a JoinState, batch: &'a WitnessBatch) -> Self {
        EvalInputs {
            rbin: ChunkedRows::from_segmented(state.rbin()),
            rdoc: ChunkedRows::from_segmented(state.rdoc()),
            batch,
            rl: None,
            rr: None,
            rdoc_restricted: None,
            rbin_restricted: None,
        }
    }

    /// Resolve a plan's input slots for one execution. `rt` is the owning
    /// template's `RT` relation (`None` for per-query plans, which never
    /// reference one).
    fn resolve<'b>(
        &'b self,
        kinds: &[PlanInputKind],
        rt: Option<&'b Relation>,
        inputs: &mut Vec<PlanInput<'b>>,
    ) -> CoreResult<()> {
        inputs.clear();
        // The Rbin restriction is derived from the restricted Rdoc's
        // document ids, so it is only sound for plans whose Rbin atoms share
        // a document variable with an Rdoc atom — i.e. plans that read Rdoc.
        let narrow_rbin = self.rbin_restricted.is_some() && kinds.contains(&PlanInputKind::Rdoc);
        for kind in kinds {
            inputs.push(match kind {
                PlanInputKind::Rbin if narrow_rbin => PlanInput::from(
                    self.rbin_restricted
                        .as_ref()
                        .ok_or(CoreError::internal("narrow_rbin implies a restricted Rbin"))?,
                ),
                PlanInputKind::Rbin => PlanInput::from(&self.rbin),
                PlanInputKind::Rdoc => match &self.rdoc_restricted {
                    Some(restricted) => PlanInput::from(restricted),
                    None => PlanInput::from(&self.rdoc),
                },
                PlanInputKind::RbinW => PlanInput::from(&self.batch.rbin_w),
                PlanInputKind::RdocW => PlanInput::from(&self.batch.rdoc_w),
                PlanInputKind::Rl => PlanInput::from(
                    self.rl
                        .as_ref()
                        .ok_or(CoreError::internal("RL is computed in materialized mode"))?,
                ),
                PlanInputKind::Rr => PlanInput::from(
                    self.rr
                        .as_ref()
                        .ok_or(CoreError::internal("RR is computed in materialized mode"))?,
                ),
                PlanInputKind::Rt => PlanInput::from(
                    rt.ok_or(CoreError::internal("template plans carry an RT input"))?,
                ),
            });
        }
        Ok(())
    }
}

/// Per-batch index of `RbinW` rows by `(docid, node2)`, used both to build
/// the `RR` slices and to fold the batch into cached `RL` slices.
type RbinwByDocnode = FxHashMap<(i64, i64), Vec<usize>>;

/// One Stage-2 result set: `(rid filter, rows)` per non-empty evaluation,
/// where `rid = -1` marks template results (which carry their own qid
/// column).
type ResultRows = Vec<(i64, Relation)>;

/// Build the [`RbinwByDocnode`] index for a batch.
fn rbinw_by_docnode(batch: &WitnessBatch) -> CoreResult<RbinwByDocnode> {
    let mut index: RbinwByDocnode = FxHashMap::default();
    for (i, row) in batch.rbin_w.iter().enumerate() {
        let key = (
            key_int(&row[0], "RbinW", "docid")?,
            key_int(&row[4], "RbinW", "node2")?,
        );
        index.entry(key).or_default().push(i);
    }
    Ok(index)
}

/// Evaluate all templates with their compiled basic or materialized plans.
/// Returns, per result relation, `(rid filter, rows)` where `rid = -1` marks
/// template results (which carry their own qid column), plus — in
/// materialized mode — the batch's `RbinW` index so maintenance can reuse
/// it instead of rebuilding it.
fn evaluate_mmqjp(
    registry: &Registry,
    state: &JoinState,
    view_cache: &mut ViewCache,
    scratch: &mut ExecScratch,
    batch: &WitnessBatch,
    materialized: bool,
    timings: &mut PhaseTimings,
) -> CoreResult<(ResultRows, Option<RbinwByDocnode>)> {
    let mut ctx = EvalInputs::new(state, batch);
    let mut rbinw_index = None;
    if materialized {
        let (rl, rr, index) = compute_rl_rr(state, view_cache, batch, timings)?;
        ctx.rl = Some(rl);
        ctx.rr = Some(rr);
        rbinw_index = Some(index);
    } else {
        // Basic MMQJP: restrict the shared join-state inputs to the rows the
        // batch can actually join, once, before the per-template loop. Every
        // basic plan's Rdoc atom equates its strVal variable with an RdocW
        // atom's, so Rdoc rows under string values absent from the batch are
        // dead weight every template would otherwise re-scan — this is the
        // shared work the view-materialized mode gets from its RL/RR
        // intermediates, without materializing any view.
        let t_restrict = Instant::now();
        let mut strvals: Vec<Symbol> = Vec::new();
        let mut seen: HashSet<Symbol> = HashSet::new();
        for row in batch.rdoc_w.iter() {
            let sym = key_sym(&row[2], "RdocW", "strVal")?;
            if seen.insert(sym) {
                strvals.push(sym);
            }
        }
        let (rdoc, docids) = state.rdoc_for_strvals(&strvals)?;
        ctx.rbin_restricted = Some(state.rbin_for_docids(&docids)?);
        ctx.rdoc_restricted = Some(rdoc);
        timings.compute_rvj += t_restrict.elapsed();
    }

    let t0 = Instant::now();
    let mat0 = scratch.materialize_time();
    let mut results = Vec::new();
    let mut inputs: Vec<PlanInput<'_>> = Vec::new();
    for t in registry.templates() {
        let (plan, kinds) = if materialized {
            (t.plan_materialized.as_ref(), &t.inputs_materialized)
        } else {
            (t.plan_basic.as_ref(), &t.inputs_basic)
        };
        let plan = plan.ok_or(CoreError::internal(
            "the plan variant for the engine's mode is compiled",
        ))?;
        ctx.resolve(kinds, Some(&t.rt), &mut inputs)?;
        let rows = plan.execute(&inputs, scratch, true);
        if !rows.is_empty() {
            results.push((-1, rows));
        }
    }
    let materialize = scratch.materialize_time().saturating_sub(mat0);
    timings.conjunctive += t0.elapsed().saturating_sub(materialize);
    timings.materialize += materialize;
    Ok((results, rbinw_index))
}

/// Evaluate every registered query's compiled per-query plan independently
/// (the paper's Sequential baseline).
fn evaluate_sequential(
    registry: &Registry,
    state: &JoinState,
    scratch: &mut ExecScratch,
    batch: &WitnessBatch,
    timings: &mut PhaseTimings,
) -> CoreResult<ResultRows> {
    let t0 = Instant::now();
    let mat0 = scratch.materialize_time();
    let ctx = EvalInputs::new(state, batch);
    let mut results = Vec::new();
    let mut inputs: Vec<PlanInput<'_>> = Vec::new();
    // Live queries in query-id order; tombstoned queries are skipped.
    for q in registry.queries() {
        for r in &q.registrations {
            let Some(plan) = r.sequential_plan.as_ref() else {
                continue; // registered under an MMQJP mode; never evaluated
            };
            ctx.resolve(&r.sequential_inputs, None, &mut inputs)?;
            let rows = plan.execute(&inputs, scratch, true);
            if !rows.is_empty() {
                results.push((r.rid, rows));
            }
        }
    }
    let materialize = scratch.materialize_time().saturating_sub(mat0);
    timings.conjunctive += t0.elapsed().saturating_sub(materialize);
    timings.materialize += materialize;
    Ok(results)
}

/// Compute the shared `RL` and `RR` intermediates (Algorithm 4, lines 2–8),
/// consulting and maintaining the view cache for `RL` slices. Also returns
/// the batch's `RbinW` index for reuse by state maintenance.
fn compute_rl_rr(
    state: &JoinState,
    view_cache: &mut ViewCache,
    batch: &WitnessBatch,
    timings: &mut PhaseTimings,
) -> CoreResult<(Relation, Relation, RbinwByDocnode)> {
    // STR: distinct string values of the current batch that also occur in
    // the join state (a semi-join of RdocW with Rdoc on strVal).
    let t_rvj = Instant::now();
    let mut str_values: Vec<Symbol> = Vec::new();
    let mut seen: HashSet<Symbol> = HashSet::new();
    // Per-batch index of RdocW rows by string value and of RbinW rows by
    // (docid, node2), used to build the RR slices.
    let mut rdocw_by_str: FxHashMap<Symbol, Vec<usize>> = FxHashMap::default();
    for (i, row) in batch.rdoc_w.iter().enumerate() {
        let sym = key_sym(&row[2], "RdocW", "strVal")?;
        if state.contains_strval(sym) && seen.insert(sym) {
            str_values.push(sym);
        }
        rdocw_by_str.entry(sym).or_default().push(i);
    }
    let rbinw_by_docnode = rbinw_by_docnode(batch)?;
    timings.compute_rvj += t_rvj.elapsed();

    // RL slices: from the cache when possible, otherwise computed from
    // Rdoc ⋈ Rbin.
    let t_rl = Instant::now();
    let mut rl = Relation::new(schemas::rl());
    for &s in &str_values {
        if let Some(slice) = view_cache.get(s) {
            rl.extend_from(slice)?;
            continue;
        }
        let slice = state.rl_slice(s)?;
        rl.extend_from(&slice)?;
        view_cache.insert(s, slice);
    }
    timings.compute_rl += t_rl.elapsed();

    // RR slices: always computed (they involve the current document).
    let t_rr = Instant::now();
    let mut rr = Relation::new(schemas::rl());
    for &s in &str_values {
        for &doc_row in rdocw_by_str.get(&s).map(|v| v.as_slice()).unwrap_or(&[]) {
            let row = batch.rdoc_w.row(doc_row);
            let docid = key_int(&row[0], "RdocW", "docid")?;
            let node = key_int(&row[1], "RdocW", "node")?;
            for &bin_row in rbinw_by_docnode
                .get(&(docid, node))
                .map(|v| v.as_slice())
                .unwrap_or(&[])
            {
                let b = batch.rbin_w.row(bin_row);
                rr.push_values(rl_row(b, s))?;
            }
        }
    }
    timings.compute_rr += t_rr.elapsed();
    Ok((rl, rr, rbinw_by_docnode))
}

/// The batch document with id `doc`. A batch's ids are consecutive (a
/// quarantined document consumes no sequence number), so it is found by
/// offset from the first.
fn batch_document(batch_docs: &[Arc<Document>], doc: DocId) -> Option<&Arc<Document>> {
    let first = batch_docs.first()?.id().raw();
    let found = batch_docs.get(usize::try_from(doc.raw().checked_sub(first)?).ok()?)?;
    (found.id() == doc).then_some(found)
}

/// An integer column of a Stage-2 result row. The compiled plans project
/// result rows from integer witness columns, so any other value means a
/// corrupt row; it is reported as such instead of being read as a default,
/// which would silently drop the match or bind the wrong document.
fn result_int(row: RowRef<'_>, col: usize, column: &'static str) -> CoreResult<i64> {
    row[col].as_int().ok_or_else(|| CoreError::CorruptStateRow {
        relation: "result",
        column,
        value: format!("{:?}", row[col]),
    })
}

/// A node-id column of a Stage-2 result row (see [`result_int`]); a value
/// outside the `u32` node-id range is corrupt too, never truncated.
fn result_node(row: RowRef<'_>, col: usize) -> CoreResult<NodeId> {
    let raw = result_int(row, col, "node")?;
    u32::try_from(raw)
        .map(NodeId::from_raw)
        .map_err(|_| CoreError::CorruptStateRow {
            relation: "result",
            column: "node",
            value: raw.to_string(),
        })
}

/// The smaller of two optional bounds; `None` only when both are absent.
fn min_bound(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    a.into_iter().chain(b).min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmqjp_xml::{rss, Timestamp};

    const Q1: &str = "S//book->x1[.//author->x2][.//title->x3] \
        FOLLOWED BY{x2=x5 AND x3=x6, 100} \
        S//blog->x4[.//author->x5][.//title->x6]";
    const Q2: &str = "S//book->x1[.//author->x2][.//category->x7] \
        FOLLOWED BY{x2=x5 AND x7=x8, 200} \
        S//blog->x4[.//author->x5][.//category->x8]";
    const Q3: &str = "S//blog->x4[.//author->x5][.//title->x6] \
        FOLLOWED BY{x5=x5' AND x6=x6', 300} \
        S//blog->x4'[.//author->x5'][.//title->x6']";

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

    fn engine(config: EngineConfig) -> MmqjpEngine {
        let mut e = MmqjpEngine::new(config);
        e.register_query_text(Q1).unwrap();
        e.register_query_text(Q2).unwrap();
        e.register_query_text(Q3).unwrap();
        e
    }

    /// The Section 4.4.1 walkthrough: d1 then d2 produce exactly one match
    /// for Q1 and one for Q2 (the blog article's category matches d1's
    /// category for Q2, its title matches d1's title for Q1), and none for
    /// Q3.
    fn run_walkthrough(config: EngineConfig) -> Vec<MatchOutput> {
        let mut e = engine(config);
        let first = e.process_document(d1()).unwrap();
        assert!(first.is_empty());
        e.process_document(d2()).unwrap()
    }

    #[test]
    fn walkthrough_section_4_4_1_mmqjp() {
        let outputs = run_walkthrough(EngineConfig::mmqjp());
        let mut queries: Vec<u64> = outputs.iter().map(|o| o.query.raw()).collect();
        queries.sort_unstable();
        assert_eq!(queries, vec![0, 1]); // Q1 and Q2
        for o in &outputs {
            assert_eq!(o.left_doc, DocId(1));
            assert_eq!(o.right_doc, DocId(2));
            let doc = o.document.as_ref().unwrap();
            assert_eq!(doc.root().tag(), "result");
            assert_eq!(doc.root().children().len(), 2);
        }
    }

    #[test]
    fn walkthrough_section_4_4_1_view_mat() {
        let outputs = run_walkthrough(EngineConfig::mmqjp_view_mat());
        assert_eq!(outputs.len(), 2);
    }

    #[test]
    fn walkthrough_section_4_4_1_sequential() {
        let outputs = run_walkthrough(EngineConfig::sequential());
        assert_eq!(outputs.len(), 2);
    }

    #[test]
    fn all_modes_agree_on_the_walkthrough() {
        let mut a = run_walkthrough(EngineConfig::mmqjp());
        let mut b = run_walkthrough(EngineConfig::mmqjp_view_mat());
        let mut c = run_walkthrough(EngineConfig::sequential());
        let key = |o: &MatchOutput| (o.query, o.left_doc, o.right_doc);
        a.sort_by_key(key);
        b.sort_by_key(key);
        c.sort_by_key(key);
        let ka: Vec<_> = a.iter().map(key).collect();
        let kb: Vec<_> = b.iter().map(key).collect();
        let kc: Vec<_> = c.iter().map(key).collect();
        assert_eq!(ka, kb);
        assert_eq!(ka, kc);
    }

    #[test]
    fn window_constraint_filters_matches() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(
            "S//book->x1[.//title->x3] FOLLOWED BY{x3=x6, 5} S//blog->x4[.//title->x6]",
        )
        .unwrap();
        e.process_document(d1().with_timestamp(Timestamp(10)))
            .unwrap();
        // 100 - 10 > 5: outside the window.
        let out = e
            .process_document(d2().with_timestamp(Timestamp(100)))
            .unwrap();
        assert!(out.is_empty());
        // A second blog article within the window of nothing earlier than the
        // first book still matches nothing (the book is now 95 units old).
        let out = e
            .process_document(d2().with_timestamp(Timestamp(104)))
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn followed_by_requires_order() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(Q1).unwrap();
        // Blog first, book second: no match (FOLLOWED BY is directional).
        e.process_document(d2().with_timestamp(Timestamp(5)))
            .unwrap();
        let out = e
            .process_document(d1().with_timestamp(Timestamp(10)))
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn join_operator_matches_both_orders() {
        let q = "S//book->x1[.//title->x3] JOIN{x3=x6, 100} S//blog->x4[.//title->x6]";
        // Order 1: book then blog.
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(q).unwrap();
        e.process_document(d1().with_timestamp(Timestamp(1)))
            .unwrap();
        let out = e
            .process_document(d2().with_timestamp(Timestamp(2)))
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].left_doc, DocId(1));
        assert_eq!(out[0].right_doc, DocId(2));
        // Order 2: blog then book — still matches thanks to the swapped
        // orientation.
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(q).unwrap();
        e.process_document(d2().with_timestamp(Timestamp(1)))
            .unwrap();
        let out = e
            .process_document(d1().with_timestamp(Timestamp(2)))
            .unwrap();
        assert_eq!(out.len(), 1);
        // The query's left block (book) matched the later document.
        assert_eq!(out[0].left_doc, DocId(2));
        assert_eq!(out[0].right_doc, DocId(1));
    }

    #[test]
    fn q3_matches_pair_of_blog_postings() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(Q3).unwrap();
        let blog1 =
            rss::blog_article("Ann", "u1", "Same Title", "c", "d").with_timestamp(Timestamp(1));
        let blog2 =
            rss::blog_article("Ann", "u2", "Same Title", "c", "d").with_timestamp(Timestamp(2));
        let blog3 =
            rss::blog_article("Bob", "u3", "Same Title", "c", "d").with_timestamp(Timestamp(3));
        assert!(e.process_document(blog1).unwrap().is_empty());
        let out = e.process_document(blog2).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].query, QueryId(0));
        // Bob's posting shares the title but not the author: no new match
        // with either earlier posting.
        let out = e.process_document(blog3).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn multiple_matching_pairs_produce_multiple_outputs() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(Q1).unwrap();
        e.process_document(d1()).unwrap();
        // A second identical book announcement.
        e.process_document(d1().with_timestamp(Timestamp(11)))
            .unwrap();
        let out = e.process_document(d2()).unwrap();
        // The blog article joins with both book announcements.
        assert_eq!(out.len(), 2);
        let left_docs: HashSet<u64> = out.iter().map(|o| o.left_doc.raw()).collect();
        assert_eq!(left_docs, HashSet::from([1, 2]));
    }

    #[test]
    fn engine_stats_track_processing() {
        let mut e = engine(EngineConfig::mmqjp_view_mat());
        e.process_document(d1()).unwrap();
        e.process_document(d2()).unwrap();
        let stats = e.stats();
        assert_eq!(stats.documents_processed, 2);
        assert_eq!(stats.results_emitted, 2);
        assert_eq!(stats.queries_registered, 3);
        assert_eq!(stats.templates, 1);
        assert!(stats.rdoc_tuples > 0);
        assert!(stats.rbin_tuples > 0);
        assert!(stats.timings.total().as_nanos() > 0);
        assert_eq!(e.num_queries(), 3);
        assert_eq!(e.num_templates(), 1);
        assert!(e.num_patterns() >= 3);
        assert_eq!(e.config().mode, ProcessingMode::MmqjpViewMat);
        assert!(!e.interner().is_empty());
        assert_eq!(e.registry().num_queries(), 3);
    }

    #[test]
    fn hot_path_executes_compiled_plans_from_pooled_scratch() {
        // The no-per-batch-allocation contract: plans are compiled once at
        // registration (never per batch), every execution after the first
        // runs on the engine's pooled scratch buffers, and result rows are
        // materialized exactly once. CQs and witness relations are never
        // cloned on the hot path — the old build/restore database round
        // trip is gone, so the only per-batch products are these counters.
        for config in [
            EngineConfig::sequential(),
            EngineConfig::mmqjp(),
            EngineConfig::mmqjp_view_mat(),
        ] {
            let mode = config.mode;
            let mut e = engine(config);
            let plans_after_registration = e.stats().plans_compiled;
            match mode {
                // Three queries share one template; exactly the variant this
                // mode executes is compiled.
                ProcessingMode::Mmqjp | ProcessingMode::MmqjpViewMat => {
                    assert_eq!(plans_after_registration, 1, "mode {mode:?}");
                }
                // One per-query plan per orientation, no template plans.
                ProcessingMode::Sequential => {
                    assert_eq!(plans_after_registration, 3, "mode {mode:?}");
                }
            }

            let batches = 4u64;
            for i in 0..batches {
                e.process_document(d1().with_timestamp(Timestamp(10 + 2 * i)))
                    .unwrap();
            }
            let out = e
                .process_document(d2().with_timestamp(Timestamp(20)))
                .unwrap();
            assert!(!out.is_empty());
            let stats = e.stats();
            // Registration never happened again mid-stream.
            assert_eq!(stats.plans_compiled, plans_after_registration);
            // Every execution after the very first reused the pooled
            // scratch: executions = batches x live plans of the mode.
            let plans_per_batch = match mode {
                ProcessingMode::Sequential => 3, // one per query orientation
                _ => 1,                          // one per template
            };
            let executions = (batches as usize + 1) * plans_per_batch;
            assert_eq!(stats.scratch_reuses, executions - 1, "mode {mode:?}");
            // Late materialization: at least one row per emitted match was
            // built, and none more than the distinct result rows.
            assert!(stats.rows_materialized >= stats.results_emitted);
        }
    }

    #[test]
    fn bindings_report_canonical_variables() {
        let outputs = run_walkthrough(EngineConfig::mmqjp());
        let q1_match = outputs.iter().find(|o| o.query == QueryId(0)).unwrap();
        let author = q1_match.binding("S//book//author").unwrap();
        assert_eq!(author.doc, DocId(1));
        // Danny Ayers is node 1 in our Figure-1 fixture.
        assert_eq!(author.node, NodeId::from_raw(1));
        let blog_title = q1_match.binding("S//blog//title").unwrap();
        assert_eq!(blog_title.doc, DocId(2));
    }

    #[test]
    fn single_block_subscription_matches_every_document() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text("S//blog[.//author]").unwrap();
        assert!(e.process_document(d1()).unwrap().is_empty());
        let out = e.process_document(d2()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].left_doc, out[0].right_doc);
        assert!(out[0].document.is_some());
    }

    #[test]
    fn retain_documents_false_skips_output_construction() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp().with_retain_documents(false));
        e.register_query_text(Q1).unwrap();
        e.process_document(d1()).unwrap();
        let out = e.process_document(d2()).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].document.is_none());
    }

    #[test]
    fn batch_processing_joins_against_prior_state_only() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(Q1).unwrap();
        // Both documents in one batch: the match is within the batch and is
        // not reported (documented trade-off), but the state is built.
        let out = e.process_batch(vec![d1(), d2()]).unwrap();
        assert!(out.is_empty());
        // A later blog article joins with the book from the first batch.
        let out = e
            .process_document(d2().with_timestamp(Timestamp(30)))
            .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn view_cache_is_exercised_across_documents() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp_view_mat());
        e.register_query_text(Q1).unwrap();
        e.process_document(d1()).unwrap();
        e.process_document(d2()).unwrap();
        // Processing a second blog article with the same author/title reuses
        // the cached RL slices.
        let out = e
            .process_document(d2().with_timestamp(Timestamp(30)))
            .unwrap();
        assert_eq!(out.len(), 1);
        let stats = e.stats();
        assert!(
            stats.view_cache_hits > 0,
            "expected cache hits, got {stats:?}"
        );
    }

    #[test]
    fn window_pruning_discards_old_state() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp().with_prune_state_by_window(true));
        e.register_query_text(
            "S//book->x1[.//title->x3] FOLLOWED BY{x3=x6, 10} S//blog->x4[.//title->x6]",
        )
        .unwrap();
        e.process_document(d1().with_timestamp(Timestamp(1)))
            .unwrap();
        let before = e.stats().rdoc_tuples;
        assert!(before > 0);
        // A much later document pushes the book out of the window.
        e.process_document(d2().with_timestamp(Timestamp(1000)))
            .unwrap();
        let after = e.stats();
        assert!(after.rdoc_tuples < before + 5);
        // The expired book is gone from the state, so a further blog article
        // cannot match it.
        let out = e
            .process_document(d2().with_timestamp(Timestamp(1005)))
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn window_pruning_is_incremental_and_counted() {
        // Bucketed expiry: no rebuild, whole buckets dropped, counters
        // reported. Width 1 (window 10 / 16 floors to 1) gives near-exact
        // granularity, so the book's state is gone after the jump to ts 1000.
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp().with_prune_state_by_window(true));
        e.register_query_text(
            "S//book->x1[.//title->x3] FOLLOWED BY{x3=x6, 10} S//blog->x4[.//title->x6]",
        )
        .unwrap();
        e.process_document(d1().with_timestamp(Timestamp(1)))
            .unwrap();
        e.process_document(d2().with_timestamp(Timestamp(1000)))
            .unwrap();
        let stats = e.stats();
        assert!(stats.state_buckets_evicted > 0);
        assert!(stats.state_rows_evicted > 0);
        assert!(stats.docs_evicted > 0);
        assert!(stats.state_buckets >= 1);
    }

    #[test]
    fn doc_retention_is_bounded_without_state_pruning() {
        // The leak fix: with prune_state_by_window = false (the default) and
        // retain_documents = true, documents and timestamps are still
        // evicted once they age beyond every registered window. Join state
        // is deliberately left alone in this configuration.
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        assert!(!e.config().prune_state_by_window);
        e.register_query_text(
            "S//book->x1[.//title->x3] FOLLOWED BY{x3=x6, 10} S//blog->x4[.//title->x6]",
        )
        .unwrap();
        for i in 0..100u64 {
            e.process_document(d1().with_timestamp(Timestamp(1 + i * 5)))
                .unwrap();
        }
        let stats = e.stats();
        assert!(
            stats.docs_retained <= 16,
            "doc store must plateau, got {} retained",
            stats.docs_retained
        );
        assert_eq!(stats.docs_evicted + stats.docs_retained, 100);
        // Join state is untouched by doc eviction.
        assert!(stats.rdoc_tuples >= 100);
        // Matches still fire across the retained window: the books at ts 491
        // and 496 are both within 10 of the blog at ts 497.
        let out = e
            .process_document(d2().with_timestamp(Timestamp(1 + 99 * 5 + 1)))
            .unwrap();
        assert_eq!(out.len(), 2);
        assert!(
            out.iter().all(|o| o.document.is_some()),
            "retained docs build the outputs"
        );
    }

    #[test]
    fn doc_retention_cap_bounds_infinite_windows() {
        // With an infinite window nothing could ever be evicted; the config
        // cap acts as the explicit memory backstop.
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp().with_doc_retention_cap(Some(50)));
        e.register_query_text(
            "S//book->x1[.//title->x3] FOLLOWED BY{x3=x6, INF} S//blog->x4[.//title->x6]",
        )
        .unwrap();
        for i in 0..100u64 {
            e.process_document(d1().with_timestamp(Timestamp(1 + i * 5)))
                .unwrap();
        }
        let stats = e.stats();
        assert!(
            stats.docs_retained <= 32,
            "cap must bound retention, got {}",
            stats.docs_retained
        );
        assert!(stats.docs_evicted >= 68);

        // Without the cap the same stream retains every document.
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(
            "S//book->x1[.//title->x3] FOLLOWED BY{x3=x6, INF} S//blog->x4[.//title->x6]",
        )
        .unwrap();
        for i in 0..100u64 {
            e.process_document(d1().with_timestamp(Timestamp(1 + i * 5)))
                .unwrap();
        }
        assert_eq!(e.stats().docs_retained, 100);
    }

    #[test]
    fn pruning_invalidates_only_expired_view_slices() {
        // Two distinct titles: after the first expires, its slice is
        // invalidated while the survivor's cached slice keeps serving hits.
        let mut e = MmqjpEngine::new(
            EngineConfig::mmqjp_view_mat()
                .with_prune_state_by_window(true)
                .with_state_bucket_width(Some(10)),
        );
        e.register_query_text(Q3).unwrap();
        let old_blog = rss::blog_article("Ann", "u1", "Old Title", "c", "d");
        let live_blog = rss::blog_article("Ann", "u2", "Live Title", "c", "d");
        e.process_document(old_blog.with_timestamp(Timestamp(1)))
            .unwrap();
        e.process_document(live_blog.clone().with_timestamp(Timestamp(290)))
            .unwrap();
        // Warm the cache for "Live Title" (and match the ts-290 posting).
        let out = e
            .process_document(live_blog.clone().with_timestamp(Timestamp(295)))
            .unwrap();
        assert_eq!(out.len(), 1);
        // Jump far enough that the old posting's bucket expires (window is
        // 300); the live postings stay in-window.
        let out = e
            .process_document(live_blog.clone().with_timestamp(Timestamp(500)))
            .unwrap();
        assert_eq!(out.len(), 2);
        let stats = e.stats();
        assert!(stats.state_rows_evicted > 0, "old posting must expire");
        assert!(
            stats.view_slices_invalidated >= 1,
            "expired slice is invalidated"
        );
        // The surviving slice still produces cache hits afterwards.
        let hits_before = e.stats().view_cache_hits;
        e.process_document(live_blog.with_timestamp(Timestamp(505)))
            .unwrap();
        assert!(e.stats().view_cache_hits > hits_before);
    }

    #[test]
    fn out_of_order_documents_rejected_when_enforced() {
        let mut config = EngineConfig::mmqjp();
        config.enforce_in_order = true;
        let mut e = MmqjpEngine::new(config);
        e.register_query_text(Q1).unwrap();
        e.process_document(d1().with_timestamp(Timestamp(100)))
            .unwrap();
        let err = e
            .process_document(d2().with_timestamp(Timestamp(50)))
            .unwrap_err();
        assert!(matches!(err, CoreError::OutOfOrderDocument { .. }));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        e.register_query_text(Q1).unwrap();
        assert!(e.process_batch(Vec::new()).unwrap().is_empty());
        assert_eq!(e.stats().documents_processed, 0);
    }

    #[test]
    fn unregistered_query_stops_matching_and_survivors_continue() {
        for config in [
            EngineConfig::sequential(),
            EngineConfig::mmqjp(),
            EngineConfig::mmqjp_view_mat(),
        ] {
            let mut e = engine(config);
            e.process_document(d1()).unwrap();
            // Unregister Q1 mid-window: only Q2 still matches d2.
            e.unregister_query(QueryId(0)).unwrap();
            let out = e
                .process_document(d2().with_timestamp(Timestamp(20)))
                .unwrap();
            assert_eq!(out.len(), 1, "mode {:?}", e.config().mode);
            assert_eq!(out[0].query, QueryId(1));
            let stats = e.stats();
            assert_eq!(stats.queries_registered, 2);
            assert_eq!(stats.queries_unregistered, 1);
            // Q1's patterns were shared with Q2/Q3, so nothing dropped yet.
            assert_eq!(stats.templates, 1);
        }
    }

    #[test]
    fn unregistering_everything_retires_templates_and_patterns() {
        let mut e = engine(EngineConfig::mmqjp());
        e.process_document(d1()).unwrap();
        for id in [0, 1, 2] {
            e.unregister_query(QueryId(id)).unwrap();
        }
        let stats = e.stats();
        assert_eq!(stats.queries_registered, 0);
        assert_eq!(stats.queries_unregistered, 3);
        assert_eq!(stats.templates, 0);
        assert_eq!(stats.templates_retired, 1);
        assert_eq!(stats.distinct_patterns, 0);
        assert_eq!(stats.patterns_dropped, 4);
        // Further documents produce nothing and ids are never reused.
        let out = e.process_document(d2()).unwrap();
        assert!(out.is_empty());
        let id = e.register_query_text(Q1).unwrap();
        assert_eq!(id, QueryId(3));
        // Double unregister errors.
        assert!(matches!(
            e.unregister_query(QueryId(0)),
            Err(CoreError::UnknownQuery { .. })
        ));
    }

    #[test]
    fn unregister_purges_dead_view_slices() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp_view_mat());
        e.register_query_text(Q3).unwrap(); // blog-blog self join
        let blog = |ts: u64| {
            rss::blog_article("Ann", "u1", "Same Title", "c", "d").with_timestamp(Timestamp(ts))
        };
        e.process_document(blog(1)).unwrap();
        e.process_document(blog(2)).unwrap();
        assert!(e.stats().view_cache_misses > 0);
        let before = e.stats().view_slices_invalidated;
        e.unregister_query(QueryId(0)).unwrap();
        // The blog pattern died with its only subscriber; its cached slices
        // were reclaimed.
        let stats = e.stats();
        assert_eq!(stats.patterns_dropped, 1);
        assert!(
            stats.view_slices_invalidated > before,
            "dead-variable slices must be purged: {stats:?}"
        );
    }

    #[test]
    fn doc_retention_tightens_after_widest_window_unregisters() {
        // Regression for the latent gap: the registry used to compute
        // max_finite_window once and only grow it. With the multiset it
        // tightens, and document retention follows on the next batch.
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        let narrow = e
            .register_query_text(
                "S//book->x1[.//title->x3] FOLLOWED BY{x3=x6, 10} S//blog->x4[.//title->x6]",
            )
            .unwrap();
        let wide = e
            .register_query_text(
                "S//book->x1[.//title->x3] FOLLOWED BY{x3=x6, 10000} S//blog->x4[.//title->x6]",
            )
            .unwrap();
        let _ = narrow;
        for i in 0..40u64 {
            e.process_document(d1().with_timestamp(Timestamp(1 + i * 5)))
                .unwrap();
        }
        // The 10000 window retains everything.
        assert_eq!(e.stats().docs_retained, 40);
        e.unregister_query(wide).unwrap();
        assert_eq!(e.registry().max_window(), Some(10));
        // The next documents prune retention down to the 10-unit window.
        for i in 40..44u64 {
            e.process_document(d1().with_timestamp(Timestamp(1 + i * 5)))
                .unwrap();
        }
        let stats = e.stats();
        assert!(
            stats.docs_retained <= 16,
            "retention must tighten to the surviving window, got {}",
            stats.docs_retained
        );
        assert_eq!(stats.docs_retained + stats.docs_evicted, 44);
    }

    #[test]
    fn mid_stream_registration_never_sees_prior_documents() {
        // A subscription only joins documents arriving after it: resident
        // join state (here produced by a twin query's identical patterns)
        // is never matched against a later registration. This is what makes
        // unregister ≡ fresh-engine-with-survivors exact even when queries
        // are re-registered mid-stream.
        for config in [
            EngineConfig::sequential(),
            EngineConfig::mmqjp(),
            EngineConfig::mmqjp_view_mat(),
        ] {
            let mode = config.mode;
            let mut e = MmqjpEngine::new(config);
            e.register_query_text(Q1).unwrap();
            e.process_document(d1()).unwrap(); // doc 1, pre-dates the twin
            let twin = e.register_query_text(Q1).unwrap();
            let out = e.process_document(d2()).unwrap();
            // The original query matches (d1, d2); the twin must not — d1
            // arrived before it subscribed.
            assert_eq!(out.len(), 1, "mode {mode:?}");
            assert_eq!(out[0].query, QueryId(0));
            // A fresh post-registration book: the original pairs the new
            // blog with both books, the twin only with the post-subscription
            // one.
            e.process_document(d1().with_timestamp(Timestamp(30)))
                .unwrap();
            let out = e
                .process_document(d2().with_timestamp(Timestamp(40)))
                .unwrap();
            let mut queries: Vec<u64> = out.iter().map(|o| o.query.raw()).collect();
            queries.sort_unstable();
            assert_eq!(queries, vec![0, 0, twin.raw()], "mode {mode:?}");
            let twin_match = out.iter().find(|o| o.query == twin).unwrap();
            assert_eq!(twin_match.left_doc, DocId(3));
        }
    }

    #[test]
    fn malformed_result_rows_are_corrupt_state_errors() {
        use mmqjp_relational::{Schema, Value};
        let mut e = engine(EngineConfig::mmqjp());
        e.process_document(d1()).unwrap();
        // The current batch holds d2 as document 2; its timestamp is all
        // the temporal filter needs.
        let d2 = d2().with_id(DocId(2));
        let registration = &e.registry().query(QueryId(0)).unwrap().registrations[0];
        let num_vars = e
            .registry()
            .template_runtime(registration.template)
            .unwrap()
            .template
            .num_meta_vars();
        // A template result row: qid, d1, d2, one node per meta-variable, wl.
        let good: Vec<Value> = [registration.rid, 1, 2]
            .into_iter()
            .chain(std::iter::repeat(0).take(num_vars + 1))
            .map(Value::Int)
            .collect();
        let rows_of = |row: Vec<Value>| {
            let mut rows = Relation::new(Schema::new((0..row.len()).map(|i| format!("c{i}"))));
            rows.push_values(row).unwrap();
            rows
        };
        let docs = [Arc::new(d2.clone())];
        let out = e
            .produce_outputs(-1, &rows_of(good.clone()), &docs)
            .unwrap();
        assert_eq!(out.len(), 1, "the well-formed row is a match");

        for (col, column) in [(0, "qid"), (1, "d1"), (2, "d2"), (3, "node")] {
            let mut row = good.clone();
            row[col] = Value::Null;
            let err = e.produce_outputs(-1, &rows_of(row), &docs).unwrap_err();
            assert!(
                matches!(
                    err,
                    CoreError::CorruptStateRow { relation: "result", column: c, .. } if c == column
                ),
                "column {col}: {err:?}"
            );
        }
        // A node id outside the u32 range is corrupt, not truncated.
        let mut row = good;
        row[3] = Value::Int(i64::from(u32::MAX) + 1);
        let err = e.produce_outputs(-1, &rows_of(row), &docs).unwrap_err();
        assert!(matches!(
            err,
            CoreError::CorruptStateRow { column: "node", .. }
        ));
    }

    #[test]
    fn documents_without_join_queries_are_just_absorbed() {
        let mut e = MmqjpEngine::new(EngineConfig::mmqjp());
        let out = e.process_document(d1()).unwrap();
        assert!(out.is_empty());
        assert_eq!(e.stats().documents_processed, 1);
    }
}
