//! The closed loop: one publisher submits a batch of XML text, waits until
//! the batch's matches are delivered, then submits the next.
//!
//! Every layer is timed from outside, around calls into the library's public
//! functions. With tracing on, each call also becomes a [`Span`] carrying the
//! engine's `stats()` deltas across it as counts; nothing is instrumented
//! inside the engine.

use crate::inputs::{Step, TextDoc, TsSource, Workload};
use mmqjp_core::{CoreResult, EngineConfig, EngineStats, MatchOutput, MmqjpEngine, PhaseTimings};
use mmqjp_core::{QueryId, ShardedEngine};
use mmqjp_xml::{parse_document_streaming, Document, Timestamp};
use mmqjp_xscl::XsclQuery;
use std::time::{Duration, Instant};

/// The engine a workload names: one `MmqjpEngine`, or a `ShardedEngine`
/// when the configuration asks for more than one shard.
pub enum Engine {
    Single(Box<MmqjpEngine>),
    Sharded(Box<ShardedEngine>),
}

/// Engine statistics at one instant: the aggregate, plus one entry per shard
/// for the sharded engine.
pub struct Snapshot {
    pub total: EngineStats,
    pub shards: Vec<EngineStats>,
}

impl Engine {
    pub fn new(config: &EngineConfig) -> Engine {
        if config.num_shards > 1 {
            Engine::Sharded(Box::new(ShardedEngine::new(config.clone())))
        } else {
            Engine::Single(Box::new(MmqjpEngine::new(config.clone())))
        }
    }

    fn register(&mut self, query: XsclQuery) -> CoreResult<QueryId> {
        match self {
            Engine::Single(e) => e.register_query(query),
            Engine::Sharded(e) => e.register_query(query),
        }
    }

    fn unregister(&mut self, id: QueryId) -> CoreResult<()> {
        match self {
            Engine::Single(e) => e.unregister_query(id),
            Engine::Sharded(e) => e.unregister_query(id),
        }
    }

    fn process(&mut self, docs: Vec<Document>) -> CoreResult<Vec<MatchOutput>> {
        match self {
            Engine::Single(e) => e.process_batch(docs),
            Engine::Sharded(e) => e.process_batch(docs),
        }
    }

    pub fn snapshot(&self) -> CoreResult<Snapshot> {
        match self {
            Engine::Single(e) => Ok(Snapshot {
                total: e.stats(),
                shards: Vec::new(),
            }),
            Engine::Sharded(e) => {
                let shards = e.shard_stats()?;
                let mut total: EngineStats = shards.iter().copied().sum();
                total += e.front_stats();
                Ok(Snapshot { total, shards })
            }
        }
    }
}

/// An order-independent digest of a multiset of matches over
/// `(query, left_doc, right_doc, bindings)`: a count plus the wrapping sum
/// and the xor of one 64-bit hash per match.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Digest {
    count: u64,
    sum: u64,
    xor: u64,
}

impl Digest {
    pub fn add(&mut self, m: &MatchOutput) {
        let mut h = Fnv::default();
        h.u64(m.query.raw());
        h.u64(m.left_doc.raw());
        h.u64(m.right_doc.raw());
        for b in &m.bindings {
            h.bytes(b.variable.as_bytes());
            h.u64(b.doc.raw());
            h.u64(u64::from(b.node.raw()));
        }
        self.count += 1;
        self.sum = self.sum.wrapping_add(h.0);
        self.xor ^= h.0.rotate_left(29).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn hex(&self) -> String {
        format!("{}-{:016x}-{:016x}", self.count, self.sum, self.xor)
    }
}

/// FNV-1a, fixed so that digests compare across processes and builds.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Length-delimit, so that adjacent fields cannot alias.
        self.u64(bytes.len() as u64);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// One traced call. `group` is shared by one batch's parse, process and
/// deliver spans; `counts` carries the stats deltas taken at its boundary.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub group: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counts: Vec<(&'static str, f64)>,
    /// Per-shard `(busy_ms, stage1_ms)` across a sharded `process_batch`.
    pub shards: Vec<(f64, f64)>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }
}

/// Spans of one run, kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        group: u64,
        (start, end): (Instant, Instant),
        counts: Vec<(&'static str, f64)>,
    ) -> usize {
        let span = Span {
            name,
            parent,
            group,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            counts,
            shards: Vec::new(),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }
}

/// What one pass of the closed loop saw.
#[derive(Default)]
pub struct Outcome {
    pub docs: usize,
    pub loop_time: Duration,
    /// Per batch, in script order: submission-to-delivery time and size.
    pub batch_ms: Vec<f64>,
    pub batch_docs: Vec<usize>,
    /// Mid-stream `register_query` latencies, in script order.
    pub subscribe_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Parsed documents whose generator timestamp could not be restored
    /// from the text.
    pub ts_lost: u64,
    pub digest: Digest,
    /// The digest after each reference's checked prefix, in the order of
    /// `Workload::references`.
    pub checkpoints: Vec<Option<Digest>>,
    /// The engine's statistics after the loop (traced runs only).
    pub end_stats: Option<Snapshot>,
}

/// Build the engine and register the initial subscription set. Returns the
/// engine, the id of every registration (`None` where it failed) and the
/// number of failed registrations.
pub fn set_up(w: &Workload, queries: Vec<XsclQuery>) -> (Engine, Vec<Option<QueryId>>, u64) {
    let mut engine = Engine::new(&w.config);
    let mut failed = 0;
    let ids = queries
        .into_iter()
        .map(|q| {
            let id = engine.register(q).ok();
            failed += u64::from(id.is_none());
            id
        })
        .collect();
    (engine, ids, failed)
}

/// Parse one document and restore its generator timestamp from the text.
/// `Ok(None)` means the text parsed but the timestamp was not recovered.
fn parse(doc: &TextDoc, source: TsSource) -> Result<Option<Document>, mmqjp_xml::XmlError> {
    let mut parsed = parse_document_streaming(&doc.text)?;
    let restored = match source {
        TsSource::Leaf(tag) => parsed
            .first_with_tag(tag)
            .and_then(|n| parsed.node(n).text())
            .and_then(|t| t.trim().parse::<u64>().ok()),
        TsSource::RootAttr(name) => parsed
            .root()
            .attribute(name)
            .and_then(|t| t.parse::<u64>().ok()),
    };
    if restored != Some(doc.ts) {
        return Ok(None);
    }
    parsed.set_timestamp(Timestamp(doc.ts));
    Ok(Some(parsed))
}

fn phase_deltas(before: &PhaseTimings, after: &PhaseTimings) -> [(&'static str, f64); 10] {
    let ms = |a: Duration, b: Duration| a.saturating_sub(b).as_secs_f64() * 1e3;
    [
        ("xpath_ms", ms(after.xpath, before.xpath)),
        ("ingest_ms", ms(after.ingest, before.ingest)),
        ("rvj_ms", ms(after.compute_rvj, before.compute_rvj)),
        ("rl_ms", ms(after.compute_rl, before.compute_rl)),
        ("rr_ms", ms(after.compute_rr, before.compute_rr)),
        ("conjunctive_ms", ms(after.conjunctive, before.conjunctive)),
        ("materialize_ms", ms(after.materialize, before.materialize)),
        ("output_ms", ms(after.output, before.output)),
        ("maintenance_ms", ms(after.maintenance, before.maintenance)),
        ("recovery_ms", ms(after.recovery, before.recovery)),
    ]
}

/// Per-shard `(busy, stage1)` milliseconds across one call: a shard's busy
/// time is the sum of its phase deltas, its Stage 1 is `xpath + ingest`.
fn shard_deltas(before: &Snapshot, after: &Snapshot) -> Vec<(f64, f64)> {
    before
        .shards
        .iter()
        .zip(&after.shards)
        .map(|(b, a)| {
            let deltas = phase_deltas(&b.timings, &a.timings);
            (
                deltas.iter().map(|(_, v)| v).sum(),
                deltas[0].1 + deltas[1].1,
            )
        })
        .collect()
}

/// The stats deltas across one `process_batch` call, as span counts.
fn call_counts(before: &Snapshot, after: &Snapshot) -> Vec<(&'static str, f64)> {
    let (b, a) = (&before.total, &after.total);
    let d = |x: usize, y: usize| x.saturating_sub(y) as f64;
    let mut counts = phase_deltas(&b.timings, &a.timings).to_vec();
    counts.extend([
        (
            "rows_materialized",
            d(a.rows_materialized, b.rows_materialized),
        ),
        ("view_cache_hits", d(a.view_cache_hits, b.view_cache_hits)),
        (
            "view_cache_misses",
            d(a.view_cache_misses, b.view_cache_misses),
        ),
        (
            "view_slices_invalidated",
            d(a.view_slices_invalidated, b.view_slices_invalidated),
        ),
        (
            "state_rows_evicted",
            d(a.state_rows_evicted, b.state_rows_evicted),
        ),
    ]);
    counts
}

/// Run the workload's script once against a set-up engine.
pub fn run(
    w: Workload,
    engine: &mut Engine,
    mut ids: Vec<Option<QueryId>>,
    mut tracer: Option<&mut Tracer>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut group = 0u64;
    let Workload {
        steps,
        ts_source,
        references,
        ..
    } = w;
    out.checkpoints = vec![None; references.len()];
    let snapshot = |engine: &Engine, failed: &mut u64| match engine.snapshot() {
        Ok(s) => Some(s),
        Err(_) => {
            *failed += 1;
            None
        }
    };
    let loop_start = Instant::now();
    for step in steps {
        group += 1;
        match step {
            Step::Batch(texts) => {
                let n = texts.len();
                let batch_bytes: u64 = texts.iter().map(|t| t.text.len() as u64).sum();
                let t_submit = Instant::now();
                let mut docs = Vec::with_capacity(n);
                for text in &texts {
                    out.attempted += 1;
                    match parse(text, ts_source) {
                        Ok(Some(doc)) => docs.push(doc),
                        Ok(None) => out.ts_lost += 1,
                        Err(_) => out.failed += 1,
                    }
                }
                drop(texts);
                let t_parsed = Instant::now();
                let before = tracer
                    .is_some()
                    .then(|| snapshot(engine, &mut out.failed))
                    .flatten();
                let t_call = Instant::now();
                out.attempted += 1;
                let result = engine.process(docs);
                let t_returned = Instant::now();
                let after = tracer
                    .is_some()
                    .then(|| snapshot(engine, &mut out.failed))
                    .flatten();
                let t_consume = Instant::now();
                let matches = result.unwrap_or_else(|_| {
                    out.failed += 1;
                    Vec::new()
                });
                for m in &matches {
                    out.digest.add(m);
                }
                let t_consumed = Instant::now();
                let delivered = matches.len();
                drop(matches);
                let t_done = Instant::now();

                out.batch_ms.push((t_done - t_submit).as_secs_f64() * 1e3);
                out.batch_docs.push(n);
                out.docs += n;
                for (at, (_, docs)) in out.checkpoints.iter_mut().zip(&references) {
                    if out.docs == *docs {
                        *at = Some(out.digest);
                    }
                }
                if let Some(tr) = tracer.as_deref_mut() {
                    let root = tr.record(
                        "batch",
                        None,
                        group,
                        (t_submit, t_done),
                        vec![("docs", n as f64)],
                    );
                    let parse_counts = vec![("bytes", batch_bytes as f64)];
                    tr.record(
                        "parse",
                        Some(root),
                        group,
                        (t_submit, t_parsed),
                        parse_counts,
                    );
                    tr.record("stats", Some(root), group, (t_parsed, t_call), Vec::new());
                    let (counts, shards) = match (&before, &after) {
                        (Some(b), Some(a)) => (call_counts(b, a), shard_deltas(b, a)),
                        _ => (Vec::new(), Vec::new()),
                    };
                    let call =
                        tr.record("process", Some(root), group, (t_call, t_returned), counts);
                    tr.spans[call].shards = shards;
                    tr.record(
                        "stats",
                        Some(root),
                        group,
                        (t_returned, t_consume),
                        Vec::new(),
                    );
                    let delivered = vec![("matches", delivered as f64)];
                    tr.record(
                        "consume",
                        Some(root),
                        group,
                        (t_consume, t_consumed),
                        delivered,
                    );
                    tr.record("drop", Some(root), group, (t_consumed, t_done), Vec::new());
                }
            }
            Step::Subscribe(query) => {
                let (id, ms) = register(engine, query, &mut out, &mut tracer, group);
                out.subscribe_ms.push(ms);
                ids.push(id);
            }
            Step::Probe(query) => {
                let (id, ms) = register(engine, query, &mut out, &mut tracer, group);
                out.subscribe_ms.push(ms);
                if let Some(id) = id {
                    unregister(engine, id, &mut out, &mut tracer, group);
                }
            }
            Step::Unsubscribe(n) => {
                if let Some(Some(id)) = ids.get(n) {
                    unregister(engine, *id, &mut out, &mut tracer, group);
                }
            }
        }
    }
    out.loop_time = loop_start.elapsed();
    if tracer.is_some() {
        out.end_stats = snapshot(engine, &mut out.failed);
    }
    out
}

fn register(
    engine: &mut Engine,
    query: XsclQuery,
    out: &mut Outcome,
    tracer: &mut Option<&mut Tracer>,
    group: u64,
) -> (Option<QueryId>, f64) {
    out.attempted += 1;
    let t0 = Instant::now();
    let id = engine.register(query).ok();
    let t1 = Instant::now();
    out.failed += u64::from(id.is_none());
    if let Some(tr) = tracer.as_deref_mut() {
        tr.record("register", None, group, (t0, t1), Vec::new());
    }
    (id, (t1 - t0).as_secs_f64() * 1e3)
}

fn unregister(
    engine: &mut Engine,
    id: QueryId,
    out: &mut Outcome,
    tracer: &mut Option<&mut Tracer>,
    group: u64,
) {
    out.attempted += 1;
    let t0 = Instant::now();
    let ok = engine.unregister(id).is_ok();
    let t1 = Instant::now();
    out.failed += u64::from(!ok);
    if let Some(tr) = tracer.as_deref_mut() {
        tr.record("unregister", None, group, (t0, t1), Vec::new());
    }
}
