//! Query registration and the full subscription lifecycle: templates, `RT`
//! relations, per-query metadata and the Stage-1 pattern index.
//!
//! Queries can be [`register`](Registry::register)ed *and*
//! [`unregister`](Registry::unregister)ed at runtime. Unregistration is
//! incremental — O(the departing query's footprint), never a registry
//! rebuild: the query's `RT` tuples are removed in place, its pattern and
//! requested-edge registrations are released through reference counts (the
//! pattern index drops a pattern when its last subscriber leaves), an
//! emptied template is retired from the catalog, and the window bounds are
//! recomputed from a window multiset so document retention can *tighten*
//! after the widest-window query departs. Freed [`QueryId`]s (and template /
//! pattern ids) are tombstoned, never reused, which keeps shard assignment
//! and the canonical output order deterministic across churn.

use crate::audit::AuditViolation;
use crate::config::ProcessingMode;
use crate::cqt::{self, PlanInputKind};
use crate::error::{CoreError, CoreResult};
use crate::relations::schemas;
use mmqjp_relational::{
    verify_plan_strict, ConjunctiveQuery, PhysicalPlan, Relation, SharedKeyRule, StringInterner,
    Symbol, Value, VerifyOptions,
};
use mmqjp_xpath::{PatternId, PatternIndex, PatternNodeId, TreePattern};
use mmqjp_xscl::{
    normalize_query, FromClause, JoinGraph, JoinOp, QueryId, QueryTemplate, ReducedGraph,
    SelectClause, Side, TemplateCatalog, TemplateId, Window, XsclQuery,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Runtime state of one query template: the representative template, its
/// `RT` relation (one tuple per registered query orientation), the two
/// declarative conjunctive-query forms and the compiled physical plan for
/// the variant the engine's mode executes.
#[derive(Debug, Clone)]
pub struct TemplateRuntime {
    /// The template.
    pub template: QueryTemplate,
    /// `RT(qid, var1, ..., varm, wl)` — one tuple per member orientation.
    pub rt: Relation,
    /// Algorithm-1 conjunctive query over the base witness relations (the
    /// declarative form; execution uses [`plan_basic`](Self::plan_basic)).
    pub cqt_basic: ConjunctiveQuery,
    /// Algorithm-4 conjunctive query over `RL` / `RR`.
    pub cqt_materialized: ConjunctiveQuery,
    /// [`cqt_basic`](Self::cqt_basic) compiled to a physical plan at
    /// registration time; `process_batch` executes it by reference. Only
    /// compiled when the engine's mode is [`ProcessingMode::Mmqjp`] — the
    /// one mode that executes the basic form.
    pub plan_basic: Option<PhysicalPlan>,
    /// [`cqt_materialized`](Self::cqt_materialized) compiled to a physical
    /// plan. Only compiled in [`ProcessingMode::MmqjpViewMat`].
    pub plan_materialized: Option<PhysicalPlan>,
    /// The engine relations behind `plan_basic`'s input slots.
    pub(crate) inputs_basic: Vec<PlanInputKind>,
    /// The engine relations behind `plan_materialized`'s input slots.
    pub(crate) inputs_materialized: Vec<PlanInputKind>,
    rt_name: String,
}

impl TemplateRuntime {
    /// Build the runtime for a new template, compiling exactly the plan
    /// variant the engine's (fixed) mode executes: basic for `Mmqjp`,
    /// materialized for `MmqjpViewMat`, neither for `Sequential` (which
    /// runs per-query plans). With `verify`, each compiled plan is checked
    /// against its source CQT and the engine schemas before it is accepted
    /// (see [`mmqjp_relational::verify`]); a violation rejects the
    /// registration with a typed diagnostic. Returns the runtime and the
    /// number of plans compiled.
    fn new(
        template: QueryTemplate,
        mode: ProcessingMode,
        verify: bool,
    ) -> CoreResult<(Self, usize)> {
        let rt = Relation::new(schemas::rt(template.num_meta_vars()));
        let rt_arity = rt.schema().arity();
        let name = cqt::rt_name(template.id.index());
        let cqt_basic = cqt::template_cqt_basic(&template, &name);
        let cqt_materialized = cqt::template_cqt_materialized(&template, &name);
        let arity_of = |rel: &str| cqt::relation_arity(rel, &name, rt_arity);
        let plan_basic = if mode == ProcessingMode::Mmqjp {
            let plan = PhysicalPlan::compile(&cqt_basic, arity_of)?;
            if verify {
                verify_compiled(&plan, &cqt_basic, arity_of, true)?;
            }
            Some(plan)
        } else {
            None
        };
        let plan_materialized = if mode == ProcessingMode::MmqjpViewMat {
            let plan = PhysicalPlan::compile(&cqt_materialized, arity_of)?;
            if verify {
                // The batch-restriction precondition only concerns the basic
                // form's Rdoc atoms; the materialized form reads RL/RR.
                verify_compiled(&plan, &cqt_materialized, arity_of, false)?;
            }
            Some(plan)
        } else {
            None
        };
        let compiled = usize::from(plan_basic.is_some()) + usize::from(plan_materialized.is_some());
        let inputs_basic = plan_basic
            .as_ref()
            .map(|p| cqt::plan_input_kinds(p, &name))
            .unwrap_or_default();
        let inputs_materialized = plan_materialized
            .as_ref()
            .map(|p| cqt::plan_input_kinds(p, &name))
            .unwrap_or_default();
        let runtime = TemplateRuntime {
            template,
            rt,
            cqt_basic,
            cqt_materialized,
            plan_basic,
            plan_materialized,
            inputs_basic,
            inputs_materialized,
            rt_name: name,
        };
        Ok((runtime, compiled))
    }

    /// Name of this template's `RT` relation in the engine database.
    pub fn rt_name(&self) -> String {
        self.rt_name.clone()
    }

    /// Number of registered query orientations in this template.
    pub fn members(&self) -> usize {
        self.rt.len()
    }
}

/// One orientation of a registered query (a `FOLLOWED BY` query has one;
/// a symmetric `JOIN` query has two — the original and the block-swapped
/// form).
#[derive(Debug, Clone)]
pub struct Registration {
    /// The registration id stored in the `qid` column of `RT`.
    pub rid: i64,
    /// The template this orientation belongs to.
    pub template: TemplateId,
    /// Per meta-variable position, this orientation's canonical variable
    /// name, shared with the interner: every match binding clones these.
    pub assignment: Vec<Arc<str>>,
    /// Where the `SELECT *` output roots each side: the meta-variable
    /// position bound to the pattern root of [`prev_pattern`](Self::prev_pattern)
    /// and of [`cur_pattern`](Self::cur_pattern), or `None` when that side's
    /// output is the whole document.
    pub output_roots: [Option<usize>; 2],
    /// `true` when this orientation has the query's *right* block playing the
    /// previous-document role.
    pub swapped: bool,
    /// Pattern playing the previous-document (left) role in this orientation.
    pub prev_pattern: TreePattern,
    /// Pattern playing the current-document (right) role in this orientation.
    pub cur_pattern: TreePattern,
    /// Pattern-index id of [`prev_pattern`](Self::prev_pattern) (released on
    /// unregistration).
    pub prev_pid: PatternId,
    /// Pattern-index id of [`cur_pattern`](Self::cur_pattern).
    pub cur_pid: PatternId,
    /// The structural edges this orientation requested for
    /// [`prev_pattern`](Self::prev_pattern) (released on unregistration).
    pub prev_edges: Vec<(PatternNodeId, PatternNodeId)>,
    /// The structural edges this orientation requested for
    /// [`cur_pattern`](Self::cur_pattern).
    pub cur_edges: Vec<(PatternNodeId, PatternNodeId)>,
    /// The per-query conjunctive query used by the Sequential baseline.
    pub sequential_cqt: ConjunctiveQuery,
    /// [`sequential_cqt`](Self::sequential_cqt) compiled to a physical plan
    /// (`None` outside [`ProcessingMode::Sequential`], where the per-query
    /// form is never evaluated).
    pub sequential_plan: Option<PhysicalPlan>,
    /// The engine relations behind `sequential_plan`'s input slots.
    pub(crate) sequential_inputs: Vec<PlanInputKind>,
}

/// Runtime state of one registered query.
#[derive(Debug, Clone)]
pub struct QueryRuntime {
    /// The query id.
    pub id: QueryId,
    /// The normalized query.
    pub query: XsclQuery,
    /// The join operator (None for single-block subscriptions).
    pub op: Option<JoinOp>,
    /// The window (None for single-block subscriptions).
    pub window: Option<Window>,
    /// The `PUBLISH` name, if any (shared with every match output).
    pub publish: Option<Arc<str>>,
    /// The `SELECT` clause.
    pub select: SelectClause,
    /// The registered orientations (empty for single-block subscriptions).
    pub registrations: Vec<Registration>,
    /// For single-block subscriptions, the (normalized) pattern.
    pub single_pattern: Option<TreePattern>,
    /// Pattern-index id of [`single_pattern`](Self::single_pattern).
    pub single_pid: Option<PatternId>,
    /// Number of documents the engine had processed when this query
    /// registered. A subscription only joins documents that arrived after
    /// it — document sequence numbers `<= arrival_floor` are filtered out of
    /// its matches, so a query (re-)registered mid-stream never picks up
    /// join state that happens to be resident from before its subscription.
    pub arrival_floor: u64,
}

impl QueryRuntime {
    /// `true` when this is an inter-document join query.
    pub fn is_join(&self) -> bool {
        !self.registrations.is_empty()
    }
}

/// The meta-variable position whose binding roots a side's `SELECT *`
/// output: the side's first position when it holds the pattern root's
/// variable, otherwise `None` (the output copies the whole document).
fn output_root(assignment: &[Arc<str>], pos: usize, pattern: &TreePattern) -> Option<usize> {
    let root_var = pattern.root().variable().unwrap_or("");
    (assignment.get(pos).map(|v| &**v) == Some(root_var)).then_some(pos)
}

/// Check a compiled plan against its source conjunctive query and the engine
/// schemas, raising any [`PlanViolation`](mmqjp_relational::PlanViolation)s
/// as a typed [`CoreError::Relational`] error. `batch_restriction` adds the
/// PR 6 soundness precondition for plans over the base witness relations:
/// every `Rdoc` atom must equate its `strVal` column (term position 2) with
/// some `RdocW` atom, because batch evaluation restricts the `Rdoc` state
/// scan to the string values present in the current batch.
fn verify_compiled(
    plan: &PhysicalPlan,
    query: &ConjunctiveQuery,
    arity_of: impl Fn(&str) -> Option<usize>,
    batch_restriction: bool,
) -> CoreResult<()> {
    let options = VerifyOptions {
        shared_key: batch_restriction.then(|| SharedKeyRule {
            left: cqt::RDOC.to_owned(),
            right: cqt::RDOC_W.to_owned(),
            position: 2,
        }),
    };
    verify_plan_strict(plan, query, arity_of, &options).map_err(CoreError::from)
}

/// The incremental effects of one [`Registry::unregister`] call, reported so
/// the engine can maintain its counters and caches.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct UnregisterEffects {
    /// Distinct Stage-1 patterns dropped because the departing query was
    /// their last subscriber.
    pub patterns_dropped: usize,
    /// Templates retired (their `RT` relation became empty and their catalog
    /// slot was tombstoned).
    pub templates_retired: usize,
    /// Canonical variable symbols no live pattern binds anymore; view-cache
    /// slices carrying rows under these symbols can be reclaimed.
    pub dead_vars: Vec<Symbol>,
    /// `true` when the departing query changed the registered window bounds
    /// (so retention can tighten).
    pub window_changed: bool,
}

/// The registry of all registered queries, their templates and the Stage-1
/// pattern index.
#[derive(Debug)]
pub struct Registry {
    interner: Arc<StringInterner>,
    pattern_index: PatternIndex,
    /// The live requested-edge lists handed to Stage 1, one per pattern, in
    /// first-registration order (kept deterministic across churn).
    requested_edges: HashMap<PatternId, Vec<(PatternNodeId, PatternNodeId)>>,
    /// Reference counts behind `requested_edges`: how many live
    /// registrations requested each `(pattern, edge)`.
    edge_refs: HashMap<PatternId, HashMap<(PatternNodeId, PatternNodeId), usize>>,
    /// How many live *distinct* patterns bind each canonical variable
    /// symbol. A symbol leaving this map means no future witness row can
    /// carry it.
    var_refs: HashMap<Symbol, usize>,
    catalog: TemplateCatalog,
    /// Template runtimes by `TemplateId` index; `None` marks a retired
    /// template (ids are never reused). Boxed so a tombstoned slot costs a
    /// pointer, not the full runtime footprint, under unbounded churn.
    templates: Vec<Option<Box<TemplateRuntime>>>,
    live_templates: usize,
    /// Query runtimes by `QueryId` index; `None` marks an unregistered query
    /// (ids are never reused). Boxed for the same reason as `templates`.
    queries: Vec<Option<Box<QueryRuntime>>>,
    live_queries: usize,
    rid_map: HashMap<i64, (usize, usize)>,
    /// Multiset of finite time windows across live join queries, so the
    /// maximum can tighten when the widest-window query unregisters.
    finite_windows: BTreeMap<u64, usize>,
    /// Number of live join queries with an infinite (or count) window.
    infinite_windows: usize,
    /// Physical plans compiled so far (one per new template in the MMQJP
    /// modes, one per orientation in Sequential mode). Cumulative.
    plans_compiled: usize,
    /// Verify every compiled plan against its source CQT at registration
    /// time (see [`EngineConfig::verify_plans`](crate::EngineConfig)).
    verify_plans: bool,
}

impl Registry {
    /// Create an empty registry sharing the engine's string interner.
    pub fn new(interner: Arc<StringInterner>) -> Self {
        Registry {
            interner,
            pattern_index: PatternIndex::new(),
            requested_edges: HashMap::new(),
            edge_refs: HashMap::new(),
            var_refs: HashMap::new(),
            catalog: TemplateCatalog::new(),
            templates: Vec::new(),
            live_templates: 0,
            queries: Vec::new(),
            live_queries: 0,
            rid_map: HashMap::new(),
            finite_windows: BTreeMap::new(),
            infinite_windows: 0,
            plans_compiled: 0,
            verify_plans: true,
        }
    }

    /// Enable or disable registration-time plan verification (on by
    /// default). The engine forwards
    /// [`EngineConfig::verify_plans`](crate::EngineConfig) here.
    pub fn set_verify_plans(&mut self, verify: bool) {
        self.verify_plans = verify;
    }

    /// Register a query (already parsed). Returns its id.
    ///
    /// `mode` determines whether the Sequential per-query conjunctive query
    /// is compiled (it is skipped in MMQJP modes to keep registration cheap
    /// for very large query sets, and compiled unconditionally in
    /// [`ProcessingMode::Sequential`]). `arrival_floor` is the number of
    /// documents already processed: the new subscription only joins
    /// documents arriving after it (see [`QueryRuntime::arrival_floor`]).
    // Takes the query by value to mirror the public `MmqjpEngine::register`
    // signature it backs; the registry keeps the normalized copy.
    #[allow(clippy::needless_pass_by_value)]
    pub fn register(
        &mut self,
        query: XsclQuery,
        mode: ProcessingMode,
        arrival_floor: u64,
    ) -> CoreResult<QueryId> {
        let normalized = normalize_query(&query).map_err(|e| match e {
            // Single-block subscriptions are allowed; other errors propagate.
            mmqjp_xscl::XsclError::NoValueJoins => mmqjp_xscl::XsclError::NoValueJoins,
            other => other,
        });
        let normalized = match normalized {
            Ok(n) => n,
            Err(e) => return Err(CoreError::Query(e)),
        };
        let id = QueryId(self.queries.len() as u64);
        let nq = normalized.query.clone().with_id(id);

        let runtime = match &nq.from {
            FromClause::Single(block) => {
                // Pure tree-pattern subscription: Stage 1 only.
                let pid = self.index_pattern(&block.pattern);
                QueryRuntime {
                    id,
                    op: None,
                    window: None,
                    publish: nq.publish.as_deref().map(Arc::from),
                    select: nq.select,
                    registrations: Vec::new(),
                    single_pattern: Some(block.pattern.clone()),
                    single_pid: Some(pid),
                    arrival_floor,
                    query: nq,
                }
            }
            FromClause::Join { op, window, .. } => {
                let op = *op;
                let window = *window;
                let graph = JoinGraph::from_query(&nq)?;
                let mut registrations = Vec::new();
                let orientations: Vec<(JoinGraph, bool)> = match op {
                    JoinOp::FollowedBy => vec![(graph, false)],
                    JoinOp::Join => vec![(graph.clone(), false), (graph.swapped(), true)],
                };
                for (oriented, swapped) in orientations {
                    let reduced = ReducedGraph::from_join_graph(&oriented);
                    let membership = self.catalog.insert(&reduced);
                    // Create the template runtime if this is a new template
                    // (the CQT form the engine's mode executes is compiled
                    // to a physical plan exactly once, here).
                    if membership.template.index() == self.templates.len() {
                        let (runtime, compiled) = TemplateRuntime::new(
                            self.catalog.template(membership.template).clone(),
                            mode,
                            self.verify_plans,
                        )?;
                        self.templates.push(Some(Box::new(runtime)));
                        self.live_templates += 1;
                        self.plans_compiled += compiled;
                    }
                    let rid = (id.raw() as i64) * 2 + if swapped { 1 } else { 0 };
                    // RT tuple: (qid, var1..varm, wl).
                    let mut tuple = vec![Value::Int(rid)];
                    let mut assignment = Vec::with_capacity(membership.assignment.len());
                    for var in &membership.assignment {
                        let sym = self.interner.intern(var);
                        tuple.push(Value::Sym(sym));
                        assignment.push(self.interner.resolve(sym).ok_or(CoreError::internal(
                            "a just-interned variable name resolves",
                        ))?);
                    }
                    tuple.push(Value::Int(window_length(window)));
                    self.template_mut(membership.template)?
                        .rt
                        .push_values(tuple)?;

                    // Stage-1 registration: both patterns, with the reduced
                    // structural edges (plus join-node-root self edges) as
                    // the requested edge set.
                    let prev_pattern = oriented.left.clone();
                    let cur_pattern = oriented.right.clone();
                    let num_left = self
                        .template_runtime(membership.template)
                        .ok_or(CoreError::internal(
                            "a just-created or just-joined template is live",
                        ))?
                        .template
                        .num_left();
                    let output_roots = [
                        output_root(&assignment, 0, &prev_pattern),
                        output_root(&assignment, num_left, &cur_pattern),
                    ];
                    let (prev_pid, prev_edges) =
                        self.register_pattern_edges(&prev_pattern, &reduced, Side::Left);
                    let (cur_pid, cur_edges) =
                        self.register_pattern_edges(&cur_pattern, &reduced, Side::Right);

                    let (sequential_cqt, sequential_plan, sequential_inputs) =
                        if mode == ProcessingMode::Sequential {
                            let template = &self
                                .template_runtime(membership.template)
                                .ok_or(CoreError::internal(
                                    "a just-created or just-joined template is not live",
                                ))?
                                .template;
                            let cq = cqt::per_query_cqt(template, &assignment, &self.interner);
                            // Per-query CQTs only touch the fixed-schema base
                            // relations; no RT atom to resolve.
                            let arity_of = |rel: &str| cqt::relation_arity(rel, "", 0);
                            let plan = PhysicalPlan::compile(&cq, arity_of)?;
                            if self.verify_plans {
                                verify_compiled(&plan, &cq, arity_of, true)?;
                            }
                            let inputs = cqt::plan_input_kinds(&plan, "");
                            self.plans_compiled += 1;
                            (cq, Some(plan), inputs)
                        } else {
                            // Placeholder; never evaluated outside Sequential
                            // mode.
                            (
                                ConjunctiveQuery::new(Vec::<String>::new()),
                                None,
                                Vec::new(),
                            )
                        };

                    let registration = Registration {
                        rid,
                        template: membership.template,
                        assignment,
                        output_roots,
                        swapped,
                        prev_pattern,
                        cur_pattern,
                        prev_pid,
                        cur_pid,
                        prev_edges,
                        cur_edges,
                        sequential_cqt,
                        sequential_plan,
                        sequential_inputs,
                    };
                    self.rid_map
                        .insert(rid, (id.raw() as usize, registrations.len()));
                    registrations.push(registration);
                }
                self.track_window(window);
                QueryRuntime {
                    id,
                    op: Some(op),
                    window: Some(window),
                    publish: nq.publish.as_deref().map(Arc::from),
                    select: nq.select,
                    registrations,
                    single_pattern: None,
                    single_pid: None,
                    arrival_floor,
                    query: nq,
                }
            }
        };
        self.queries.push(Some(Box::new(runtime)));
        self.live_queries += 1;
        Ok(id)
    }

    /// Unregister a query, incrementally releasing every shared structure it
    /// participated in. O(the query's footprint): its `RT` tuples, its
    /// pattern and edge registrations and — when it was the last subscriber —
    /// the dropped patterns and retired templates. Ids are tombstoned, never
    /// reused. Errors with [`CoreError::UnknownQuery`] for ids that were
    /// never assigned or already unregistered.
    pub fn unregister(&mut self, id: QueryId) -> CoreResult<UnregisterEffects> {
        let runtime = self
            .queries
            .get_mut(id.raw() as usize)
            .and_then(Option::take)
            .ok_or(CoreError::UnknownQuery { id: id.raw() })?;
        self.live_queries -= 1;

        let mut effects = UnregisterEffects::default();
        if let Some(pid) = runtime.single_pid {
            self.release_pattern(pid, &mut effects);
        }
        for reg in &runtime.registrations {
            self.rid_map.remove(&reg.rid);
            // Remove this orientation's RT tuple in place, preserving the
            // registration order of the surviving members.
            let rid_value = Value::Int(reg.rid);
            let template = self.template_mut(reg.template)?;
            template.rt.retain(|row| row[0] != rid_value);
            if template.rt.is_empty() {
                // Last member left: retire the template from the catalog.
                self.templates[reg.template.index()] = None;
                self.live_templates -= 1;
                self.catalog.remove(reg.template);
                effects.templates_retired += 1;
            }
            self.release_pattern_edges(reg.prev_pid, &reg.prev_edges, &mut effects);
            self.release_pattern_edges(reg.cur_pid, &reg.cur_edges, &mut effects);
        }
        if let Some(window) = runtime.window {
            effects.window_changed = self.untrack_window(window);
        }
        Ok(effects)
    }

    /// Register a pattern with the Stage-1 index, counting its canonical
    /// variables when it is newly distinct.
    fn index_pattern(&mut self, pattern: &TreePattern) -> PatternId {
        let pid = self.pattern_index.register(pattern.clone());
        if self.pattern_index.refcount(pid) == 1 {
            for (var, _) in pattern.variables() {
                *self.var_refs.entry(self.interner.intern(var)).or_insert(0) += 1;
            }
        }
        pid
    }

    /// Release one registration of a pattern; when it was the last, drop the
    /// pattern and report any canonical variables that died with it.
    fn release_pattern(&mut self, pid: PatternId, effects: &mut UnregisterEffects) {
        // Collect the variables only when this release will drop the
        // pattern — the common shared-pattern path stays allocation-free.
        let vars: Vec<Symbol> = if self.pattern_index.refcount(pid) == 1 {
            self.pattern_index
                .pattern(pid)
                .variables()
                .iter()
                .map(|(var, _)| self.interner.intern(var))
                .collect()
        } else {
            Vec::new()
        };
        if self.pattern_index.unregister(pid) {
            effects.patterns_dropped += 1;
            self.requested_edges.remove(&pid);
            self.edge_refs.remove(&pid);
            for sym in vars {
                if let Some(count) = self.var_refs.get_mut(&sym) {
                    *count -= 1;
                    if *count == 0 {
                        self.var_refs.remove(&sym);
                        effects.dead_vars.push(sym);
                    }
                }
            }
        }
    }

    fn register_pattern_edges(
        &mut self,
        pattern: &TreePattern,
        reduced: &ReducedGraph,
        side: Side,
    ) -> (PatternId, Vec<(PatternNodeId, PatternNodeId)>) {
        let pid = self.index_pattern(pattern);
        // The edge set this registration requests: the reduced structural
        // edges, plus degenerate self edges for join-node roots so their
        // bindings reach the witness relations even without an incoming
        // structural edge.
        let mut edges: Vec<(PatternNodeId, PatternNodeId)> = Vec::new();
        for edge in reduced.structural_edges(side) {
            if !edges.contains(&edge) {
                edges.push(edge);
            }
        }
        let tree = reduced.tree(side);
        for node in &tree.nodes {
            if node.parent.is_none() && node.is_join_node {
                let self_edge = (node.original, node.original);
                if !edges.contains(&self_edge) {
                    edges.push(self_edge);
                }
            }
        }
        let counts = self.edge_refs.entry(pid).or_default();
        let list = self.requested_edges.entry(pid).or_default();
        for edge in &edges {
            let count = counts.entry(*edge).or_insert(0);
            *count += 1;
            if *count == 1 && !list.contains(edge) {
                list.push(*edge);
            }
        }
        (pid, edges)
    }

    /// Release the requested edges of one registration, then the pattern
    /// registration itself.
    fn release_pattern_edges(
        &mut self,
        pid: PatternId,
        edges: &[(PatternNodeId, PatternNodeId)],
        effects: &mut UnregisterEffects,
    ) {
        if let Some(counts) = self.edge_refs.get_mut(&pid) {
            for edge in edges {
                if let Some(count) = counts.get_mut(edge) {
                    *count -= 1;
                    if *count == 0 {
                        counts.remove(edge);
                        if let Some(list) = self.requested_edges.get_mut(&pid) {
                            list.retain(|e| e != edge);
                        }
                    }
                }
            }
        }
        self.release_pattern(pid, effects);
    }

    fn track_window(&mut self, window: Window) {
        match window {
            Window::Time(t) => *self.finite_windows.entry(t).or_insert(0) += 1,
            Window::Infinite | Window::Count(_) => self.infinite_windows += 1,
        }
    }

    /// Remove one query's window from the multiset; returns `true` when the
    /// registered bounds changed (the maximum finite window tightened or the
    /// last infinite window left).
    fn untrack_window(&mut self, window: Window) -> bool {
        let before = (self.max_finite_window(), self.has_infinite_window());
        match window {
            Window::Time(t) => {
                if let Some(count) = self.finite_windows.get_mut(&t) {
                    *count -= 1;
                    if *count == 0 {
                        self.finite_windows.remove(&t);
                    }
                }
            }
            Window::Infinite | Window::Count(_) => {
                self.infinite_windows = self.infinite_windows.saturating_sub(1);
            }
        }
        before != (self.max_finite_window(), self.has_infinite_window())
    }

    /// The string interner shared with the engine.
    pub fn interner(&self) -> &Arc<StringInterner> {
        &self.interner
    }

    /// Number of live (registered and not unregistered) queries.
    pub fn num_queries(&self) -> usize {
        self.live_queries
    }

    /// Total number of query ids ever assigned (unregistered ids are
    /// tombstoned, never reused, so this never decreases).
    pub fn total_queries_registered(&self) -> usize {
        self.queries.len()
    }

    /// Number of live templates.
    pub fn num_templates(&self) -> usize {
        self.live_templates
    }

    /// Number of distinct live Stage-1 patterns.
    pub fn num_patterns(&self) -> usize {
        self.pattern_index.len()
    }

    /// Iterate over the live template runtimes in template-id order.
    pub fn templates(&self) -> impl Iterator<Item = &TemplateRuntime> {
        self.templates.iter().filter_map(|t| t.as_deref())
    }

    /// The template runtime for an id, if the template is live.
    pub fn template_runtime(&self, id: TemplateId) -> Option<&TemplateRuntime> {
        self.templates.get(id.index()).and_then(|t| t.as_deref())
    }

    /// A live template runtime by id; errors on retired ids (internal use on
    /// ids validated live).
    fn template_mut(&mut self, id: TemplateId) -> CoreResult<&mut TemplateRuntime> {
        self.templates
            .get_mut(id.index())
            .and_then(|t| t.as_deref_mut())
            .ok_or(CoreError::internal(
                "template id refers to a retired template",
            ))
    }

    /// Iterate over the live queries in query-id order.
    pub fn queries(&self) -> impl Iterator<Item = &QueryRuntime> {
        self.queries.iter().filter_map(|q| q.as_deref())
    }

    /// Look up a live query by id.
    pub fn query(&self, id: QueryId) -> CoreResult<&QueryRuntime> {
        self.queries
            .get(id.raw() as usize)
            .and_then(|q| q.as_deref())
            .ok_or(CoreError::UnknownQuery { id: id.raw() })
    }

    /// Resolve a registration id from an `RT` / result tuple back to the
    /// query and orientation it belongs to.
    pub fn resolve_rid(&self, rid: i64) -> Option<(&QueryRuntime, &Registration)> {
        let (qi, ri) = self.rid_map.get(&rid)?;
        let q = self.queries.get(*qi)?.as_deref()?;
        let r = q.registrations.get(*ri)?;
        Some((q, r))
    }

    /// The Stage-1 pattern index.
    pub fn pattern_index(&self) -> &PatternIndex {
        &self.pattern_index
    }

    /// Mutable access to the Stage-1 pattern index (evaluation updates its
    /// statistics).
    pub fn pattern_index_mut(&mut self) -> &mut PatternIndex {
        &mut self.pattern_index
    }

    /// The per-pattern requested structural edges.
    pub fn requested_edges(&self) -> &HashMap<PatternId, Vec<(PatternNodeId, PatternNodeId)>> {
        &self.requested_edges
    }

    /// The template catalog.
    pub fn catalog(&self) -> &TemplateCatalog {
        &self.catalog
    }

    /// The maximum window across *live* join queries: `Some(t)` when all
    /// live join queries have finite time windows, `None` otherwise. Used by
    /// window-based state pruning; recomputed on every population change, so
    /// the bound tightens when the widest-window query unregisters.
    pub fn max_window(&self) -> Option<u64> {
        if self.infinite_windows > 0 {
            None
        } else {
            self.max_finite_window()
        }
    }

    /// The maximum *finite* time window across live join queries, even when
    /// other queries have infinite (or count) windows. Used to derive the
    /// join-state bucket width, which is a granularity (never a correctness)
    /// parameter.
    pub fn max_finite_window(&self) -> Option<u64> {
        self.finite_windows.keys().next_back().copied()
    }

    /// `true` when some live join query has an infinite or count window,
    /// which forbids window-based eviction of join state.
    pub fn has_infinite_window(&self) -> bool {
        self.infinite_windows > 0
    }

    /// Physical plans compiled at registration time so far (cumulative; one
    /// per new template in the MMQJP modes, one per orientation in
    /// Sequential mode).
    pub fn plans_compiled(&self) -> usize {
        self.plans_compiled
    }

    /// Cross-check every refcounted / mirrored registry structure against a
    /// recount over the live queries, appending one [`AuditViolation`] per
    /// inconsistency. Read-only; a healthy registry appends nothing. See
    /// [`MmqjpEngine::audit`](crate::MmqjpEngine::audit).
    pub(crate) fn audit(&self, out: &mut Vec<AuditViolation>) {
        // Live counters vs tombstone recounts.
        let counted_queries = self.queries.iter().filter(|q| q.is_some()).count();
        if counted_queries != self.live_queries {
            out.push(AuditViolation::LiveQueryCount {
                tracked: self.live_queries,
                counted: counted_queries,
            });
        }
        let counted_templates = self.templates.iter().filter(|t| t.is_some()).count();
        if counted_templates != self.live_templates {
            out.push(AuditViolation::LiveTemplateCount {
                tracked: self.live_templates,
                counted: counted_templates,
            });
        }
        if self.catalog.len() != counted_templates {
            out.push(AuditViolation::CatalogSize {
                catalog: self.catalog.len(),
                live_templates: counted_templates,
            });
        }

        // One recount pass over the live queries: template membership,
        // pattern registrations, requested edges, windows and rids.
        let mut rt_expected: HashMap<usize, usize> = HashMap::new();
        let mut pattern_expected: HashMap<PatternId, usize> = HashMap::new();
        let mut edge_expected: HashMap<PatternId, HashMap<(PatternNodeId, PatternNodeId), usize>> =
            HashMap::new();
        let mut finite_expected: BTreeMap<u64, usize> = BTreeMap::new();
        let mut infinite_expected = 0usize;
        let mut live_rids: HashMap<i64, (usize, usize)> = HashMap::new();
        for (qi, slot) in self.queries.iter().enumerate() {
            let Some(q) = slot.as_deref() else { continue };
            if let Some(pid) = q.single_pid {
                *pattern_expected.entry(pid).or_insert(0) += 1;
            }
            match q.window {
                Some(Window::Time(t)) => *finite_expected.entry(t).or_insert(0) += 1,
                Some(Window::Infinite | Window::Count(_)) => infinite_expected += 1,
                None => {}
            }
            for (ri, reg) in q.registrations.iter().enumerate() {
                match self
                    .templates
                    .get(reg.template.index())
                    .and_then(|t| t.as_deref())
                {
                    None => out.push(AuditViolation::RetiredTemplateReferenced {
                        query: q.id.raw(),
                        template: reg.template.index(),
                    }),
                    Some(tr) => {
                        *rt_expected.entry(reg.template.index()).or_insert(0) += 1;
                        let rid_value = Value::Int(reg.rid);
                        if !tr.rt.iter().any(|row| row[0] == rid_value) {
                            out.push(AuditViolation::MissingRtTuple {
                                template: reg.template.index(),
                                rid: reg.rid,
                            });
                        }
                    }
                }
                match self.rid_map.get(&reg.rid) {
                    None => out.push(AuditViolation::RidMap {
                        rid: reg.rid,
                        reason: "live orientation missing from the rid map",
                    }),
                    Some(&target) if target != (qi, ri) => out.push(AuditViolation::RidMap {
                        rid: reg.rid,
                        reason: "rid map points at the wrong orientation",
                    }),
                    Some(_) => {}
                }
                live_rids.insert(reg.rid, (qi, ri));
                for (pid, edges) in [
                    (reg.prev_pid, &reg.prev_edges),
                    (reg.cur_pid, &reg.cur_edges),
                ] {
                    *pattern_expected.entry(pid).or_insert(0) += 1;
                    let per_edge = edge_expected.entry(pid).or_default();
                    for edge in edges {
                        *per_edge.entry(*edge).or_insert(0) += 1;
                    }
                }
            }
        }

        // The rid map holds nothing beyond the live orientations.
        for rid in self.rid_map.keys() {
            if !live_rids.contains_key(rid) {
                out.push(AuditViolation::RidMap {
                    rid: *rid,
                    reason: "rid map entry has no live orientation",
                });
            }
        }

        // Each live template's RT relation: exactly one tuple per live
        // member orientation.
        for (ti, slot) in self.templates.iter().enumerate() {
            let Some(tr) = slot.as_deref() else { continue };
            let expected = rt_expected.get(&ti).copied().unwrap_or(0);
            if tr.rt.len() != expected {
                out.push(AuditViolation::TemplateMembership {
                    template: ti,
                    rt_rows: tr.rt.len(),
                    registrations: expected,
                });
            }
        }

        // Pattern-index refcounts, in both directions: every indexed pattern
        // carries exactly its live-registration count, and every registered
        // pattern is indexed.
        let indexed: HashMap<PatternId, usize> = self
            .pattern_index
            .patterns()
            .map(|(pid, _)| (pid, self.pattern_index.refcount(pid)))
            .collect();
        for (&pid, &refs) in &indexed {
            let expected = pattern_expected.get(&pid).copied().unwrap_or(0);
            if refs != expected {
                out.push(AuditViolation::PatternRefcount {
                    pattern: pid.raw(),
                    index_refs: refs,
                    expected,
                });
            }
        }
        for (&pid, &expected) in &pattern_expected {
            if !indexed.contains_key(&pid) {
                out.push(AuditViolation::PatternRefcount {
                    pattern: pid.raw(),
                    index_refs: 0,
                    expected,
                });
            }
        }

        // Edge refcounts and the deterministic requested-edge lists.
        audit_edge_tables(&edge_expected, &self.edge_refs, &self.requested_edges, out);

        // Canonical-variable refcounts: one count per *distinct* live
        // pattern binding the variable.
        let mut var_expected: HashMap<Symbol, usize> = HashMap::new();
        for (_, pattern) in self.pattern_index.patterns() {
            for (var, _) in pattern.variables() {
                *var_expected.entry(self.interner.intern(var)).or_insert(0) += 1;
            }
        }
        for (&sym, &expected) in &var_expected {
            let tracked = self.var_refs.get(&sym).copied().unwrap_or(0);
            if tracked != expected {
                out.push(AuditViolation::VariableRefcount {
                    variable: self
                        .interner
                        .resolve(sym)
                        .map(|s| s.to_string())
                        .unwrap_or_default(),
                    tracked,
                    expected,
                });
            }
        }
        for (&sym, &tracked) in &self.var_refs {
            if !var_expected.contains_key(&sym) {
                out.push(AuditViolation::VariableRefcount {
                    variable: self
                        .interner
                        .resolve(sym)
                        .map(|s| s.to_string())
                        .unwrap_or_default(),
                    tracked,
                    expected: 0,
                });
            }
        }

        // The window multiset equals a recount over the live join queries.
        if self.finite_windows != finite_expected {
            out.push(AuditViolation::WindowMultiset {
                reason: "finite-window multiset differs from the live join queries",
            });
        }
        if self.infinite_windows != infinite_expected {
            out.push(AuditViolation::WindowMultiset {
                reason: "infinite-window count differs from the live join queries",
            });
        }
    }
}

/// Cross-check per-`(pattern, edge)` refcount maps and their mirrored
/// deterministic edge lists against a recount (`expected`).
fn audit_edge_tables(
    expected: &HashMap<PatternId, HashMap<(PatternNodeId, PatternNodeId), usize>>,
    edge_refs: &HashMap<PatternId, HashMap<(PatternNodeId, PatternNodeId), usize>>,
    requested_edges: &HashMap<PatternId, Vec<(PatternNodeId, PatternNodeId)>>,
    out: &mut Vec<AuditViolation>,
) {
    let edge_key = |e: &(PatternNodeId, PatternNodeId)| (e.0.raw(), e.1.raw());
    let all_pids: std::collections::BTreeSet<PatternId> = expected
        .keys()
        .chain(edge_refs.keys())
        .copied()
        .map(|p| PatternId(p.raw()))
        .collect();
    for pid in all_pids {
        let want = expected.get(&pid);
        let have = edge_refs.get(&pid);
        let edges: std::collections::BTreeSet<(u32, u32)> = want
            .into_iter()
            .flat_map(HashMap::keys)
            .chain(have.into_iter().flat_map(HashMap::keys))
            .map(edge_key)
            .collect();
        for (a, b) in edges {
            let edge = (PatternNodeId(a), PatternNodeId(b));
            let want_n = want.and_then(|m| m.get(&edge)).copied().unwrap_or(0);
            let have_n = have.and_then(|m| m.get(&edge)).copied().unwrap_or(0);
            if want_n != have_n {
                out.push(AuditViolation::EdgeRefcount {
                    pattern: pid.raw(),
                    edge: (a, b),
                    tracked: have_n,
                    expected: want_n,
                });
            }
        }
        // The deterministic list mirrors the refcount map's key set with no
        // duplicates.
        let list = requested_edges.get(&pid).map(Vec::as_slice).unwrap_or(&[]);
        let mut seen: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
        let mut duplicated = false;
        for edge in list {
            if !seen.insert(edge_key(edge)) {
                duplicated = true;
            }
        }
        if duplicated {
            out.push(AuditViolation::RequestedEdgeList {
                pattern: pid.raw(),
                reason: "duplicate edge in the requested-edge list",
            });
        }
        let keys: std::collections::BTreeSet<(u32, u32)> = have
            .into_iter()
            .flat_map(HashMap::keys)
            .map(edge_key)
            .collect();
        if seen != keys {
            out.push(AuditViolation::RequestedEdgeList {
                pattern: pid.raw(),
                reason: "requested-edge list does not mirror the refcount map",
            });
        }
    }
}

/// Encode a window as the `wl` column value.
pub fn window_length(window: Window) -> i64 {
    match window {
        Window::Time(t) => t.min(i64::MAX as u64) as i64,
        Window::Infinite | Window::Count(_) => i64::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmqjp_xscl::parse_query;

    const Q1: &str = "S//book->x1[.//author->x2][.//title->x3] \
        FOLLOWED BY{x2=x5 AND x3=x6, 100} \
        S//blog->x4[.//author->x5][.//title->x6]";
    const Q2: &str = "S//book->x1[.//author->x2][.//category->x7] \
        FOLLOWED BY{x2=x5 AND x7=x8, 200} \
        S//blog->x4[.//author->x5][.//category->x8]";
    const Q3: &str = "S//blog->x4[.//author->x5][.//title->x6] \
        FOLLOWED BY{x5=x5' AND x6=x6', 300} \
        S//blog->x4'[.//author->x5'][.//title->x6']";

    fn registry() -> Registry {
        Registry::new(Arc::new(StringInterner::new()))
    }

    #[test]
    fn paper_example_queries_share_one_template() {
        let mut r = registry();
        let id1 = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let id2 = r
            .register(parse_query(Q2).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let id3 = r
            .register(parse_query(Q3).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        assert_eq!(id1, QueryId(0));
        assert_eq!(id2, QueryId(1));
        assert_eq!(id3, QueryId(2));
        assert_eq!(r.num_queries(), 3);
        assert_eq!(r.num_templates(), 1);
        // The RT relation mirrors Table 4(a): three tuples, one per query.
        let rt = &r.templates().next().unwrap().rt;
        assert_eq!(rt.len(), 3);
        assert_eq!(rt.schema().arity(), 8); // qid + 6 vars + wl

        // Window lengths are stored per query.
        let wls: Vec<i64> = rt.iter().map(|t| t[7].as_int().unwrap()).collect();
        assert_eq!(wls, vec![100, 200, 300]);
        // Q1 and Q2 share the book and blog block patterns; Q3 reuses the
        // blog block. Distinct patterns: book(author,title),
        // blog(author,title), book(author,category), blog(author,category)
        // => 4.
        assert_eq!(r.num_patterns(), 4);
        assert_eq!(r.max_window(), Some(300));
    }

    #[test]
    fn join_queries_register_two_orientations() {
        let mut r = registry();
        let q = "S//item->a[.//title->t1] JOIN{t1=t2, 50} S//post->b[.//title->t2]";
        let id = r
            .register(parse_query(q).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let runtime = r.query(id).unwrap();
        assert!(runtime.is_join());
        assert_eq!(runtime.registrations.len(), 2);
        assert!(!runtime.registrations[0].swapped);
        assert!(runtime.registrations[1].swapped);
        // Both orientations resolve back to the query.
        let (q0, r0) = r.resolve_rid(runtime.registrations[0].rid).unwrap();
        let (q1, r1) = r.resolve_rid(runtime.registrations[1].rid).unwrap();
        assert_eq!(q0.id, id);
        assert_eq!(q1.id, id);
        assert!(!r0.swapped);
        assert!(r1.swapped);
        // The two orientations of an asymmetric query land in the same
        // single-value-join template.
        assert_eq!(r.num_templates(), 1);
        assert_eq!(r.templates().next().unwrap().members(), 2);
    }

    #[test]
    fn single_block_subscription_is_accepted() {
        let mut r = registry();
        let id = r
            .register(
                parse_query("S//blog[.//author]").unwrap(),
                ProcessingMode::Mmqjp,
                0,
            )
            .unwrap();
        let runtime = r.query(id).unwrap();
        assert!(!runtime.is_join());
        assert!(runtime.single_pattern.is_some());
        assert_eq!(r.num_templates(), 0);
        assert_eq!(r.num_patterns(), 1);
    }

    #[test]
    fn requested_edges_cover_reduced_structure_and_self_edges() {
        let mut r = registry();
        // Single value join: both sides reduce to single nodes, so the
        // requested edges are self edges.
        r.register(
            parse_query("S//book->b[.//author->a] FOLLOWED BY{a=x, 10} S//blog->g[.//author->x]")
                .unwrap(),
            ProcessingMode::Mmqjp,
            0,
        )
        .unwrap();
        let total_edges: usize = r.requested_edges().values().map(|v| v.len()).sum();
        assert_eq!(total_edges, 2); // one self edge per pattern
        for edges in r.requested_edges().values() {
            for (a, b) in edges {
                assert_eq!(a, b);
            }
        }
        // Q1 adds real structural edges.
        r.register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let q1_edges: usize = r.requested_edges().values().map(|v| v.len()).sum();
        assert_eq!(q1_edges, 2 + 4);
    }

    #[test]
    fn sequential_mode_compiles_per_query_cqt() {
        let mut r = registry();
        r.register(parse_query(Q1).unwrap(), ProcessingMode::Sequential, 0)
            .unwrap();
        let reg = &r.queries().next().unwrap().registrations[0];
        assert_eq!(reg.sequential_cqt.num_atoms(), 8);
        // In MMQJP mode the per-query CQT is left empty.
        let mut r2 = registry();
        r2.register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let reg2 = &r2.queries().next().unwrap().registrations[0];
        assert_eq!(reg2.sequential_cqt.num_atoms(), 0);
    }

    #[test]
    fn window_tracking() {
        let mut r = registry();
        r.register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        assert_eq!(r.max_window(), Some(100));
        assert_eq!(r.max_finite_window(), Some(100));
        assert!(!r.has_infinite_window());
        r.register(
            parse_query("S//a->x FOLLOWED BY{x=y, INF} S//b->y").unwrap(),
            ProcessingMode::Mmqjp,
            0,
        )
        .unwrap();
        assert_eq!(r.max_window(), None);
        assert_eq!(r.max_finite_window(), Some(100));
        assert!(r.has_infinite_window());
        assert_eq!(window_length(Window::Time(5)), 5);
        assert_eq!(window_length(Window::Infinite), i64::MAX);
        assert_eq!(window_length(Window::Count(3)), i64::MAX);
    }

    #[test]
    fn unregister_shrinks_shared_template_in_place() {
        let mut r = registry();
        let id1 = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let id2 = r
            .register(parse_query(Q2).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let id3 = r
            .register(parse_query(Q3).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        assert_eq!(r.templates().next().unwrap().members(), 3);
        let patterns_before = r.num_patterns();

        // Q2 leaves: its RT tuple goes, the template survives with Q1 and
        // Q3 (in registration order), and the two category patterns it was
        // the only subscriber of are dropped.
        let effects = r.unregister(id2).unwrap();
        assert_eq!(r.num_queries(), 2);
        assert_eq!(r.num_templates(), 1);
        let rt = &r.templates().next().unwrap().rt;
        assert_eq!(rt.len(), 2);
        let wls: Vec<i64> = rt.iter().map(|t| t[7].as_int().unwrap()).collect();
        assert_eq!(wls, vec![100, 300]);
        assert_eq!(effects.patterns_dropped, 2);
        assert_eq!(effects.templates_retired, 0);
        assert_eq!(r.num_patterns(), patterns_before - 2);
        // The unregistered id is gone and resolves nowhere.
        assert!(matches!(r.query(id2), Err(CoreError::UnknownQuery { .. })));
        assert!(r.resolve_rid((id2.raw() as i64) * 2).is_none());
        // Survivors still resolve.
        assert!(r.query(id1).is_ok());
        assert!(r.query(id3).is_ok());

        // The last two members leave: the template is retired.
        let e1 = r.unregister(id1).unwrap();
        assert_eq!(e1.templates_retired, 0);
        let e3 = r.unregister(id3).unwrap();
        assert_eq!(e3.templates_retired, 1);
        assert_eq!(r.num_templates(), 0);
        assert_eq!(r.num_patterns(), 0);
        assert_eq!(r.num_queries(), 0);
        assert!(r.requested_edges().is_empty());
        // Unregistering twice fails.
        assert!(matches!(
            r.unregister(id1),
            Err(CoreError::UnknownQuery { .. })
        ));
        // A fresh registration never reuses a freed id.
        let id4 = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        assert_eq!(id4, QueryId(3));
        assert_eq!(r.total_queries_registered(), 4);
    }

    #[test]
    fn unregister_recomputes_window_bounds() {
        let mut r = registry();
        let narrow = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap(); // window 100
        let wide = r
            .register(parse_query(Q3).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap(); // window 300
        let inf = r
            .register(
                parse_query("S//a->x FOLLOWED BY{x=y, INF} S//b->y").unwrap(),
                ProcessingMode::Mmqjp,
                0,
            )
            .unwrap();
        assert_eq!(r.max_window(), None);
        assert_eq!(r.max_finite_window(), Some(300));

        // The infinite-window query leaves: pruning becomes possible again.
        let effects = r.unregister(inf).unwrap();
        assert!(effects.window_changed);
        assert_eq!(r.max_window(), Some(300));
        assert!(!r.has_infinite_window());

        // The widest finite window leaves: the bound tightens.
        let effects = r.unregister(wide).unwrap();
        assert!(effects.window_changed);
        assert_eq!(r.max_window(), Some(100));
        assert_eq!(r.max_finite_window(), Some(100));

        // The last windowed query leaves: no bound remains.
        let effects = r.unregister(narrow).unwrap();
        assert!(effects.window_changed);
        assert_eq!(r.max_window(), None);
        assert_eq!(r.max_finite_window(), None);
    }

    #[test]
    fn unregister_duplicate_window_keeps_the_bound() {
        let mut r = registry();
        let a = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let b = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        assert_eq!(r.max_window(), Some(100));
        let effects = r.unregister(a).unwrap();
        assert!(!effects.window_changed, "the twin still holds window 100");
        assert_eq!(r.max_window(), Some(100));
        let effects = r.unregister(b).unwrap();
        assert!(effects.window_changed);
        assert_eq!(r.max_window(), None);
    }

    #[test]
    fn unregister_releases_shared_patterns_by_refcount() {
        let mut r = registry();
        // Q1 and Q3 share the blog(author, title) pattern.
        let id1 = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let id3 = r
            .register(parse_query(Q3).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        assert_eq!(r.num_patterns(), 2); // book(a,t) and the shared blog(a,t)
        let effects = r.unregister(id1).unwrap();
        // The book pattern dies with Q1; the shared blog pattern survives.
        assert_eq!(effects.patterns_dropped, 1);
        assert_eq!(r.num_patterns(), 1);
        let effects = r.unregister(id3).unwrap();
        assert_eq!(effects.patterns_dropped, 1);
        assert_eq!(r.num_patterns(), 0);
        // Dead canonical variables were reported for reclamation.
        assert!(!effects.dead_vars.is_empty());
    }

    #[test]
    fn unregister_single_block_subscription() {
        let mut r = registry();
        let id = r
            .register(
                parse_query("S//blog[.//author]").unwrap(),
                ProcessingMode::Mmqjp,
                0,
            )
            .unwrap();
        assert_eq!(r.num_patterns(), 1);
        let effects = r.unregister(id).unwrap();
        assert_eq!(effects.patterns_dropped, 1);
        assert_eq!(r.num_patterns(), 0);
        assert_eq!(r.num_queries(), 0);
        assert!(!effects.window_changed);
    }

    #[test]
    fn reregistered_isomorphic_query_starts_a_fresh_template() {
        let mut r = registry();
        let id1 = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let t1 = r.queries().next().unwrap().registrations[0].template;
        r.unregister(id1).unwrap();
        assert_eq!(r.num_templates(), 0);
        let id2 = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        assert_ne!(id2, id1);
        let t2 = r.queries().next().unwrap().registrations[0].template;
        assert_ne!(t2, t1, "retired template ids are never revived");
        assert_eq!(r.num_templates(), 1);
        assert_eq!(r.template_runtime(t2).unwrap().members(), 1);
        assert!(r.template_runtime(t1).is_none());
    }

    #[test]
    fn audit_is_clean_and_detects_seeded_violations() {
        let mut r = registry();
        let id1 = r
            .register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        r.register(parse_query(Q3).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        r.unregister(id1).unwrap();
        let mut out = Vec::new();
        r.audit(&mut out);
        assert!(out.is_empty(), "healthy registry reported: {out:?}");

        // Seed a counter drift: the auditor must recount and object.
        r.live_queries += 1;
        let mut out = Vec::new();
        r.audit(&mut out);
        assert!(out.iter().any(|v| matches!(
            v,
            AuditViolation::LiveQueryCount {
                tracked: 2,
                counted: 1
            }
        )));
        r.live_queries -= 1;

        // Seed a window-multiset drift.
        *r.finite_windows.entry(999).or_insert(0) += 1;
        let mut out = Vec::new();
        r.audit(&mut out);
        assert!(out
            .iter()
            .any(|v| matches!(v, AuditViolation::WindowMultiset { .. })));
        r.finite_windows.remove(&999);

        // Seed an edge-refcount drift on some live pattern.
        let pid = *r.edge_refs.keys().next().unwrap();
        if let Some(count) = r
            .edge_refs
            .get_mut(&pid)
            .and_then(|m| m.values_mut().next())
        {
            *count += 1;
        }
        let mut out = Vec::new();
        r.audit(&mut out);
        assert!(out
            .iter()
            .any(|v| matches!(v, AuditViolation::EdgeRefcount { .. })));
    }

    #[test]
    fn unknown_query_lookup_fails() {
        let r = registry();
        assert!(matches!(
            r.query(QueryId(5)),
            Err(CoreError::UnknownQuery { id: 5 })
        ));
        assert!(r.resolve_rid(99).is_none());
    }

    #[test]
    fn template_runtime_metadata() {
        let mut r = registry();
        r.register(parse_query(Q1).unwrap(), ProcessingMode::Mmqjp, 0)
            .unwrap();
        let tr = r.templates().next().unwrap();
        assert_eq!(tr.rt_name(), "RT_0");
        assert_eq!(tr.members(), 1);
        assert_eq!(tr.template.num_meta_vars(), 6);
        assert!(tr.cqt_basic.validate().is_ok());
        assert!(tr.cqt_materialized.validate().is_ok());
        assert_eq!(r.catalog().len(), 1);
        assert!(!r.interner().is_empty());
    }
}
