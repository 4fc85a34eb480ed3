//! Generation of the per-template relational conjunctive queries `CQ_T`
//! (Section 4.4 and Section 5 of the paper).
//!
//! Three forms are generated:
//!
//! * the **basic** form (Algorithm 1) over the base witness relations
//!   `Rdoc`, `Rbin`, `RdocW`, `RbinW` plus the template's `RT` relation;
//! * the **materialized** form (Algorithm 4) over the shared intermediates
//!   `RL` and `RR` (plus `Rbin`/`RbinW` atoms for structural edges whose
//!   child is not a value-join node, and `RT`);
//! * the **per-query** form used by the Sequential baseline: the basic form
//!   with the query's concrete variable names substituted for the
//!   meta-variables and no `RT` atom.
//!
//! Conjunctive-query variable naming: `d1` is the docid of the previous
//! (left) document, `d2` the docid of the current (right) document, `n{i}`
//! the node bound at meta-variable position `i`, `v{i}` the variable-name
//! symbol at position `i`, `s{e}` the string value of value-join edge `e`.

use crate::relations::schemas;
use mmqjp_relational::{Atom, ConjunctiveQuery, PhysicalPlan, StringInterner, Term, Value};
use mmqjp_xscl::{QueryTemplate, Side};

/// Name of the `Rdoc` relation in the engine database.
pub const RDOC: &str = "Rdoc";
/// Name of the `Rbin` relation in the engine database.
pub const RBIN: &str = "Rbin";
/// Name of the `RdocW` relation in the engine database.
pub const RDOC_W: &str = "RdocW";
/// Name of the `RbinW` relation in the engine database.
pub const RBIN_W: &str = "RbinW";
/// Name of the `RL` intermediate in the engine database.
pub const RL: &str = "RL";
/// Name of the `RR` intermediate in the engine database.
pub const RR: &str = "RR";

/// Name of the `RT` relation for a template index.
pub fn rt_name(template_index: usize) -> String {
    format!("RT_{template_index}")
}

/// Arity of an engine relation by name, for plan compilation. `rt_name` /
/// `rt_arity` describe the one template-specific relation; everything else
/// has a fixed schema (see [`schemas`]).
pub(crate) fn relation_arity(name: &str, rt_name: &str, rt_arity: usize) -> Option<usize> {
    match name {
        RBIN | RBIN_W => Some(schemas::bin().arity()),
        RDOC | RDOC_W => Some(schemas::doc().arity()),
        RL => Some(schemas::rl().arity()),
        RR => Some(schemas::rr().arity()),
        n if n == rt_name => Some(rt_arity),
        _ => None,
    }
}

/// Which engine relation each of a compiled plan's input slots reads.
/// Resolved once at registration so `process_batch` never matches relation
/// *names* on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanInputKind {
    /// The segmented `Rbin` join state.
    Rbin,
    /// The segmented `Rdoc` join state.
    Rdoc,
    /// The current batch's `RbinW` witness relation.
    RbinW,
    /// The current batch's `RdocW` witness relation.
    RdocW,
    /// The per-batch `RL` intermediate (view-materialization mode).
    Rl,
    /// The per-batch `RR` intermediate (view-materialization mode).
    Rr,
    /// The owning template's `RT` relation.
    Rt,
}

/// Map a compiled plan's input slots to [`PlanInputKind`]s.
pub(crate) fn plan_input_kinds(plan: &PhysicalPlan, rt_name: &str) -> Vec<PlanInputKind> {
    plan.relations()
        .iter()
        .map(|name| match name.as_str() {
            RBIN => PlanInputKind::Rbin,
            RDOC => PlanInputKind::Rdoc,
            RBIN_W => PlanInputKind::RbinW,
            RDOC_W => PlanInputKind::RdocW,
            RL => PlanInputKind::Rl,
            RR => PlanInputKind::Rr,
            n if n == rt_name => PlanInputKind::Rt,
            other => unreachable!("engine CQTs never reference relation `{other}`"),
        })
        .collect()
}

fn n(i: usize) -> Term {
    Term::var(format!("n{i}"))
}

fn v(i: usize) -> Term {
    Term::var(format!("v{i}"))
}

fn s(e: usize) -> Term {
    Term::var(format!("s{e}"))
}

/// The head columns shared by the template forms:
/// `(qid, d1, d2, n0, ..., n{M-1}, wl)`.
pub fn template_head(template: &QueryTemplate) -> Vec<String> {
    let mut head = vec!["qid".to_owned(), "d1".to_owned(), "d2".to_owned()];
    for i in 0..template.num_meta_vars() {
        head.push(format!("n{i}"));
    }
    head.push("wl".to_owned());
    head
}

/// Positions (global) of reduced-tree roots that participate in value joins;
/// these need degenerate self-edge `Rbin`/`RbinW` atoms because no incoming
/// structural edge constrains their binding.
fn self_edge_positions(template: &QueryTemplate, side: Side) -> Vec<usize> {
    let tree = template.graph.tree(side);
    tree.nodes
        .iter()
        .enumerate()
        .filter(|(_, node)| node.parent.is_none() && node.is_join_node)
        .map(|(idx, _)| template.global_position(side, idx))
        .collect()
}

/// Parent position (global) of a global position, or the position itself for
/// reduced-tree roots (used to pick the structural edge backing an `RL`/`RR`
/// atom).
fn parent_or_self(template: &QueryTemplate, position: usize) -> usize {
    let (side, idx) = template.position_side(position);
    match template.graph.tree(side).nodes[idx].parent {
        Some(p) => template.global_position(side, p),
        None => position,
    }
}

fn is_join_node(template: &QueryTemplate, position: usize) -> bool {
    let (side, idx) = template.position_side(position);
    template.graph.tree(side).nodes[idx].is_join_node
}

/// The basic (Algorithm 1) conjunctive query for a template.
pub fn template_cqt_basic(template: &QueryTemplate, rt: &str) -> ConjunctiveQuery {
    let mut q = ConjunctiveQuery::new(template_head(template));

    // Value-join edges: one Rdoc/RdocW pair per edge.
    for (e, (l, r)) in template.value_edges().into_iter().enumerate() {
        q.push_atom(Atom::new(RDOC, [Term::var("d1"), n(l), s(e)]));
        q.push_atom(Atom::new(RDOC_W, [Term::var("d2"), n(r), s(e)]));
    }
    // Structural edges.
    for (p, c, side) in template.structural_edges() {
        match side {
            Side::Left => q.push_atom(Atom::new(RBIN, [Term::var("d1"), v(p), v(c), n(p), n(c)])),
            Side::Right => {
                q.push_atom(Atom::new(RBIN_W, [Term::var("d2"), v(p), v(c), n(p), n(c)]));
            }
        }
    }
    // Degenerate self edges for join-node roots.
    for p in self_edge_positions(template, Side::Left) {
        q.push_atom(Atom::new(RBIN, [Term::var("d1"), v(p), v(p), n(p), n(p)]));
    }
    for p in self_edge_positions(template, Side::Right) {
        q.push_atom(Atom::new(RBIN_W, [Term::var("d2"), v(p), v(p), n(p), n(p)]));
    }
    // RT atom ties meta-variable symbols and per-query metadata together.
    q.push_atom(rt_atom(template, rt));
    q
}

/// The materialized (Algorithm 4) conjunctive query for a template,
/// expressed over `RL` and `RR`.
pub fn template_cqt_materialized(template: &QueryTemplate, rt: &str) -> ConjunctiveQuery {
    let mut q = ConjunctiveQuery::new(template_head(template));

    for (e, (l, r)) in template.value_edges().into_iter().enumerate() {
        let pl = parent_or_self(template, l);
        let pr = parent_or_self(template, r);
        q.push_atom(Atom::new(
            RL,
            [Term::var("d1"), v(pl), v(l), n(pl), n(l), s(e)],
        ));
        q.push_atom(Atom::new(
            RR,
            [Term::var("d2"), v(pr), v(r), n(pr), n(r), s(e)],
        ));
    }
    // Structural edges whose child is not a value-join node are not covered
    // by RL/RR and still need base-relation atoms.
    for (p, c, side) in template.structural_edges() {
        if is_join_node(template, c) {
            continue;
        }
        match side {
            Side::Left => q.push_atom(Atom::new(RBIN, [Term::var("d1"), v(p), v(c), n(p), n(c)])),
            Side::Right => {
                q.push_atom(Atom::new(RBIN_W, [Term::var("d2"), v(p), v(c), n(p), n(c)]));
            }
        }
    }
    q.push_atom(rt_atom(template, rt));
    q
}

/// The per-query conjunctive query used by the Sequential baseline: the basic
/// form with the query's concrete (interned) variable names substituted for
/// the meta-variables and no `RT` atom. The head is
/// `(d1, d2, n0, ..., n{M-1})`.
pub fn per_query_cqt<S: AsRef<str>>(
    template: &QueryTemplate,
    assignment: &[S],
    interner: &StringInterner,
) -> ConjunctiveQuery {
    let sym =
        |i: usize| -> Term { Term::Const(Value::Sym(interner.intern(assignment[i].as_ref()))) };

    let mut head = vec!["d1".to_owned(), "d2".to_owned()];
    for i in 0..template.num_meta_vars() {
        head.push(format!("n{i}"));
    }
    let mut q = ConjunctiveQuery::new(head);

    for (e, (l, r)) in template.value_edges().into_iter().enumerate() {
        q.push_atom(Atom::new(RDOC, [Term::var("d1"), n(l), s(e)]));
        q.push_atom(Atom::new(RDOC_W, [Term::var("d2"), n(r), s(e)]));
    }
    for (p, c, side) in template.structural_edges() {
        match side {
            Side::Left => q.push_atom(Atom::new(
                RBIN,
                [Term::var("d1"), sym(p), sym(c), n(p), n(c)],
            )),
            Side::Right => q.push_atom(Atom::new(
                RBIN_W,
                [Term::var("d2"), sym(p), sym(c), n(p), n(c)],
            )),
        }
    }
    for p in self_edge_positions(template, Side::Left) {
        q.push_atom(Atom::new(
            RBIN,
            [Term::var("d1"), sym(p), sym(p), n(p), n(p)],
        ));
    }
    for p in self_edge_positions(template, Side::Right) {
        q.push_atom(Atom::new(
            RBIN_W,
            [Term::var("d2"), sym(p), sym(p), n(p), n(p)],
        ));
    }
    q
}

/// The `RT` atom of a template: `RT_i(qid, v0, ..., v{M-1}, wl)`.
fn rt_atom(template: &QueryTemplate, rt: &str) -> Atom {
    let mut terms = vec![Term::var("qid")];
    for i in 0..template.num_meta_vars() {
        terms.push(v(i));
    }
    terms.push(Term::var("wl"));
    Atom::new(rt, terms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmqjp_xscl::{normalize_query, parse_query, JoinGraph, ReducedGraph, TemplateCatalog};

    const Q1: &str = "S//book->x1[.//author->x2][.//title->x3] \
        FOLLOWED BY{x2=x5 AND x3=x6, 100} \
        S//blog->x4[.//author->x5][.//title->x6]";

    fn q1_template() -> (QueryTemplate, Vec<String>) {
        let q = normalize_query(&parse_query(Q1).unwrap()).unwrap().query;
        let g = ReducedGraph::from_join_graph(&JoinGraph::from_query(&q).unwrap());
        let mut catalog = TemplateCatalog::new();
        let m = catalog.insert(&g);
        (catalog.template(m.template).clone(), m.assignment)
    }

    fn single_join_template() -> (QueryTemplate, Vec<String>) {
        let q = normalize_query(
            &parse_query("S//book->b[.//author->a] FOLLOWED BY{a=x, 10} S//blog->g[.//author->x]")
                .unwrap(),
        )
        .unwrap()
        .query;
        let g = ReducedGraph::from_join_graph(&JoinGraph::from_query(&q).unwrap());
        let mut catalog = TemplateCatalog::new();
        let m = catalog.insert(&g);
        (catalog.template(m.template).clone(), m.assignment)
    }

    #[test]
    fn basic_cqt_matches_paper_structure() {
        // Section 4.4's CQ_T for the Figure 5 template: 2 Rdoc, 2 RdocW,
        // 2 Rbin, 2 RbinW and 1 RT atom — 9 atoms total.
        let (t, _) = q1_template();
        let q = template_cqt_basic(&t, "RT_0");
        assert_eq!(q.num_atoms(), 9);
        let count = |name: &str| q.body.iter().filter(|a| a.relation == name).count();
        assert_eq!(count(RDOC), 2);
        assert_eq!(count(RDOC_W), 2);
        assert_eq!(count(RBIN), 2);
        assert_eq!(count(RBIN_W), 2);
        assert_eq!(count("RT_0"), 1);
        assert!(q.validate().is_ok());
        assert!(q.is_connected());
        // Head: qid, d1, d2, six node columns, wl.
        assert_eq!(q.head.len(), 10);
        assert_eq!(q.head[0], "qid");
        assert_eq!(*q.head.last().unwrap(), "wl");
    }

    #[test]
    fn materialized_cqt_uses_rl_rr_only() {
        // Section 5's rewritten query: 2 RL, 2 RR, 1 RT — no base relations
        // because every structural edge's child is a value-join leaf.
        let (t, _) = q1_template();
        let q = template_cqt_materialized(&t, "RT_0");
        let count = |name: &str| q.body.iter().filter(|a| a.relation == name).count();
        assert_eq!(count(RL), 2);
        assert_eq!(count(RR), 2);
        assert_eq!(count(RBIN), 0);
        assert_eq!(count(RBIN_W), 0);
        assert_eq!(count("RT_0"), 1);
        assert_eq!(q.num_atoms(), 5);
        assert!(q.validate().is_ok());
        assert!(q.is_connected());
        assert_eq!(q.head, template_cqt_basic(&t, "RT_0").head);
    }

    #[test]
    fn single_node_sides_get_self_edges() {
        let (t, _) = single_join_template();
        assert_eq!(t.num_meta_vars(), 2);
        let q = template_cqt_basic(&t, "RT_0");
        // 1 Rdoc + 1 RdocW + 1 self-edge Rbin + 1 self-edge RbinW + RT = 5.
        assert_eq!(q.num_atoms(), 5);
        let rbin_atom = q.body.iter().find(|a| a.relation == RBIN).unwrap();
        // Self edge repeats the same variable and node terms.
        assert_eq!(rbin_atom.terms[1], rbin_atom.terms[2]);
        assert_eq!(rbin_atom.terms[3], rbin_atom.terms[4]);
        // Materialized form: RL + RR + RT.
        let m = template_cqt_materialized(&t, "RT_0");
        assert_eq!(m.num_atoms(), 3);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn per_query_cqt_substitutes_constants() {
        let (t, assignment) = q1_template();
        let interner = StringInterner::new();
        let q = per_query_cqt(&t, &assignment, &interner);
        // Same shape as the basic form minus the RT atom.
        assert_eq!(q.num_atoms(), 8);
        assert!(q.validate().is_ok());
        // The Rbin atoms carry constant symbols, not variables.
        let rbin_atom = q.body.iter().find(|a| a.relation == RBIN).unwrap();
        assert!(matches!(rbin_atom.terms[1], Term::Const(Value::Sym(_))));
        // Head has no qid/wl.
        assert_eq!(q.head.len(), 2 + t.num_meta_vars());
        assert_eq!(q.head[0], "d1");
        // The interner now knows the canonical variable names.
        assert!(interner.get("S//book//author").is_some());
    }

    #[test]
    fn lca_templates_keep_base_atoms_in_materialized_form() {
        // A template with an internal LCA node below the root: the edge to
        // that internal node is not covered by RL/RR and must remain as a
        // base-relation atom.
        let text = "S//r->r1[.//g->g1[.//a->a1][.//b->b1]][.//c->c1] \
            FOLLOWED BY{a1=x AND b1=y AND c1=z, 100} \
            S//i->i1[.//x->x][.//y->y][.//z->z]";
        let q = normalize_query(&parse_query(text).unwrap()).unwrap().query;
        let g = ReducedGraph::from_join_graph(&JoinGraph::from_query(&q).unwrap());
        let mut catalog = TemplateCatalog::new();
        let m = catalog.insert(&g);
        let t = catalog.template(m.template).clone();
        let cq = template_cqt_materialized(&t, "RT_0");
        // The left root -> g edge (g is not a join node) requires one Rbin
        // atom; everything else is RL/RR.
        let count = |name: &str| cq.body.iter().filter(|a| a.relation == name).count();
        assert_eq!(count(RBIN), 1);
        assert_eq!(count(RL), 3);
        assert_eq!(count(RR), 3);
        assert!(cq.validate().is_ok());
        assert!(cq.is_connected());
    }

    #[test]
    fn rt_name_formatting() {
        assert_eq!(rt_name(0), "RT_0");
        assert_eq!(rt_name(17), "RT_17");
    }
}
