//! Match outputs carry their `SELECT *` document as a lazy handle on the
//! engine's shared source documents. Whatever the mode or topology, and
//! however long a consumer holds it, every handle must read exactly as the
//! eager construction of Section 2: `construct_join_output` over the
//! match's source documents, each side rooted at its block's root binding
//! (or at the document root when the root is not bound).

use mmqjp_core::{construct_join_output, EngineConfig, MatchOutput, MmqjpEngine, ProcessingMode};
use mmqjp_integration_tests::{all_modes, d1, d2, sharded_engine_with_queries};
use mmqjp_workload::{RssQueryGenerator, RssStreamConfig, RssStreamGenerator};
use mmqjp_xml::{Document, NodeId};
use mmqjp_xscl::{normalize_query, parse_query, FromClause, Window, XsclQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// Queries whose block roots are document roots (the generated RSS
/// subscriptions, `S//item`) and whose block roots are inner nodes bound
/// by the join itself (`S//title->t`). The `JOIN` is asymmetric, so its
/// block-swapped orientation must still put the left block first.
fn queries(w: u64) -> Vec<XsclQuery> {
    let mut rng = StdRng::seed_from_u64(1303);
    let mut queries = RssQueryGenerator::new(0.8)
        .with_window(Window::Time(w))
        .generate_queries(12, &mut rng);
    for text in [
        format!("S//title->t JOIN{{t=u, {w}}} S//item->i[.//title->u]"),
        format!("S//item->i[.//channel_url->c] FOLLOWED BY{{c=d, {w}}} S//channel_url->d"),
    ] {
        queries.push(parse_query(&text).expect("test query parses"));
    }
    queries
}

fn stream(items: usize) -> Vec<Document> {
    RssStreamGenerator::new(RssStreamConfig {
        items,
        channels: 6,
        title_vocabulary: 8,
        description_vocabulary: 12,
        ..RssStreamConfig::default()
    })
    .documents()
}

/// The root node of one block's output subtree: the node bound to the
/// block pattern's root variable in that block's document, if the match
/// binds it.
fn block_root(m: &MatchOutput, root_var: Option<&str>, doc: u64) -> NodeId {
    root_var
        .and_then(|var| {
            m.bindings
                .iter()
                .find(|b| &*b.variable == var && b.doc.raw() == doc)
        })
        .map_or(NodeId::ROOT, |b| b.node)
}

/// Assert every match carries a document equal to the eager construction
/// over `sources` (the stream as fed; the engine numbers documents from 1
/// in arrival order). Returns the number of matches checked.
fn assert_outputs_equal_eager(
    queries: &[XsclQuery],
    sources: &[Document],
    matches: &[MatchOutput],
) -> usize {
    let roots: Vec<(Option<String>, Option<String>)> = queries
        .iter()
        .map(|q| {
            let normalized = normalize_query(q).expect("test query normalizes").query;
            match normalized.from {
                FromClause::Join { left, right, .. } => (
                    left.pattern.root().variable().map(str::to_owned),
                    right.pattern.root().variable().map(str::to_owned),
                ),
                FromClause::Single(_) => unreachable!("join queries only"),
            }
        })
        .collect();
    let source = |id: u64| &sources[id as usize - 1];
    for m in matches {
        let (left_var, right_var) = &roots[m.query.raw() as usize];
        let left_root = block_root(m, left_var.as_deref(), m.left_doc.raw());
        let right_root = block_root(m, right_var.as_deref(), m.right_doc.raw());
        let eager = construct_join_output(
            source(m.left_doc.raw()),
            left_root,
            source(m.right_doc.raw()),
            right_root,
        );
        let lazy = m.document.as_ref().expect("SELECT * retains an output");
        assert_eq!(**lazy, eager, "{m}");
    }
    matches.len()
}

fn config(mode: ProcessingMode) -> EngineConfig {
    EngineConfig {
        mode,
        ..EngineConfig::default()
    }
}

#[test]
fn lazy_outputs_equal_eager_construction_in_every_mode_and_sharded() {
    let queries = queries(40);
    let docs = stream(90);
    for mode in all_modes() {
        let mut engine = MmqjpEngine::new(config(mode));
        for q in &queries {
            engine.register_query(q.clone()).expect("query registers");
        }
        let mut single = Vec::new();
        for chunk in docs.chunks(10) {
            single.extend(engine.process_batch(chunk.to_vec()).expect("batch"));
        }
        let checked = assert_outputs_equal_eager(&queries, &docs, &single);
        assert!(checked > 0, "{mode:?} produced no matches");
        // Both kinds of root occur: whole items and inner `title` nodes.
        let first_tags: HashSet<&str> = single
            .iter()
            .filter_map(|m| m.document.as_ref())
            .map(|d| d.node(d.root().children()[0]).tag())
            .collect();
        assert!(first_tags.contains("item") && first_tags.contains("title"));

        let mut sharded = sharded_engine_with_queries(config(mode), 2, &queries);
        let mut out = Vec::new();
        for chunk in docs.chunks(10) {
            out.extend(sharded.process_batch(chunk.to_vec()).expect("batch"));
        }
        assert_eq!(assert_outputs_equal_eager(&queries, &docs, &out), checked);
    }
}

#[test]
fn held_outputs_outlive_evicted_sources() {
    // Short windows with state pruning: the engine evicts most documents
    // long before the stream ends. Every output is held, unread, until the
    // engine is gone, and must still read as the eager construction.
    let queries = queries(6);
    let docs = stream(120);
    for mode in all_modes() {
        let mut engine = MmqjpEngine::new(config(mode).with_prune_state_by_window(true));
        for q in &queries {
            engine.register_query(q.clone()).expect("query registers");
        }
        let mut held = Vec::new();
        for chunk in docs.chunks(4) {
            held.extend(engine.process_batch(chunk.to_vec()).expect("batch"));
        }
        let stats = engine.stats();
        assert!(stats.docs_evicted > docs.len() / 2, "{mode:?}: {stats:?}");
        drop(engine);
        assert!(assert_outputs_equal_eager(&queries, &docs, &held) > 0);
    }

    let mut sharded = sharded_engine_with_queries(
        config(ProcessingMode::MmqjpViewMat).with_prune_state_by_window(true),
        2,
        &queries,
    );
    let mut held = Vec::new();
    for chunk in docs.chunks(4) {
        held.extend(sharded.process_batch(chunk.to_vec()).expect("batch"));
    }
    drop(sharded);
    assert!(assert_outputs_equal_eager(&queries, &docs, &held) > 0);
}

#[test]
fn single_block_output_is_the_stamped_document() {
    let mut engine = MmqjpEngine::new(EngineConfig::default());
    engine
        .register_query_text("S//blog->b[.//author->a]")
        .expect("single-block query registers");
    engine.process_document(d1()).expect("d1");
    let out = engine.process_document(d2()).expect("d2");
    assert_eq!(out.len(), 1);
    let doc = out[0]
        .document
        .as_ref()
        .expect("SELECT * retains an output");
    // The engine numbers d2 second and keeps a set timestamp (else it
    // stamps the sequence number).
    let ts = match d2().timestamp().raw() {
        0 => 2,
        ts => ts,
    };
    let expected = d2()
        .with_id(mmqjp_xml::DocId(2))
        .with_timestamp(mmqjp_xml::Timestamp(ts));
    assert_eq!(**doc, expected);
}
