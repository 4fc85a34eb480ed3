//! Certification of the streaming single-pass Stage 1.
//!
//! Two properties anchor it:
//!
//! 1. **Parser differential** (proptest): the pull parser — both when it
//!    builds a DOM (`parse_document_streaming`) and when it feeds the fused
//!    parse ⊕ Stage-1 pass with no DOM at all
//!    (`evaluate_witnesses_streaming_text`) — agrees byte for byte with the
//!    DOM parser on randomly generated documents exercising CDATA sections,
//!    numeric character references, comments, self-closing elements and
//!    attributes.
//! 2. **Stage-1 oracle differential** (proptest): the edge bindings and
//!    single-block witnesses the engine derives from one shared automaton
//!    pass equal those of the per-pattern DOM matcher, which is kept as the
//!    test oracle for the pass.

use mmqjp_xml::{parse_document, parse_document_streaming, serialize};
use mmqjp_xpath::{parse_pattern, PatternIndex, PatternMatcher, PatternNodeId, TreePattern};
use proptest::prelude::*;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Random XML documents for the parser differential
// ---------------------------------------------------------------------------

/// One construction step of a random document. Interpreted against a stack
/// of open elements, so any op sequence yields well-formed XML.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: usize,
    tag: usize,
    value: usize,
}

/// Render an op sequence into XML text. The vocabulary is small on purpose
/// (tags `t0..t5`, values `v0..`) so patterns can match, and every decoration
/// the pull parser must handle is reachable: comments, CDATA, numeric
/// character references (decimal and hex), self-closing elements,
/// attributes, and plain nested elements.
fn render_xml(ops: &[Op]) -> String {
    let mut out = String::from("<?xml version=\"1.0\"?><!-- preamble --><r>");
    let mut depth = 1usize;
    for op in ops {
        let t = op.tag % 6;
        let v = op.value;
        match op.kind % 9 {
            0 => {
                out.push_str(&format!("<t{t}>"));
                depth += 1;
            }
            1 => {
                if depth > 1 {
                    out.push_str(&format!("</t{}>", close_tag(&out)));
                    depth -= 1;
                }
            }
            2 => out.push_str(&format!("<t{t}/>")),
            3 => out.push_str(&format!("v{v}&#38;&#x3C;x")),
            4 => out.push_str(&format!("<![CDATA[v{v} <raw> & unescaped]]>")),
            5 => out.push_str(&format!("<!-- comment {v} -->")),
            6 => out.push_str(&format!("v{v} ")),
            7 => out.push_str(&format!("<t{t} a=\"v{v}\" b=\"&#65;\"/>")),
            _ => {
                out.push_str(&format!("<t{t} a=\"v{v}\">"));
                depth += 1;
            }
        }
    }
    while depth > 1 {
        out.push_str(&format!("</t{}>", close_tag(&out)));
        depth -= 1;
    }
    out.push_str("</r>");
    out
}

/// The tag of the innermost open element, recovered from the rendered text
/// (the last `<tN...>` that is neither closed after it nor self-closing).
/// Linear rescan — fine at test sizes, and it keeps `render_xml` stateless.
fn close_tag(rendered: &str) -> usize {
    let mut stack: Vec<usize> = Vec::new();
    let bytes = rendered.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'<' {
            if rendered[i..].starts_with("<!--") {
                i += rendered[i..]
                    .find("-->")
                    .map_or(rendered.len() - i, |p| p + 3);
                continue;
            }
            if rendered[i..].starts_with("<![CDATA[") {
                i += rendered[i..]
                    .find("]]>")
                    .map_or(rendered.len() - i, |p| p + 3);
                continue;
            }
            if rendered[i..].starts_with("<?") {
                i += rendered[i..]
                    .find("?>")
                    .map_or(rendered.len() - i, |p| p + 2);
                continue;
            }
            let end = i + rendered[i..].find('>').expect("well-formed render");
            let inner = &rendered[i + 1..end];
            if let Some(tag) = inner.strip_prefix('/') {
                let _ = tag;
                stack.pop();
            } else if !inner.ends_with('/') {
                let name = inner.split_whitespace().next().expect("tag name");
                if let Some(n) = name.strip_prefix('t') {
                    stack.push(n.parse().expect("numeric test tag"));
                } else {
                    stack.push(usize::MAX); // the root <r>
                }
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    *stack.last().expect("an open element") // callers guard depth > 1
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0usize..9, 0usize..6, 0usize..40), 0..40).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, tag, value)| Op { kind, tag, value })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The pull parser builds the same DOM as the backtracking parser on
    /// random documents with CDATA, entities, comments and self-closing
    /// elements.
    #[test]
    fn streaming_parse_equals_dom_parse(ops in ops_strategy()) {
        let xml = render_xml(&ops);
        let dom = parse_document(&xml).expect("DOM parser accepts rendered doc");
        let streamed = parse_document_streaming(&xml).expect("pull parser accepts rendered doc");
        prop_assert_eq!(dom, streamed, "parsers diverged on: {}", xml);
    }

    /// The fused parse ⊕ Stage-1 pass (no DOM built at all) yields the same
    /// per-pattern witnesses as parse-then-match on the same random text.
    #[test]
    fn fused_text_pass_equals_parse_then_match(ops in ops_strategy()) {
        let xml = render_xml(&ops);
        let mut index = PatternIndex::new();
        for p in [
            "S//r->root[.//t0->a]",
            "S//t1->x[.//t2->y]",
            "S//t0->e[.//t3->f][.//t4->g]",
            "S//r->r1[.//t5->v]",
        ] {
            index.register(parse_pattern(p).expect("pattern parses"));
        }
        let streamed = index
            .evaluate_witnesses_streaming_text(&xml)
            .expect("fused pass accepts rendered doc");
        let doc = parse_document(&xml).expect("DOM parser accepts rendered doc");
        let dom = index.evaluate_witnesses(&doc);
        prop_assert_eq!(streamed, dom, "fused pass diverged on: {}", xml);
    }
}

// ---------------------------------------------------------------------------
// Shared automaton pass vs the per-pattern DOM oracle
// ---------------------------------------------------------------------------

/// Join-side patterns over the random-document vocabulary, with variables
/// so their edge bindings are meaningful.
const JOIN_PATTERNS: [&str; 5] = [
    "S//r->root[.//t0->a]",
    "S//t1->x[.//t2->y]",
    "S//t0->e[.//t3->f][.//t4->g]",
    "S//t2->p[.//t5->q[.//t1->z]]",
    "S//r->r1[.//t5->v]",
];

/// Single-block subscription patterns (no variables), as registered for
/// join-free queries.
const SINGLE_PATTERNS: [&str; 4] = [
    "S//t0[.//t1]",
    "S//t2[.//t3][.//t4]",
    "S//t5",
    "S//r[.//t0[.//t2]]",
];

/// Every (ancestor-or-self, descendant) pair of pattern nodes — the shape
/// of a requested edge, which may skip levels or be a self-edge.
fn requestable_edges(pattern: &TreePattern) -> Vec<(PatternNodeId, PatternNodeId)> {
    let mut edges = Vec::new();
    for d in pattern.node_ids() {
        let mut a = Some(d);
        while let Some(anc) = a {
            edges.push((anc, d));
            a = pattern.node(anc).parent();
        }
    }
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Edge bindings derived from one shared automaton pass equal the
    /// per-pattern DOM matcher's for any requested-edge map: patterns with
    /// a random subset of their requestable edges, and patterns with no
    /// entry at all (which fall back to every adjacent edge).
    #[test]
    fn edge_bindings_from_pass_equal_dom_oracle(
        ops in ops_strategy(),
        picks in prop::collection::vec(0usize..4, 0..80),
    ) {
        let doc = parse_document(&render_xml(&ops)).expect("DOM parser accepts rendered doc");
        let mut index = PatternIndex::new();
        let mut requested = HashMap::new();
        let mut picks = picks.into_iter();
        for text in JOIN_PATTERNS {
            let pattern = parse_pattern(text).expect("pattern parses");
            let edges = requestable_edges(&pattern);
            let pid = index.register(pattern);
            // A quarter of the patterns get no entry; the rest request each
            // requestable edge with probability one half.
            if picks.next().unwrap_or(0) == 0 {
                continue;
            }
            let chosen: Vec<_> = edges
                .into_iter()
                .filter(|_| picks.next().unwrap_or(1) % 2 == 1)
                .collect();
            requested.insert(pid, chosen);
        }
        let pass = index.shared_pass(&doc);
        let streamed = index.edge_bindings_from_pass(&doc, &requested, &pass);
        let oracle = index.evaluate_edge_bindings(&doc, &requested);
        prop_assert_eq!(streamed, oracle, "edge bindings diverged on: {}", serialize(&doc));
    }

    /// Single-block witnesses enumerated from a shared pass's useful sets
    /// equal the DOM matcher's `witnesses`, including the empty answer when
    /// the pattern's root set is empty.
    #[test]
    fn witnesses_from_useful_equal_dom_oracle(ops in ops_strategy()) {
        let doc = parse_document(&render_xml(&ops)).expect("DOM parser accepts rendered doc");
        let mut index = PatternIndex::new();
        let pids: Vec<_> = SINGLE_PATTERNS
            .iter()
            .chain(JOIN_PATTERNS.iter())
            .map(|text| index.register(parse_pattern(text).expect("pattern parses")))
            .collect();
        let pass = index.shared_pass(&doc);
        for pid in pids {
            let matcher = PatternMatcher::new(index.pattern(pid));
            let streamed = match pass.useful(pid) {
                Some(useful) if useful.first().is_some_and(|roots| !roots.is_empty()) => {
                    matcher.witnesses_from_useful(&doc, useful)
                }
                _ => Vec::new(),
            };
            prop_assert_eq!(
                streamed,
                matcher.witnesses(&doc),
                "witnesses of pattern {:?} diverged on: {}",
                pid,
                serialize(&doc)
            );
        }
    }
}
