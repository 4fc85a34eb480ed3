//! Witness relations (Section 3.1 of the paper).
//!
//! The Stage-1 output for the current document (or document batch) is encoded
//! in three relations, and the accumulated join state in three more:
//!
//! | relation  | schema                                          | contents |
//! |-----------|--------------------------------------------------|----------|
//! | `RbinW`   | (docid, var1, var2, node1, node2)                | variable-pair bindings of the current document(s) |
//! | `RdocW`   | (docid, node, strVal)                            | string values of bound nodes of the current document(s) |
//! | `RdocTSW` | (docid, timestamp)                               | id + timestamp of the current document(s) |
//! | `Rbin`    | (docid, var1, var2, node1, node2)                | bindings of previous documents |
//! | `Rdoc`    | (docid, node, strVal)                            | string values from previous documents |
//! | `RdocTS`  | (docid, timestamp)                               | ids + timestamps of previous documents |
//!
//! Compared with the paper we add a `docid` column to the `*W` relations so
//! the same code path handles both single-document processing and the batched
//! processing the paper uses for its RSS throughput experiment (Section 6.3).
//!
//! Variable names and node string values are interned; node ids, document ids
//! and timestamps are integers.

use crate::error::{CoreError, CoreResult};
use mmqjp_relational::{Relation, RowRef, StringInterner, Symbol, Value};
use mmqjp_xml::{DocId, Document, NodeId};
use mmqjp_xpath::{binding_string_value, EdgeBinding, TreePattern};
use std::collections::HashSet;
use std::sync::Arc;

/// Schema constructors for the witness relations.
pub mod schemas {
    use mmqjp_relational::Schema;

    /// Schema of `RbinW` and `Rbin`: `(docid, var1, var2, node1, node2)`.
    pub fn bin() -> Schema {
        Schema::new(["docid", "var1", "var2", "node1", "node2"])
    }

    /// Schema of `RdocW` and `Rdoc`: `(docid, node, strVal)`.
    pub fn doc() -> Schema {
        Schema::new(["docid", "node", "strVal"])
    }

    /// Schema of `RdocTSW` and `RdocTS`: `(docid, timestamp)`.
    pub fn doc_ts() -> Schema {
        Schema::new(["docid", "timestamp"])
    }

    /// Schema of `RL`: `(docid, var1, var2, node1, node2, strVal)`.
    pub fn rl() -> Schema {
        Schema::new(["docid", "var1", "var2", "node1", "node2", "strVal"])
    }

    /// Schema of `RR`: `(docidW, var1, var2, node1, node2, strVal)`.
    pub fn rr() -> Schema {
        Schema::new(["docidW", "var1", "var2", "node1", "node2", "strVal"])
    }

    /// Schema of a template's `RT` relation with `m` meta-variables:
    /// `(qid, var1, ..., varm, wl)`.
    pub fn rt(meta_vars: usize) -> Schema {
        let mut cols = vec!["qid".to_owned()];
        for i in 0..meta_vars {
            cols.push(format!("var{}", i + 1));
        }
        cols.push("wl".to_owned());
        Schema::new(cols)
    }
}

/// Build one `RL`/`RR` row: an `Rbin`-shaped row extended with the join
/// string value.
pub(crate) fn rl_row(bin_row: RowRef<'_>, strval: Symbol) -> Vec<Value> {
    let mut row = Vec::with_capacity(bin_row.len() + 1);
    row.extend(bin_row.iter().cloned());
    row.push(Value::Sym(strval));
    row
}

/// The Stage-1 output for the current document or batch: the three `*W`
/// relations, ready to be joined against the engine's state.
#[derive(Debug, Clone)]
pub struct WitnessBatch {
    /// `RbinW(docid, var1, var2, node1, node2)`.
    pub rbin_w: Relation,
    /// `RdocW(docid, node, strVal)`.
    pub rdoc_w: Relation,
    /// `RdocTSW(docid, timestamp)`.
    pub rdoc_ts_w: Relation,
    /// Document ids contained in this batch, in arrival order.
    pub doc_ids: Vec<DocId>,
}

impl WitnessBatch {
    /// An empty batch.
    pub fn new() -> Self {
        WitnessBatch {
            rbin_w: Relation::new(schemas::bin()),
            rdoc_w: Relation::new(schemas::doc()),
            rdoc_ts_w: Relation::new(schemas::doc_ts()),
            doc_ids: Vec::new(),
        }
    }

    /// `true` when no document has been added.
    pub fn is_empty(&self) -> bool {
        self.doc_ids.is_empty()
    }

    /// Number of documents in the batch.
    pub fn num_documents(&self) -> usize {
        self.doc_ids.len()
    }

    /// Add one document's edge bindings to the batch.
    ///
    /// `bindings` is the Stage-1 output: for each matched (distinct) pattern,
    /// the edge bindings requested by the Join Processor. String values are
    /// interned through `interner`.
    pub fn add_document(
        &mut self,
        doc: &Document,
        bindings: &[(&TreePattern, Vec<EdgeBinding>)],
        interner: &Arc<StringInterner>,
    ) -> CoreResult<()> {
        let docid = Value::Int(doc.id().raw() as i64);
        self.doc_ids.push(doc.id());
        self.rdoc_ts_w.push_values(vec![
            docid.clone(),
            Value::Int(doc.timestamp().raw() as i64),
        ])?;

        // Track which (node) string values we already emitted for this doc so
        // RdocW stays duplicate-free, and which variable-pair bindings we
        // already emitted so RbinW stays duplicate-free (distinct patterns of
        // different queries frequently share canonical variables, and
        // duplicate witness tuples would multiply in the join processor).
        let mut emitted: HashSet<NodeId> = HashSet::new();
        let mut emitted_bins: HashSet<(u32, u32, u32, u32)> = HashSet::new();
        for (pattern, edge_bindings) in bindings {
            for b in edge_bindings {
                let var1 = interner.intern(&b.ancestor_var);
                let var2 = interner.intern(&b.descendant_var);
                if !emitted_bins.insert((
                    var1.raw(),
                    var2.raw(),
                    b.ancestor.raw(),
                    b.descendant.raw(),
                )) {
                    continue;
                }
                self.rbin_w.push_values(vec![
                    docid.clone(),
                    Value::Sym(var1),
                    Value::Sym(var2),
                    Value::Int(b.ancestor.raw() as i64),
                    Value::Int(b.descendant.raw() as i64),
                ])?;
                // The descendant endpoint is the one whose string value
                // participates in value joins (value joins attach to the
                // child position of structural edges; self-edges cover
                // single-node sides).
                if emitted.insert(b.descendant) {
                    let pattern_node = pattern.variable_node(&b.descendant_var).map_err(|_| {
                        CoreError::internal("edge binding variable exists in its pattern")
                    })?;
                    let sval = binding_string_value(doc, pattern, pattern_node, b.descendant);
                    let sym = interner.intern(&sval);
                    self.rdoc_w.push_values(vec![
                        docid.clone(),
                        Value::Int(b.descendant.raw() as i64),
                        Value::Sym(sym),
                    ])?;
                }
            }
        }
        Ok(())
    }

    /// Number of witness rows (`RbinW` + `RdocW`) in the batch. The
    /// retention-ledger rows (`RdocTSW`) are bookkeeping, not witnesses, so
    /// they are not counted.
    pub fn num_witness_rows(&self) -> usize {
        self.rbin_w.len() + self.rdoc_w.len()
    }
}

impl Default for WitnessBatch {
    fn default() -> Self {
        WitnessBatch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmqjp_xml::{rss, Timestamp};
    use mmqjp_xpath::{parse_pattern, PatternMatcher};

    fn interner() -> Arc<StringInterner> {
        Arc::new(StringInterner::new())
    }

    fn d1() -> Document {
        rss::book_announcement(
            &["Danny Ayers", "Andrew Watt"],
            "Beginning RSS and Atom Programming",
            &["Scripting & Programming", "Web Site Development"],
            "Wrox",
            "0764579169",
        )
        .with_id(DocId(1))
        .with_timestamp(Timestamp(10))
    }

    #[test]
    fn schemas_have_expected_arity() {
        assert_eq!(schemas::bin().arity(), 5);
        assert_eq!(schemas::doc().arity(), 3);
        assert_eq!(schemas::doc_ts().arity(), 2);
        assert_eq!(schemas::rl().arity(), 6);
        assert_eq!(schemas::rr().arity(), 6);
        assert_eq!(schemas::rt(6).arity(), 8);
        assert!(schemas::rt(3).contains("var3"));
        assert!(schemas::rt(3).contains("wl"));
    }

    #[test]
    fn batch_from_book_document_matches_table4() {
        // Using Q1's left block (plus category for Q2), the batch built from
        // d1 should mirror Table 4(b)/(c) of the paper: five bound leaves
        // with their string values and five variable-pair bindings.
        let mut pattern =
            parse_pattern("S//book->x1[.//author->x2][.//title->x3][.//category->x7]").unwrap();
        pattern.assign_canonical_variables();
        let matcher = PatternMatcher::new(&pattern);
        let doc = d1();
        let bindings = matcher.all_edge_bindings(&doc);
        assert_eq!(bindings.len(), 5);

        let interner = interner();
        let mut batch = WitnessBatch::new();
        batch
            .add_document(&doc, &[(&pattern, bindings)], &interner)
            .unwrap();

        assert_eq!(batch.num_documents(), 1);
        assert!(!batch.is_empty());
        assert_eq!(batch.rbin_w.len(), 5);
        assert_eq!(batch.rdoc_w.len(), 5);
        assert_eq!(batch.rdoc_ts_w.len(), 1);
        let ledger: Vec<(Value, Value)> = batch
            .rdoc_ts_w
            .iter()
            .map(|t| (t[0].clone(), t[1].clone()))
            .collect();
        assert_eq!(ledger, vec![(Value::Int(1), Value::Int(10))]);

        // All string values were interned; Danny Ayers appears among them.
        assert!(interner.get("Danny Ayers").is_some());
        assert!(interner.get("Wrox").is_none()); // publisher is not bound

        // Every RbinW tuple has the book root (node 0) as ancestor.
        for t in batch.rbin_w.iter() {
            assert_eq!(t[3], Value::Int(0));
        }
    }

    #[test]
    fn duplicate_string_values_are_not_repeated_per_node() {
        let mut pattern = parse_pattern("S//book->b[.//author->a]").unwrap();
        pattern.assign_canonical_variables();
        let matcher = PatternMatcher::new(&pattern);
        let doc = d1();
        // Request the same edge twice; RdocW must still contain one row per
        // bound node.
        let edges = vec![
            (
                pattern.variable_node("b").unwrap(),
                pattern.variable_node("a").unwrap(),
            ),
            (
                pattern.variable_node("b").unwrap(),
                pattern.variable_node("a").unwrap(),
            ),
        ];
        let bindings = matcher.edge_bindings(&doc, &edges);
        assert_eq!(bindings.len(), 4); // 2 authors x 2 requests
        let interner = interner();
        let mut batch = WitnessBatch::new();
        batch
            .add_document(&doc, &[(&pattern, bindings)], &interner)
            .unwrap();
        assert_eq!(batch.rdoc_w.len(), 2); // one row per author node

        // The duplicated edge request collapses to one RbinW row per author.
        assert_eq!(batch.rbin_w.len(), 2);
    }

    #[test]
    fn multi_document_batch() {
        let mut pattern = parse_pattern("S//book->b[.//title->t]").unwrap();
        pattern.assign_canonical_variables();
        let matcher = PatternMatcher::new(&pattern);
        let interner = interner();
        let mut batch = WitnessBatch::new();
        for i in 0..3u64 {
            let doc = d1().with_id(DocId(i)).with_timestamp(Timestamp(i * 10));
            let bindings = matcher.all_edge_bindings(&doc);
            batch
                .add_document(&doc, &[(&pattern, bindings)], &interner)
                .unwrap();
        }
        assert_eq!(batch.num_documents(), 3);
        assert_eq!(batch.rdoc_ts_w.len(), 3);
        assert_eq!(batch.rbin_w.len(), 3);
        assert_eq!(batch.doc_ids, vec![DocId(0), DocId(1), DocId(2)]);
    }

    #[test]
    fn empty_batch_defaults() {
        let batch = WitnessBatch::default();
        assert!(batch.is_empty());
        assert_eq!(batch.num_documents(), 0);
        assert_eq!(batch.rbin_w.len(), 0);
    }
}
