//! Query match outputs and default output-document construction
//! (Algorithm 3 and the `SELECT *` semantics of Section 2).

use mmqjp_xml::{DocId, Document, NodeId};
use mmqjp_xscl::QueryId;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// One variable binding reported in a match.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Binding {
    /// The query's (canonical) variable name, shared with the registry: a
    /// match clones a reference count, not the name.
    pub variable: Arc<str>,
    /// The document the node belongs to.
    pub doc: DocId,
    /// The bound node.
    pub node: NodeId,
}

impl fmt::Display for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}:{}", self.variable, self.doc, self.node)
    }
}

/// One match of a registered query: a pair of documents satisfying the
/// query's value joins and temporal constraint (or a single document for
/// single-block subscriptions).
///
/// Producing a match copies no document: [`document`](Self::document) holds
/// its sources by reference and builds the output tree only when it is
/// read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchOutput {
    /// The query that matched.
    pub query: QueryId,
    /// The query's `PUBLISH` stream, if any (shared with the registry).
    pub publish: Option<Arc<str>>,
    /// The document matched by the query's *left* block. For single-block
    /// subscriptions this equals `right_doc`.
    pub left_doc: DocId,
    /// The document matched by the query's *right* block (the current
    /// document when the match was produced).
    pub right_doc: DocId,
    /// The variable bindings of the match (one entry per meta-variable of
    /// the query's template, or per pattern variable for single-block
    /// subscriptions).
    pub bindings: Vec<Binding>,
    /// The output document (`SELECT *` semantics), when the engine retains
    /// documents; `None` otherwise or for `SELECT BINDINGS` queries. It
    /// dereferences to a [`Document`], built on first read.
    pub document: Option<OutputDocument>,
}

impl MatchOutput {
    /// The binding of a given variable, if present.
    pub fn binding(&self, variable: &str) -> Option<&Binding> {
        self.bindings.iter().find(|b| &*b.variable == variable)
    }

    /// Compare two matches by `(query, left_doc, right_doc, bindings)`.
    ///
    /// This is a total order on the matches a batch can produce: the bindings
    /// determine the result tuple the match was built from, so two matches
    /// comparing `Equal` are identical (including their output document).
    /// Used by [`sort_matches`] to impose the canonical order.
    pub fn canonical_cmp(&self, other: &MatchOutput) -> std::cmp::Ordering {
        self.query
            .cmp(&other.query)
            .then_with(|| self.left_doc.cmp(&other.left_doc))
            .then_with(|| self.right_doc.cmp(&other.right_doc))
            .then_with(|| self.bindings.cmp(&other.bindings))
    }
}

/// Sort matches into the canonical `(query, left_doc, right_doc, bindings)`
/// order.
///
/// [`ShardedEngine`](crate::ShardedEngine) returns every batch in this order
/// so its output is deterministic and directly comparable with a
/// canonically-sorted single-engine run, independent of shard count and
/// thread interleaving.
pub fn sort_matches(matches: &mut [MatchOutput]) {
    matches.sort_by(MatchOutput::canonical_cmp);
}

impl fmt::Display for MatchOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} matched ({} FOLLOWED BY {})",
            self.query, self.left_doc, self.right_doc
        )
    }
}

/// The output document of a match, held as a handle on its source
/// documents.
///
/// The engine shares each retained document by [`Arc`], so a handle costs
/// two reference counts and two node ids. Dereferencing it yields the
/// [`Document`]: for a single-block match, the matched document itself; for
/// a join match, the `SELECT *` tree of [`construct_join_output`], built on
/// the first read and cached. A handle keeps its sources alive after the
/// engine has evicted them, so it reads the same at any later time.
///
/// Equality compares the dereferenced documents.
#[derive(Clone)]
pub struct OutputDocument(OutputSource);

#[derive(Clone)]
enum OutputSource {
    Whole(Arc<Document>),
    Join {
        left: Arc<Document>,
        left_root: NodeId,
        right: Arc<Document>,
        right_root: NodeId,
        built: OnceLock<Document>,
    },
}

impl OutputDocument {
    /// The output of a single-block match: the matched document itself.
    pub fn whole(doc: Arc<Document>) -> Self {
        OutputDocument(OutputSource::Whole(doc))
    }

    /// The output of a join match: a new `result` root over the subtree of
    /// `left` at `left_root` and the subtree of `right` at `right_root`,
    /// built on first read.
    pub fn join(
        left: Arc<Document>,
        left_root: NodeId,
        right: Arc<Document>,
        right_root: NodeId,
    ) -> Self {
        OutputDocument(OutputSource::Join {
            left,
            left_root,
            right,
            right_root,
            built: OnceLock::new(),
        })
    }
}

impl Deref for OutputDocument {
    type Target = Document;

    fn deref(&self) -> &Document {
        match &self.0 {
            OutputSource::Whole(doc) => doc,
            OutputSource::Join {
                left,
                left_root,
                right,
                right_root,
                built,
            } => built.get_or_init(|| construct_join_output(left, *left_root, right, *right_root)),
        }
    }
}

impl PartialEq for OutputDocument {
    fn eq(&self, other: &OutputDocument) -> bool {
        **self == **other
    }
}

impl Eq for OutputDocument {}

impl fmt::Debug for OutputDocument {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("OutputDocument").field(&**self).finish()
    }
}

/// Construct the default (`SELECT *`) output document for a join match: a new
/// root element whose two children are the subtrees of the left and right
/// input documents rooted at the query blocks' root bindings.
pub fn construct_join_output(
    left_doc: &Document,
    left_root: NodeId,
    right_doc: &Document,
    right_root: NodeId,
) -> Document {
    Document::from_subtrees("result", &[(left_doc, left_root), (right_doc, right_root)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmqjp_xml::{rss, serialize};

    #[test]
    fn binding_accessors_and_display() {
        let b = Binding {
            variable: "S//book//author".into(),
            doc: DocId(1),
            node: NodeId::from_raw(2),
        };
        assert_eq!(b.to_string(), "S//book//author@d1:n2");
        let m = MatchOutput {
            query: QueryId(3),
            publish: None,
            left_doc: DocId(1),
            right_doc: DocId(2),
            bindings: vec![b.clone()],
            document: None,
        };
        assert_eq!(m.binding("S//book//author"), Some(&b));
        assert!(m.binding("missing").is_none());
        assert!(m.to_string().contains("Q3"));
    }

    #[test]
    fn canonical_order_sorts_by_query_docs_then_bindings() {
        let m = |q: u64, l: u64, r: u64, node: u32| MatchOutput {
            query: QueryId(q),
            publish: None,
            left_doc: DocId(l),
            right_doc: DocId(r),
            bindings: vec![Binding {
                variable: "v".into(),
                doc: DocId(l),
                node: NodeId::from_raw(node),
            }],
            document: None,
        };
        let mut matches = vec![m(2, 1, 3, 0), m(1, 2, 3, 0), m(1, 1, 3, 5), m(1, 1, 3, 2)];
        sort_matches(&mut matches);
        let keys: Vec<(u64, u64, u32)> = matches
            .iter()
            .map(|o| (o.query.raw(), o.left_doc.raw(), o.bindings[0].node.raw()))
            .collect();
        assert_eq!(keys, vec![(1, 1, 2), (1, 1, 5), (1, 2, 0), (2, 1, 0)]);
        assert_eq!(
            matches[0].canonical_cmp(&matches[0]),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn join_output_has_two_subtrees_under_new_root() {
        let d1 = rss::book_announcement(
            &["Danny Ayers"],
            "Beginning RSS and Atom Programming",
            &["Scripting & Programming"],
            "Wrox",
            "0764579169",
        );
        let d2 = rss::blog_article(
            "Danny Ayers",
            "http://dannyayers.com/",
            "Beginning RSS and Atom Programming",
            "Book Announcement",
            "Just heard ...",
        );
        let out = construct_join_output(&d1, NodeId::ROOT, &d2, NodeId::ROOT);
        assert_eq!(out.root().tag(), "result");
        assert_eq!(out.root().children().len(), 2);
        let xml = serialize(&out);
        assert!(xml.starts_with("<result><book>"));
        assert!(xml.contains("<blog>"));
        assert!(xml.contains("Danny Ayers"));
        out.check_invariants().unwrap();
        // Every node of both inputs is present plus the new root.
        assert_eq!(out.len(), d1.len() + d2.len() + 1);
    }

    #[test]
    fn join_output_with_subtree_roots() {
        // Using a non-root binding only copies that subtree.
        let d1 = rss::book_announcement(&["A"], "T", &["C"], "P", "I");
        let author = d1.first_with_tag("author").unwrap();
        let d2 = rss::blog_article("A", "u", "T", "C", "D");
        let title = d2.first_with_tag("title").unwrap();
        let out = construct_join_output(&d1, author, &d2, title);
        assert_eq!(out.len(), 3);
        let xml = serialize(&out);
        assert_eq!(xml, "<result><author>A</author><title>T</title></result>");
    }

    #[test]
    fn output_handle_materializes_the_eager_output_once() {
        let d1 = Arc::new(rss::book_announcement(&["A"], "T", &["C"], "P", "I"));
        let d2 = Arc::new(rss::blog_article("A", "u", "T", "C", "D"));
        let title = d2.first_with_tag("title").unwrap();
        let handle = OutputDocument::join(Arc::clone(&d1), NodeId::ROOT, Arc::clone(&d2), title);
        let eager = construct_join_output(&d1, NodeId::ROOT, &d2, title);
        // The sources may go away: the handle keeps them alive.
        drop((d1, d2));
        assert_eq!(*handle, eager);
        assert_eq!(handle.clone(), handle);

        let whole = Arc::new(rss::blog_article("B", "v", "U", "C", "E"));
        let single = OutputDocument::whole(Arc::clone(&whole));
        assert!(
            std::ptr::eq(&*single, &*whole),
            "single-block output is shared"
        );
        assert_ne!(single, handle);
    }

    #[test]
    fn deep_output_materializes_on_a_small_stack() {
        const DEPTH: usize = 100_000;
        let worker = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let mut chain = Document::new("d");
                let mut last = NodeId::ROOT;
                for _ in 0..DEPTH {
                    last = chain.append_child(last, "d").unwrap();
                }
                chain.set_text(last, "leaf");
                let chain = Arc::new(chain);
                let out = OutputDocument::join(
                    Arc::clone(&chain),
                    NodeId::ROOT,
                    chain,
                    NodeId::from_raw(1),
                );
                let doc: &Document = &out;
                assert_eq!(doc.len(), 1 + (DEPTH + 1) + DEPTH);
                assert_eq!(doc.depth(NodeId::from_raw(DEPTH as u32 + 1)), DEPTH + 1);
                assert_eq!(doc.root().children().len(), 2);
                doc.check_invariants().unwrap();
            })
            .unwrap();
        worker.join().unwrap();
    }
}
