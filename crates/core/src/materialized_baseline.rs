//! The materialized-view baseline the paper argues against.
//!
//! Related work ([8, 9] in the paper — Damiani et al.) enforces access
//! control by *materializing* one view per user group: query evaluation
//! is then direct (and fast), but the view must be kept in sync with the
//! document, which the paper calls "quite complex and computationally
//! expensive", and the cost multiplies across user groups.
//!
//! [`MaterializedBaseline`] implements that strategy faithfully enough to
//! measure the trade-off: it caches the materialized view (built with the
//! §3.3 semantics) and evaluates queries directly over it, translating
//! result nodes back to document nodes; any document update invalidates
//! the cache and forces re-materialization. The `maintenance` benchmark
//! compares it against the virtual (rewrite-based) engine across
//! query/update mixes.

use crate::error::Result;
use crate::spec::AccessSpec;
use crate::view::def::SecurityView;
use crate::view::materialize::{materialize, Materialized};
use sxv_xml::{Document, NodeId};
use sxv_xpath::{eval_at_root, Path};

/// Per-group materialized-view query engine (the [8, 9] strategy).
pub struct MaterializedBaseline<'a> {
    spec: &'a AccessSpec,
    view: &'a SecurityView,
    cache: Option<Materialized>,
    rebuilds: usize,
}

impl<'a> MaterializedBaseline<'a> {
    /// Bind a specification and its derived view; nothing is built yet.
    pub fn new(spec: &'a AccessSpec, view: &'a SecurityView) -> Self {
        MaterializedBaseline { spec, view, cache: None, rebuilds: 0 }
    }

    /// Signal that the document changed: the cached view is stale.
    pub fn invalidate(&mut self) {
        self.cache = None;
    }

    /// Number of (re-)materializations performed so far.
    pub fn rebuild_count(&self) -> usize {
        self.rebuilds
    }

    /// Answer a view query by evaluating it directly over the (cached)
    /// materialized view; results map back to document nodes.
    pub fn answer(&mut self, doc: &Document, p: &Path) -> Result<Vec<NodeId>> {
        if self.cache.is_none() {
            self.cache = Some(materialize(self.spec, self.view, doc)?);
            self.rebuilds += 1;
        }
        let m = self.cache.as_ref().expect("just ensured");
        Ok(m.sources_of(&eval_at_root(&m.doc, p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Approach, SecureEngine};
    use crate::view::derive::derive_view;
    use sxv_dtd::parse_dtd;
    use sxv_xml::parse as parse_xml;
    use sxv_xpath::{parse, PlanPolicy};

    fn setup() -> (AccessSpec, SecurityView, Document) {
        let dtd = parse_dtd("<!ELEMENT r (a, b)><!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>", "r")
            .unwrap();
        let spec = AccessSpec::builder(&dtd).deny("r", "b").build().unwrap();
        let view = derive_view(&spec).unwrap();
        let doc = parse_xml("<r><a>pub</a><b>sec</b></r>").unwrap();
        (spec, view, doc)
    }

    #[test]
    fn answers_match_virtual_engine() {
        let (spec, view, doc) = setup();
        let mut mat = MaterializedBaseline::new(&spec, &view);
        let engine = SecureEngine::new(&spec, &view);
        for q in ["//a", "//b", "*", "a"] {
            let p = parse(q).unwrap();
            let (virtual_answer, _) = engine
                .answer_report_policy(&doc, None, &p, Approach::Optimize, PlanPolicy::ForceWalk)
                .unwrap();
            assert_eq!(mat.answer(&doc, &p).unwrap(), virtual_answer, "{q}");
        }
    }

    #[test]
    fn cache_reused_until_invalidated() {
        let (spec, view, doc) = setup();
        let mut mat = MaterializedBaseline::new(&spec, &view);
        let p = parse("//a").unwrap();
        mat.answer(&doc, &p).unwrap();
        mat.answer(&doc, &p).unwrap();
        assert_eq!(mat.rebuild_count(), 1, "second query hits the cache");
        mat.invalidate();
        mat.answer(&doc, &p).unwrap();
        assert_eq!(mat.rebuild_count(), 2);
    }
}
