//! The §6 "naive" baseline: element-level security annotations.
//!
//! The paper's comparison approach does not use the DTD for rewriting.
//! Instead it
//!
//! 1. stores each element's accessibility in an `accessibility` attribute
//!    on the document itself ([`NaiveBaseline::annotate`]), and
//! 2. rewrites a view query with two rules ([`NaiveBaseline::rewrite`]):
//!    every child axis is widened to a descendant axis (a view edge may
//!    stand for a whole document path), and `[@accessibility='1']` is
//!    appended to the result step.
//!
//! Footnote 3 of the paper: rule 2 is only sound when the DTD has unique
//! element names (no label reachable along two incomparable paths with
//! different accessibility). [`NaiveBaseline::rewrite`] implements exactly
//! the paper's rules; its performance cost — scanning whole subtrees for
//! every widened axis and checking an attribute on every candidate — is
//! what Table 1 measures against the DTD-aware rewriting.

use crate::accessibility::compute_accessibility;
use crate::spec::AccessSpec;
use sxv_xml::{Document, U32s};
use sxv_xpath::{Path, Qualifier};

/// Attribute name used for element-level annotations.
pub const ACCESS_ATTR: &str = "accessibility";

/// The naive element-annotation baseline.
pub struct NaiveBaseline;

impl NaiveBaseline {
    /// Produce a copy of `doc` where every element carries
    /// `accessibility="1"` or `"0"` according to `spec` (the baseline's
    /// offline preparation step). The copy shares every column of `doc`
    /// but the attribute column, which is rebuilt once: an element's own
    /// attributes keep their order, an existing `accessibility` value is
    /// replaced in place, and a missing one is appended.
    pub fn annotate(spec: &AccessSpec, doc: &Document) -> Document {
        let access = compute_accessibility(spec, doc, None);
        let mut owners = Vec::new();
        let mut entries = Vec::new();
        for id in doc.all_ids().filter(|&id| doc.is_element(id)) {
            let flag = if access.contains(id) { "1" } else { "0" };
            let own = doc.attributes(id);
            for (name, value) in own {
                let value = if name == ACCESS_ATTR { flag } else { value };
                owners.push(id.index() as u32);
                entries.push((name.clone(), value.to_string()));
            }
            if !own.iter().any(|(name, _)| name == ACCESS_ATTR) {
                owners.push(id.index() as u32);
                entries.push((ACCESS_ATTR.to_string(), flag.to_string()));
            }
        }
        let mut cols = doc.columns().clone();
        cols.attr_nodes = U32s::from_vec(owners);
        cols.attr_entries = entries.into();
        Document::from_packed(cols).expect("one attribute owner per entry")
    }

    /// Rewrite a view query with the paper's two rules.
    pub fn rewrite(p: &Path) -> Path {
        Path::filter(widen(p), Qualifier::AttrEq(ACCESS_ATTR.to_string(), "1".to_string()))
    }
}

/// Rule 2: replace each child axis with the descendant axis.
fn widen(p: &Path) -> Path {
    match p {
        Path::Empty | Path::EmptySet | Path::Doc => p.clone(),
        // text() widens like any other child step; note that the trailing
        // accessibility filter cannot apply to text nodes (element-level
        // annotations), so the baseline under-returns on text queries — a
        // real limitation of the element-annotation model.
        Path::Label(_) | Path::Wildcard | Path::Text => Path::descendant(p.clone()),
        Path::Step(a, b) => Path::step(widen(a), widen(b)),
        // Already a descendant axis: widen only below it, and collapse the
        // `//(//x)` the inner widening would produce.
        Path::Descendant(inner) => match widen(inner) {
            Path::Descendant(x) => Path::descendant(*x),
            other => Path::descendant(other),
        },
        // Widening inside a closure body keeps the closure semantics
        // sound under the view-edge-to-document-path mapping.
        Path::Closure(inner) => Path::closure(widen(inner)),
        Path::Union(a, b) => Path::union(widen(a), widen(b)),
        Path::Filter(base, q) => Path::filter(widen(base), widen_qual(q)),
    }
}

fn widen_qual(q: &Qualifier) -> Qualifier {
    match q {
        Qualifier::Path(p) => Qualifier::path(widen(p)),
        Qualifier::Eq(p, c) => Qualifier::Eq(widen(p), c.clone()),
        Qualifier::And(a, b) => Qualifier::and(widen_qual(a), widen_qual(b)),
        Qualifier::Or(a, b) => Qualifier::or(widen_qual(a), widen_qual(b)),
        Qualifier::Not(inner) => Qualifier::not(widen_qual(inner)),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxv_dtd::parse_dtd;
    use sxv_xml::parse as parse_xml;
    use sxv_xpath::{eval_at_root, parse};

    #[test]
    fn rewriting_rules_match_paper_q1() {
        // Q1: //buyer-info/contact-info →
        //     //buyer-info//contact-info[@accessibility="1"]
        let p = parse("//buyer-info/contact-info").unwrap();
        let n = NaiveBaseline::rewrite(&p);
        assert_eq!(n.to_string(), "(//buyer-info//contact-info)[@accessibility='1']");
    }

    #[test]
    fn widening_inside_qualifiers() {
        let p = parse("//buyer-info[company-id and contact-info]").unwrap();
        let n = NaiveBaseline::rewrite(&p);
        let s = n.to_string();
        assert!(s.contains("//company-id"), "{s}");
        assert!(s.contains("//contact-info"), "{s}");
        assert!(s.ends_with("[@accessibility='1']"), "{s}");
    }

    #[test]
    fn no_double_descendant() {
        let p = parse("//a//b").unwrap();
        let n = NaiveBaseline::rewrite(&p);
        assert_eq!(n.to_string(), "(//a//b)[@accessibility='1']");
    }

    #[test]
    fn annotation_flags_elements() {
        let dtd = parse_dtd("<!ELEMENT r (a, b)><!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>", "r")
            .unwrap();
        let spec = AccessSpec::builder(&dtd).deny("r", "b").build().unwrap();
        let doc = parse_xml("<r><a>pub</a><b>sec</b></r>").unwrap();
        let annotated = NaiveBaseline::annotate(&spec, &doc);
        let root = annotated.root().unwrap();
        assert_eq!(annotated.attribute(root, ACCESS_ATTR), Some("1"));
        let a = annotated.children(root)[0];
        let b = annotated.children(root)[1];
        assert_eq!(annotated.attribute(a, ACCESS_ATTR), Some("1"));
        assert_eq!(annotated.attribute(b, ACCESS_ATTR), Some("0"));
        // The original document is untouched.
        assert_eq!(doc.attribute(root, ACCESS_ATTR), None);
    }

    #[test]
    fn naive_answers_filter_inaccessible() {
        let dtd = parse_dtd("<!ELEMENT r (a, b)><!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>", "r")
            .unwrap();
        let spec = AccessSpec::builder(&dtd).deny("r", "b").build().unwrap();
        let doc = parse_xml("<r><a>pub</a><b>sec</b></r>").unwrap();
        let annotated = NaiveBaseline::annotate(&spec, &doc);
        let allowed = eval_at_root(&annotated, &NaiveBaseline::rewrite(&parse("a").unwrap()));
        assert_eq!(allowed.len(), 1);
        let blocked = eval_at_root(&annotated, &NaiveBaseline::rewrite(&parse("b").unwrap()));
        assert!(blocked.is_empty());
        let wild = eval_at_root(&annotated, &NaiveBaseline::rewrite(&parse("*").unwrap()));
        assert_eq!(wild.len(), 1, "only the accessible element");
    }
}
