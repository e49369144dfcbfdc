//! Materialization semantics of security views — §3.3 of the paper.
//!
//! **Views are never materialized on the query path** (that is the whole
//! point of query rewriting); this module implements the top-down
//! materialization procedure of §3.3 because it *defines* the semantics of
//! a view, and the test-suite uses it to check soundness/completeness of
//! `derive` and the equivalence guarantee of `rewrite`
//! (`p(T_v) = p_t(T)`).
//!
//! The construction expands the partial view tree leaf by leaf, evaluating
//! the σ annotation for each child type; it *aborts* when the extracted
//! data does not fit the view production (cases 2–4 of §3.3). Dummy
//! children extract the inaccessible document node they rename, so the
//! accessibility filter applies only to real-labelled children.

use crate::accessibility::{self, Accessibility};
use crate::error::{Error, Result};
use crate::spec::AccessSpec;
use crate::view::def::{SecurityView, ViewContent, ViewItem};
use sxv_xml::{Document, DocumentBuilder, NodeId};
use sxv_xpath::eval;

/// A materialized view tree plus the mapping back to source nodes.
#[derive(Debug, Clone)]
pub struct Materialized {
    /// The view document `T_v` (conforms to the view DTD).
    pub doc: Document,
    /// `source[view_node.index()]` = the document node this view node was
    /// extracted from (text nodes map to the source text node).
    pub source: Vec<NodeId>,
}

impl Materialized {
    /// Source document node of a view node.
    pub fn source_of(&self, view_node: NodeId) -> NodeId {
        self.source[view_node.index()]
    }

    /// Map a set of view nodes to their source nodes (keeps order).
    pub fn sources_of(&self, view_nodes: &[NodeId]) -> Vec<NodeId> {
        view_nodes.iter().map(|&v| self.source_of(v)).collect()
    }
}

/// Materialize the view of `doc` defined by `view` w.r.t. `spec`.
pub fn materialize(spec: &AccessSpec, view: &SecurityView, doc: &Document) -> Result<Materialized> {
    let access = accessibility::compute(spec, doc);
    let source_root = doc.root().map_err(|_| Error::MaterializeAbort {
        node: "<document>".into(),
        message: "document is empty".into(),
    })?;
    let mut out = DocumentBuilder::new();
    let view_root = out.create_root(view.root()).expect("fresh document has no root");
    let mut m = Materializer { view, doc, access, out, source: vec![source_root] };
    m.copy_attributes(view_root, view.root(), source_root);
    m.expand(view_root, view.root(), source_root)?;
    Ok(Materialized { doc: m.out.finish(), source: m.source })
}

struct Materializer<'a> {
    view: &'a SecurityView,
    doc: &'a Document,
    access: Accessibility,
    out: DocumentBuilder,
    source: Vec<NodeId>,
}

impl<'a> Materializer<'a> {
    fn abort(&self, label: &str, message: impl Into<String>) -> Error {
        Error::MaterializeAbort { node: format!("<{label}>"), message: message.into() }
    }

    /// Extract the children of view node `v` (type `label`, source `src`).
    fn expand(&mut self, v: NodeId, label: &str, src: NodeId) -> Result<()> {
        let production = self
            .view
            .production(label)
            .ok_or_else(|| self.abort(label, "no view production"))?
            .clone();
        match production {
            ViewContent::Empty => Ok(()),
            ViewContent::Str => {
                // Case (2): the text content of the source element.
                for &c in self.doc.children(src) {
                    if let Some(t) = self.doc.text_opt(c) {
                        let tv = self.out.append_text(v, t);
                        debug_assert_eq!(tv.index(), self.source.len());
                        self.source.push(c);
                    }
                }
                Ok(())
            }
            ViewContent::Seq(items) => {
                for item in items {
                    let b = item.name();
                    let extracted = self.extract(label, b, src)?;
                    match item {
                        // Case (3): exactly one node.
                        ViewItem::One(_) => {
                            if extracted.len() != 1 {
                                return Err(self.abort(
                                    label,
                                    format!(
                                        "σ({label}, {b}) selected {} nodes, expected 1",
                                        extracted.len()
                                    ),
                                ));
                            }
                            self.attach(v, b, extracted[0])?;
                        }
                        // Compact form: all nodes, in document order.
                        ViewItem::Many(_) => {
                            for n in extracted {
                                self.attach(v, b, n)?;
                            }
                        }
                    }
                }
                Ok(())
            }
            ViewContent::Choice { alternatives, optional } => {
                // Case (4): exactly one alternative yields exactly one node
                // (zero allowed when a hidden branch was pruned).
                let mut hits: Vec<(&str, NodeId)> = Vec::new();
                for b in &alternatives {
                    for n in self.extract(label, b, src)? {
                        hits.push((b, n));
                    }
                }
                match hits.as_slice() {
                    [] if optional => Ok(()),
                    [] => Err(self.abort(label, "no choice alternative matched")),
                    &[(b, n)] => self.attach(v, b, n),
                    many => Err(self.abort(
                        label,
                        format!("{} choice alternatives matched, expected 1", many.len()),
                    )),
                }
            }
            ViewContent::Star(b) => {
                // Case (5): all nodes, in document order.
                for n in self.extract(label, &b, src)? {
                    self.attach(v, &b, n)?;
                }
                Ok(())
            }
        }
    }

    /// Evaluate σ(parent, child) at `src`, filtering to accessible nodes
    /// for real child labels (dummies extract structural placeholders).
    fn extract(&self, parent: &str, child: &str, src: NodeId) -> Result<Vec<NodeId>> {
        let sigma = self
            .view
            .sigma(parent, child)
            .ok_or_else(|| self.abort(parent, format!("missing σ({parent}, {child})")))?;
        let mut nodes = eval(self.doc, sigma, &[src]);
        if !SecurityView::is_dummy(child) {
            nodes.retain(|&n| self.access.is_accessible(n));
        }
        Ok(nodes)
    }

    /// Create the view child and recurse.
    fn attach(&mut self, parent: NodeId, label: &str, src: NodeId) -> Result<()> {
        let child = self.out.append_element(parent, label);
        debug_assert_eq!(child.index(), self.source.len());
        self.source.push(src);
        self.copy_attributes(child, label, src);
        self.expand(child, label, src)
    }

    /// Copy the attributes of the source node that the view exposes.
    fn copy_attributes(&mut self, view_node: NodeId, label: &str, src: NodeId) {
        for attr in self.view.visible_attributes(label) {
            if let Some(value) = self.doc.attribute(src, attr) {
                let value = value.to_string();
                self.out
                    .set_attribute(view_node, attr.clone(), value)
                    .expect("view node is an element");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accessibility;
    use crate::view::derive::derive_view;
    use sxv_dtd::parse_dtd;
    use sxv_xml::parse as parse_xml;

    fn hospital_dtd() -> sxv_dtd::Dtd {
        parse_dtd(
            r#"
<!ELEMENT hospital (dept*)>
<!ELEMENT dept (clinicalTrial, patientInfo, staffInfo)>
<!ELEMENT clinicalTrial (patientInfo, test)>
<!ELEMENT patientInfo (patient*)>
<!ELEMENT patient (name, wardNo, treatment)>
<!ELEMENT treatment (trial | regular)>
<!ELEMENT trial (bill)>
<!ELEMENT regular (bill, medication)>
<!ELEMENT staffInfo (staff*)>
<!ELEMENT staff (doctor | nurse)>
<!ELEMENT doctor (name)>
<!ELEMENT nurse (name)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT wardNo (#PCDATA)>
<!ELEMENT bill (#PCDATA)>
<!ELEMENT medication (#PCDATA)>
<!ELEMENT test (#PCDATA)>
"#,
            "hospital",
        )
        .unwrap()
    }

    fn nurse_spec() -> AccessSpec {
        AccessSpec::builder(&hospital_dtd())
            .bind("wardNo", "6")
            .cond_str("hospital", "dept", "*/patient/wardNo=$wardNo")
            .unwrap()
            .deny("dept", "clinicalTrial")
            .allow("clinicalTrial", "patientInfo")
            .deny("clinicalTrial", "test")
            .deny("treatment", "trial")
            .deny("treatment", "regular")
            .allow("trial", "bill")
            .allow("regular", "bill")
            .allow("regular", "medication")
            .build()
            .unwrap()
    }

    fn hospital_doc() -> Document {
        parse_xml(
            r#"<hospital>
  <dept>
    <clinicalTrial>
      <patientInfo>
        <patient><name>Ann</name><wardNo>6</wardNo>
          <treatment><trial><bill>100</bill></trial></treatment>
        </patient>
      </patientInfo>
      <test>t1</test>
    </clinicalTrial>
    <patientInfo>
      <patient><name>Bob</name><wardNo>6</wardNo>
        <treatment><regular><bill>70</bill><medication>m1</medication></regular></treatment>
      </patient>
    </patientInfo>
    <staffInfo><staff><nurse><name>Sue</name></nurse></staff></staffInfo>
  </dept>
  <dept>
    <clinicalTrial><patientInfo/><test>t2</test></clinicalTrial>
    <patientInfo>
      <patient><name>Cat</name><wardNo>7</wardNo>
        <treatment><regular><bill>30</bill><medication>m2</medication></regular></treatment>
      </patient>
    </patientInfo>
    <staffInfo/>
  </dept>
</hospital>"#,
        )
        .unwrap()
    }

    /// Example 3.3: the nurse view of the hospital document.
    #[test]
    fn nurse_view_materializes_like_example_3_3() {
        let spec = nurse_spec();
        let view = derive_view(&spec).unwrap();
        let doc = hospital_doc();
        let m = materialize(&spec, &view, &doc).unwrap();
        let v = &m.doc;
        let root = v.root().unwrap();
        assert_eq!(v.label(root).unwrap(), "hospital");
        // Only the ward-6 dept survives the qualifier.
        let depts = v.children(root);
        assert_eq!(depts.len(), 1);
        // dept has two patientInfo children (direct + ex-clinicalTrial) and
        // one staffInfo.
        let labels: Vec<&str> = v.children(depts[0]).iter().map(|&c| v.label(c).unwrap()).collect();
        assert_eq!(labels, ["patientInfo", "patientInfo", "staffInfo"]);
        // No clinicalTrial / trial / regular / test labels anywhere.
        for id in v.all_ids() {
            if let Some(l) = v.label_opt(id) {
                assert!(
                    !matches!(l, "clinicalTrial" | "trial" | "regular" | "test"),
                    "hidden label {l} leaked"
                );
            }
        }
        // Treatments exist and contain dummies wrapping bill/medication.
        let treatments: Vec<_> =
            v.all_ids().filter(|&i| v.label_opt(i) == Some("treatment")).collect();
        assert_eq!(treatments.len(), 2, "Ann and Bob");
        for t in &treatments {
            let kids = v.children(*t);
            assert_eq!(kids.len(), 1);
            assert!(SecurityView::is_dummy(v.label(kids[0]).unwrap()));
        }
        // Ann (trial patient) surfaces with her bill but no trial label.
        let names: Vec<String> = v
            .all_ids()
            .filter(|&i| v.label_opt(i) == Some("name"))
            .map(|i| v.string_value(i))
            .collect();
        assert!(names.contains(&"Ann".to_string()));
        assert!(names.contains(&"Bob".to_string()));
        assert!(names.contains(&"Sue".to_string()));
        assert!(!names.contains(&"Cat".to_string()), "ward-7 data hidden");
    }

    /// Soundness & completeness (§3.3 definition): the view's real-labelled
    /// nodes are exactly the accessible document nodes.
    #[test]
    fn view_nodes_are_exactly_accessible_nodes() {
        let spec = nurse_spec();
        let view = derive_view(&spec).unwrap();
        let doc = hospital_doc();
        let access = accessibility::compute(&spec, &doc);
        let m = materialize(&spec, &view, &doc).unwrap();

        use std::collections::BTreeSet;
        let mut view_sources: BTreeSet<NodeId> = BTreeSet::new();
        for id in m.doc.all_ids() {
            let is_dummy_elem = m.doc.label_opt(id).map(SecurityView::is_dummy).unwrap_or(false);
            if !is_dummy_elem {
                view_sources.insert(m.source_of(id));
            }
        }
        let accessible: BTreeSet<NodeId> = access.accessible_ids().collect();
        assert_eq!(view_sources, accessible);
    }

    #[test]
    fn empty_spec_view_is_identity() {
        let dtd = hospital_dtd();
        let spec = AccessSpec::builder(&dtd).build().unwrap();
        let view = derive_view(&spec).unwrap();
        let doc = hospital_doc();
        let m = materialize(&spec, &view, &doc).unwrap();
        assert_eq!(sxv_xml::to_string(&m.doc), sxv_xml::to_string(&doc));
    }

    #[test]
    fn materialized_view_conforms_to_text_semantics() {
        // str productions copy text with sources recorded.
        let dtd = parse_dtd("<!ELEMENT r (a)><!ELEMENT a (#PCDATA)>", "r").unwrap();
        let spec = AccessSpec::builder(&dtd).build().unwrap();
        let view = derive_view(&spec).unwrap();
        let doc = parse_xml("<r><a>hi</a></r>").unwrap();
        let m = materialize(&spec, &view, &doc).unwrap();
        assert_eq!(m.doc.string_value(m.doc.root().unwrap()), "hi");
        let a_view = m.doc.children(m.doc.root().unwrap())[0];
        let t_view = m.doc.children(a_view)[0];
        assert_eq!(doc.text(m.source_of(t_view)).unwrap(), "hi");
    }

    #[test]
    fn optional_choice_tolerates_hidden_branch() {
        let dtd =
            parse_dtd("<!ELEMENT t (x | y)><!ELEMENT x (#PCDATA)><!ELEMENT y (#PCDATA)>", "t")
                .unwrap();
        let spec = AccessSpec::builder(&dtd).deny("t", "x").build().unwrap();
        let view = derive_view(&spec).unwrap();
        // Document that took the hidden branch: view t has no children.
        let doc = parse_xml("<t><x>secret</x></t>").unwrap();
        let m = materialize(&spec, &view, &doc).unwrap();
        assert!(m.doc.children(m.doc.root().unwrap()).is_empty());
        // Document on the visible branch: y survives.
        let doc2 = parse_xml("<t><y>ok</y></t>").unwrap();
        let m2 = materialize(&spec, &view, &doc2).unwrap();
        assert_eq!(m2.doc.children(m2.doc.root().unwrap()).len(), 1);
    }

    #[test]
    fn empty_document_aborts() {
        let dtd = parse_dtd("<!ELEMENT r EMPTY>", "r").unwrap();
        let spec = AccessSpec::builder(&dtd).build().unwrap();
        let view = derive_view(&spec).unwrap();
        let e = materialize(&spec, &view, &Document::new()).unwrap_err();
        assert!(matches!(e, Error::MaterializeAbort { .. }));
    }

    /// Theorem 3.2 is an iff: a conditional annotation on a *required*
    /// (concatenation) child admits no sound & complete view — documents
    /// failing the qualifier make materialization abort (§3.3 case 3).
    #[test]
    fn required_child_with_false_qualifier_aborts() {
        let dtd = parse_dtd("<!ELEMENT r (a, b)><!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>", "r")
            .unwrap();
        let spec =
            AccessSpec::builder(&dtd).cond_str("r", "a", ".='keep'").unwrap().build().unwrap();
        let view = derive_view(&spec).unwrap();
        // Qualifier holds: fine.
        let good = parse_xml("<r><a>keep</a><b>x</b></r>").unwrap();
        materialize(&spec, &view, &good).unwrap();
        // Qualifier fails: the view production r → a, b cannot be filled.
        let bad = parse_xml("<r><a>drop</a><b>x</b></r>").unwrap();
        let e = materialize(&spec, &view, &bad).unwrap_err();
        assert!(matches!(e, Error::MaterializeAbort { .. }), "expected abort, got {e:?}");
        assert!(e.to_string().contains("expected 1"), "{e}");
    }

    /// A non-optional choice whose alternatives both fail aborts (§3.3
    /// case 4).
    #[test]
    fn choice_with_conditional_alternatives_aborts_when_none_match() {
        let dtd =
            parse_dtd("<!ELEMENT t (x | y)><!ELEMENT x (#PCDATA)><!ELEMENT y (#PCDATA)>", "t")
                .unwrap();
        let spec = AccessSpec::builder(&dtd)
            .cond_str("t", "x", ".='ok'")
            .unwrap()
            .cond_str("t", "y", ".='ok'")
            .unwrap()
            .build()
            .unwrap();
        let view = derive_view(&spec).unwrap();
        materialize(&spec, &view, &parse_xml("<t><x>ok</x></t>").unwrap()).unwrap();
        let e = materialize(&spec, &view, &parse_xml("<t><x>no</x></t>").unwrap()).unwrap_err();
        assert!(matches!(e, Error::MaterializeAbort { .. }));
    }

    #[test]
    fn conditional_annotation_filters_at_materialization() {
        let dtd =
            parse_dtd("<!ELEMENT r (a*)><!ELEMENT a (b)><!ELEMENT b (#PCDATA)>", "r").unwrap();
        let spec =
            AccessSpec::builder(&dtd).cond_str("r", "a", "b='keep'").unwrap().build().unwrap();
        let view = derive_view(&spec).unwrap();
        let doc = parse_xml("<r><a><b>keep</b></a><a><b>drop</b></a></r>").unwrap();
        let m = materialize(&spec, &view, &doc).unwrap();
        let kids = m.doc.children(m.doc.root().unwrap());
        assert_eq!(kids.len(), 1);
        assert_eq!(m.doc.string_value(kids[0]), "keep");
    }
}
