//! # Accessibility-bitmap artifacts for annotation-based serving
//!
//! The third serving approach ([`crate::Approach::Annotate`]) answers
//! view queries by evaluating them **directly over the document**,
//! filtering every step through an [`AccessView`] — a per-(spec, doc)
//! record of which document nodes appear in the §3.3 materialized view,
//! under which label, and under which view parent. This module builds
//! that artifact by mirroring the materialization procedure's top-down
//! σ expansion, without constructing a view document: membership and
//! view-parent edges are recorded into dense [`sxv_xml::NodeBitmap`]s
//! and flat tables instead.
//!
//! The expansion is *tolerant* where §3.3 aborts (cases 3–4: a `One`
//! item or `Choice` selecting more than one node records them all), so
//! an artifact exists for every document; on documents where
//! materialization succeeds — the only ones on which view-query
//! semantics is defined — the recorded membership coincides with the
//! materialized view's source mapping, which is what makes annotate
//! answers equal rewrite answers (pinned by the workspace property
//! suite).

use crate::accessibility::compute_accessibility;
use crate::spec::AccessSpec;
use crate::view::def::{SecurityView, ViewContent};
use std::collections::BTreeMap;
use sxv_xml::{DocIndex, Document, NodeId};
use sxv_xpath::{eval, is_dummy_label, AccessView};

/// Build the [`AccessView`] of `doc` under `spec` / `view`: one §3.2
/// accessibility pass (index-accelerated when `index` is given), then
/// one top-down σ expansion recording view membership, dummy renames,
/// view parents and visible attributes.
pub fn build_access_view(
    spec: &AccessSpec,
    view: &SecurityView,
    doc: &Document,
    index: Option<&DocIndex>,
) -> AccessView {
    let accessible = compute_accessibility(spec, doc, index);
    let mut av = AccessView::new(doc.len());
    av.set_accessible_count(accessible.count_ones());
    let mut attrs = BTreeMap::new();
    for (name, _) in view.productions() {
        let visible = view.visible_attributes(name);
        if !visible.is_empty() {
            attrs.insert(name.clone(), visible.to_vec());
        }
    }
    av.set_visible_attrs(attrs);
    let Some(root) = doc.root_opt() else {
        av.finalize();
        return av;
    };
    av.record_root(root);
    // (view label, source node) pairs still to expand. Every pushed
    // source is a strict descendant of its parent's source and each
    // document node is recorded (hence pushed) at most once, so the
    // loop terminates in at most `doc.len()` expansions.
    let mut stack: Vec<(&str, NodeId)> = vec![(view.root(), root)];
    while let Some((label, src)) = stack.pop() {
        let Some(production) = view.production(label) else { continue };
        match production {
            ViewContent::Empty => {}
            ViewContent::Str => {
                // §3.3 case (2): the text children of the source.
                for &c in doc.children(src) {
                    if doc.is_text(c) && !av.is_recorded(c) {
                        av.record_member(c, src, false);
                    }
                }
            }
            content => {
                for child_label in content.child_types() {
                    let Some(sigma) = view.sigma(label, child_label) else { continue };
                    for hit in eval(doc, sigma, &[src]) {
                        // σ paths only descend, but guard the invariants
                        // the traversal relies on anyway.
                        if hit <= src {
                            continue;
                        }
                        // Real-labelled children extract accessible
                        // nodes only; dummies rename inaccessible ones
                        // (the same filter materialization applies).
                        if !is_dummy_label(child_label) && !accessible.contains(hit) {
                            continue;
                        }
                        if av.is_recorded(hit) {
                            continue;
                        }
                        if is_dummy_label(child_label) {
                            av.record_dummy(hit, src, child_label);
                        } else {
                            av.record_member(hit, src, doc.is_element(hit));
                        }
                        stack.push((child_label, hit));
                    }
                }
            }
        }
    }
    av.finalize();
    av
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::derive::derive_view;
    use crate::view::materialize::materialize;
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

    /// The recorded membership must coincide with the materialized
    /// view's source mapping: same member sources, same dummy sources,
    /// same view-parent edges.
    #[test]
    fn membership_mirrors_materialization() {
        let spec = nurse_spec();
        let view = derive_view(&spec).unwrap();
        let doc = hospital_doc();
        let idx = DocIndex::new(&doc).unwrap();
        let av = build_access_view(&spec, &view, &doc, Some(&idx));
        let m = materialize(&spec, &view, &doc).unwrap();

        use std::collections::BTreeSet;
        let mut member_sources: BTreeSet<NodeId> = BTreeSet::new();
        let mut dummy_sources: BTreeSet<NodeId> = BTreeSet::new();
        for id in m.doc.all_ids() {
            let dummy = m.doc.label_opt(id).map(SecurityView::is_dummy).unwrap_or(false);
            if dummy {
                dummy_sources.insert(m.source_of(id));
            } else {
                member_sources.insert(m.source_of(id));
            }
        }
        assert_eq!(av.members().to_ids(), member_sources.into_iter().collect::<Vec<_>>());
        assert_eq!(av.dummies().to_ids(), dummy_sources.into_iter().collect::<Vec<_>>());
        // View parents: the source of a view node's parent.
        for id in m.doc.all_ids() {
            if let Some(p) = m.doc.parent(id) {
                assert_eq!(
                    av.view_parent(m.source_of(id)),
                    Some(m.source_of(p)),
                    "view parent of {:?}",
                    m.source_of(id)
                );
            }
        }
        assert_eq!(av.accessible_count(), av.member_count(), "all members accessible here");
    }

    #[test]
    fn indexed_and_unindexed_builds_agree() {
        let spec = nurse_spec();
        let view = derive_view(&spec).unwrap();
        let doc = hospital_doc();
        let idx = DocIndex::new(&doc).unwrap();
        let a = build_access_view(&spec, &view, &doc, Some(&idx));
        let b = build_access_view(&spec, &view, &doc, None);
        assert_eq!(a.members().to_ids(), b.members().to_ids());
        assert_eq!(a.dummies().to_ids(), b.dummies().to_ids());
        assert!(a.bytes() > 0);
    }

    #[test]
    fn empty_document_builds_empty_artifact() {
        let spec = nurse_spec();
        let view = derive_view(&spec).unwrap();
        let av = build_access_view(&spec, &view, &Document::new(), None);
        assert_eq!(av.member_count(), 0);
        assert!(av.root().is_none());
    }
}
