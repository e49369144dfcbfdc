//! Document-node accessibility — §3.2 of the paper.
//!
//! Given an instance `T` of `D` and a specification `S = (D, ann)`, a node
//! `v` (with parent label `A`, own label `B`, so `ann(v) = ann(A, B)`) is
//! **accessible** iff
//!
//! 1. `ann(v) = Y`, or `ann(v) = [q]` and `q` holds at `v`, **and** for
//!    every ancestor `v'` with `ann(v') = [q']`, `q'` holds at `v'`; or
//! 2. `ann(v)` is not explicitly defined and `v`'s parent is accessible.
//!
//! The root is accessible (annotated `Y` by default). Note that `N` does
//! *not* poison a subtree — an explicitly allowed descendant of a denied
//! node is accessible (that is what makes short-cutting in `derive`
//! meaningful) — but a *false qualifier* does, because rule 1 requires all
//! ancestor qualifiers to hold.

use crate::spec::{AccessSpec, Annotation};
use sxv_xml::{DocIndex, Document, LabelId, NodeBitmap, NodeId};
use sxv_xpath::{compile, eval_qualifier, CostModel, Path, PlanPolicy, Qualifier};

/// Per-node accessibility, indexed by [`NodeId::index`].
#[derive(Debug, Clone)]
pub struct Accessibility {
    flags: NodeBitmap,
}

impl Accessibility {
    /// Is `id` accessible?
    pub fn is_accessible(&self, id: NodeId) -> bool {
        self.flags.contains(id)
    }

    /// Ids of all accessible nodes, in document order.
    pub fn accessible_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.flags.iter()
    }

    /// Number of accessible nodes.
    pub fn count(&self) -> usize {
        self.flags.count_ones()
    }

    /// The underlying accessibility bitmap.
    pub fn bitmap(&self) -> &NodeBitmap {
        &self.flags
    }
}

/// Compute the accessibility of every node of `doc` w.r.t. `spec`
/// (Prop. 3.1: uniquely defined for every node). Each conditional
/// annotation is decided per node by the reference interpreter, so this
/// is the oracle the §3.3 materialization builds on.
pub fn compute(spec: &AccessSpec, doc: &Document) -> Accessibility {
    Accessibility { flags: propagate(spec, doc, |q, v| eval_qualifier(doc, q, v)) }
}

/// Compute the §3.2 accessibility of every node as a dense [`NodeBitmap`]
/// — the serving pass. Each conditional annotation `ann(A, B) = [q]` is
/// answered set-at-a-time: one compiled plan for `//B[q]`, executed over
/// `index` when one is given, and each `B` child of an `A` reads its
/// bit from the result. One pre-order pass then propagates inheritance
/// and overriding down the traversal stack.
pub fn compute_accessibility(
    spec: &AccessSpec,
    doc: &Document,
    index: Option<&DocIndex>,
) -> NodeBitmap {
    let mut holds = NodeBitmap::new(doc.len());
    // Built at the first conditional edge: most specs have none.
    let mut cost = None;
    for (parent, child, ann) in spec.annotations() {
        let Annotation::Cond(q) = ann else { continue };
        let cost = cost
            .get_or_insert_with(|| index.map_or_else(CostModel::uninformed, CostModel::from_index));
        let p = Path::descendant(Path::filter(Path::label(child), q.clone()));
        // A `B` under another parent answers to that parent's annotation.
        for v in compile(&p, PlanPolicy::Auto, cost).execute(doc, index).0 {
            if doc.parent(v).and_then(|u| doc.label_opt(u)) == Some(parent) {
                holds.set(v);
            }
        }
    }
    propagate(spec, doc, |_, v| holds.contains(v))
}

/// The spec's edge annotations over one document's label ids, built
/// once per pass so classifying a node costs no `String` and no
/// `BTreeMap` lookup. Indexed by the child's [`LabelId`]; each entry
/// lists the annotated parents of that child type (rarely more than
/// one). Edges naming a label the document lacks never match a node and
/// are left out.
struct EdgeTable<'s> {
    by_child: Vec<Vec<(LabelId, &'s Annotation)>>,
}

impl<'s> EdgeTable<'s> {
    fn new(spec: &'s AccessSpec, doc: &Document) -> EdgeTable<'s> {
        let mut by_child = vec![Vec::new(); doc.label_table().len()];
        for (parent, child, ann) in spec.annotations() {
            if let (Some(p), Some(c)) = (doc.label_id(parent), doc.label_id(child)) {
                by_child[c.index()].push((p, ann));
            }
        }
        EdgeTable { by_child }
    }

    /// `ann(parent, child)`, if explicitly defined.
    fn get(&self, parent: LabelId, child: LabelId) -> Option<&'s Annotation> {
        self.by_child[child.index()].iter().find(|(p, _)| *p == parent).map(|&(_, ann)| ann)
    }
}

/// The pre-order pass shared by both entry points; `holds(q, v)` decides
/// a conditional annotation `[q]` at node `v`.
fn propagate(
    spec: &AccessSpec,
    doc: &Document,
    holds: impl Fn(&Qualifier, NodeId) -> bool,
) -> NodeBitmap {
    let mut flags = NodeBitmap::new(doc.len());
    let Some(root) = doc.root_opt() else {
        return flags;
    };
    let edges = EdgeTable::new(spec, doc);
    // Stack entries: (node, parent label, parent_accessible,
    // ancestor_qualifiers_ok); only the root has no parent label.
    let mut stack: Vec<(NodeId, Option<LabelId>, bool, bool)> = vec![(root, None, true, true)];
    while let Some((v, parent, parent_accessible, anc_ok)) = stack.pop() {
        let label = doc.label_id_of(v);
        // Returns `(accessible, own qualifier holds or absent)`.
        let (accessible, own_qual_ok) = match (parent, label) {
            // The root: Y by default, no ancestors.
            (None, _) => (true, true),
            // Text nodes inherit from their element parent (the paper's
            // `str` children carry no annotation key of their own in
            // our model).
            (Some(_), None) => (parent_accessible, true),
            (Some(parent), Some(label)) => match edges.get(parent, label) {
                None => (parent_accessible, true),
                Some(Annotation::Allow) => (anc_ok, true),
                Some(Annotation::Deny) => (false, true),
                Some(Annotation::Cond(q)) => {
                    let holds = holds(q, v);
                    (anc_ok && holds, holds)
                }
            },
        };
        if accessible {
            flags.set(v);
        }
        let child_anc_ok = anc_ok && own_qual_ok;
        for &c in doc.children(v) {
            stack.push((c, label, accessible, child_anc_ok));
        }
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AccessSpec;
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

    fn nurse_spec(ward: &str) -> AccessSpec {
        AccessSpec::builder(&hospital_dtd())
            .bind("wardNo", ward)
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

    fn doc() -> Document {
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

    fn find(doc: &Document, label: &str) -> Vec<NodeId> {
        doc.all_ids().filter(|&i| doc.label_opt(i) == Some(label)).collect()
    }

    #[test]
    fn root_always_accessible() {
        let d = doc();
        let acc = compute(&nurse_spec("6"), &d);
        assert!(acc.is_accessible(d.root().unwrap()));
    }

    #[test]
    fn deny_blocks_node_but_not_allowed_descendants() {
        let d = doc();
        let acc = compute(&nurse_spec("6"), &d);
        let trials = find(&d, "clinicalTrial");
        // First dept matches ward 6; its clinicalTrial node itself is N.
        assert!(!acc.is_accessible(trials[0]));
        // But the patientInfo *inside* it is explicitly Y → accessible.
        let inner_pi = d
            .children(trials[0])
            .iter()
            .copied()
            .find(|&c| d.label_opt(c) == Some("patientInfo"))
            .unwrap();
        assert!(acc.is_accessible(inner_pi));
        // test is N with no accessible descendants.
        let inner_test = d
            .children(trials[0])
            .iter()
            .copied()
            .find(|&c| d.label_opt(c) == Some("test"))
            .unwrap();
        assert!(!acc.is_accessible(inner_test));
    }

    #[test]
    fn false_ancestor_qualifier_poisons_subtree() {
        let d = doc();
        let acc = compute(&nurse_spec("6"), &d);
        let depts = find(&d, "dept");
        assert!(acc.is_accessible(depts[0]), "ward-6 dept matches the qualifier");
        assert!(!acc.is_accessible(depts[1]), "ward-7 dept fails the qualifier");
        // Everything under the failing dept is inaccessible, even nodes
        // whose own annotation is Y (clinicalTrial/patientInfo).
        let trials = find(&d, "clinicalTrial");
        let second_pi = d
            .children(trials[1])
            .iter()
            .copied()
            .find(|&c| d.label_opt(c) == Some("patientInfo"))
            .unwrap();
        assert!(!acc.is_accessible(second_pi));
        let cat = find(&d, "name").iter().copied().find(|&n| d.string_value(n) == "Cat");
        assert!(!acc.is_accessible(cat.unwrap()));
    }

    #[test]
    fn inheritance_follows_parent() {
        let d = doc();
        let acc = compute(&nurse_spec("6"), &d);
        // staffInfo has no annotation anywhere → inherits dept.
        let staff_infos = find(&d, "staffInfo");
        assert!(acc.is_accessible(staff_infos[0]));
        assert!(!acc.is_accessible(staff_infos[1]));
        // trial/regular are denied; their bill children are Y.
        for trial in find(&d, "trial") {
            assert!(!acc.is_accessible(trial));
        }
        let bills = find(&d, "bill");
        assert!(acc.is_accessible(bills[0]), "bill under accessible dept");
        assert!(acc.is_accessible(bills[1]));
        assert!(!acc.is_accessible(bills[2]), "bill under ward-7 dept");
    }

    #[test]
    fn text_nodes_inherit_parent() {
        let d = doc();
        let acc = compute(&nurse_spec("6"), &d);
        let bills = find(&d, "bill");
        let text = d.children(bills[0])[0];
        assert!(acc.is_accessible(text));
        let blocked_text = d.children(bills[2])[0];
        assert!(!acc.is_accessible(blocked_text));
    }

    #[test]
    fn accessible_ids_sorted_and_counted() {
        let d = doc();
        let acc = compute(&nurse_spec("6"), &d);
        let ids: Vec<_> = acc.accessible_ids().collect();
        assert_eq!(ids.len(), acc.count());
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
        assert!(acc.count() > 0);
        assert!(acc.count() < d.len());
    }

    #[test]
    fn empty_spec_grants_everything() {
        let d = doc();
        let spec = AccessSpec::builder(&hospital_dtd()).build().unwrap();
        let acc = compute(&spec, &d);
        assert_eq!(acc.count(), d.len());
    }

    #[test]
    fn indexed_bitmap_matches_unindexed() {
        // The serving pass (one compiled `//B[q]` plan per conditional
        // edge, with and without an index) must equal the oracle, which
        // decides every `[q]` per node with the walk evaluator.
        let d = doc();
        let idx = sxv_xml::DocIndex::new(&d).unwrap();
        let dtd = hospital_dtd();
        let cond = |rules: &[(&str, &str, &str)]| {
            let b = rules.iter().fold(AccessSpec::builder(&dtd), |b, &(parent, child, q)| {
                b.cond_str(parent, child, q).unwrap()
            });
            b.build().unwrap()
        };
        let specs = [
            ("nurse 6", nurse_spec("6")),
            ("nurse 7", nurse_spec("7")),
            ("descendant", cond(&[("hospital", "dept", "//wardNo='6'")])),
            (
                "string value",
                cond(&[("patient", "wardNo", ".='6'"), ("patientInfo", "patient", "name='Bob'")]),
            ),
            // `bill` also sits under `regular`: each edge's `//bill[q]`
            // may only decide the bills of its own parent type (the
            // `30` bill satisfies the trial qualifier, not its own).
            (
                "shared child label",
                cond(&[("trial", "bill", ".='100' or .='30'"), ("regular", "bill", ".='70'")]),
            ),
        ];
        for (name, spec) in &specs {
            // Every spec reaches the conditional path with both outcomes.
            let outcomes: std::collections::BTreeSet<bool> = d
                .all_ids()
                .filter_map(|v| {
                    let parent = d.label_opt(d.parent(v)?)?;
                    match spec.annotation(parent, d.label_opt(v)?)? {
                        Annotation::Cond(q) => Some(eval_qualifier(&d, q, v)),
                        _ => None,
                    }
                })
                .collect();
            assert_eq!(outcomes.len(), 2, "{name}");
            let oracle: Vec<NodeId> = compute(spec, &d).accessible_ids().collect();
            for index in [None, Some(&idx)] {
                let serving = compute_accessibility(spec, &d, index);
                assert_eq!(serving.to_ids(), oracle, "{name}, index: {}", index.is_some());
            }
        }
    }

    #[test]
    fn empty_document_handled() {
        let spec = AccessSpec::builder(&hospital_dtd()).build().unwrap();
        let acc = compute(&spec, &Document::new());
        assert_eq!(acc.count(), 0);
    }
}
