//! Static type-level analysis — the foundation of the `sxv lint`
//! policy/view auditor.
//!
//! Everything here is decided over the DTD alone, before any document is
//! loaded:
//!
//! * [`TypeAccessibility`] lifts the node-level accessibility semantics of
//!   §3.2 to element *types*: a fixpoint over (type, context) pairs using
//!   exactly the classification rules of algorithm `derive` (Fig. 5), so
//!   "can be accessible" coincides with "gets a view production".
//! * [`audit_view`] independently re-checks a [`SecurityView`] against its
//!   [`AccessSpec`] — *soundness* (no σ annotation exposes a type that is
//!   never accessible, and σ(A, B) only reaches `B`-labelled nodes) and
//!   *completeness* (every possibly-accessible type is reachable in the
//!   view DTD), plus heuristic dummy-inference checks in the spirit of
//!   Example 1.1.
//!
//! The auditor never trusts `derive`: it recomputes reachability through
//! the σ annotations with the §5.1 image-graph machinery over the
//! document-DTD graph. For views produced by `derive` the audit always
//! passes (a property test asserts this agreement); its purpose is to
//! catch hand-authored or corrupted view definitions at load time.

use crate::optimize::image::image;
use crate::rewrite::ViewGraph;
use crate::spec::{AccessSpec, Annotation};
use crate::view::def::{SecurityView, ViewContent, ViewItem};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use sxv_dtd::{Dtd, DtdGraph};
use sxv_xpath::Path;

/// Static accessibility of element *types* under an access specification.
///
/// A type can occur in many document contexts; the two sets record which
/// classifications are possible, mirroring `Proc_Acc`/`Proc_InAcc` of
/// Fig. 5 (conditional annotations count as accessible — the qualifier
/// moves into σ, it does not hide the type statically).
#[derive(Debug, Clone)]
pub struct TypeAccessibility {
    can_acc: BTreeSet<String>,
    can_inacc: BTreeSet<String>,
}

impl TypeAccessibility {
    /// Run the fixpoint over the specification's DTD graph.
    pub fn compute(spec: &AccessSpec) -> TypeAccessibility {
        let graph = DtdGraph::new(spec.dtd());
        let root = graph.root();
        let mut can = vec![[false; 2]; graph.len()];
        // The root is accessible by definition (§3.2).
        can[root][0] = true;
        let mut queue: VecDeque<(usize, bool)> = VecDeque::from([(root, true)]);
        while let Some((a, parent_accessible)) = queue.pop_front() {
            for &b in graph.children(a) {
                // The classification rules of `Deriver::classify`.
                let accessible = match spec.annotation(graph.name_of(a), graph.name_of(b)) {
                    Some(Annotation::Allow) | Some(Annotation::Cond(_)) => true,
                    Some(Annotation::Deny) => false,
                    None => parent_accessible,
                };
                let slot = if accessible { 0 } else { 1 };
                if !can[b][slot] {
                    can[b][slot] = true;
                    queue.push_back((b, accessible));
                }
            }
        }
        let collect = |slot: usize| {
            can.iter()
                .enumerate()
                .filter(|(_, c)| c[slot])
                .map(|(i, _)| graph.name_of(i).to_string())
                .collect()
        };
        TypeAccessibility { can_acc: collect(0), can_inacc: collect(1) }
    }

    /// Some context makes instances of this type accessible.
    pub fn can_be_accessible(&self, name: &str) -> bool {
        self.can_acc.contains(name)
    }

    /// Some context makes instances of this type inaccessible.
    pub fn can_be_inaccessible(&self, name: &str) -> bool {
        self.can_inacc.contains(name)
    }

    /// The type occurs at all under the root (in either classification).
    pub fn is_reachable(&self, name: &str) -> bool {
        self.can_acc.contains(name) || self.can_inacc.contains(name)
    }

    /// Every occurrence is accessible (modulo ancestor qualifiers) — a
    /// child annotated `Y` under such a type is redundant.
    pub fn definitely_accessible(&self, name: &str) -> bool {
        self.can_acc.contains(name) && !self.can_inacc.contains(name)
    }

    /// The type is reachable but no occurrence is ever accessible —
    /// exposing it in a view leaks hidden data.
    pub fn definitely_inaccessible(&self, name: &str) -> bool {
        !self.can_acc.contains(name) && self.can_inacc.contains(name)
    }

    /// All types with at least one accessible context, sorted.
    pub fn accessible_types(&self) -> impl Iterator<Item = &str> {
        self.can_acc.iter().map(String::as_str)
    }
}

/// The DTD's element-type edge graph: every type mapped to its child
/// element types. The certifier reasons over it, and the planner's
/// schema graph ([`crate::dtd_cost_model`]) is built from it.
pub(crate) fn dtd_children(dtd: &Dtd) -> BTreeMap<String, BTreeSet<String>> {
    let graph = DtdGraph::new(dtd);
    (0..graph.len())
        .map(|i| {
            let kids = graph.children(i).iter().map(|&c| graph.name_of(c).to_string()).collect();
            (graph.name_of(i).to_string(), kids)
        })
        .collect()
}

/// Build the plain-data context the plan certifier
/// ([`sxv_xpath::certify()`]) needs, from a specification and its view:
/// the DTD edge graph, the §3.2 type-accessibility sets, and the
/// dummy-label information (which document types the view deliberately
/// serves under a renamed dummy label — σ-image propagation, the same
/// machinery as [`audit_view`]).
pub fn certify_context(spec: &AccessSpec, view: &SecurityView) -> sxv_xpath::CertifyContext {
    let dtd = spec.dtd();
    let children = dtd_children(dtd);
    let text_types: BTreeSet<String> = dtd
        .productions()
        .iter()
        .filter(|(_, p)| p.to_content().allows_text())
        .map(|(n, _)| n.clone())
        .collect();
    let acc = TypeAccessibility::compute(spec);
    let accessible = acc.can_acc.clone();
    let hideable = acc.can_inacc.clone();
    let inaccessible: BTreeSet<String> = hideable.difference(&accessible).cloned().collect();

    // σ-context propagation (as in `audit_view`, findings elided):
    // which document nodes can stand behind each view type? Dummy view
    // types expose their targets' labels under a renamed label — those
    // document types are emittable by design.
    let vgraph = ViewGraph::from_dtd(dtd);
    let mut ctx: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    ctx.insert(view.root().to_string(), BTreeSet::from([vgraph.root_node()]));
    let mut queue: VecDeque<String> = VecDeque::from([view.root().to_string()]);
    let mut dummy_visible: BTreeSet<String> = BTreeSet::new();
    let mut dummy_labels: BTreeSet<String> = BTreeSet::new();
    while let Some(a) = queue.pop_front() {
        let Some(content) = view.production(&a) else { continue };
        let parents: Vec<usize> = ctx.get(&a).into_iter().flatten().copied().collect();
        for b in content.child_types().into_iter().map(str::to_string) {
            let default_path = Path::label(&b);
            let p = view.sigma(&a, &b).unwrap_or(&default_path);
            let mut targets = BTreeSet::new();
            for &n in &parents {
                if let Some(img) = image(&vgraph, p, n) {
                    targets.extend(img.targets);
                }
            }
            if SecurityView::is_dummy(&b) && !targets.is_empty() {
                dummy_labels.insert(b.clone());
                for &t in &targets {
                    dummy_visible.insert(vgraph.label_of(t).to_string());
                }
            }
            let entry = ctx.entry(b.clone()).or_default();
            let before = entry.len();
            entry.extend(targets);
            if entry.len() != before {
                queue.push_back(b);
            }
        }
    }

    sxv_xpath::CertifyContext {
        root: dtd.root().to_string(),
        children,
        text_types,
        accessible,
        inaccessible,
        hideable,
        dummy_visible,
        dummy_labels,
    }
}

/// One finding of the view audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditFinding {
    /// σ(parent, child) selects nodes of a type that is never accessible
    /// under the specification — the view exposes hidden data.
    UnsoundSigma {
        /// View parent type.
        parent: String,
        /// View child type.
        child: String,
        /// The definitely-inaccessible document type reached by σ.
        target: String,
    },
    /// σ(parent, child) selects nodes whose label is not `child` (for a
    /// non-dummy child, view elements must carry the document label).
    LabelMismatch {
        /// View parent type.
        parent: String,
        /// View child type.
        child: String,
        /// The differently-labelled document type reached by σ.
        target: String,
    },
    /// An accessible document type has no (reachable) production in the
    /// view DTD — authorized data became invisible.
    Incomplete {
        /// The accessible document type missing from the view.
        name: String,
    },
    /// A view production exists but is unreachable from the view root.
    OrphanProduction {
        /// The orphaned view type.
        name: String,
    },
    /// σ(parent, child) selects nothing in any reachable context — the
    /// view child can never be populated.
    DeadSigma {
        /// View parent type.
        parent: String,
        /// View child type.
        child: String,
    },
    /// A dummy outside any choice whose production admits exactly one
    /// child type: the renaming hides the label but the expansion
    /// identifies the hidden element uniquely (Example 1.1-style
    /// inference).
    DummySingleExpansion {
        /// The dummy type.
        dummy: String,
        /// Its single possible child type.
        child: String,
    },
    /// A choice between two or more distinct dummies: the dummy labels
    /// are distinguishable, so observing one reveals which hidden branch
    /// of the original content was taken.
    DummyChoice {
        /// The view type whose production is the choice.
        parent: String,
        /// The distinguishable dummy alternatives.
        dummies: Vec<String>,
    },
    /// A dummy in starred position: the number of dummy children equals
    /// the number of hidden elements, leaking a hidden count.
    DummyCardinality {
        /// The view type referencing the dummy.
        parent: String,
        /// The starred dummy.
        dummy: String,
    },
}

impl AuditFinding {
    /// Findings that make the view unsafe to serve (soundness or
    /// completeness violations, Theorem 3.1). The rest are inference
    /// heuristics reported as warnings.
    pub fn is_error(&self) -> bool {
        matches!(
            self,
            AuditFinding::UnsoundSigma { .. }
                | AuditFinding::LabelMismatch { .. }
                | AuditFinding::Incomplete { .. }
        )
    }

    /// The artifact the finding is about, e.g. `σ(dept, bill)`.
    pub fn subject(&self) -> String {
        match self {
            AuditFinding::UnsoundSigma { parent, child, .. }
            | AuditFinding::LabelMismatch { parent, child, .. }
            | AuditFinding::DeadSigma { parent, child } => format!("σ({parent}, {child})"),
            AuditFinding::Incomplete { name } | AuditFinding::OrphanProduction { name } => {
                name.clone()
            }
            AuditFinding::DummySingleExpansion { dummy, .. } => dummy.clone(),
            AuditFinding::DummyChoice { parent, .. }
            | AuditFinding::DummyCardinality { parent, .. } => parent.clone(),
        }
    }
}

impl fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditFinding::UnsoundSigma { parent, child, target } => write!(
                f,
                "σ({parent}, {child}) reaches document type `{target}`, which is never \
                 accessible under the specification — the view leaks hidden data"
            ),
            AuditFinding::LabelMismatch { parent, child, target } => write!(
                f,
                "σ({parent}, {child}) reaches document type `{target}`; a non-dummy view child \
                 must select `{child}`-labelled nodes"
            ),
            AuditFinding::Incomplete { name } => write!(
                f,
                "document type `{name}` can be accessible but has no reachable production in \
                 the view DTD — authorized data is hidden"
            ),
            AuditFinding::OrphanProduction { name } => {
                write!(f, "view production `{name}` is unreachable from the view root")
            }
            AuditFinding::DeadSigma { parent, child } => write!(
                f,
                "σ({parent}, {child}) selects nothing in any reachable context; the view child \
                 can never be populated"
            ),
            AuditFinding::DummySingleExpansion { dummy, child } => write!(
                f,
                "dummy `{dummy}` has the single possible expansion `{child}`; the renaming \
                 hides a label without hiding which element is present"
            ),
            AuditFinding::DummyChoice { parent, dummies } => write!(
                f,
                "`{parent}` offers a choice between distinguishable dummies {}; observing the \
                 label reveals which hidden branch was taken",
                dummies.join(" + ")
            ),
            AuditFinding::DummyCardinality { parent, dummy } => write!(
                f,
                "`{parent}` contains `{dummy}*`; the dummy count equals the number of hidden \
                 elements, leaking a hidden cardinality"
            ),
        }
    }
}

/// Re-check a security view against its specification (see the module
/// docs). Findings with [`AuditFinding::is_error`] violate soundness or
/// completeness; the rest are inference warnings.
pub fn audit_view(spec: &AccessSpec, view: &SecurityView) -> Vec<AuditFinding> {
    let mut findings = Vec::new();
    let acc = TypeAccessibility::compute(spec);
    let graph = ViewGraph::from_dtd(spec.dtd());

    // View-DTD reachability from the view root (over production edges).
    let mut view_reachable: BTreeSet<&str> = BTreeSet::new();
    let mut stack = vec![view.root()];
    while let Some(a) = stack.pop() {
        if !view_reachable.insert(a) {
            continue;
        }
        if let Some(content) = view.production(a) {
            stack.extend(content.child_types());
        }
    }
    for (name, _) in view.productions() {
        if !view_reachable.contains(name.as_str()) {
            findings.push(AuditFinding::OrphanProduction { name: name.clone() });
        }
    }

    // Context propagation: which document-DTD nodes can stand behind each
    // view type? The root view element is the document root; children are
    // whatever their σ annotation selects from the parent's contexts.
    let mut ctx: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    ctx.insert(view.root().to_string(), BTreeSet::from([graph.root_node()]));
    let mut queue: VecDeque<String> = VecDeque::from([view.root().to_string()]);
    let mut dead_sigma: BTreeSet<(String, String)> = BTreeSet::new();
    while let Some(a) = queue.pop_front() {
        let Some(content) = view.production(&a) else { continue };
        let parents: Vec<usize> = ctx.get(&a).into_iter().flatten().copied().collect();
        for b in content.child_types().into_iter().map(str::to_string) {
            // Hand-authored views may omit σ for "same label" edges.
            let default_path = Path::label(&b);
            let p = view.sigma(&a, &b).unwrap_or(&default_path);
            let mut targets = BTreeSet::new();
            for &n in &parents {
                if let Some(img) = image(&graph, p, n) {
                    targets.extend(img.targets);
                }
            }
            if targets.is_empty() {
                if !parents.is_empty() {
                    dead_sigma.insert((a.clone(), b.clone()));
                }
                continue;
            }
            for &t in &targets {
                let label = graph.label_of(t);
                if !SecurityView::is_dummy(&b) {
                    if label != b {
                        findings.push(AuditFinding::LabelMismatch {
                            parent: a.clone(),
                            child: b.clone(),
                            target: label.to_string(),
                        });
                    } else if acc.definitely_inaccessible(label) {
                        findings.push(AuditFinding::UnsoundSigma {
                            parent: a.clone(),
                            child: b.clone(),
                            target: label.to_string(),
                        });
                    }
                }
            }
            let entry = ctx.entry(b.clone()).or_default();
            let before = entry.len();
            entry.extend(targets);
            if entry.len() != before {
                queue.push_back(b);
            }
        }
    }
    findings.extend(
        dead_sigma.into_iter().map(|(parent, child)| AuditFinding::DeadSigma { parent, child }),
    );

    // Completeness: every possibly-accessible document type must have a
    // reachable view production (Fig. 5 emits exactly these).
    for name in acc.accessible_types() {
        if !view_reachable.contains(name) || view.production(name).is_none() {
            findings.push(AuditFinding::Incomplete { name: name.to_string() });
        }
    }

    // Dummy-inference heuristics over reachable productions.
    let mut in_choice: BTreeSet<String> = BTreeSet::new();
    for (name, content) in view.productions() {
        if !view_reachable.contains(name.as_str()) {
            continue;
        }
        if let ViewContent::Choice { alternatives, .. } = content {
            let dummies: Vec<String> =
                alternatives.iter().filter(|alt| SecurityView::is_dummy(alt)).cloned().collect();
            in_choice.extend(dummies.iter().cloned());
            let mut distinct = dummies.clone();
            distinct.dedup();
            if distinct.len() >= 2 {
                findings
                    .push(AuditFinding::DummyChoice { parent: name.clone(), dummies: distinct });
            }
        }
        for item in starred_children(content) {
            if SecurityView::is_dummy(item) {
                findings.push(AuditFinding::DummyCardinality {
                    parent: name.clone(),
                    dummy: item.to_string(),
                });
            }
        }
    }
    for (name, content) in view.productions() {
        if !view_reachable.contains(name.as_str())
            || !SecurityView::is_dummy(name)
            || in_choice.contains(name)
        {
            continue;
        }
        if let Some(child) = single_expansion(content) {
            findings.push(AuditFinding::DummySingleExpansion {
                dummy: name.clone(),
                child: child.to_string(),
            });
        }
    }
    findings
}

/// Child types occurring under a `*` in a production.
fn starred_children(content: &ViewContent) -> Vec<&str> {
    match content {
        ViewContent::Star(b) => vec![b],
        ViewContent::Seq(items) => items
            .iter()
            .filter_map(|i| match i {
                ViewItem::Many(b) => Some(b.as_str()),
                ViewItem::One(_) => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// The unique mandatory child type of a production, if its expansion is
/// fully determined (exactly one child, exactly once).
fn single_expansion(content: &ViewContent) -> Option<&str> {
    match content {
        ViewContent::Seq(items) => match items.as_slice() {
            [ViewItem::One(b)] => Some(b),
            _ => None,
        },
        ViewContent::Choice { alternatives, optional: false } => match alternatives.as_slice() {
            [b] => Some(b),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::derive::derive_view;
    use std::collections::BTreeMap;
    use sxv_dtd::parse_dtd;

    const HOSPITAL: &str = r#"
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
"#;

    /// The paper's Example 3.1 nurse specification.
    fn nurse() -> AccessSpec {
        let dtd = parse_dtd(HOSPITAL, "hospital").unwrap();
        AccessSpec::builder(&dtd)
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

    #[test]
    fn type_accessibility_nurse() {
        let acc = TypeAccessibility::compute(&nurse());
        // Never accessible: clinicalTrial, test, trial, regular.
        for t in ["clinicalTrial", "test", "trial", "regular"] {
            assert!(acc.definitely_inaccessible(t), "{t}");
        }
        // Mixed: patientInfo occurs under dept (acc) and clinicalTrial (inacc → Y).
        assert!(acc.can_be_accessible("patientInfo"));
        // Always accessible: staffInfo, staff, doctor, nurse, dept, bill.
        for t in ["hospital", "dept", "staffInfo", "staff", "doctor", "nurse", "bill"] {
            assert!(acc.definitely_accessible(t), "{t}");
        }
        // name is reachable both under patient (acc) and doctor/nurse (acc) — always acc.
        assert!(acc.definitely_accessible("name"));
    }

    #[test]
    fn certify_context_from_nurse_spec() {
        let spec = nurse();
        let view = derive_view(&spec).unwrap();
        let ctx = certify_context(&spec, &view);
        assert_eq!(ctx.root, "hospital");
        assert!(ctx.children["dept"].contains("clinicalTrial"));
        assert!(ctx.text_types.contains("name") && !ctx.text_types.contains("patient"));
        assert!(ctx.accessible.contains("bill"), "allow override is emittable");
        assert!(ctx.inaccessible.contains("trial") && ctx.inaccessible.contains("clinicalTrial"));
        assert!(ctx.hideable.contains("trial"));
        // The nurse view renames the hidden treatment branches into
        // dummies; their σ-image types are emittable by design.
        assert!(!ctx.dummy_labels.is_empty(), "{:?}", ctx.dummy_labels);
        assert!(
            ctx.dummy_visible.contains("trial") || ctx.dummy_visible.contains("regular"),
            "{:?}",
            ctx.dummy_visible
        );
        assert!(ctx.emittable("bill") && !ctx.emittable("test"));
    }

    #[test]
    fn unannotated_spec_everything_accessible() {
        let dtd = parse_dtd("<!ELEMENT r (a)><!ELEMENT a EMPTY>", "r").unwrap();
        let spec = AccessSpec::builder(&dtd).build().unwrap();
        let acc = TypeAccessibility::compute(&spec);
        assert!(acc.definitely_accessible("r"));
        assert!(acc.definitely_accessible("a"));
    }

    #[test]
    fn unreachable_type_in_neither_set() {
        let dtd = parse_dtd("<!ELEMENT r (a)><!ELEMENT a EMPTY><!ELEMENT z EMPTY>", "r").unwrap();
        let spec = AccessSpec::builder(&dtd).build().unwrap();
        let acc = TypeAccessibility::compute(&spec);
        assert!(!acc.is_reachable("z"));
        assert!(!acc.definitely_inaccessible("z"), "unreachable ≠ denied");
    }

    #[test]
    fn derive_output_passes_audit_on_nurse() {
        let spec = nurse();
        let view = derive_view(&spec).unwrap();
        let findings = audit_view(&spec, &view);
        let errors: Vec<_> = findings.iter().filter(|f| f.is_error()).collect();
        assert!(errors.is_empty(), "derive output flagged: {errors:?}");
        // The nurse view's dummy1 + dummy2 choice is a known inference
        // surface — the auditor warns about it.
        assert!(
            findings.iter().any(|f| matches!(f, AuditFinding::DummyChoice { .. })),
            "{findings:?}"
        );
    }

    #[test]
    fn leaky_hand_view_is_unsound() {
        let dtd = parse_dtd("<!ELEMENT r (a, b)><!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>", "r")
            .unwrap();
        let spec = AccessSpec::builder(&dtd).deny("r", "b").build().unwrap();
        let mut sigma = BTreeMap::new();
        sigma.insert(("r".to_string(), "a".to_string()), sxv_xpath::parse("a").unwrap());
        sigma.insert(("r".to_string(), "b".to_string()), sxv_xpath::parse("b").unwrap());
        let view = SecurityView::new(
            "r".into(),
            vec![
                (
                    "r".into(),
                    ViewContent::Seq(vec![ViewItem::One("a".into()), ViewItem::One("b".into())]),
                ),
                ("a".into(), ViewContent::Str),
                ("b".into(), ViewContent::Str),
            ],
            sigma,
        );
        let findings = audit_view(&spec, &view);
        assert!(
            findings
                .iter()
                .any(|f| matches!(f, AuditFinding::UnsoundSigma { target, .. } if target == "b")),
            "{findings:?}"
        );
    }

    #[test]
    fn incomplete_hand_view_detected() {
        let dtd = parse_dtd("<!ELEMENT r (a, b)><!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>", "r")
            .unwrap();
        let spec = AccessSpec::builder(&dtd).build().unwrap();
        // Hand view forgets `b` even though everything is accessible.
        let mut sigma = BTreeMap::new();
        sigma.insert(("r".to_string(), "a".to_string()), sxv_xpath::parse("a").unwrap());
        let view = SecurityView::new(
            "r".into(),
            vec![
                ("r".into(), ViewContent::Seq(vec![ViewItem::One("a".into())])),
                ("a".into(), ViewContent::Str),
            ],
            sigma,
        );
        let findings = audit_view(&spec, &view);
        assert!(
            findings.iter().any(|f| matches!(f, AuditFinding::Incomplete { name } if name == "b")),
            "{findings:?}"
        );
    }

    #[test]
    fn label_mismatch_detected() {
        let dtd = parse_dtd("<!ELEMENT r (a, b)><!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>", "r")
            .unwrap();
        let spec = AccessSpec::builder(&dtd).deny("r", "b").build().unwrap();
        // σ(r, a) points at b: the view claims `a` but serves `b` data.
        let mut sigma = BTreeMap::new();
        sigma.insert(("r".to_string(), "a".to_string()), sxv_xpath::parse("b").unwrap());
        let view = SecurityView::new(
            "r".into(),
            vec![
                ("r".into(), ViewContent::Seq(vec![ViewItem::One("a".into())])),
                ("a".into(), ViewContent::Str),
            ],
            sigma,
        );
        let findings = audit_view(&spec, &view);
        assert!(
            findings.iter().any(|f| matches!(f, AuditFinding::LabelMismatch { .. })),
            "{findings:?}"
        );
    }

    #[test]
    fn dead_sigma_and_orphan_detected() {
        let dtd = parse_dtd("<!ELEMENT r (a)><!ELEMENT a (#PCDATA)>", "r").unwrap();
        let spec = AccessSpec::builder(&dtd).build().unwrap();
        let mut sigma = BTreeMap::new();
        // `ghost` does not exist under r.
        sigma.insert(("r".to_string(), "a".to_string()), sxv_xpath::parse("ghost/a").unwrap());
        let view = SecurityView::new(
            "r".into(),
            vec![
                ("r".into(), ViewContent::Seq(vec![ViewItem::One("a".into())])),
                ("a".into(), ViewContent::Str),
                ("z".into(), ViewContent::Empty),
            ],
            sigma,
        );
        let findings = audit_view(&spec, &view);
        assert!(
            findings.iter().any(|f| matches!(f, AuditFinding::DeadSigma { .. })),
            "{findings:?}"
        );
        assert!(
            findings
                .iter()
                .any(|f| matches!(f, AuditFinding::OrphanProduction { name } if name == "z")),
            "{findings:?}"
        );
        // `a` never gets a context, so completeness must not double-report
        // it — it *is* reachable in the view DTD.
        assert!(!findings.iter().any(|f| f.is_error()), "{findings:?}");
    }

    #[test]
    fn starred_dummy_cardinality_detected() {
        // r → a*, a hidden with an accessible choice of children ⇒ derive
        // must dummy-rename (no short-cut for a choice): r → dummy1*. The
        // count of dummies reveals the count of hidden a's.
        let dtd = parse_dtd(
            "<!ELEMENT r (a*)><!ELEMENT a (c | d)><!ELEMENT c (#PCDATA)><!ELEMENT d (#PCDATA)>",
            "r",
        )
        .unwrap();
        let spec = AccessSpec::builder(&dtd)
            .deny("r", "a")
            .allow("a", "c")
            .allow("a", "d")
            .build()
            .unwrap();
        let view = derive_view(&spec).unwrap();
        let findings = audit_view(&spec, &view);
        assert!(!findings.iter().any(|f| f.is_error()), "{findings:?}");
        assert!(
            findings.iter().any(|f| matches!(f, AuditFinding::DummyCardinality { .. })),
            "{findings:?}"
        );
    }

    #[test]
    fn finding_display_and_subject() {
        let f = AuditFinding::UnsoundSigma {
            parent: "r".into(),
            child: "b".into(),
            target: "b".into(),
        };
        assert!(f.is_error());
        assert_eq!(f.subject(), "σ(r, b)");
        assert!(f.to_string().contains("never"));
        let w = AuditFinding::DummyChoice {
            parent: "t".into(),
            dummies: vec!["dummy1".into(), "dummy2".into()],
        };
        assert!(!w.is_error());
        assert!(w.to_string().contains("dummy1 + dummy2"));
    }
}
