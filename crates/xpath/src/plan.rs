//! Compile-once query plans: a typed operator IR shared by every
//! evaluation surface.
//!
//! [`compile`] lowers an (already translated and optimized) [`Path`] into a
//! [`CompiledQuery`] — a flat pipeline of [`PlanOp`]s — choosing each
//! operator **once at plan time** from a [`CostModel`] (occurrence-list
//! cardinalities of a [`DocIndex`], or DTD fan-out estimates when no
//! document is at hand) instead of re-running per-evaluation heuristics.
//! A single executor ([`CompiledQuery::execute`]) interprets plans; a
//! [`PlanPolicy`] (force-walk / force-join / auto) fed to the planner
//! chooses between tree-walk and structural-join operators.
//!
//! The operator set mirrors the two evaluators it replaces:
//!
//! * `child-walk` — scan the children of every context node (tree walk);
//! * `child-merge-join` — merge the axis occurrence list against the
//!   sorted context, one parent probe per candidate (structural join);
//! * `descendant-slice` — answer `//axis` by interval-containment slices
//!   of the occurrence lists (staircase-pruned). Without an index at
//!   execution time it degrades to a subtree scan, so a plan compiled for
//!   indexed serving still answers index-less calls correctly;
//! * `descendant-expand` — materialize descendants(-or-self) for the
//!   generic `//p` fall-back shapes;
//! * `union-merge` — run arm sub-pipelines off one context, merge-union;
//! * `qualifier-probe` — filter by a compiled [`QualPlan`], with interval
//!   emptiness probes for existence tests;
//! * `schema-slice` — a run of child steps, unions and closures that the
//!   schema graph proves equal to one descendant slice of its final label
//!   (`Auto` only, see [`SchemaSlice`]). It keeps the run and falls back
//!   to it without an index or on a document outside the schema.
//!
//! Results are bit-identical to the walk evaluator of [`crate::eval`](mod@crate::eval);
//! the equivalence is pinned by [`EQUIVALENCE_QUERIES`] here and a random
//! document × query property test in the workspace suite.
//!
//! ## Annotation plans
//!
//! [`compile_annotate`] lowers a *view* query into a plan that runs
//! directly over the **document**, filtering by an [`AccessView`] instead
//! of rewriting the query first. Four extra operators appear only in
//! these plans: `bitmap-filter` (word-parallel AND against the
//! membership bitmaps, fused into a preceding `descendant-slice` at
//! execution time), `view-child` / `view-descendant` (axis steps over
//! the view tree), and `view-expand` (materialize view descendants).
//! The executor also switches result sets between sorted-vec and dense
//! bitmap representations by density, so `//`-expansions feed the
//! bitmap filter without materializing node lists.

use crate::access::{is_dummy_label, AccessView};
use crate::ast::{Path, Qualifier};
use crate::eval::EvalStats;
use crate::lowering::lower_schema_runs;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;
use sxv_xml::{json_escape, DocIndex, Document, LabelGraph, NodeBitmap, NodeId};

/// How the planner chooses between walk and join operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlanPolicy {
    /// Child steps always walk; `//axis` slices only degrade-safely.
    ForceWalk,
    /// Child steps always merge-join against occurrence lists.
    ForceJoin,
    /// Pick per step from the cost model (the recommended policy).
    #[default]
    Auto,
}

impl PlanPolicy {
    /// All policies, for benchmark sweeps.
    pub const ALL: [PlanPolicy; 3] =
        [PlanPolicy::ForceWalk, PlanPolicy::ForceJoin, PlanPolicy::Auto];
}

impl fmt::Display for PlanPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PlanPolicy::ForceWalk => "walk",
            PlanPolicy::ForceJoin => "join",
            PlanPolicy::Auto => "auto",
        })
    }
}

/// What a single axis step selects (the owned twin of the evaluators'
/// borrowed axis tests, so plans can outlive the query AST).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AxisTest {
    /// Child elements with this label.
    Label(String),
    /// Any child element (`*`).
    AnyElement,
    /// Child text nodes (`text()`).
    Text,
}

impl AxisTest {
    fn matches(&self, doc: &Document, v: NodeId) -> bool {
        match self {
            AxisTest::Label(l) => doc.label_opt(v) == Some(l),
            AxisTest::AnyElement => doc.is_element(v),
            AxisTest::Text => doc.is_text(v),
        }
    }

    /// The document-order occurrence list for this test.
    fn occurrences<'i>(&self, idx: &'i DocIndex) -> &'i [NodeId] {
        match self {
            AxisTest::Label(l) => idx.label_list(l),
            AxisTest::AnyElement => idx.element_nodes(),
            AxisTest::Text => idx.text_list(),
        }
    }

    /// The occurrence slice strictly inside the subtree of `v`.
    fn slice<'i>(&self, idx: &'i DocIndex, v: NodeId) -> &'i [NodeId] {
        match self {
            AxisTest::Label(l) => idx.labelled_descendants(l, v),
            AxisTest::AnyElement => idx.element_descendants(v),
            AxisTest::Text => idx.text_descendants(v),
        }
    }
}

impl fmt::Display for AxisTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxisTest::Label(l) => f.write_str(l),
            AxisTest::AnyElement => f.write_str("*"),
            AxisTest::Text => f.write_str("text()"),
        }
    }
}

/// The fused streaming scan: a descendant axis scan whose candidates
/// stream through an optional access-bitmap test and an optional
/// qualifier probe inside the producing loop. No intermediate set is
/// materialized between the fused stages, and existence qualifiers
/// short-circuit per candidate. Produced by the compile-time fusion
/// pass; the certifier runs the constituents' transfer functions on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedScan {
    /// The descendant axis producing candidates (interval slices with an
    /// index, a subtree scan without).
    pub axis: AxisTest,
    /// Stream candidates through this [`AccessView`] bitmap (annotation
    /// plans only).
    pub filter: Option<AccessFilter>,
    /// Stream candidates through this qualifier probe.
    pub qual: Option<Box<QualPlan>>,
    /// The scan absorbed a preceding `descendant-expand (or-self)`:
    /// descendants of descendants-or-self are exactly descendants, so
    /// the expand's materialized set never needs to exist. Kept so
    /// `explain` shows the absorbed expand and the certifier applies its
    /// transfer.
    pub from_expand: bool,
}

/// A schema-covered run lowered to one descendant scan: under
/// [`PlanPolicy::Auto`], a qualifier-free run of child steps, unions and
/// closures ending in label `L` is replaced by a slice of `L` when every
/// label path `schema` allows from the run's context types to `L` is in
/// the run's language (automaton containment, DESIGN.md §18). The slice
/// then selects exactly the run's nodes on any document whose root label
/// and parent→child label edges lie inside `schema`.
///
/// The operator keeps the run. It executes the run instead of the scan
/// when no index is attached, when the executing document leaves
/// `schema` ([`DocIndex::conforms_to`], memoized per index), and at the
/// document node ([`CompiledQuery::execute_at_document`]). The certifier
/// interprets the run, so the lowering moves no abstract state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaSlice {
    /// The scan: a descendant slice of the run's final label, plus the
    /// qualifier probe the fusion pass folded into it, if any.
    pub scan: FusedScan,
    /// The run the scan replaced.
    pub chain: Vec<PlanNode>,
    /// The schema graph the containment check ran against.
    pub schema: Arc<LabelGraph>,
}

/// One typed plan operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanOp {
    /// Seed the pipeline with the root element (always the first op).
    RootSeed,
    /// Reset the context to the virtual document node (`doc()`).
    DocSeed,
    /// The empty query `∅`.
    EmptySet,
    /// One child step answered by walking every context node's children.
    ChildWalk(AxisTest),
    /// One child step answered by merging the axis occurrence list
    /// against the sorted context (one parent probe per candidate).
    ChildMergeJoin(AxisTest),
    /// `//axis` answered by interval-containment slices of the occurrence
    /// lists (staircase-pruned); degrades to a subtree scan off-index.
    DescendantSlice(AxisTest),
    /// A [`FusedScan`]: `descendant-slice → bitmap-filter → qualifier-probe`
    /// chains collapsed into one emitting loop by the fusion pass.
    Fused(FusedScan),
    /// Materialize descendants (`or_self` controls self-inclusion) — the
    /// generic `//p` fall-back for complex inner paths.
    DescendantExpand {
        /// Include each context node itself (descendant-or-self).
        or_self: bool,
    },
    /// Run each arm's sub-pipeline off the same context and merge-union.
    UnionMerge(Vec<Vec<PlanNode>>),
    /// `(p)*` — reflexive-transitive closure of the body pipeline,
    /// executed natively with a worklist: the body runs from the frontier
    /// of newly reached nodes only, accumulating into a visited set until
    /// no new node appears. This is what serves recursive view DTDs
    /// without height-bounded unfolding.
    ClosureExpand {
        /// The pipeline applied per closure iteration.
        body: Vec<PlanNode>,
    },
    /// Keep context nodes satisfying a compiled qualifier.
    QualifierProbe(QualPlan),
    /// A [`SchemaSlice`]: a schema-covered run answered by one
    /// descendant scan, with the run kept as its fallback.
    SchemaSlice(SchemaSlice),
    /// Keep context nodes set in an [`AccessView`] bitmap (word-parallel
    /// on dense contexts; fused into a preceding `descendant-slice`).
    /// Annotation plans only.
    BitmapFilter(AccessFilter),
    /// One child step over the *view* tree (CSR view-children lists plus
    /// an axis test on view labels). Annotation plans only.
    ViewChild(AxisTest),
    /// `//axis` over the view: occurrence-list candidates filtered by
    /// view membership and a view-ancestor chain check. Annotation
    /// plans only.
    ViewDescendant(AxisTest),
    /// Materialize view descendants(-or-self) — the generic `//p`
    /// fall-back over the view tree. Annotation plans only.
    ViewExpand {
        /// Include each context node itself (descendant-or-self).
        or_self: bool,
    },
}

/// Which [`AccessView`] bitmap a [`PlanOp::BitmapFilter`] ANDs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessFilter {
    /// Non-dummy view members (elements and text).
    Member,
    /// View element nodes (member elements plus dummies) — `//*`.
    Element,
}

impl AccessFilter {
    fn bitmap<'a>(&self, av: &'a AccessView) -> &'a NodeBitmap {
        match self {
            AccessFilter::Member => av.members(),
            AccessFilter::Element => av.elements(),
        }
    }
}

impl fmt::Display for AccessFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessFilter::Member => "member",
            AccessFilter::Element => "element",
        })
    }
}

impl PlanOp {
    /// Short operator name (explain output and summaries).
    pub fn name(&self) -> &'static str {
        match self {
            PlanOp::RootSeed => "root-seed",
            PlanOp::DocSeed => "doc-seed",
            PlanOp::EmptySet => "empty-set",
            PlanOp::ChildWalk(_) => "child-walk",
            PlanOp::ChildMergeJoin(_) => "child-merge-join",
            PlanOp::DescendantSlice(_) => "descendant-slice",
            PlanOp::Fused(_) => "fused-scan",
            PlanOp::DescendantExpand { .. } => "descendant-expand",
            PlanOp::UnionMerge(_) => "union-merge",
            PlanOp::ClosureExpand { .. } => "closure-expand",
            PlanOp::QualifierProbe(_) => "qualifier-probe",
            PlanOp::SchemaSlice(_) => "schema-slice",
            PlanOp::BitmapFilter(_) => "bitmap-filter",
            PlanOp::ViewChild(_) => "view-child",
            PlanOp::ViewDescendant(_) => "view-descendant",
            PlanOp::ViewExpand { .. } => "view-expand",
        }
    }
}

/// One pipeline slot: the operator plus its planned output cardinality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// The operator.
    pub op: PlanOp,
    /// Estimated rows (nodes) flowing out of this operator.
    pub est_rows: u64,
}

/// A compiled qualifier: the boolean structure with its path probes
/// lowered to sub-pipelines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QualPlan {
    /// Always true.
    True,
    /// Always false.
    False,
    /// `[p]` — the sub-pipeline yields at least one node (the last
    /// operator is probed for emptiness instead of materialized where an
    /// interval or bounded children scan suffices).
    Exists(Vec<PlanNode>),
    /// `[p = c]` — some result node's string value equals the constant.
    Eq(Vec<PlanNode>, String),
    /// `[@a]` — attribute exists on the context element.
    Attr(String),
    /// `[@a = 'v']` — attribute equals the constant.
    AttrEq(String, String),
    /// Conjunction.
    And(Box<QualPlan>, Box<QualPlan>),
    /// Disjunction.
    Or(Box<QualPlan>, Box<QualPlan>),
    /// Negation.
    Not(Box<QualPlan>),
}

/// Cardinality statistics the planner reads: per-label occurrence counts,
/// element/text totals and average fan-out — exact when built
/// [`CostModel::from_index`], estimated when derived from a DTD, and
/// deliberately vague when [`CostModel::uninformed`]. It may also carry
/// a schema graph (root label plus parent→child label edges), which lets
/// `Auto` plans lower schema-covered runs to [`SchemaSlice`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    labels: HashMap<String, f64>,
    elements: f64,
    texts: f64,
    fanout: f64,
    default_label: f64,
    has_index: bool,
    schema: Option<Arc<LabelGraph>>,
}

impl CostModel {
    /// Exact statistics from a built structural index, with the
    /// document's own label graph as the schema.
    pub fn from_index(idx: &DocIndex) -> CostModel {
        let elements = idx.element_nodes().len() as f64;
        let texts = idx.text_list().len() as f64;
        let total = elements + texts;
        CostModel {
            labels: idx.labels().map(|(l, n)| (l.to_string(), n as f64)).collect(),
            elements,
            texts,
            fanout: if elements > 0.0 { (total - 1.0).max(0.0) / elements } else { 0.0 },
            default_label: 0.0,
            has_index: true,
            schema: idx.label_graph().cloned(),
        }
    }

    /// Estimated statistics (e.g. propagated from DTD fan-out).
    /// `has_index` says whether execution will have a [`DocIndex`].
    pub fn from_estimates(
        labels: impl IntoIterator<Item = (String, f64)>,
        texts: f64,
        has_index: bool,
    ) -> CostModel {
        let labels: HashMap<String, f64> = labels.into_iter().collect();
        let elements: f64 = labels.values().sum::<f64>().max(1.0);
        let total = elements + texts.max(0.0);
        CostModel {
            labels,
            elements,
            texts: texts.max(0.0),
            fanout: (total - 1.0).max(0.0) / elements,
            default_label: 0.0,
            has_index,
            schema: None,
        }
    }

    /// No statistics at all: a small synthetic document shape. Unknown
    /// labels get a non-zero default so plans stay meaningful.
    pub fn uninformed() -> CostModel {
        CostModel {
            labels: HashMap::new(),
            elements: 64.0,
            texts: 32.0,
            fanout: 3.0,
            default_label: 8.0,
            has_index: true,
            schema: None,
        }
    }

    /// This model with a schema graph attached (e.g. a DTD's), enabling
    /// schema-slice lowering in `Auto` plans.
    pub fn with_schema(mut self, schema: LabelGraph) -> CostModel {
        self.schema = Some(Arc::new(schema));
        self
    }

    /// Whether execution is expected to have a structural index.
    pub fn has_index(&self) -> bool {
        self.has_index
    }

    fn nodes(&self) -> f64 {
        self.elements + self.texts
    }

    fn occurrence(&self, axis: &AxisTest) -> f64 {
        match axis {
            AxisTest::Label(l) => self.labels.get(l).copied().unwrap_or(self.default_label),
            AxisTest::AnyElement => self.elements,
            AxisTest::Text => self.texts,
        }
    }
}

/// A fully planned query, ready for repeated execution. This is the
/// artifact the engine's sharded cache stores: a hit skips
/// parse-normalize, rewrite, optimize *and* planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledQuery {
    /// The translated (document-side) query this plan was compiled from.
    pub translated: Path,
    /// The policy the planner ran under.
    pub policy: PlanPolicy,
    /// The operator pipeline (first op is always [`PlanOp::RootSeed`]).
    pub ops: Vec<PlanNode>,
}

/// Lower an optimized [`Path`] into an executable plan, choosing every
/// operator now from `cost` and `policy`. Under [`PlanPolicy::Auto`]
/// with a schema graph in `cost`, schema-covered runs become
/// [`SchemaSlice`]s before fusion.
pub fn compile(p: &Path, policy: PlanPolicy, cost: &CostModel) -> CompiledQuery {
    let mut ops = vec![PlanNode { op: PlanOp::RootSeed, est_rows: 1 }];
    lower(p, 1.0, policy, cost, &mut ops);
    if let (PlanPolicy::Auto, Some(schema)) = (policy, &cost.schema) {
        ops = lower_schema_runs(ops, schema);
    }
    CompiledQuery { translated: p.clone(), policy, ops: fuse_ops(ops) }
}

fn clamp_est(est: f64, cost: &CostModel) -> u64 {
    est.clamp(0.0, cost.nodes().max(1.0)).round() as u64
}

/// Append the pipeline for `p` to `out`; returns the estimated output
/// cardinality given `est_in` context rows.
fn lower(
    p: &Path,
    est_in: f64,
    policy: PlanPolicy,
    cost: &CostModel,
    out: &mut Vec<PlanNode>,
) -> f64 {
    match p {
        Path::Empty => est_in,
        Path::EmptySet => {
            out.push(PlanNode { op: PlanOp::EmptySet, est_rows: 0 });
            0.0
        }
        Path::Doc => {
            out.push(PlanNode { op: PlanOp::DocSeed, est_rows: 1 });
            1.0
        }
        Path::Label(l) => child(AxisTest::Label(l.clone()), est_in, policy, cost, out),
        Path::Wildcard => child(AxisTest::AnyElement, est_in, policy, cost, out),
        Path::Text => child(AxisTest::Text, est_in, policy, cost, out),
        Path::Step(p1, p2) => {
            let mid = lower(p1, est_in, policy, cost, out);
            lower(p2, mid, policy, cost, out)
        }
        Path::Descendant(inner) => lower_descendant(inner, policy, cost, out),
        Path::Union(p1, p2) => {
            let mut arm1 = Vec::new();
            let e1 = lower(p1, est_in, policy, cost, &mut arm1);
            let mut arm2 = Vec::new();
            let e2 = lower(p2, est_in, policy, cost, &mut arm2);
            let est = (e1 + e2).min(cost.nodes());
            out.push(PlanNode {
                op: PlanOp::UnionMerge(vec![arm1, arm2]),
                est_rows: clamp_est(est, cost),
            });
            est
        }
        Path::Filter(p1, q) => {
            let base = lower(p1, est_in, policy, cost, out);
            let qp = lower_qual(q, policy, cost);
            let est = base * selectivity(&qp);
            out.push(PlanNode { op: PlanOp::QualifierProbe(qp), est_rows: clamp_est(est, cost) });
            est
        }
        Path::Closure(inner) => {
            let mut body = Vec::new();
            let e_body = lower(inner, est_in, policy, cost, &mut body);
            let est = closure_est(est_in, e_body, cost);
            out.push(PlanNode {
                op: PlanOp::ClosureExpand { body },
                est_rows: clamp_est(est, cost),
            });
            est
        }
    }
}

/// Assumed closure iteration budget for cardinality estimates — the
/// planner cannot know recursion depth statically, so it prices a few
/// rounds of body growth, capped at the document size (the true fixpoint
/// bound).
const CLOSURE_ROUNDS: f64 = 4.0;

fn closure_est(est_in: f64, e_body: f64, cost: &CostModel) -> f64 {
    (est_in + e_body * CLOSURE_ROUNDS).min(cost.nodes()).max(est_in)
}

/// `//inner`: axis heads become interval slices (a single streaming
/// operator whether or not execution has an index — the historical
/// expand-then-filter walk lowering materialized every descendant first
/// and is strictly dominated by the slice's degraded subtree scan);
/// complex heads recurse the way the evaluators do.
fn lower_descendant(
    inner: &Path,
    policy: PlanPolicy,
    cost: &CostModel,
    out: &mut Vec<PlanNode>,
) -> f64 {
    let axis = match inner {
        Path::Label(l) => Some(AxisTest::Label(l.clone())),
        Path::Wildcard => Some(AxisTest::AnyElement),
        Path::Text => Some(AxisTest::Text),
        _ => None,
    };
    if let Some(axis) = axis {
        let occ = cost.occurrence(&axis);
        out.push(PlanNode { op: PlanOp::DescendantSlice(axis), est_rows: clamp_est(occ, cost) });
        return occ;
    }
    match inner {
        Path::Step(a, b) => {
            let mid = lower_descendant(a, policy, cost, out);
            lower(b, mid, policy, cost, out)
        }
        Path::Union(a, b) => {
            let mut arm1 = Vec::new();
            let e1 = lower_descendant(a, policy, cost, &mut arm1);
            let mut arm2 = Vec::new();
            let e2 = lower_descendant(b, policy, cost, &mut arm2);
            let est = (e1 + e2).min(cost.nodes());
            out.push(PlanNode {
                op: PlanOp::UnionMerge(vec![arm1, arm2]),
                est_rows: clamp_est(est, cost),
            });
            est
        }
        Path::Filter(base, q) => {
            let b = lower_descendant(base, policy, cost, out);
            let qp = lower_qual(q, policy, cost);
            let est = b * selectivity(&qp);
            out.push(PlanNode { op: PlanOp::QualifierProbe(qp), est_rows: clamp_est(est, cost) });
            est
        }
        // ε, ∅, doc(), nested //: materialize descendant-or-self and let
        // the generic pipeline continue.
        _ => {
            let expanded = cost.nodes();
            out.push(PlanNode {
                op: PlanOp::DescendantExpand { or_self: true },
                est_rows: clamp_est(expanded, cost),
            });
            lower(inner, expanded, policy, cost, out)
        }
    }
}

/// One child step, with the walk/merge decision made here — at plan time.
fn child(
    axis: AxisTest,
    est_in: f64,
    policy: PlanPolicy,
    cost: &CostModel,
    out: &mut Vec<PlanNode>,
) -> f64 {
    let occ = cost.occurrence(&axis);
    let est = occ.min(est_in * cost.fanout.max(1.0));
    let merge = match policy {
        PlanPolicy::ForceWalk => false,
        PlanPolicy::ForceJoin => true,
        PlanPolicy::Auto => {
            // A merge examines every occurrence (paying one binary probe
            // into the context each); a walk traverses every child link
            // under the context. Same trade-off join evaluators made per
            // evaluation — priced once, here.
            let probe = est_in.max(1.0).log2() + 1.0;
            cost.has_index && occ * probe < est_in.max(1.0) * cost.fanout.max(1.0)
        }
    };
    let op = if merge { PlanOp::ChildMergeJoin(axis) } else { PlanOp::ChildWalk(axis) };
    out.push(PlanNode { op, est_rows: clamp_est(est, cost) });
    est
}

fn lower_qual(q: &Qualifier, policy: PlanPolicy, cost: &CostModel) -> QualPlan {
    match q {
        Qualifier::True => QualPlan::True,
        Qualifier::False => QualPlan::False,
        Qualifier::Path(p) => {
            let mut ops = Vec::new();
            lower(p, 1.0, policy, cost, &mut ops);
            QualPlan::Exists(ops)
        }
        Qualifier::Eq(p, c) => {
            let mut ops = Vec::new();
            lower(p, 1.0, policy, cost, &mut ops);
            QualPlan::Eq(ops, c.clone())
        }
        Qualifier::Attr(name) => QualPlan::Attr(name.clone()),
        Qualifier::AttrEq(name, value) => QualPlan::AttrEq(name.clone(), value.clone()),
        Qualifier::And(a, b) => QualPlan::And(
            Box::new(lower_qual(a, policy, cost)),
            Box::new(lower_qual(b, policy, cost)),
        ),
        Qualifier::Or(a, b) => QualPlan::Or(
            Box::new(lower_qual(a, policy, cost)),
            Box::new(lower_qual(b, policy, cost)),
        ),
        Qualifier::Not(inner) => QualPlan::Not(Box::new(lower_qual(inner, policy, cost))),
    }
}

/// Planned qualifier selectivity (crude, but consistent and documented:
/// equality probes are assumed pickier than existence probes).
fn selectivity(q: &QualPlan) -> f64 {
    match q {
        QualPlan::True => 1.0,
        QualPlan::False => 0.0,
        QualPlan::Exists(_) => 0.7,
        QualPlan::Eq(..) => 0.3,
        QualPlan::Attr(_) => 0.5,
        QualPlan::AttrEq(..) => 0.3,
        QualPlan::And(a, b) => selectivity(a) * selectivity(b),
        QualPlan::Or(a, b) => {
            let (sa, sb) = (selectivity(a), selectivity(b));
            1.0 - (1.0 - sa) * (1.0 - sb)
        }
        QualPlan::Not(inner) => 1.0 - selectivity(inner),
    }
}

// ---------------------------------------------------------------------
// Annotation plans
// ---------------------------------------------------------------------

/// Lower a *view* query into a plan executed directly over the document
/// and filtered by an [`AccessView`]
/// ([`CompiledQuery::execute_with_access`]). Axis steps become view-tree
/// operators; the dominant seed-context `//axis` shapes lower to a
/// document `descendant-slice` AND-ed against the membership bitmap
/// (fused at execution time), which is exact because every view node is
/// a view descendant of the root and a member's view label is its
/// document label.
pub fn compile_annotate(p: &Path, policy: PlanPolicy, cost: &CostModel) -> CompiledQuery {
    let mut ops = vec![PlanNode { op: PlanOp::RootSeed, est_rows: 1 }];
    lower_annotate(p, 1.0, true, policy, cost, &mut ops);
    CompiledQuery { translated: p.clone(), policy, ops: fuse_ops(ops) }
}

// ---------------------------------------------------------------------
// Fusion pass
// ---------------------------------------------------------------------

/// Compile-time fusion: collapse every
/// `descendant-slice [→ bitmap-filter] [→ qualifier-probe]` chain into a
/// single [`FusedScan`] so execution streams candidates straight from
/// the occurrence-list intervals through the bitmap test and the
/// qualifier probe without materializing intermediate sets. Applied
/// recursively to union arms, closure bodies and qualifier
/// sub-pipelines. A bare slice with no fusable follower stays itself.
fn fuse_ops(ops: Vec<PlanNode>) -> Vec<PlanNode> {
    let mut out: Vec<PlanNode> = Vec::with_capacity(ops.len());
    let mut it = ops.into_iter().peekable();
    while let Some(mut node) = it.next() {
        node.op = match node.op {
            PlanOp::UnionMerge(arms) => {
                PlanOp::UnionMerge(arms.into_iter().map(fuse_ops).collect())
            }
            PlanOp::ClosureExpand { body } => PlanOp::ClosureExpand { body: fuse_ops(body) },
            PlanOp::QualifierProbe(q) => PlanOp::QualifierProbe(fuse_qual(q)),
            op => op,
        };
        // `descendant-expand (or-self) → descendant-slice` is the slice
        // itself (descendants of descendants-or-self are exactly
        // descendants), so the expand's intermediate set — often the
        // whole document for `//(//p)` shapes — never needs to exist.
        let mut from_expand = false;
        if matches!(node.op, PlanOp::DescendantExpand { or_self: true }) {
            match it.peek() {
                Some(PlanNode { op: PlanOp::DescendantSlice(_), .. }) => {
                    node = it.next().expect("peeked");
                    from_expand = true;
                }
                // The follower may already be fused (inner pipelines are
                // fused before the outer pass sees them): absorb the
                // expand directly — descendant-or-self is idempotent, so
                // an already-absorbed expand stays one flag.
                Some(PlanNode { op: PlanOp::Fused(_), .. }) => {
                    node = it.next().expect("peeked");
                    let PlanOp::Fused(ref mut f) = node.op else { unreachable!() };
                    f.from_expand = true;
                }
                _ => {}
            }
        }
        if let PlanOp::SchemaSlice(s) = &mut node.op {
            if let Some(PlanNode { op: PlanOp::QualifierProbe(_), .. }) = it.peek() {
                let next = it.next().expect("peeked");
                let PlanOp::QualifierProbe(q) = next.op else { unreachable!() };
                s.scan.qual = Some(Box::new(fuse_qual(q)));
                node.est_rows = next.est_rows;
            }
        }
        if let PlanOp::DescendantSlice(axis) = &node.op {
            let mut fused = FusedScan { axis: axis.clone(), filter: None, qual: None, from_expand };
            let mut est = node.est_rows;
            let mut took = from_expand;
            if matches!(it.peek(), Some(PlanNode { op: PlanOp::BitmapFilter(_), .. })) {
                let next = it.next().expect("peeked");
                let PlanOp::BitmapFilter(f) = next.op else { unreachable!() };
                fused.filter = Some(f);
                est = next.est_rows;
                took = true;
            }
            if matches!(it.peek(), Some(PlanNode { op: PlanOp::QualifierProbe(_), .. })) {
                let next = it.next().expect("peeked");
                let PlanOp::QualifierProbe(q) = next.op else { unreachable!() };
                fused.qual = Some(Box::new(fuse_qual(q)));
                est = next.est_rows;
                took = true;
            }
            if took {
                node = PlanNode { op: PlanOp::Fused(fused), est_rows: est };
            }
        }
        out.push(node);
    }
    out
}

fn fuse_qual(q: QualPlan) -> QualPlan {
    match q {
        QualPlan::Exists(ops) => QualPlan::Exists(fuse_ops(ops)),
        QualPlan::Eq(ops, c) => QualPlan::Eq(fuse_ops(ops), c),
        QualPlan::And(a, b) => QualPlan::And(Box::new(fuse_qual(*a)), Box::new(fuse_qual(*b))),
        QualPlan::Or(a, b) => QualPlan::Or(Box::new(fuse_qual(*a)), Box::new(fuse_qual(*b))),
        QualPlan::Not(inner) => QualPlan::Not(Box::new(fuse_qual(*inner))),
        leaf => leaf,
    }
}

/// Append the annotation pipeline for `p`; returns the estimated output
/// cardinality and whether the output context is still a *seed* (the
/// root element or document node only), which gates the fused
/// slice-plus-bitmap lowering of `//axis`.
fn lower_annotate(
    p: &Path,
    est_in: f64,
    from_seed: bool,
    policy: PlanPolicy,
    cost: &CostModel,
    out: &mut Vec<PlanNode>,
) -> (f64, bool) {
    match p {
        Path::Empty => (est_in, from_seed),
        Path::EmptySet => {
            out.push(PlanNode { op: PlanOp::EmptySet, est_rows: 0 });
            (0.0, false)
        }
        Path::Doc => {
            out.push(PlanNode { op: PlanOp::DocSeed, est_rows: 1 });
            (1.0, true)
        }
        Path::Label(l) => (view_child(AxisTest::Label(l.clone()), est_in, cost, out), false),
        Path::Wildcard => (view_child(AxisTest::AnyElement, est_in, cost, out), false),
        Path::Text => (view_child(AxisTest::Text, est_in, cost, out), false),
        Path::Step(p1, p2) => {
            let (mid, seed) = lower_annotate(p1, est_in, from_seed, policy, cost, out);
            lower_annotate(p2, mid, seed, policy, cost, out)
        }
        Path::Descendant(inner) => {
            (lower_descendant_annotate(inner, from_seed, policy, cost, out), false)
        }
        Path::Union(p1, p2) => {
            let mut arm1 = Vec::new();
            let (e1, _) = lower_annotate(p1, est_in, from_seed, policy, cost, &mut arm1);
            let mut arm2 = Vec::new();
            let (e2, _) = lower_annotate(p2, est_in, from_seed, policy, cost, &mut arm2);
            let est = (e1 + e2).min(cost.nodes());
            out.push(PlanNode {
                op: PlanOp::UnionMerge(vec![arm1, arm2]),
                est_rows: clamp_est(est, cost),
            });
            (est, false)
        }
        Path::Filter(p1, q) => {
            let (base, seed) = lower_annotate(p1, est_in, from_seed, policy, cost, out);
            let qp = lower_qual_annotate(q, policy, cost);
            let est = base * selectivity(&qp);
            out.push(PlanNode { op: PlanOp::QualifierProbe(qp), est_rows: clamp_est(est, cost) });
            (est, seed)
        }
        Path::Closure(inner) => {
            // After one iteration the context is arbitrary, so the body
            // lowers off-seed: closure steps navigate the view CSR
            // (view-child / view-descendant), never the fused document
            // slice.
            let mut body = Vec::new();
            let (e_body, _) = lower_annotate(inner, est_in, false, policy, cost, &mut body);
            let est = closure_est(est_in, e_body, cost);
            out.push(PlanNode {
                op: PlanOp::ClosureExpand { body },
                est_rows: clamp_est(est, cost),
            });
            (est, false)
        }
    }
}

/// `//inner` over the view. From a seed context, non-dummy axis heads
/// lower to the fused document slice + membership bitmap; everywhere
/// else the view-descendant chain walk is used.
fn lower_descendant_annotate(
    inner: &Path,
    from_seed: bool,
    policy: PlanPolicy,
    cost: &CostModel,
    out: &mut Vec<PlanNode>,
) -> f64 {
    let axis = match inner {
        Path::Label(l) => Some(AxisTest::Label(l.clone())),
        Path::Wildcard => Some(AxisTest::AnyElement),
        Path::Text => Some(AxisTest::Text),
        _ => None,
    };
    if let Some(axis) = axis {
        let occ = cost.occurrence(&axis);
        let dummy = matches!(&axis, AxisTest::Label(l) if is_dummy_label(l));
        if from_seed && !dummy {
            // A document slice over-approximates the view axis only by
            // non-member nodes: every member under the root is a view
            // descendant of it, and members keep their document label.
            let filter = match &axis {
                AxisTest::AnyElement => AccessFilter::Element,
                _ => AccessFilter::Member,
            };
            out.push(PlanNode {
                op: PlanOp::DescendantSlice(axis),
                est_rows: clamp_est(occ, cost),
            });
            out.push(PlanNode { op: PlanOp::BitmapFilter(filter), est_rows: clamp_est(occ, cost) });
        } else {
            out.push(PlanNode { op: PlanOp::ViewDescendant(axis), est_rows: clamp_est(occ, cost) });
        }
        return occ;
    }
    match inner {
        Path::Step(a, b) => {
            let mid = lower_descendant_annotate(a, from_seed, policy, cost, out);
            lower_annotate(b, mid, false, policy, cost, out).0
        }
        Path::Union(a, b) => {
            let mut arm1 = Vec::new();
            let e1 = lower_descendant_annotate(a, from_seed, policy, cost, &mut arm1);
            let mut arm2 = Vec::new();
            let e2 = lower_descendant_annotate(b, from_seed, policy, cost, &mut arm2);
            let est = (e1 + e2).min(cost.nodes());
            out.push(PlanNode {
                op: PlanOp::UnionMerge(vec![arm1, arm2]),
                est_rows: clamp_est(est, cost),
            });
            est
        }
        Path::Filter(base, q) => {
            let b = lower_descendant_annotate(base, from_seed, policy, cost, out);
            let qp = lower_qual_annotate(q, policy, cost);
            let est = b * selectivity(&qp);
            out.push(PlanNode { op: PlanOp::QualifierProbe(qp), est_rows: clamp_est(est, cost) });
            est
        }
        // ε, ∅, doc(), nested //: materialize view descendant-or-self
        // and let the generic pipeline continue.
        _ => {
            let expanded = cost.nodes();
            out.push(PlanNode {
                op: PlanOp::ViewExpand { or_self: true },
                est_rows: clamp_est(expanded, cost),
            });
            lower_annotate(inner, expanded, false, policy, cost, out).0
        }
    }
}

/// One view child step (always a CSR walk; view children lists are
/// materialized, so there is no walk/merge choice to make).
fn view_child(axis: AxisTest, est_in: f64, cost: &CostModel, out: &mut Vec<PlanNode>) -> f64 {
    let occ = cost.occurrence(&axis);
    let est = occ.min(est_in * cost.fanout.max(1.0));
    out.push(PlanNode { op: PlanOp::ViewChild(axis), est_rows: clamp_est(est, cost) });
    est
}

fn lower_qual_annotate(q: &Qualifier, policy: PlanPolicy, cost: &CostModel) -> QualPlan {
    match q {
        Qualifier::True => QualPlan::True,
        Qualifier::False => QualPlan::False,
        Qualifier::Path(p) => {
            let mut ops = Vec::new();
            lower_annotate(p, 1.0, false, policy, cost, &mut ops);
            QualPlan::Exists(ops)
        }
        Qualifier::Eq(p, c) => {
            let mut ops = Vec::new();
            lower_annotate(p, 1.0, false, policy, cost, &mut ops);
            QualPlan::Eq(ops, c.clone())
        }
        Qualifier::Attr(name) => QualPlan::Attr(name.clone()),
        Qualifier::AttrEq(name, value) => QualPlan::AttrEq(name.clone(), value.clone()),
        Qualifier::And(a, b) => QualPlan::And(
            Box::new(lower_qual_annotate(a, policy, cost)),
            Box::new(lower_qual_annotate(b, policy, cost)),
        ),
        Qualifier::Or(a, b) => QualPlan::Or(
            Box::new(lower_qual_annotate(a, policy, cost)),
            Box::new(lower_qual_annotate(b, policy, cost)),
        ),
        Qualifier::Not(inner) => QualPlan::Not(Box::new(lower_qual_annotate(inner, policy, cost))),
    }
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// The node ids of an [`ExecSet`], in one of two representations the
/// executor switches between by density: a sorted-unique vec (the
/// default; document order is ascending id order) or a dense bitmap
/// (produced by wide `//`-expansions, consumed word-parallel by
/// `bitmap-filter` and union).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Rows {
    /// Strictly increasing (document-order) node ids.
    Sorted(Vec<NodeId>),
    /// One bit per document node.
    Dense(NodeBitmap),
}

impl Default for Rows {
    fn default() -> Rows {
        Rows::Sorted(Vec::new())
    }
}

/// A context/result set for the plan executor: the member ids (sorted
/// vec or dense bitmap) plus the virtual document-node flag.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct ExecSet {
    doc: bool,
    rows: Rows,
}

impl ExecSet {
    fn empty() -> ExecSet {
        ExecSet::default()
    }

    fn single(v: NodeId) -> ExecSet {
        ExecSet::from_sorted(vec![v])
    }

    fn document() -> ExecSet {
        ExecSet { doc: true, rows: Rows::default() }
    }

    fn from_sorted(nodes: Vec<NodeId>) -> ExecSet {
        ExecSet { doc: false, rows: Rows::Sorted(nodes) }
    }

    fn is_empty(&self) -> bool {
        !self.doc
            && match &self.rows {
                Rows::Sorted(v) => v.is_empty(),
                Rows::Dense(b) => b.count_ones() == 0,
            }
    }

    /// Materialize dense rows back into the sorted-vec representation.
    /// Every operator except `bitmap-filter` and union consumes sorted
    /// rows; [`run_ops`] calls this before dispatching to them.
    fn make_sorted(&mut self) {
        if let Rows::Dense(b) = &self.rows {
            self.rows = Rows::Sorted(b.to_ids());
        }
    }

    /// The sorted ids. Callers run behind [`ExecSet::make_sorted`].
    fn ids(&self) -> &[NodeId] {
        match &self.rows {
            Rows::Sorted(v) => v,
            Rows::Dense(_) => unreachable!("dense rows must be materialized before id access"),
        }
    }

    fn into_ids(mut self) -> Vec<NodeId> {
        self.make_sorted();
        match self.rows {
            Rows::Sorted(v) => v,
            Rows::Dense(_) => unreachable!(),
        }
    }

    fn push(&mut self, v: NodeId) {
        match &mut self.rows {
            Rows::Sorted(nodes) => nodes.push(v),
            Rows::Dense(b) => b.set(v),
        }
    }

    fn extend_slice(&mut self, ids: &[NodeId]) {
        match &mut self.rows {
            Rows::Sorted(nodes) => nodes.extend_from_slice(ids),
            Rows::Dense(b) => {
                for &v in ids {
                    b.set(v);
                }
            }
        }
    }

    /// Restore the sorted-unique invariant after out-of-order pushes
    /// (dense rows are inherently normalized).
    fn normalize(&mut self) {
        if let Rows::Sorted(nodes) = &mut self.rows {
            nodes.sort_unstable();
            nodes.dedup();
        }
    }

    /// Union with another set: word-parallel OR when both sides are
    /// dense, merge of sorted-unique vecs otherwise.
    fn union_with(&mut self, mut other: ExecSet, stats: &mut EvalStats) {
        self.doc |= other.doc;
        if let (Rows::Dense(a), Rows::Dense(b)) = (&mut self.rows, &other.rows) {
            stats.merge_steps += (a.len().div_ceil(64)) as u64;
            a.or_assign(b);
            return;
        }
        self.make_sorted();
        other.make_sorted();
        let other_nodes = match other.rows {
            Rows::Sorted(v) => v,
            Rows::Dense(_) => unreachable!(),
        };
        let Rows::Sorted(nodes) = &mut self.rows else { unreachable!() };
        if other_nodes.is_empty() {
            return;
        }
        if nodes.is_empty() {
            *nodes = other_nodes;
            return;
        }
        stats.merge_steps += (nodes.len() + other_nodes.len()) as u64;
        let mut merged = Vec::with_capacity(nodes.len() + other_nodes.len());
        let (a, b) = (&*nodes, &other_nodes);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        *nodes = merged;
    }
}

/// Everything the executor reads per call: the document, the optional
/// structural index, and (annotation plans only) the access view.
/// `lowered` lets schema slices take their scan: false at the document
/// node, whose context the lowering did not assume.
#[derive(Clone, Copy)]
struct Exec<'a> {
    doc: &'a Document,
    idx: Option<&'a DocIndex>,
    access: Option<&'a AccessView>,
    lowered: bool,
}

impl<'a> Exec<'a> {
    fn access(&self) -> &'a AccessView {
        self.access.expect("annotation plan executed without an AccessView (engine invariant)")
    }

    /// Whether `s` may run its scan: an index is attached and the
    /// document conforms to the schema the run was proved against.
    fn slice_ok(&self, s: &SchemaSlice) -> bool {
        self.lowered && self.idx.is_some_and(|idx| idx.conforms_to(&s.schema))
    }
}

impl CompiledQuery {
    /// Execute at the root element (the context the paper's rewriting
    /// assumes). `index` is a pure accelerator: plans compiled for
    /// indexed serving degrade gracefully without one.
    pub fn execute(&self, doc: &Document, index: Option<&DocIndex>) -> (Vec<NodeId>, EvalStats) {
        self.execute_with_access(doc, index, None)
    }

    /// Execute at the root element with an [`AccessView`] — required for
    /// plans from [`compile_annotate`], ignored by rewrite plans (whose
    /// operators never consult it).
    pub fn execute_with_access(
        &self,
        doc: &Document,
        index: Option<&DocIndex>,
        access: Option<&AccessView>,
    ) -> (Vec<NodeId>, EvalStats) {
        let mut stats = EvalStats::default();
        let ex = Exec { doc, idx: index, access, lowered: true };
        let result = match doc.root_opt() {
            Some(root) => run_ops(ex, self.body(), ExecSet::single(root), &mut stats).into_ids(),
            None => Vec::new(),
        };
        (result, stats)
    }

    /// Execute at the virtual document node (standard XPath document
    /// semantics for absolute and descendant queries). Schema slices run
    /// their chains here: their lowering assumed the root-element
    /// context.
    pub fn execute_at_document(
        &self,
        doc: &Document,
        index: Option<&DocIndex>,
    ) -> (Vec<NodeId>, EvalStats) {
        let mut stats = EvalStats::default();
        let ex = Exec { doc, idx: index, access: None, lowered: false };
        let result = run_ops(ex, self.body(), ExecSet::document(), &mut stats).into_ids();
        (result, stats)
    }

    /// The pipeline after the seed marker.
    fn body(&self) -> &[PlanNode] {
        match self.ops.first() {
            Some(PlanNode { op: PlanOp::RootSeed, .. }) => &self.ops[1..],
            _ => &self.ops,
        }
    }

    /// Per-operator counts and the planned result cardinality.
    pub fn summary(&self) -> PlanSummary {
        let mut s = PlanSummary {
            est_rows: self.ops.last().map(|n| n.est_rows).unwrap_or(0),
            ..PlanSummary::default()
        };
        count_ops(&self.ops, &mut s);
        s
    }
}

fn run_ops(ex: Exec, ops: &[PlanNode], ctx: ExecSet, stats: &mut EvalStats) -> ExecSet {
    let mut cur = ctx;
    for node in ops {
        if cur.is_empty() {
            return ExecSet::empty();
        }
        // Only the bitmap filter (and union, internally) consume dense
        // rows; every other operator reads sorted ids.
        if !matches!(node.op, PlanOp::BitmapFilter(_)) {
            cur.make_sorted();
        }
        cur = run_op(ex, &node.op, &cur, stats);
    }
    cur
}

fn run_op(ex: Exec, op: &PlanOp, ctx: &ExecSet, stats: &mut EvalStats) -> ExecSet {
    let (doc, idx) = (ex.doc, ex.idx);
    match op {
        PlanOp::RootSeed => match doc.root_opt() {
            Some(root) => ExecSet::single(root),
            None => ExecSet::empty(),
        },
        PlanOp::DocSeed => ExecSet::document(),
        PlanOp::EmptySet => ExecSet::empty(),
        PlanOp::ChildWalk(axis) => child_walk(doc, ctx, axis, stats),
        PlanOp::ChildMergeJoin(axis) => match idx {
            Some(idx) => child_merge(doc, idx, ctx, axis, stats),
            None => child_walk(doc, ctx, axis, stats),
        },
        PlanOp::DescendantSlice(axis) => match idx {
            Some(idx) => descendant_slice(doc, idx, ctx, axis, stats),
            None => descendant_scan(doc, ctx, axis, stats),
        },
        PlanOp::Fused(f) => fused_scan(ex, ctx, f, stats),
        PlanOp::DescendantExpand { or_self } => descendant_expand(doc, idx, ctx, *or_self, stats),
        PlanOp::UnionMerge(arms) => {
            let mut out = ExecSet::empty();
            for arm in arms {
                out.union_with(run_ops(ex, arm, ctx.clone(), stats), stats);
            }
            out
        }
        PlanOp::ClosureExpand { body } => closure_expand(ex, body, ctx, stats),
        PlanOp::QualifierProbe(q) => qual_filter(ex, q, ctx, stats),
        PlanOp::SchemaSlice(s) => {
            if ex.slice_ok(s) {
                fused_scan(ex, ctx, &s.scan, stats)
            } else {
                schema_chain(ex, s, ctx, stats)
            }
        }
        PlanOp::BitmapFilter(f) => bitmap_filter(ex.access(), ctx, *f, stats),
        PlanOp::ViewChild(axis) => view_child_step(doc, ex.access(), ctx, axis, stats),
        PlanOp::ViewDescendant(axis) => view_descendant(ex, ex.access(), ctx, axis, stats),
        PlanOp::ViewExpand { or_self } => view_expand(ex.access(), ctx, *or_self, stats),
    }
}

/// Keep the (sorted) context nodes satisfying `q`.
fn qual_filter(ex: Exec, q: &QualPlan, ctx: &ExecSet, stats: &mut EvalStats) -> ExecSet {
    // The document-node probe counts as a qualifier check like every
    // per-element probe (the existence path already did).
    let doc_kept = ctx.doc && stats.counted_check(|s| qual_probe(ex, q, &ExecSet::document(), s));
    let nodes = ctx
        .ids()
        .iter()
        .copied()
        .filter(|&v| stats.counted_check(|s| qual_probe(ex, q, &ExecSet::single(v), s)))
        .collect();
    ExecSet { doc: doc_kept, rows: Rows::Sorted(nodes) }
}

/// A schema slice's fallback: the chain it replaced, then its fused
/// qualifier.
fn schema_chain(ex: Exec, s: &SchemaSlice, ctx: &ExecSet, stats: &mut EvalStats) -> ExecSet {
    let mut cur = run_ops(ex, &s.chain, ctx.clone(), stats);
    if let Some(q) = &s.scan.qual {
        cur.make_sorted();
        cur = qual_filter(ex, q, &cur, stats);
    }
    cur
}

/// AND the context against an [`AccessView`] bitmap: word-parallel on
/// dense rows, a contains-probe per id on sorted rows. Drops the doc
/// flag (the virtual document node is in no bitmap).
fn bitmap_filter(
    av: &AccessView,
    ctx: &ExecSet,
    filter: AccessFilter,
    stats: &mut EvalStats,
) -> ExecSet {
    let bm = filter.bitmap(av);
    match &ctx.rows {
        Rows::Dense(rows) => {
            let mut out = rows.clone();
            stats.merge_steps += (out.len().div_ceil(64)) as u64;
            out.and_assign(bm);
            ExecSet { doc: false, rows: Rows::Dense(out) }
        }
        Rows::Sorted(rows) => {
            stats.nodes_touched += rows.len() as u64;
            ExecSet::from_sorted(rows.iter().copied().filter(|&v| bm.contains(v)).collect())
        }
    }
}

/// One child step over the view tree: CSR children lists plus the axis
/// test on *view* labels. The document node's only view child is the
/// root.
fn view_child_step(
    doc: &Document,
    av: &AccessView,
    ctx: &ExecSet,
    axis: &AxisTest,
    stats: &mut EvalStats,
) -> ExecSet {
    let mut out = ExecSet::empty();
    if ctx.doc {
        if let Some(root) = doc.root_opt() {
            if av.test_matches(doc, root, axis) {
                out.push(root);
            }
        }
    }
    stats.nodes_touched += ctx.ids().len() as u64;
    for &v in ctx.ids() {
        for &c in av.view_children(v) {
            if av.test_matches(doc, c, axis) {
                out.push(c);
            }
        }
    }
    // View children of nested context nodes can interleave in id order.
    out.normalize();
    out
}

/// Does some context node view-dominate `c`? Walks `c`'s view-parent
/// chain (strictly descending ids) probing the sorted context, stopping
/// once the chain passes below the smallest context id.
fn ctx_view_dominates(av: &AccessView, ctx: &[NodeId], c: NodeId, stats: &mut EvalStats) -> bool {
    let Some(&lo) = ctx.first() else { return false };
    let mut cur = av.view_parent(c);
    while let Some(p) = cur {
        stats.merge_steps += 1;
        if ctx.binary_search(&p).is_ok() {
            return true;
        }
        if p < lo {
            return false;
        }
        cur = av.view_parent(p);
    }
    false
}

/// `//axis` over the view from an arbitrary context: occurrence-list
/// candidates (dummy lists for dummy labels) filtered by the view test
/// and a view-ancestor chain probe against the context.
fn view_descendant(
    ex: Exec,
    av: &AccessView,
    ctx: &ExecSet,
    axis: &AxisTest,
    stats: &mut EvalStats,
) -> ExecSet {
    let doc = ex.doc;
    let dummy_list: Vec<NodeId>;
    let scan: Vec<NodeId>;
    let candidates: &[NodeId] = match (axis, ex.idx) {
        (AxisTest::Label(l), _) if is_dummy_label(l) => {
            dummy_list = av.dummy_list(l).to_vec();
            &dummy_list
        }
        (axis, Some(idx)) => axis.occurrences(idx),
        (_, None) => {
            scan = (0..doc.len()).map(NodeId::from_index).collect();
            &scan
        }
    };
    let mut out = ExecSet::empty();
    // View parents are strict document ancestors, so a view descendant
    // of an element context is always a document descendant of it: with
    // an index, only candidates inside the contexts' subtree intervals
    // can qualify — slice instead of scanning the whole occurrence list.
    if let (false, Some(idx)) = (ctx.doc, ex.idx) {
        for r in staircase(idx, ctx.ids(), stats) {
            let end = idx.subtree_end(r);
            let lo = candidates.partition_point(|&x| x <= r);
            let hi = candidates.partition_point(|&x| x <= end);
            stats.interval_probes += 1;
            stats.nodes_touched += (hi - lo) as u64;
            for &c in &candidates[lo..hi] {
                if av.test_matches(doc, c, axis) && ctx_view_dominates(av, ctx.ids(), c, stats) {
                    out.push(c);
                }
            }
        }
        return out;
    }
    stats.nodes_touched += candidates.len() as u64;
    for &c in candidates {
        if !av.test_matches(doc, c, axis) {
            continue;
        }
        // From the document node, the view descendants-or-self cover
        // every view node; from element contexts, probe the chain.
        let dominated = (ctx.doc && av.in_view(c))
            || (!ctx.ids().is_empty() && ctx_view_dominates(av, ctx.ids(), c, stats));
        if dominated {
            out.push(c);
        }
    }
    out
}

/// Materialize the view descendants(-or-self) of the context.
fn view_expand(av: &AccessView, ctx: &ExecSet, or_self: bool, stats: &mut EvalStats) -> ExecSet {
    let mut all = av.members().clone();
    all.or_assign(av.dummies());
    let mut out = ExecSet { doc: ctx.doc && or_self, rows: Rows::default() };
    for c in all.iter() {
        stats.nodes_touched += 1;
        let keep = ctx.doc
            || (or_self && ctx.ids().binary_search(&c).is_ok())
            || (!ctx.ids().is_empty() && ctx_view_dominates(av, ctx.ids(), c, stats));
        if keep {
            out.push(c);
        }
    }
    out
}

/// Candidate admission test of a [`FusedScan`]: the bitmap probe, then
/// the (counted) qualifier probe, each short-circuiting.
fn fused_keep(
    ex: Exec,
    f: &FusedScan,
    bm: Option<&NodeBitmap>,
    v: NodeId,
    stats: &mut EvalStats,
) -> bool {
    if let Some(bm) = bm {
        if !bm.contains(v) {
            return false;
        }
    }
    match &f.qual {
        Some(q) => stats.counted_check(|s| qual_probe(ex, q, &ExecSet::single(v), s)),
        None => true,
    }
}

/// The fused streaming scan: per pruned context root, candidates stream
/// from the occurrence-list interval (or the degraded subtree scan)
/// straight through the bitmap test and the qualifier probe —
/// non-qualifying nodes never enter any intermediate set.
fn fused_scan(ex: Exec, ctx: &ExecSet, f: &FusedScan, stats: &mut EvalStats) -> ExecSet {
    let doc = ex.doc;
    let bm = f.filter.map(|flt| flt.bitmap(ex.access()));
    let mut out = ExecSet::empty();
    match ex.idx {
        Some(idx) => {
            let (roots, include_root_match) = if ctx.doc {
                match doc.root_opt() {
                    Some(r) => (vec![r], true),
                    None => return ExecSet::empty(),
                }
            } else {
                (staircase(idx, ctx.ids(), stats), false)
            };
            for &r in &roots {
                if include_root_match && f.axis.matches(doc, r) && fused_keep(ex, f, bm, r, stats) {
                    out.push(r);
                }
                let hits = f.axis.slice(idx, r);
                stats.interval_probes += 1;
                stats.nodes_touched += hits.len() as u64;
                if bm.is_none() && f.qual.is_none() {
                    // Nothing to test per candidate (a bare schema
                    // slice): copy the interval.
                    out.extend_slice(hits);
                    continue;
                }
                for &h in hits {
                    if fused_keep(ex, f, bm, h, stats) {
                        out.push(h);
                    }
                }
            }
            out
        }
        None => {
            let mut touched = 0u64;
            if ctx.doc {
                if let Some(root) = doc.root_opt() {
                    for v in doc.descendants_or_self(root) {
                        touched += 1;
                        if f.axis.matches(doc, v) && fused_keep(ex, f, bm, v, stats) {
                            out.push(v);
                        }
                    }
                }
            }
            for &v in ctx.ids() {
                for d in doc.descendants(v) {
                    touched += 1;
                    if f.axis.matches(doc, d) && fused_keep(ex, f, bm, d, stats) {
                        out.push(d);
                    }
                }
            }
            stats.nodes_touched += touched;
            out.normalize();
            out
        }
    }
}

/// Existence probe of a [`FusedScan`]: stream candidates per context
/// node and exit at the first survivor — the short-circuit per-context
/// exit fused qualifier pipelines get for free.
fn fused_scan_any(ex: Exec, ctx: &ExecSet, f: &FusedScan, stats: &mut EvalStats) -> bool {
    let doc = ex.doc;
    let bm = f.filter.map(|flt| flt.bitmap(ex.access()));
    match ex.idx {
        Some(idx) => {
            if ctx.doc {
                // Same interval subsumption as the unfused probe: the
                // root slice covers every context id's slice, so decide
                // on the document probe alone (one interval_probes
                // count, no per-id re-entry).
                return match doc.root_opt() {
                    Some(root) => {
                        (f.axis.matches(doc, root) && fused_keep(ex, f, bm, root, stats)) || {
                            stats.interval_probes += 1;
                            f.axis.slice(idx, root).iter().any(|&h| fused_keep(ex, f, bm, h, stats))
                        }
                    }
                    None => false,
                };
            }
            ctx.ids().iter().any(|&v| {
                stats.interval_probes += 1;
                f.axis.slice(idx, v).iter().any(|&h| fused_keep(ex, f, bm, h, stats))
            })
        }
        None => {
            if ctx.doc {
                if let Some(root) = doc.root_opt() {
                    for v in doc.descendants_or_self(root) {
                        if f.axis.matches(doc, v) && fused_keep(ex, f, bm, v, stats) {
                            return true;
                        }
                    }
                }
            }
            ctx.ids().iter().any(|&v| {
                doc.descendants(v)
                    .filter(|&d| f.axis.matches(doc, d))
                    .any(|d| fused_keep(ex, f, bm, d, stats))
            })
        }
    }
}

/// `(p)*` worklist fixpoint with an in-place bitmap-deduped visited set:
/// membership is one bit probe, newly reached ids need no re-sort
/// against the accumulator, and the final sorted result falls out of the
/// bitmap in one ascending sweep.
fn closure_expand(ex: Exec, body: &[PlanNode], ctx: &ExecSet, stats: &mut EvalStats) -> ExecSet {
    let mut visited = NodeBitmap::new(ex.doc.len());
    for &v in ctx.ids() {
        visited.set(v);
    }
    let mut acc_doc = ctx.doc;
    let mut frontier = ctx.clone();
    loop {
        let mut step = run_ops(ex, body, frontier, stats);
        step.make_sorted();
        let new_doc = step.doc && !acc_doc;
        let new_ids: Vec<NodeId> =
            step.ids().iter().copied().filter(|&v| !visited.contains(v)).collect();
        if !new_doc && new_ids.is_empty() {
            break;
        }
        acc_doc |= new_doc;
        for &v in &new_ids {
            visited.set(v);
        }
        frontier = ExecSet { doc: new_doc, rows: Rows::Sorted(new_ids) };
    }
    // to_ids sweeps the bitmap ascending, so the sorted-unique invariant
    // holds by construction.
    ExecSet { doc: acc_doc, rows: Rows::Sorted(visited.to_ids()) }
}

/// Child step by walking children lists (the document node's only child
/// is the root element).
fn child_walk(doc: &Document, ctx: &ExecSet, axis: &AxisTest, stats: &mut EvalStats) -> ExecSet {
    let mut out = ExecSet::empty();
    if ctx.doc {
        if let Some(root) = doc.root_opt() {
            if axis.matches(doc, root) {
                out.push(root);
            }
        }
    }
    stats.nodes_touched += ctx.ids().len() as u64;
    for &v in ctx.ids() {
        for &c in doc.children(v) {
            if axis.matches(doc, c) {
                out.push(c);
            }
        }
    }
    // Children of nested context nodes can interleave in document order.
    out.normalize();
    out
}

/// Child step by merging the occurrence list against the context: every
/// candidate inside the context span checks its parent membership.
fn child_merge(
    doc: &Document,
    idx: &DocIndex,
    ctx: &ExecSet,
    axis: &AxisTest,
    stats: &mut EvalStats,
) -> ExecSet {
    let mut out = ExecSet::empty();
    if ctx.doc {
        if let Some(root) = doc.root_opt() {
            if axis.matches(doc, root) {
                out.push(root);
            }
        }
    }
    if ctx.ids().is_empty() {
        return out;
    }
    let occ = axis.occurrences(idx);
    let span_lo = ctx.ids()[0];
    let span_hi = ctx.ids().iter().map(|&v| idx.subtree_end(v)).max().expect("non-empty ctx");
    let lo = occ.partition_point(|&x| x <= span_lo);
    let hi = occ.partition_point(|&x| x <= span_hi);
    stats.interval_probes += 1;
    let candidates = &occ[lo..hi];
    stats.merge_steps += candidates.len() as u64;
    // Candidates arrive in document order and each child has exactly one
    // parent, so pushes after any root-element hit stay sorted-unique.
    for &c in candidates {
        let Some(parent) = doc.parent(c) else { continue };
        if ctx.ids().binary_search(&parent).is_ok() {
            out.push(c);
        }
    }
    stats.nodes_touched += out.ids().len() as u64;
    out
}

/// Keep only context nodes not contained in an earlier context's subtree
/// (the survivors have pairwise-disjoint intervals whose union covers
/// every descendant-or-self of the input).
fn staircase(idx: &DocIndex, nodes: &[NodeId], stats: &mut EvalStats) -> Vec<NodeId> {
    let mut roots: Vec<NodeId> = Vec::new();
    let mut last_end: Option<NodeId> = None;
    stats.merge_steps += nodes.len() as u64;
    for &v in nodes {
        if last_end.is_none_or(|e| v > e) {
            roots.push(v);
            last_end = Some(idx.subtree_end(v));
        }
    }
    roots
}

/// `//axis` with an index: slice the occurrence list per pruned root.
fn descendant_slice(
    doc: &Document,
    idx: &DocIndex,
    ctx: &ExecSet,
    axis: &AxisTest,
    stats: &mut EvalStats,
) -> ExecSet {
    // The document node's descendant-or-self set is the whole tree plus
    // itself; a child step from that reaches the root element too, which
    // no tree interval covers — flag it separately.
    let (roots, include_root_match) = if ctx.doc {
        match doc.root_opt() {
            Some(r) => (vec![r], true),
            None => return ExecSet::empty(),
        }
    } else {
        (staircase(idx, ctx.ids(), stats), false)
    };
    let mut out = ExecSet::empty();
    for &r in &roots {
        // Roots have disjoint, ascending intervals and `r` precedes its
        // slice, so pushes stay sorted.
        if include_root_match && axis.matches(doc, r) {
            out.push(r);
        }
        let hits = axis.slice(idx, r);
        stats.interval_probes += 1;
        stats.nodes_touched += hits.len() as u64;
        out.extend_slice(hits);
    }
    out
}

/// `//axis` without an index: scan subtrees (the degraded twin of
/// [`descendant_slice`] — same result, linear work).
fn descendant_scan(
    doc: &Document,
    ctx: &ExecSet,
    axis: &AxisTest,
    stats: &mut EvalStats,
) -> ExecSet {
    let mut out = ExecSet::empty();
    let mut touched = 0u64;
    if ctx.doc {
        if let Some(root) = doc.root_opt() {
            for v in doc.descendants_or_self(root) {
                touched += 1;
                if axis.matches(doc, v) {
                    out.push(v);
                }
            }
        }
    }
    for &v in ctx.ids() {
        for d in doc.descendants(v) {
            touched += 1;
            if axis.matches(doc, d) {
                out.push(d);
            }
        }
    }
    stats.nodes_touched += touched;
    out.normalize();
    out
}

/// Sparse-to-dense switch point: expansions covering at least this
/// fraction of the document materialize as a bitmap instead of an id
/// vec, so a following `bitmap-filter` (or union) runs word-parallel.
const DENSE_FRACTION: usize = 16;

/// Materialize descendants(-or-self): contiguous id ranges with an index
/// (as a dense bitmap when they cover enough of the document), subtree
/// walks without.
fn descendant_expand(
    doc: &Document,
    idx: Option<&DocIndex>,
    ctx: &ExecSet,
    or_self: bool,
    stats: &mut EvalStats,
) -> ExecSet {
    let mut out = ExecSet { doc: ctx.doc && or_self, rows: Rows::default() };
    match idx {
        Some(idx) => {
            // The document node's proper descendants are the root plus
            // its subtree, i.e. the root's descendant-or-self range.
            let mut ranges: Vec<(usize, usize)> = Vec::new();
            if ctx.doc {
                if let Some(root) = doc.root_opt() {
                    ranges.push((root.index(), idx.subtree_end(root).index()));
                }
            }
            for &r in &staircase(idx, ctx.ids(), stats) {
                let start = if or_self { r.index() } else { r.index() + 1 };
                let end = idx.subtree_end(r).index();
                if start <= end {
                    ranges.push((start, end));
                }
            }
            stats.interval_probes += ranges.len() as u64;
            let total: usize = ranges.iter().map(|&(s, e)| e + 1 - s).sum();
            stats.nodes_touched += total as u64;
            if doc.len() >= 64 && total >= doc.len() / DENSE_FRACTION {
                let mut bm = NodeBitmap::new(doc.len());
                for &(s, e) in &ranges {
                    bm.set_range(NodeId::from_index(s), NodeId::from_index(e));
                }
                out.rows = Rows::Dense(bm);
            } else {
                for &(s, e) in &ranges {
                    out.extend_slice(&(s..=e).map(NodeId::from_index).collect::<Vec<_>>());
                }
                // Ranges can overlap (doc-context range covers staircase
                // roots); nested context nodes dropped by the staircase
                // are inside a survivor's range already.
                out.normalize();
            }
        }
        None => {
            if ctx.doc {
                if let Some(root) = doc.root_opt() {
                    let mut n = 0u64;
                    for d in doc.descendants_or_self(root) {
                        out.push(d);
                        n += 1;
                    }
                    stats.nodes_touched += n;
                }
            }
            for &v in ctx.ids() {
                let mut n = 0u64;
                for d in doc.descendants_or_self(v).skip(if or_self { 0 } else { 1 }) {
                    out.push(d);
                    n += 1;
                }
                stats.nodes_touched += n;
            }
            out.normalize();
        }
    }
    out
}

fn qual_probe(ex: Exec, q: &QualPlan, ctx: &ExecSet, stats: &mut EvalStats) -> bool {
    let (doc, idx) = (ex.doc, ex.idx);
    match q {
        QualPlan::True => true,
        QualPlan::False => false,
        QualPlan::Exists(ops) => exists_ops(ex, ops, ctx, stats),
        QualPlan::Eq(ops, c) => {
            let mut result = run_ops(ex, ops, ctx.clone(), stats);
            result.make_sorted();
            match idx {
                // Memoized string values: one O(log n) slice of the
                // index's text buffer per candidate.
                Some(idx) => result.ids().iter().any(|&n| {
                    stats.index_lookups += 1;
                    idx.string_value(n) == *c
                }),
                None => result.ids().iter().any(|&n| doc.string_value(n) == *c),
            }
        }
        // Attribute tests consult the access view when one is present
        // (annotation plans): hidden attributes and dummy nodes test
        // false, exactly as the §4 rewriting neutralizes them.
        QualPlan::Attr(name) => ctx
            .ids()
            .first()
            .map(|&v| attr_in_view(ex.access, doc, v, name) && doc.attribute(v, name).is_some())
            .unwrap_or(false),
        QualPlan::AttrEq(name, value) => ctx
            .ids()
            .first()
            .map(|&v| {
                attr_in_view(ex.access, doc, v, name)
                    && doc.attribute(v, name) == Some(value.as_str())
            })
            .unwrap_or(false),
        QualPlan::And(a, b) => qual_probe(ex, a, ctx, stats) && qual_probe(ex, b, ctx, stats),
        QualPlan::Or(a, b) => qual_probe(ex, a, ctx, stats) || qual_probe(ex, b, ctx, stats),
        QualPlan::Not(inner) => !qual_probe(ex, inner, ctx, stats),
    }
}

/// Attribute visibility gate: unrestricted without an access view
/// (rewrite plans keep their exact historical behavior).
fn attr_in_view(access: Option<&AccessView>, doc: &Document, v: NodeId, name: &str) -> bool {
    match access {
        Some(av) => av.attr_visible(doc, v, name),
        None => true,
    }
}

/// `[p]` existence without materializing the final operator where a probe
/// suffices: the pipeline prefix runs normally, then the last op is
/// answered by emptiness probes (interval slices, bounded children
/// scans) instead of building its result set.
fn exists_ops(ex: Exec, ops: &[PlanNode], ctx: &ExecSet, stats: &mut EvalStats) -> bool {
    let (doc, idx) = (ex.doc, ex.idx);
    if ctx.is_empty() {
        return false;
    }
    let Some((last, prefix)) = ops.split_last() else {
        return true; // the empty pipeline is the identity: ctx is non-empty
    };
    let mut mid = run_ops(ex, prefix, ctx.clone(), stats);
    if mid.is_empty() {
        return false;
    }
    mid.make_sorted();
    match &last.op {
        PlanOp::RootSeed => doc.root_opt().is_some(),
        PlanOp::DocSeed => true,
        PlanOp::EmptySet => false,
        PlanOp::DescendantSlice(axis) => {
            if let Some(idx) = idx {
                if mid.doc {
                    // The root's interval contains every element
                    // context's, so the document probe alone decides:
                    // re-entering the slice path per context id would
                    // re-count interval_probes for sub-slices that
                    // cannot hit anything the root slice missed.
                    return match doc.root_opt() {
                        Some(root) => {
                            axis.matches(doc, root) || {
                                stats.interval_probes += 1;
                                !axis.slice(idx, root).is_empty()
                            }
                        }
                        None => false,
                    };
                }
                mid.ids().iter().any(|&v| {
                    stats.interval_probes += 1;
                    !axis.slice(idx, v).is_empty()
                })
            } else {
                !descendant_scan(doc, &mid, axis, stats).is_empty()
            }
        }
        PlanOp::ChildWalk(axis) | PlanOp::ChildMergeJoin(axis) => {
            if mid.doc {
                if let Some(root) = doc.root_opt() {
                    if axis.matches(doc, root) {
                        return true;
                    }
                }
            }
            mid.ids().iter().any(|&v| {
                let kids = doc.children(v);
                stats.merge_steps += kids.len() as u64;
                kids.iter().any(|&c| axis.matches(doc, c))
            })
        }
        PlanOp::Fused(f) => fused_scan_any(ex, &mid, f, stats),
        PlanOp::SchemaSlice(s) => {
            if ex.slice_ok(s) {
                fused_scan_any(ex, &mid, &s.scan, stats)
            } else if s.scan.qual.is_none() {
                exists_ops(ex, &s.chain, &mid, stats)
            } else {
                !schema_chain(ex, s, &mid, stats).is_empty()
            }
        }
        PlanOp::DescendantExpand { or_self } => {
            if *or_self {
                true // mid is non-empty and expansion keeps each node
            } else {
                (mid.doc && doc.root_opt().is_some())
                    || mid.ids().iter().any(|&v| !doc.children(v).is_empty())
            }
        }
        PlanOp::UnionMerge(arms) => arms.iter().any(|arm| exists_ops(ex, arm, &mid, stats)),
        // Reflexive: the (non-empty) mid context itself is in the closure.
        PlanOp::ClosureExpand { .. } => true,
        PlanOp::QualifierProbe(q) => {
            (mid.doc && stats.counted_check(|s| qual_probe(ex, q, &ExecSet::document(), s)))
                || mid
                    .ids()
                    .iter()
                    .any(|&v| stats.counted_check(|s| qual_probe(ex, q, &ExecSet::single(v), s)))
        }
        PlanOp::BitmapFilter(f) => {
            let bm = f.bitmap(ex.access());
            stats.nodes_touched += mid.ids().len() as u64;
            mid.ids().iter().any(|&v| bm.contains(v))
        }
        PlanOp::ViewChild(axis) => {
            let av = ex.access();
            if mid.doc {
                if let Some(root) = doc.root_opt() {
                    if av.test_matches(doc, root, axis) {
                        return true;
                    }
                }
            }
            mid.ids().iter().any(|&v| {
                let kids = av.view_children(v);
                stats.merge_steps += kids.len() as u64;
                kids.iter().any(|&c| av.test_matches(doc, c, axis))
            })
        }
        PlanOp::ViewDescendant(axis) => {
            !view_descendant(ex, ex.access(), &mid, axis, stats).is_empty()
        }
        PlanOp::ViewExpand { or_self } => {
            if *or_self {
                true // mid is non-empty and expansion keeps each node
            } else {
                !view_expand(ex.access(), &mid, false, stats).is_empty()
            }
        }
    }
}

// ---------------------------------------------------------------------
// Summaries and explain rendering
// ---------------------------------------------------------------------

/// Per-operator plan counts (recursive: union arms and qualifier
/// sub-pipelines included) plus the planned result cardinality — the
/// metadata query reports carry and benchmarks record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanSummary {
    /// `child-walk` operators.
    pub child_walk: u32,
    /// `child-merge-join` operators.
    pub child_merge_join: u32,
    /// `descendant-slice` operators.
    pub descendant_slice: u32,
    /// `descendant-expand` operators.
    pub descendant_expand: u32,
    /// `fused-scan` operators (slice → bitmap → qualifier fusions).
    pub fused_scan: u32,
    /// `schema-slice` operators (schema-covered runs; their retained
    /// chains are not counted).
    pub schema_slice: u32,
    /// `union-merge` operators.
    pub union_merge: u32,
    /// `closure-expand` operators (recursive-view plans).
    pub closure_expand: u32,
    /// `qualifier-probe` operators (counting nested qualifiers).
    pub qualifier_probe: u32,
    /// `bitmap-filter` operators (annotation plans).
    pub bitmap_filter: u32,
    /// `view-child` operators (annotation plans).
    pub view_child: u32,
    /// `view-descendant` operators (annotation plans).
    pub view_descendant: u32,
    /// `view-expand` operators (annotation plans).
    pub view_expand: u32,
    /// Planned cardinality of the final operator.
    pub est_rows: u64,
}

impl PlanSummary {
    /// Total operators counted (seeds excluded).
    pub fn total_ops(&self) -> u32 {
        self.child_walk
            + self.child_merge_join
            + self.descendant_slice
            + self.descendant_expand
            + self.fused_scan
            + self.schema_slice
            + self.union_merge
            + self.closure_expand
            + self.qualifier_probe
            + self.bitmap_filter
            + self.view_child
            + self.view_descendant
            + self.view_expand
    }

    /// Compact `name:count` mix of the non-zero counters (for benchmark
    /// columns), e.g. `slice:1,walk:2,qual:1`.
    pub fn mix(&self) -> String {
        let parts = [
            ("walk", self.child_walk),
            ("merge", self.child_merge_join),
            ("slice", self.descendant_slice),
            ("expand", self.descendant_expand),
            ("fused", self.fused_scan),
            ("schema", self.schema_slice),
            ("union", self.union_merge),
            ("closure", self.closure_expand),
            ("qual", self.qualifier_probe),
            ("bitmap", self.bitmap_filter),
            ("vchild", self.view_child),
            ("vdesc", self.view_descendant),
            ("vexpand", self.view_expand),
        ];
        let mix: Vec<String> =
            parts.iter().filter(|(_, n)| *n > 0).map(|(k, n)| format!("{k}:{n}")).collect();
        if mix.is_empty() {
            "none".to_string()
        } else {
            mix.join(",")
        }
    }
}

impl fmt::Display for PlanSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ops[{}] est_rows≈{}", self.mix(), self.est_rows)
    }
}

fn count_ops(ops: &[PlanNode], s: &mut PlanSummary) {
    for node in ops {
        match &node.op {
            PlanOp::RootSeed | PlanOp::DocSeed | PlanOp::EmptySet => {}
            PlanOp::ChildWalk(_) => s.child_walk += 1,
            PlanOp::ChildMergeJoin(_) => s.child_merge_join += 1,
            PlanOp::DescendantSlice(_) => s.descendant_slice += 1,
            PlanOp::DescendantExpand { .. } => s.descendant_expand += 1,
            PlanOp::Fused(f) => {
                s.fused_scan += 1;
                if let Some(q) = &f.qual {
                    count_qual(q, s);
                }
            }
            PlanOp::UnionMerge(arms) => {
                s.union_merge += 1;
                for arm in arms {
                    count_ops(arm, s);
                }
            }
            PlanOp::ClosureExpand { body } => {
                s.closure_expand += 1;
                count_ops(body, s);
            }
            PlanOp::QualifierProbe(q) => {
                s.qualifier_probe += 1;
                count_qual(q, s);
            }
            PlanOp::SchemaSlice(sl) => {
                s.schema_slice += 1;
                if let Some(q) = &sl.scan.qual {
                    count_qual(q, s);
                }
            }
            PlanOp::BitmapFilter(_) => s.bitmap_filter += 1,
            PlanOp::ViewChild(_) => s.view_child += 1,
            PlanOp::ViewDescendant(_) => s.view_descendant += 1,
            PlanOp::ViewExpand { .. } => s.view_expand += 1,
        }
    }
}

fn count_qual(q: &QualPlan, s: &mut PlanSummary) {
    match q {
        QualPlan::Exists(ops) | QualPlan::Eq(ops, _) => count_ops(ops, s),
        QualPlan::And(a, b) | QualPlan::Or(a, b) => {
            count_qual(a, s);
            count_qual(b, s);
        }
        QualPlan::Not(inner) => count_qual(inner, s),
        _ => {}
    }
}

impl CompiledQuery {
    /// Human-readable plan dump (the `sxv explain` text format).
    pub fn explain_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "plan (policy={}, {}):", self.policy, self.summary());
        render_ops(&self.ops, 1, &mut out);
        out
    }

    /// Machine-readable plan dump (the `sxv explain --format json`
    /// payload; an object, not a fragment).
    pub fn explain_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"translated\": \"");
        out.push_str(&json_escape(&self.translated.to_string()));
        let _ = write!(
            out,
            "\", \"policy\": \"{}\", \"est_rows\": {}, \"ops\": ",
            self.policy,
            self.summary().est_rows
        );
        render_ops_json(&self.ops, &mut out);
        out.push('}');
        out
    }
}

pub(crate) fn op_detail(op: &PlanOp) -> String {
    match op {
        PlanOp::ChildWalk(a)
        | PlanOp::ChildMergeJoin(a)
        | PlanOp::DescendantSlice(a)
        | PlanOp::ViewChild(a)
        | PlanOp::ViewDescendant(a) => format!("{}({a})", op.name()),
        PlanOp::DescendantExpand { or_self } | PlanOp::ViewExpand { or_self } => {
            format!("{}({})", op.name(), if *or_self { "or-self" } else { "proper" })
        }
        PlanOp::BitmapFilter(f) => format!("{}({f})", op.name()),
        PlanOp::SchemaSlice(s) => format!("{}({})", op.name(), s.scan.axis),
        PlanOp::Fused(f) => {
            let pre = if f.from_expand { "or-self → " } else { "" };
            match f.filter {
                Some(flt) => format!("{}({pre}{} ∩ {flt})", op.name(), f.axis),
                None => format!("{}({pre}{})", op.name(), f.axis),
            }
        }
        other => other.name().to_string(),
    }
}

fn render_ops(ops: &[PlanNode], depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    for node in ops {
        let _ = writeln!(out, "{pad}{:<32} est_rows≈{}", op_detail(&node.op), node.est_rows);
        match &node.op {
            PlanOp::UnionMerge(arms) => {
                for (i, arm) in arms.iter().enumerate() {
                    let _ = writeln!(out, "{pad}  arm {}:", i + 1);
                    render_ops(arm, depth + 2, out);
                }
            }
            PlanOp::ClosureExpand { body } => {
                let _ = writeln!(out, "{pad}  body:");
                render_ops(body, depth + 2, out);
            }
            PlanOp::QualifierProbe(q) => render_qual(q, depth + 1, out),
            PlanOp::Fused(f) => {
                if let Some(q) = &f.qual {
                    render_qual(q, depth + 1, out);
                }
            }
            PlanOp::SchemaSlice(s) => {
                if let Some(q) = &s.scan.qual {
                    render_qual(q, depth + 1, out);
                }
                let _ = writeln!(out, "{pad}  chain:");
                render_ops(&s.chain, depth + 2, out);
            }
            _ => {}
        }
    }
}

fn render_qual(q: &QualPlan, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    match q {
        QualPlan::True => {
            let _ = writeln!(out, "{pad}true");
        }
        QualPlan::False => {
            let _ = writeln!(out, "{pad}false");
        }
        QualPlan::Exists(ops) => {
            let _ = writeln!(out, "{pad}exists:");
            render_ops(ops, depth + 1, out);
        }
        QualPlan::Eq(ops, c) => {
            let _ = writeln!(out, "{pad}eq {c:?}:");
            render_ops(ops, depth + 1, out);
        }
        QualPlan::Attr(a) => {
            let _ = writeln!(out, "{pad}attr @{a}");
        }
        QualPlan::AttrEq(a, v) => {
            let _ = writeln!(out, "{pad}attr @{a} = {v:?}");
        }
        QualPlan::And(a, b) => {
            let _ = writeln!(out, "{pad}and:");
            render_qual(a, depth + 1, out);
            render_qual(b, depth + 1, out);
        }
        QualPlan::Or(a, b) => {
            let _ = writeln!(out, "{pad}or:");
            render_qual(a, depth + 1, out);
            render_qual(b, depth + 1, out);
        }
        QualPlan::Not(inner) => {
            let _ = writeln!(out, "{pad}not:");
            render_qual(inner, depth + 1, out);
        }
    }
}

fn render_ops_json(ops: &[PlanNode], out: &mut String) {
    out.push('[');
    for (i, node) in ops.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{{\"op\": \"{}\"", node.op.name());
        match &node.op {
            PlanOp::ChildWalk(a)
            | PlanOp::ChildMergeJoin(a)
            | PlanOp::DescendantSlice(a)
            | PlanOp::ViewChild(a)
            | PlanOp::ViewDescendant(a) => {
                let _ = write!(out, ", \"test\": \"{}\"", json_escape(&a.to_string()));
            }
            PlanOp::DescendantExpand { or_self } | PlanOp::ViewExpand { or_self } => {
                let _ = write!(out, ", \"or_self\": {or_self}");
            }
            PlanOp::BitmapFilter(f) => {
                let _ = write!(out, ", \"filter\": \"{f}\"");
            }
            PlanOp::Fused(f) => {
                let _ = write!(out, ", \"test\": \"{}\"", json_escape(&f.axis.to_string()));
                if f.from_expand {
                    out.push_str(", \"from_expand\": true");
                }
                if let Some(flt) = f.filter {
                    let _ = write!(out, ", \"filter\": \"{flt}\"");
                }
                if let Some(q) = &f.qual {
                    out.push_str(", \"qual\": ");
                    render_qual_json(q, out);
                }
            }
            PlanOp::UnionMerge(arms) => {
                out.push_str(", \"arms\": [");
                for (j, arm) in arms.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    render_ops_json(arm, out);
                }
                out.push(']');
            }
            PlanOp::ClosureExpand { body } => {
                out.push_str(", \"body\": ");
                render_ops_json(body, out);
            }
            PlanOp::SchemaSlice(s) => {
                let _ = write!(out, ", \"test\": \"{}\"", json_escape(&s.scan.axis.to_string()));
                if let Some(q) = &s.scan.qual {
                    out.push_str(", \"qual\": ");
                    render_qual_json(q, out);
                }
                out.push_str(", \"chain\": ");
                render_ops_json(&s.chain, out);
            }
            PlanOp::QualifierProbe(q) => {
                out.push_str(", \"qual\": ");
                render_qual_json(q, out);
            }
            _ => {}
        }
        let _ = write!(out, ", \"est_rows\": {}}}", node.est_rows);
    }
    out.push(']');
}

fn render_qual_json(q: &QualPlan, out: &mut String) {
    match q {
        QualPlan::True => out.push_str("{\"kind\": \"true\"}"),
        QualPlan::False => out.push_str("{\"kind\": \"false\"}"),
        QualPlan::Exists(ops) => {
            out.push_str("{\"kind\": \"exists\", \"ops\": ");
            render_ops_json(ops, out);
            out.push('}');
        }
        QualPlan::Eq(ops, c) => {
            let _ = write!(out, "{{\"kind\": \"eq\", \"value\": \"{}\", \"ops\": ", json_escape(c));
            render_ops_json(ops, out);
            out.push('}');
        }
        QualPlan::Attr(a) => {
            let _ = write!(out, "{{\"kind\": \"attr\", \"name\": \"{}\"}}", json_escape(a));
        }
        QualPlan::AttrEq(a, v) => {
            let _ = write!(
                out,
                "{{\"kind\": \"attr-eq\", \"name\": \"{}\", \"value\": \"{}\"}}",
                json_escape(a),
                json_escape(v)
            );
        }
        QualPlan::And(a, b) | QualPlan::Or(a, b) => {
            let kind = if matches!(q, QualPlan::And(..)) { "and" } else { "or" };
            let _ = write!(out, "{{\"kind\": \"{kind}\", \"args\": [");
            render_qual_json(a, out);
            out.push_str(", ");
            render_qual_json(b, out);
            out.push_str("]}");
        }
        QualPlan::Not(inner) => {
            out.push_str("{\"kind\": \"not\", \"arg\": ");
            render_qual_json(inner, out);
            out.push('}');
        }
    }
}

/// The shared walk-equivalence query suite: every fragment-`C` shape the
/// plan executor (under every policy) must answer bit-identically to the
/// reference walk evaluator.
pub const EQUIVALENCE_QUERIES: &[&str] = &[
    "//patient",
    "//patient/name",
    "//dept//patientInfo/patient/name",
    "//patient[wardNo='6']",
    "//patient[name and wardNo]",
    "//patient[not(wardNo='6')]",
    "//name | //wardNo",
    "//text()",
    "//*",
    "//.",
    "dept//patient",
    "dept/*",
    "//dept/*",
    "dept/patientInfo/patient",
    "dept[//wardNo='7']",
    "//patientInfo[patient/wardNo='7']//name",
    "//patient[//name]",
    "text()",
    "∅",
    ".",
    "(clinicalTrial | .)/patientInfo",
    "//patientInfo//name",
    "//text()[.='Bob']",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_at_document, eval_at_root, eval_at_root_with_stats};
    use crate::parser::parse;
    use sxv_xml::parse as parse_xml;

    fn hospital() -> Document {
        parse_xml(
            r#"<hospital>
  <dept>
    <clinicalTrial>
      <patientInfo>
        <patient><name>Ann</name><wardNo>6</wardNo></patient>
      </patientInfo>
    </clinicalTrial>
    <patientInfo>
      <patient><name>Bob</name><wardNo>6</wardNo></patient>
      <patient><name>Cat</name><wardNo>7</wardNo></patient>
    </patientInfo>
  </dept>
</hospital>"#,
        )
        .unwrap()
    }

    #[test]
    fn policy_prints_and_defaults_to_auto() {
        assert_eq!(PlanPolicy::ForceWalk.to_string(), "walk");
        assert_eq!(PlanPolicy::ForceJoin.to_string(), "join");
        assert_eq!(PlanPolicy::Auto.to_string(), "auto");
        assert_eq!(PlanPolicy::default(), PlanPolicy::Auto);
    }

    #[test]
    fn all_policies_match_walk_on_equivalence_suite() {
        // The naive baseline's attribute qualifiers, over a document
        // where only the first `a` carries the attribute.
        let mut attributed = parse_xml("<r><a/><a/></r>").unwrap();
        let first = attributed.children(attributed.root().unwrap())[0];
        attributed.set_attribute(first, "accessibility", "1").unwrap();
        let attribute_queries =
            ["a[@accessibility='1']", "a[@accessibility]", "a[@accessibility='0']"];
        let suites = [(hospital(), EQUIVALENCE_QUERIES), (attributed, &attribute_queries[..])];
        for (d, queries) in &suites {
            let idx = DocIndex::new(d).unwrap();
            let costs = [
                ("index", CostModel::from_index(&idx)),
                ("uninformed", CostModel::uninformed()),
                ("no-index", CostModel::from_estimates([("patient".to_string(), 3.0)], 6.0, false)),
            ];
            for q in *queries {
                let p = parse(q).unwrap();
                let reference = eval_at_root(d, &p);
                for policy in PlanPolicy::ALL {
                    for (cname, cost) in &costs {
                        let cq = compile(&p, policy, cost);
                        let (with_idx, _) = cq.execute(d, Some(&idx));
                        let (without, _) = cq.execute(d, None);
                        assert_eq!(reference, with_idx, "{q} ({policy}, {cname}, indexed)");
                        assert_eq!(reference, without, "{q} ({policy}, {cname}, no index)");
                    }
                }
            }
        }
    }

    #[test]
    fn document_context_matches_walk() {
        let d = hospital();
        let idx = DocIndex::new(&d).unwrap();
        for q in ["//hospital", "/hospital/dept", "//patient", "//.", "hospital"] {
            let p = parse(q).unwrap();
            let reference = eval_at_document(&d, &p);
            for policy in PlanPolicy::ALL {
                let cq = compile(&p, policy, &CostModel::from_index(&idx));
                assert_eq!(reference, cq.execute_at_document(&d, Some(&idx)).0, "{q} ({policy})");
                assert_eq!(reference, cq.execute_at_document(&d, None).0, "{q} ({policy}, scan)");
            }
        }
    }

    #[test]
    fn operators_are_chosen_at_plan_time() {
        let d = hospital();
        let idx = DocIndex::new(&d).unwrap();
        let cost = CostModel::from_index(&idx);
        let p = parse("//patient/name").unwrap();
        let walk = compile(&p, PlanPolicy::ForceWalk, &cost).summary();
        assert_eq!((walk.descendant_slice, walk.child_walk, walk.child_merge_join), (1, 1, 0));
        let join = compile(&p, PlanPolicy::ForceJoin, &cost).summary();
        assert_eq!((join.descendant_slice, join.child_walk, join.child_merge_join), (1, 0, 1));
        let auto = compile(&p, PlanPolicy::Auto, &cost).summary();
        assert_eq!(auto.descendant_slice, 1);
        assert_eq!(auto.child_walk + auto.child_merge_join, 1, "auto picked exactly one child op");
    }

    #[test]
    fn walk_plans_lower_descendants_to_slices() {
        // Canonicalized lowering: axis heads are interval slices no
        // matter what the cost model says about index availability —
        // the executor degrades a slice to the subtree scan at run time
        // (computing exactly what the old expand+filter pair did), and
        // the single canonical shape is what the fusion pass keys on.
        let cost = CostModel::from_estimates([("patient".to_string(), 3.0)], 6.0, false);
        let p = parse("//patient").unwrap();
        let s = compile(&p, PlanPolicy::ForceWalk, &cost).summary();
        assert_eq!((s.descendant_expand, s.descendant_slice, s.total_ops()), (0, 1, 1));
        let s2 = compile(&p, PlanPolicy::ForceWalk, &CostModel::uninformed()).summary();
        assert_eq!((s2.descendant_expand, s2.descendant_slice, s2.total_ops()), (0, 1, 1));
    }

    #[test]
    fn join_touches_fewer_nodes_on_descendant_queries() {
        let d = hospital();
        let idx = DocIndex::new(&d).unwrap();
        let cost = CostModel::from_index(&idx);
        for q in
            ["//name", "//patient[wardNo='6']", "//wardNo | //name", "//patient[wardNo='6']/name"]
        {
            let p = parse(q).unwrap();
            let (walk_r, walk) = eval_at_root_with_stats(&d, &p);
            let (join_r, join) = compile(&p, PlanPolicy::ForceJoin, &cost).execute(&d, Some(&idx));
            assert_eq!(walk_r, join_r, "{q}");
            assert!(
                join.nodes_touched < walk.nodes_touched,
                "{q}: join {} vs walk {}",
                join.nodes_touched,
                walk.nodes_touched
            );
            assert!(join.interval_probes > 0, "{q}: descendant steps must probe intervals");
            if q.contains('[') {
                assert!(join.qualifier_checks >= 3, "{q}: one check per patient");
            }
            // The walk evaluator records none of the join counters.
            assert_eq!((walk.merge_steps, walk.interval_probes), (0, 0), "{q}");
        }
    }

    #[test]
    fn existence_probe_avoids_materialization() {
        let d = hospital();
        let idx = DocIndex::new(&d).unwrap();
        let p = parse("dept[//wardNo]").unwrap();
        let cq = compile(&p, PlanPolicy::ForceJoin, &CostModel::from_index(&idx));
        let (r, stats) = cq.execute(&d, Some(&idx));
        assert_eq!(r.len(), 1);
        assert!(stats.interval_probes >= 1);
        assert!(stats.nodes_touched <= 2, "touched {}", stats.nodes_touched);
    }

    #[test]
    fn summary_counts_nested_pipelines() {
        let p = parse("//patientInfo[patient/wardNo='7']//name | dept/*").unwrap();
        let cq = compile(&p, PlanPolicy::Auto, &CostModel::uninformed());
        let s = cq.summary();
        assert_eq!(s.union_merge, 1);
        // The slice → qualifier pair in the first arm fuses; the
        // qualifier's own sub-pipeline ops are still counted.
        assert_eq!((s.fused_scan, s.qualifier_probe), (1, 0), "{s:?}");
        assert!(s.total_ops() >= 5, "{s:?}");
        assert!(s.mix().contains("fused:1"), "{}", s.mix());
    }

    #[test]
    fn explain_renders_text_and_json() {
        let p = parse("//patient[wardNo='6']/name").unwrap();
        let cq = compile(&p, PlanPolicy::Auto, &CostModel::uninformed());
        let text = cq.explain_text();
        assert!(text.contains("fused-scan(patient)"), "{text}");
        assert!(text.contains("eq \"6\""), "{text}");
        assert!(text.contains("est_rows≈"), "{text}");
        let json = cq.explain_json();
        assert!(json.contains("\"op\": \"fused-scan\""), "{json}");
        assert!(json.contains("\"test\": \"patient\""), "{json}");
        assert!(json.contains("\"kind\": \"eq\""), "{json}");
        // Minimal structural sanity: balanced braces/brackets.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
    }

    /// The identity access view: every document node is a member under
    /// its document parent. Annotation plans over it must match plain
    /// document evaluation.
    fn identity_access(doc: &Document) -> AccessView {
        let mut av = AccessView::new(doc.len());
        if let Some(root) = doc.root_opt() {
            av.record_root(root);
            for v in doc.descendants(root) {
                av.record_member(v, doc.parent(v).unwrap(), doc.is_element(v));
            }
        }
        av.finalize();
        av
    }

    #[test]
    fn annotate_plans_match_walk_under_identity_view() {
        let d = hospital();
        let idx = DocIndex::new(&d).unwrap();
        let av = identity_access(&d);
        let costs = [
            ("index", CostModel::from_index(&idx)),
            ("uninformed", CostModel::uninformed()),
            ("no-index", CostModel::from_estimates([("patient".to_string(), 3.0)], 6.0, false)),
        ];
        for q in EQUIVALENCE_QUERIES {
            let p = parse(q).unwrap();
            let reference = eval_at_root(&d, &p);
            for policy in PlanPolicy::ALL {
                for (cname, cost) in &costs {
                    let cq = compile_annotate(&p, policy, cost);
                    let (with_idx, _) = cq.execute_with_access(&d, Some(&idx), Some(&av));
                    let (without, _) = cq.execute_with_access(&d, None, Some(&av));
                    assert_eq!(reference, with_idx, "{q} ({policy}, {cname}, indexed)");
                    assert_eq!(reference, without, "{q} ({policy}, {cname}, no index)");
                }
            }
        }
    }

    /// An access view hiding `clinicalTrial` behind a dummy label:
    /// its subtree stays visible but the element itself is renamed.
    fn dummy_access(doc: &Document) -> AccessView {
        let mut av = AccessView::new(doc.len());
        let root = doc.root_opt().unwrap();
        av.record_root(root);
        for v in doc.descendants(root) {
            let parent = doc.parent(v).unwrap();
            if doc.label_opt(v) == Some("clinicalTrial") {
                av.record_dummy(v, parent, "dummy1");
            } else {
                av.record_member(v, parent, doc.is_element(v));
            }
        }
        av.finalize();
        av
    }

    #[test]
    fn annotate_respects_dummy_renaming() {
        let d = hospital();
        let idx = DocIndex::new(&d).unwrap();
        let av = dummy_access(&d);
        let trial = d.elements_with_label("clinicalTrial").next().unwrap();
        let run = |q: &str| {
            let p = parse(q).unwrap();
            let cq = compile_annotate(&p, PlanPolicy::Auto, &CostModel::from_index(&idx));
            let (indexed, _) = cq.execute_with_access(&d, Some(&idx), Some(&av));
            let (scanned, _) = cq.execute_with_access(&d, None, Some(&av));
            assert_eq!(indexed, scanned, "{q}: index/no-index disagree");
            indexed
        };
        assert!(run("//clinicalTrial").is_empty(), "doc label hidden behind dummy");
        assert_eq!(run("//dummy1"), vec![trial]);
        assert_eq!(run("dept/dummy1/patientInfo").len(), 1, "dummy subtree stays reachable");
        assert_eq!(run("//patient").len(), 3, "members unaffected");
        // All 14 hospital elements are view elements; `//*` excludes the
        // root itself and includes the dummy.
        assert_eq!(run("//*").len(), 13);
    }

    #[test]
    fn annotate_lowering_fuses_seed_descendants() {
        let cost = CostModel::uninformed();
        let p = parse("//patient/name").unwrap();
        let s = compile_annotate(&p, PlanPolicy::Auto, &cost).summary();
        // The seed slice and its bitmap guard fuse into one operator.
        assert_eq!((s.fused_scan, s.descendant_slice, s.bitmap_filter), (1, 0, 0), "{s:?}");
        assert_eq!(s.view_child, 1, "{s:?}");
        assert!(s.mix().contains("fused:1"), "{}", s.mix());
        // Off the seed context, descendants walk the view tree instead.
        let nested = parse("dept//patient//name").unwrap();
        let s2 = compile_annotate(&nested, PlanPolicy::Auto, &cost).summary();
        assert_eq!((s2.view_child, s2.descendant_slice, s2.bitmap_filter), (1, 0, 0), "{s2:?}");
        assert_eq!(s2.view_descendant, 2, "{s2:?}");
        // Dummy labels never take the fused document slice.
        let dummy = parse("//dummy1").unwrap();
        let s3 = compile_annotate(&dummy, PlanPolicy::Auto, &cost).summary();
        assert_eq!((s3.view_descendant, s3.descendant_slice), (1, 0), "{s3:?}");
        let text = compile_annotate(&parse("//dummy1").unwrap(), PlanPolicy::Auto, &cost);
        assert!(text.explain_text().contains("view-descendant(dummy1)"), "{}", text.explain_text());
        let json = compile_annotate(&p, PlanPolicy::Auto, &cost).explain_json();
        assert!(json.contains("\"op\": \"fused-scan\""), "{json}");
        assert!(json.contains("\"filter\": \"member\""), "{json}");
    }

    #[test]
    fn dense_rows_survive_expansion_and_filtering() {
        // A document wide enough to cross the dense threshold.
        let mut src = String::from("<r>");
        for i in 0..200 {
            src.push_str(&format!("<a><b>{i}</b></a>"));
        }
        src.push_str("</r>");
        let d = parse_xml(&src).unwrap();
        let idx = DocIndex::new(&d).unwrap();
        let av = identity_access(&d);
        for q in ["//.", "//./b", "//*", ".//text()"] {
            let p = parse(q).unwrap();
            let reference = eval_at_root(&d, &p);
            for policy in PlanPolicy::ALL {
                let cq = compile(&p, policy, &CostModel::from_index(&idx));
                assert_eq!(reference, cq.execute(&d, Some(&idx)).0, "{q} ({policy})");
                let an = compile_annotate(&p, policy, &CostModel::from_index(&idx));
                assert_eq!(
                    reference,
                    an.execute_with_access(&d, Some(&idx), Some(&av)).0,
                    "{q} ({policy}, annotate)"
                );
            }
        }
    }

    #[test]
    fn exists_probe_counts_each_interval_once() {
        // Hand-built plan: `[exists p]` where p's prefix reaches a
        // document-plus-every-element context before a final slice on a
        // label with no occurrences. Hand-computed counter totals:
        //
        //   - qualifier_checks = 1   (one probe, from the root context)
        //   - interval_probes  = 2   (the expand's root range + ONE
        //     document-level slice probe; the root interval contains
        //     every element's, so the per-id re-entry the old merge
        //     performed — 14 more guaranteed-miss probes — is wrong)
        let d = hospital();
        let idx = DocIndex::new(&d).unwrap();
        let qual_ops = vec![
            PlanNode { op: PlanOp::DocSeed, est_rows: 1 },
            PlanNode { op: PlanOp::DescendantExpand { or_self: true }, est_rows: 15 },
            PlanNode { op: PlanOp::DescendantSlice(AxisTest::Label("absent".into())), est_rows: 0 },
        ];
        let ops = vec![
            PlanNode { op: PlanOp::RootSeed, est_rows: 1 },
            PlanNode { op: PlanOp::QualifierProbe(QualPlan::Exists(qual_ops)), est_rows: 0 },
        ];
        let cq = CompiledQuery { translated: parse("//.").unwrap(), policy: PlanPolicy::Auto, ops };
        let (r, stats) = cq.execute(&d, Some(&idx));
        assert!(r.is_empty());
        assert_eq!(stats.qualifier_checks, 1);
        assert_eq!(stats.interval_probes, 2, "{stats:?}");
        // The document-context qualifier probe is a counted check too
        // (the materializing and existence paths must agree).
        let doc_ops = vec![
            PlanNode { op: PlanOp::DocSeed, est_rows: 1 },
            PlanNode { op: PlanOp::QualifierProbe(QualPlan::True), est_rows: 1 },
        ];
        let cq2 = CompiledQuery {
            translated: parse("//.").unwrap(),
            policy: PlanPolicy::Auto,
            ops: doc_ops,
        };
        let (_, stats2) = cq2.execute_at_document(&d, Some(&idx));
        assert_eq!(stats2.qualifier_checks, 1);
    }

    #[test]
    fn fusion_collapses_slice_chains() {
        let cost = CostModel::uninformed();
        // slice + qual → fused (no filter).
        let p = parse("//patient[wardNo='6']/name").unwrap();
        let cq = compile(&p, PlanPolicy::Auto, &cost);
        let s = cq.summary();
        assert_eq!((s.fused_scan, s.descendant_slice, s.qualifier_probe), (1, 0, 0), "{s:?}");
        let d = hospital();
        let idx = DocIndex::new(&d).unwrap();
        assert_eq!(cq.execute(&d, Some(&idx)).0, eval_at_root(&d, &p));
        assert_eq!(cq.execute(&d, None).0, eval_at_root(&d, &p));
        // slice + bitmap + qual → one fused op in annotate plans.
        let q2 = parse("//patient[wardNo='6']").unwrap();
        let an = compile_annotate(&q2, PlanPolicy::Auto, &cost);
        let sa = an.summary();
        assert_eq!(sa.fused_scan, 1, "{sa:?}");
        assert_eq!((sa.descendant_slice, sa.bitmap_filter, sa.qualifier_probe), (0, 0, 0));
    }

    #[test]
    fn closure_expand_matches_walk() {
        // A hand-built closure plan: (child::*)* from the root — the
        // reflexive-transitive closure reaches every element. The
        // bitmap-deduped worklist must agree with the walk evaluator.
        let d = hospital();
        let idx = DocIndex::new(&d).unwrap();
        let body = vec![PlanNode { op: PlanOp::ChildWalk(AxisTest::AnyElement), est_rows: 4 }];
        let ops = vec![
            PlanNode { op: PlanOp::RootSeed, est_rows: 1 },
            PlanNode { op: PlanOp::ClosureExpand { body }, est_rows: 14 },
        ];
        let cq = CompiledQuery { translated: parse("//.").unwrap(), policy: PlanPolicy::Auto, ops };
        let want = eval_at_root(&d, &parse("(*)*").unwrap());
        assert_eq!(want.len(), 14, "closure reaches all elements");
        assert_eq!(cq.execute(&d, Some(&idx)).0, want);
        assert_eq!(cq.execute(&d, None).0, want);
    }

    #[test]
    fn empty_document_and_empty_set() {
        let d = Document::new();
        let idx = DocIndex::new(&d).unwrap();
        let p = parse("//a[b]").unwrap();
        for policy in PlanPolicy::ALL {
            let cq = compile(&p, policy, &CostModel::from_index(&idx));
            assert!(cq.execute(&d, Some(&idx)).0.is_empty(), "{policy}");
            assert!(cq.execute_at_document(&d, Some(&idx)).0.is_empty(), "{policy}");
            let empty = compile(&parse("∅").unwrap(), policy, &CostModel::uninformed());
            assert_eq!(empty.summary().est_rows, 0, "{policy}");
            assert!(empty.execute(&hospital(), None).0.is_empty(), "{policy}");
        }
    }
}
