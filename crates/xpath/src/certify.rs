//! Static plan certification: a type-level abstract interpreter over the
//! compiled plan IR.
//!
//! The paper's central guarantee is that query evaluation over a
//! security view discloses only accessible data. The runtime enforces
//! that dynamically (rewriting, accessibility bitmaps); this module
//! checks it *statically*, per compiled plan, in the spirit of the
//! access-control static analyses of Mahfoud & Imine (2012) and
//! Bravo et al. (2007) — but over our operator IR instead of the policy
//! language.
//!
//! ## Abstract domain
//!
//! The abstract state ([`AbsState`]) over-approximates the set of nodes
//! a pipeline position can hold: a set of DTD element types, plus three
//! markers (`doc` — the virtual document node, `text` — text nodes,
//! `dummies` — view nodes served under a dummy label). Each
//! [`PlanOp`] gets a transfer function that maps input state to output
//! state using only the DTD edge graph and the type-level accessibility
//! relation ([`CertifyContext`]); no document is consulted. Because
//! every transfer function over-approximates the concrete operator
//! (any node the executor can produce has its type in the abstract
//! output), the final state over-approximates the emitted answer.
//!
//! ## Verdict
//!
//! [`certify`] produces a [`PlanCertificate`] recording:
//!
//! * **emitted** — the final abstract state; every element type in it
//!   must be *emittable* (accessible per the §3.2 relation, or the
//!   σ-image of a dummy view type, which the view deliberately serves
//!   under a renamed label). A violation is the error finding
//!   [`CertFinding::EmittedInaccessible`].
//! * **probed** — the abstract result of every qualifier sub-pipeline.
//!   A probe whose result can only be a definitely-inaccessible type,
//!   with no [`PlanOp::BitmapFilter`] guard in its pipeline, is the
//!   plan-level analogue of the paper's Example 1.1 dummy-inference
//!   channel and yields the warning [`CertFinding::UnguardedProbe`].
//! * **trace** — the per-operator abstract states, for auditing
//!   (`sxv explain --verify` prints it beside the plan).
//! * dead operators (abstract input ∅ that is not the result of an
//!   explicit `EmptySet`) yield [`CertFinding::DeadOp`] warnings.
//!
//! ## What the certificate does *not* prove
//!
//! The analysis is type-level: it cannot distinguish two occurrences of
//! the same element type, so a type with both accessible and hidden
//! occurrences is treated as emittable (occurrence-level enforcement
//! remains the runtime's job, which the equivalence property tests
//! pin). Text nodes are tracked as a single boolean, so text content of
//! hidden elements is not separately flagged. Attribute probes are
//! assumed harmless. See DESIGN.md §14.

use crate::access::is_dummy_label;
use crate::plan::{op_detail, AccessFilter, AxisTest, CompiledQuery, PlanNode, PlanOp, QualPlan};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use sxv_xml::json_escape;

/// Everything the abstract interpreter knows about the schema and the
/// access policy, as plain data (so the xpath crate needs no dependency
/// on the spec/view machinery — `sxv-core` builds this from
/// `TypeAccessibility` and the derived view).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CertifyContext {
    /// Document root element type.
    pub root: String,
    /// DTD edge graph: element type → child element types.
    pub children: std::collections::BTreeMap<String, BTreeSet<String>>,
    /// Element types whose content model allows `#PCDATA`.
    pub text_types: BTreeSet<String>,
    /// Types with at least one accessible occurrence (`can_be_accessible`).
    pub accessible: BTreeSet<String>,
    /// Reachable types with *no* accessible occurrence
    /// (`definitely_inaccessible`) — probing these is the Example 1.1
    /// channel.
    pub inaccessible: BTreeSet<String>,
    /// Types with at least one inaccessible occurrence
    /// (`can_be_inaccessible`); a dummy view node always stands for an
    /// occurrence of one of these.
    pub hideable: BTreeSet<String>,
    /// Document types a dummy view type can expose under its renamed
    /// label (σ-image of the dummy annotations); emitting them is the
    /// view working as designed, not a leak.
    pub dummy_visible: BTreeSet<String>,
    /// Dummy labels present in the derived view.
    pub dummy_labels: BTreeSet<String>,
}

impl CertifyContext {
    /// True when emitting nodes of type `t` is provably fine: the type
    /// has an accessible occurrence, or it is served renamed behind a
    /// dummy label.
    pub fn emittable(&self, t: &str) -> bool {
        self.accessible.contains(t) || self.dummy_visible.contains(t)
    }

    /// Transitive closure of the child-edge relation from `seeds`
    /// (strictly below: `seeds` themselves are included only if
    /// reachable again, i.e. recursive).
    fn closure(&self, seeds: &BTreeSet<String>) -> BTreeSet<String> {
        let mut out: BTreeSet<String> = BTreeSet::new();
        let mut work: Vec<&str> = seeds.iter().map(String::as_str).collect();
        while let Some(t) = work.pop() {
            if let Some(kids) = self.children.get(t) {
                for k in kids {
                    if out.insert(k.clone()) {
                        work.push(k);
                    }
                }
            }
        }
        out
    }

    fn any_text<'a>(&self, types: impl IntoIterator<Item = &'a String>) -> bool {
        types.into_iter().any(|t| self.text_types.contains(t))
    }
}

/// Abstract state: an over-approximation of the node set at one
/// pipeline position.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AbsState {
    /// The virtual document node may be present.
    pub doc: bool,
    /// Text nodes may be present.
    pub text: bool,
    /// Element types that may be present (document labels).
    pub types: BTreeSet<String>,
    /// Dummy labels under which hidden elements may be served
    /// (annotate/view plans only).
    pub dummies: BTreeSet<String>,
}

impl AbsState {
    /// The empty (bottom) state.
    pub fn empty() -> AbsState {
        AbsState::default()
    }

    /// Abstract state for evaluation at the document root element.
    pub fn at_root(root: &str) -> AbsState {
        AbsState { types: BTreeSet::from([root.to_string()]), ..AbsState::default() }
    }

    /// True when no node of any kind can be present.
    pub fn is_empty(&self) -> bool {
        !self.doc && !self.text && self.types.is_empty() && self.dummies.is_empty()
    }

    /// Least upper bound (set union on every component).
    pub fn join(&mut self, other: &AbsState) {
        self.doc |= other.doc;
        self.text |= other.text;
        self.types.extend(other.types.iter().cloned());
        self.dummies.extend(other.dummies.iter().cloned());
    }

    /// Render as `{doc, text, a, b, dummy1}` (or `∅`).
    pub fn render(&self) -> String {
        if self.is_empty() {
            return "∅".to_string();
        }
        let mut parts: Vec<&str> = Vec::new();
        if self.doc {
            parts.push("doc");
        }
        if self.text {
            parts.push("text");
        }
        parts.extend(self.types.iter().map(String::as_str));
        parts.extend(self.dummies.iter().map(String::as_str));
        format!("{{{}}}", parts.join(", "))
    }
}

/// One line of the per-operator abstract trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceLine {
    /// Nesting depth (union arms and qualifier pipelines indent).
    pub depth: usize,
    /// Operator rendering (matches `explain` spelling).
    pub detail: String,
    /// Abstract state *after* the operator.
    pub state: String,
}

/// One certification finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertFinding {
    /// The final abstract state contains an element type that is
    /// neither accessible nor dummy-visible: executing the plan may
    /// emit inaccessible data. Error — the plan is uncertified.
    EmittedInaccessible {
        /// The offending element type.
        ty: String,
    },
    /// A qualifier sub-pipeline's result is confined to
    /// definitely-inaccessible types and carries no `BitmapFilter`
    /// guard: the probe's outcome reveals hidden structure (the
    /// Example 1.1 channel, at plan level). Warning.
    UnguardedProbe {
        /// The definitely-inaccessible type being probed.
        ty: String,
        /// The probe rendering it was found under.
        at: String,
    },
    /// An operator's abstract input is ∅ without an explicit
    /// `EmptySet` upstream: the operator (and everything after it) is
    /// dead code. Warning.
    DeadOp {
        /// The dead operator's rendering.
        at: String,
    },
}

impl CertFinding {
    /// Error findings make the plan uncertified; warnings do not.
    pub fn is_error(&self) -> bool {
        matches!(self, CertFinding::EmittedInaccessible { .. })
    }

    /// Human-readable description.
    pub fn describe(&self) -> String {
        match self {
            CertFinding::EmittedInaccessible { ty } => {
                format!("emitted type `{ty}` is not provably accessible")
            }
            CertFinding::UnguardedProbe { ty, at } => format!(
                "qualifier probe `{at}` reaches only the inaccessible type `{ty}` \
                 without a bitmap guard (dummy-inference channel)"
            ),
            CertFinding::DeadOp { at } => {
                format!("operator `{at}` is dead: its abstract input is empty")
            }
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            CertFinding::EmittedInaccessible { .. } => "emitted-inaccessible",
            CertFinding::UnguardedProbe { .. } => "unguarded-probe",
            CertFinding::DeadOp { .. } => "dead-op",
        }
    }
}

/// The verdict of certifying one compiled plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCertificate {
    /// Final abstract state: over-approximation of what execution can
    /// emit.
    pub emitted: AbsState,
    /// Union of all qualifier sub-pipeline results: what execution can
    /// probe.
    pub probed: AbsState,
    /// Findings (errors make the plan uncertified; warnings do not).
    pub findings: Vec<CertFinding>,
    /// Per-operator abstract trace.
    pub trace: Vec<TraceLine>,
    /// Operators interpreted, including union arms and qualifier
    /// pipelines.
    pub ops_checked: usize,
}

impl PlanCertificate {
    /// True when no error finding was recorded: execution provably
    /// cannot emit a type outside the accessible/dummy-visible set.
    pub fn certified(&self) -> bool {
        !self.findings.iter().any(CertFinding::is_error)
    }

    /// Error findings only.
    pub fn errors(&self) -> impl Iterator<Item = &CertFinding> {
        self.findings.iter().filter(|f| f.is_error())
    }

    /// Text rendering (printed by `sxv explain --verify`).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let verdict = if self.certified() { "certified" } else { "NOT CERTIFIED" };
        let _ = writeln!(out, "certificate: {verdict} ({} ops checked)", self.ops_checked);
        let _ = writeln!(out, "  emitted: {}", self.emitted.render());
        let _ = writeln!(out, "  probed:  {}", self.probed.render());
        let _ = writeln!(out, "  trace:");
        for line in &self.trace {
            let pad = "  ".repeat(line.depth);
            let _ = writeln!(out, "    {pad}{:<40} {}", line.detail, line.state);
        }
        if !self.findings.is_empty() {
            let _ = writeln!(out, "  findings:");
            for f in &self.findings {
                let level = if f.is_error() { "error" } else { "warning" };
                let _ = writeln!(out, "    {level}: {}", f.describe());
            }
        }
        out
    }

    /// JSON rendering (embedded by `sxv explain --format json --verify`).
    pub fn to_json(&self) -> String {
        fn state_json(s: &AbsState) -> String {
            let types: Vec<String> =
                s.types.iter().map(|t| format!("\"{}\"", json_escape(t))).collect();
            let dummies: Vec<String> =
                s.dummies.iter().map(|t| format!("\"{}\"", json_escape(t))).collect();
            format!(
                "{{\"doc\": {}, \"text\": {}, \"types\": [{}], \"dummies\": [{}]}}",
                s.doc,
                s.text,
                types.join(", "),
                dummies.join(", ")
            )
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"certified\": {}, \"ops_checked\": {}, \"emitted\": {}, \"probed\": {}",
            self.certified(),
            self.ops_checked,
            state_json(&self.emitted),
            state_json(&self.probed)
        );
        out.push_str(", \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let level = if f.is_error() { "error" } else { "warning" };
            let _ = write!(
                out,
                "{{\"kind\": \"{}\", \"level\": \"{level}\", \"message\": \"{}\"}}",
                f.kind(),
                json_escape(&f.describe())
            );
        }
        out.push_str("], \"trace\": [");
        for (i, line) in self.trace.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"depth\": {}, \"op\": \"{}\", \"state\": \"{}\"}}",
                line.depth,
                json_escape(&line.detail),
                json_escape(&line.state)
            );
        }
        out.push_str("]}");
        out
    }
}

/// Certify `plan` against `ctx`: run the abstract interpreter over the
/// full operator pipeline (starting from the document root context, as
/// `SecureEngine` executes plans) and collect the verdict.
pub fn certify(plan: &CompiledQuery, ctx: &CertifyContext) -> PlanCertificate {
    certify_ops(&plan.ops, ctx)
}

/// Certify a raw operator pipeline (hand-built plans in tests reach it
/// directly).
fn certify_ops(ops: &[PlanNode], ctx: &CertifyContext) -> PlanCertificate {
    let mut interp = Interp {
        ctx,
        trace: Vec::new(),
        findings: Vec::new(),
        ops_checked: 0,
        probed: AbsState::empty(),
    };
    let emitted = interp.run_pipeline(ops, AbsState::at_root(&ctx.root), 0);
    for t in &emitted.types {
        if !ctx.emittable(t) {
            interp.findings.push(CertFinding::EmittedInaccessible { ty: t.clone() });
        }
    }
    PlanCertificate {
        emitted,
        probed: interp.probed,
        findings: interp.findings,
        trace: interp.trace,
        ops_checked: interp.ops_checked,
    }
}

struct Interp<'a> {
    ctx: &'a CertifyContext,
    trace: Vec<TraceLine>,
    findings: Vec<CertFinding>,
    ops_checked: usize,
    probed: AbsState,
}

impl Interp<'_> {
    /// The element types a step can start from: the state's types, plus
    /// — when dummy nodes may be present — every hideable type (a dummy
    /// stands for a hidden occurrence of one of those).
    fn base_types(&self, state: &AbsState) -> BTreeSet<String> {
        let mut base = state.types.clone();
        if !state.dummies.is_empty() {
            base.extend(self.ctx.hideable.iter().cloned());
        }
        base
    }

    /// The transfer of a [`PlanOp::BitmapFilter`], alone or fused into a
    /// scan. Both bitmaps keep only accessible types. The member bitmap
    /// keeps text and drops dummies. The element bitmap drops text but
    /// admits every view element, including hidden occurrences served
    /// under a dummy label: when the input may hold a type that a dummy
    /// exposes, every dummy label may come out.
    fn bitmap_filter(&self, filter: AccessFilter, state: AbsState) -> AbsState {
        let types = state.types.intersection(&self.ctx.accessible).cloned().collect();
        match filter {
            AccessFilter::Member => {
                AbsState { doc: false, text: state.text, types, dummies: BTreeSet::new() }
            }
            AccessFilter::Element => {
                let mut dummies = state.dummies;
                if !state.types.is_disjoint(&self.ctx.dummy_visible) {
                    dummies.extend(self.ctx.dummy_labels.iter().cloned());
                }
                AbsState { doc: false, text: false, types, dummies }
            }
        }
    }

    /// The transfer of a [`PlanOp::DescendantSlice`], alone or as a
    /// fused scan's axis: the descendants of the state's types that pass
    /// `test`.
    fn descendant_slice(&self, test: &AxisTest, state: &AbsState) -> AbsState {
        let (cand, text_base) = self.descendant_candidates(state);
        let mut out = AbsState::empty();
        match test {
            AxisTest::Label(l) => {
                if cand.contains(l) {
                    out.types.insert(l.clone());
                }
            }
            AxisTest::AnyElement => out.types = cand,
            AxisTest::Text => out.text = self.ctx.any_text(&text_base),
        }
        out
    }

    /// The transfer of a [`PlanOp::DescendantExpand`], alone or absorbed
    /// into a fused scan: every descendant type and text, plus the input
    /// itself when `or_self`.
    fn descendant_expand(&self, or_self: bool, state: AbsState) -> AbsState {
        let (cand, text_base) = self.descendant_candidates(&state);
        let mut out = AbsState {
            doc: false,
            text: self.ctx.any_text(&text_base),
            types: cand,
            dummies: BTreeSet::new(),
        };
        if or_self {
            out.join(&state);
        }
        out
    }

    fn run_pipeline(&mut self, ops: &[PlanNode], input: AbsState, depth: usize) -> AbsState {
        let mut state = input;
        let mut intentional_empty = false;
        let mut dead_reported = false;
        for node in ops {
            let seeds = matches!(node.op, PlanOp::RootSeed | PlanOp::DocSeed | PlanOp::EmptySet);
            if state.is_empty() && !intentional_empty && !dead_reported && !seeds {
                self.findings.push(CertFinding::DeadOp { at: op_detail(&node.op) });
                dead_reported = true;
            }
            match node.op {
                PlanOp::EmptySet => intentional_empty = true,
                PlanOp::RootSeed | PlanOp::DocSeed => {
                    intentional_empty = false;
                    dead_reported = false;
                }
                _ => {}
            }
            state = self.step(&node.op, state, depth);
        }
        state
    }

    fn step(&mut self, op: &PlanOp, state: AbsState, depth: usize) -> AbsState {
        self.ops_checked += 1;
        let out = match op {
            PlanOp::RootSeed => AbsState::at_root(&self.ctx.root),
            PlanOp::DocSeed => AbsState { doc: true, ..AbsState::default() },
            PlanOp::EmptySet => AbsState::empty(),
            PlanOp::ChildWalk(test) | PlanOp::ChildMergeJoin(test) => self.child_step(&state, test),
            PlanOp::DescendantSlice(test) => self.descendant_slice(test, &state),
            PlanOp::DescendantExpand { or_self } => self.descendant_expand(*or_self, state),
            PlanOp::BitmapFilter(f) => self.bitmap_filter(*f, state),
            PlanOp::Fused(f) => {
                // A fused scan is certified through its constituents'
                // transfer functions: the absorbed descendant-expand (if
                // any), descendant-slice, then the bitmap intersection,
                // then the qualifier probe. Fusion changes evaluation
                // order, not the emitted or probed states, so a fused
                // scan certifies exactly as its constituents would.
                let state = if f.from_expand { self.descendant_expand(true, state) } else { state };
                let mut out = self.descendant_slice(&f.axis, &state);
                if let Some(filter) = f.filter {
                    out = self.bitmap_filter(filter, out);
                }
                if let Some(q) = &f.qual {
                    let mark = self.trace.len();
                    let may_hold = self.qual(q, &out, depth + 1);
                    if !may_hold {
                        out = AbsState::empty();
                    }
                    self.trace.insert(
                        mark,
                        TraceLine { depth, detail: op_detail(op), state: out.render() },
                    );
                    return out;
                }
                out
            }
            PlanOp::SchemaSlice(s) => {
                // A schema slice is certified as the chain it retains,
                // then its fused qualifier: on every document where the
                // scan runs it selects exactly the chain's nodes, and the
                // chain itself runs everywhere else.
                let mark = self.trace.len();
                self.trace.push(TraceLine {
                    depth: depth + 1,
                    detail: "chain".into(),
                    state: String::new(),
                });
                let mut out = self.run_pipeline(&s.chain, state, depth + 2);
                if let Some(q) = &s.scan.qual {
                    if !self.qual(q, &out, depth + 1) {
                        out = AbsState::empty();
                    }
                }
                self.trace
                    .insert(mark, TraceLine { depth, detail: op_detail(op), state: out.render() });
                return out;
            }
            PlanOp::UnionMerge(arms) => {
                let mark = self.trace.len();
                let mut out = AbsState::empty();
                for (k, arm) in arms.iter().enumerate() {
                    self.trace.push(TraceLine {
                        depth: depth + 1,
                        detail: format!("arm {}", k + 1),
                        state: String::new(),
                    });
                    let r = self.run_pipeline(arm, state.clone(), depth + 2);
                    out.join(&r);
                }
                self.trace.insert(
                    mark,
                    TraceLine { depth, detail: "union-merge".into(), state: out.render() },
                );
                return out;
            }
            PlanOp::QualifierProbe(q) => {
                let mark = self.trace.len();
                let may_hold = self.qual(q, &state, depth + 1);
                let out = if may_hold { state } else { AbsState::empty() };
                self.trace.insert(
                    mark,
                    TraceLine { depth, detail: "qualifier-probe".into(), state: out.render() },
                );
                return out;
            }
            PlanOp::ClosureExpand { body } => {
                // Reflexive-transitive closure: the abstract result is
                // the least fixpoint of `S ↦ S ⊔ body(S)` above the
                // input state. The lattice is finite (types and dummy
                // labels are bounded by the schema), and the transfer is
                // monotone, so iteration terminates. Each round
                // re-interprets the body from the accumulated state;
                // intermediate rounds' trace lines, findings, and op
                // counts are discarded so the certificate records one
                // body interpretation — the one at the fixpoint.
                let mark = self.trace.len();
                let mut acc = state;
                loop {
                    self.trace.truncate(mark);
                    let findings_mark = self.findings.len();
                    let ops_mark = self.ops_checked;
                    self.trace.push(TraceLine {
                        depth: depth + 1,
                        detail: "body".into(),
                        state: String::new(),
                    });
                    let r = self.run_pipeline(body, acc.clone(), depth + 2);
                    let mut next = acc.clone();
                    next.join(&r);
                    if next == acc {
                        break;
                    }
                    self.findings.truncate(findings_mark);
                    self.ops_checked = ops_mark;
                    acc = next;
                }
                self.trace.insert(
                    mark,
                    TraceLine { depth, detail: "closure-expand".into(), state: acc.render() },
                );
                return acc;
            }
            PlanOp::ViewChild(test) => self.view_step(&state, test, false),
            PlanOp::ViewDescendant(test) => self.view_step(&state, test, true),
            PlanOp::ViewExpand { or_self } => {
                let (cand, text_base) = self.view_candidates(&state, true);
                let mut out = AbsState {
                    doc: false,
                    text: self.ctx.any_text(&text_base),
                    types: cand.intersection(&self.ctx.accessible).cloned().collect(),
                    dummies: if state.is_empty() {
                        BTreeSet::new()
                    } else {
                        self.ctx.dummy_labels.clone()
                    },
                };
                if *or_self {
                    out.doc = state.doc;
                    out.text |= state.text;
                    out.types.extend(state.types.intersection(&self.ctx.accessible).cloned());
                    out.dummies.extend(state.dummies.iter().cloned());
                }
                out
            }
        };
        self.trace.push(TraceLine { depth, detail: op_detail(op), state: out.render() });
        out
    }

    fn child_step(&self, state: &AbsState, test: &AxisTest) -> AbsState {
        let base = self.base_types(state);
        let mut out = AbsState::empty();
        match test {
            AxisTest::Label(l) => {
                if state.doc && *l == self.ctx.root {
                    out.types.insert(self.ctx.root.clone());
                }
                for t in &base {
                    if self.ctx.children.get(t).is_some_and(|kids| kids.contains(l)) {
                        out.types.insert(l.clone());
                    }
                }
            }
            AxisTest::AnyElement => {
                if state.doc {
                    out.types.insert(self.ctx.root.clone());
                }
                for t in &base {
                    if let Some(kids) = self.ctx.children.get(t) {
                        out.types.extend(kids.iter().cloned());
                    }
                }
            }
            AxisTest::Text => out.text = self.ctx.any_text(&base),
        }
        out
    }

    /// Candidate element types for a descendant step from `state`, and
    /// the set to consult for text children (context types included —
    /// their text children are proper descendants).
    fn descendant_candidates(&self, state: &AbsState) -> (BTreeSet<String>, BTreeSet<String>) {
        let base = self.base_types(state);
        let mut cand = self.ctx.closure(&base);
        if state.doc {
            let root = BTreeSet::from([self.ctx.root.clone()]);
            cand.extend(self.ctx.closure(&root));
            cand.insert(self.ctx.root.clone());
        }
        let mut text_base = base;
        text_base.extend(cand.iter().cloned());
        (cand, text_base)
    }

    /// Candidate document types reachable by a view step (view edges
    /// short-cut through hidden regions, so any document descendant
    /// type is a candidate). `descend` additionally lets the virtual
    /// doc node reach the whole tree; otherwise doc only reaches the
    /// root element.
    fn view_candidates(
        &self,
        state: &AbsState,
        descend: bool,
    ) -> (BTreeSet<String>, BTreeSet<String>) {
        let base = self.base_types(state);
        let mut cand = self.ctx.closure(&base);
        if state.doc {
            cand.insert(self.ctx.root.clone());
            if descend {
                let root = BTreeSet::from([self.ctx.root.clone()]);
                cand.extend(self.ctx.closure(&root));
            }
        }
        let mut text_base = base;
        text_base.extend(cand.iter().cloned());
        (cand, text_base)
    }

    fn view_step(&self, state: &AbsState, test: &AxisTest, descend: bool) -> AbsState {
        let (cand, text_base) = self.view_candidates(state, descend);
        let mut out = AbsState::empty();
        match test {
            AxisTest::Label(l) if is_dummy_label(l) => {
                let known = self.ctx.dummy_labels.is_empty() || self.ctx.dummy_labels.contains(l);
                if !state.is_empty() && known {
                    out.dummies.insert(l.clone());
                }
            }
            AxisTest::Label(l) => {
                if cand.contains(l) && self.ctx.accessible.contains(l) {
                    out.types.insert(l.clone());
                }
            }
            AxisTest::AnyElement => {
                out.types = cand.intersection(&self.ctx.accessible).cloned().collect();
                if !state.is_empty() {
                    out.dummies = self.ctx.dummy_labels.clone();
                }
            }
            AxisTest::Text => out.text = self.ctx.any_text(&text_base),
        }
        out
    }

    /// Analyze one qualifier: returns whether it may hold (false means
    /// the qualifier is statically unsatisfiable, so the probe filters
    /// everything out). Sub-pipeline results are accumulated into
    /// `probed` and checked for the unguarded-probe channel.
    fn qual(&mut self, q: &QualPlan, input: &AbsState, depth: usize) -> bool {
        match q {
            QualPlan::True => {
                self.push_qual_line(depth, "true");
                true
            }
            QualPlan::False => {
                self.push_qual_line(depth, "false");
                false
            }
            QualPlan::Attr(a) => {
                self.push_qual_line(depth, &format!("attr @{a}"));
                true
            }
            QualPlan::AttrEq(a, v) => {
                self.push_qual_line(depth, &format!("attr @{a}='{v}'"));
                true
            }
            QualPlan::Exists(ops) => self.probe(ops, input, depth, "exists"),
            QualPlan::Eq(ops, c) => self.probe(ops, input, depth, &format!("eq '{c}'")),
            QualPlan::And(a, b) => {
                self.push_qual_line(depth, "and");
                let ha = self.qual(a, input, depth + 1);
                let hb = self.qual(b, input, depth + 1);
                ha && hb
            }
            QualPlan::Or(a, b) => {
                self.push_qual_line(depth, "or");
                let ha = self.qual(a, input, depth + 1);
                let hb = self.qual(b, input, depth + 1);
                ha || hb
            }
            QualPlan::Not(inner) => {
                self.push_qual_line(depth, "not");
                // ¬q may hold even when q may hold; only analyze the
                // inner probe for channel findings.
                self.qual(inner, input, depth + 1);
                true
            }
        }
    }

    fn probe(&mut self, ops: &[PlanNode], input: &AbsState, depth: usize, what: &str) -> bool {
        let mark = self.trace.len();
        let result = self.run_pipeline(ops, input.clone(), depth + 1);
        self.trace
            .insert(mark, TraceLine { depth, detail: what.to_string(), state: result.render() });
        self.probed.join(&result);
        // Example 1.1 channel: the probe's observable outcome depends
        // only on definitely-inaccessible structure, and nothing in the
        // sub-pipeline confines it to the view.
        let confined_to_hidden = !result.types.is_empty()
            && result.types.iter().all(|t| self.ctx.inaccessible.contains(t))
            && !result.doc
            && !result.text;
        if confined_to_hidden && !has_bitmap_guard(ops) {
            for t in &result.types {
                self.findings
                    .push(CertFinding::UnguardedProbe { ty: t.clone(), at: what.to_string() });
            }
        }
        !result.is_empty()
    }

    fn push_qual_line(&mut self, depth: usize, detail: &str) {
        self.trace.push(TraceLine { depth, detail: detail.to_string(), state: String::new() });
    }
}

fn has_bitmap_guard(ops: &[PlanNode]) -> bool {
    ops.iter().any(|n| match &n.op {
        PlanOp::BitmapFilter(_) => true,
        PlanOp::Fused(f) => f.filter.is_some(),
        PlanOp::SchemaSlice(s) => has_bitmap_guard(&s.chain),
        PlanOp::UnionMerge(arms) => arms.iter().any(|arm| has_bitmap_guard(arm)),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::plan::{compile, CostModel, PlanPolicy};
    use std::collections::BTreeMap;

    /// A small hospital-shaped context:
    ///
    /// ```text
    /// hospital -> dept -> patientInfo -> patient -> {name, wardNo}
    ///             dept -> clinicalTrial -> trial -> bill
    /// ```
    ///
    /// with the clinicalTrial/trial region hidden (but `bill` granted
    /// back by an explicit allow, as in the nurse spec).
    fn ctx() -> CertifyContext {
        let edges: &[(&str, &[&str])] = &[
            ("hospital", &["dept"]),
            ("dept", &["patientInfo", "clinicalTrial"]),
            ("patientInfo", &["patient"]),
            ("patient", &["name", "wardNo"]),
            ("clinicalTrial", &["trial"]),
            ("trial", &["bill"]),
        ];
        let mut children: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (p, kids) in edges {
            children.insert(p.to_string(), kids.iter().map(|k| k.to_string()).collect());
        }
        let set =
            |names: &[&str]| -> BTreeSet<String> { names.iter().map(|n| n.to_string()).collect() };
        CertifyContext {
            root: "hospital".into(),
            children,
            text_types: set(&["name", "wardNo", "bill"]),
            accessible: set(&[
                "hospital",
                "dept",
                "patientInfo",
                "patient",
                "name",
                "wardNo",
                "bill",
            ]),
            inaccessible: set(&["clinicalTrial", "trial"]),
            hideable: set(&["clinicalTrial", "trial", "bill"]),
            dummy_visible: BTreeSet::new(),
            dummy_labels: BTreeSet::new(),
        }
    }

    fn plan(q: &str, policy: PlanPolicy) -> crate::plan::CompiledQuery {
        compile(&parse(q).unwrap(), policy, &CostModel::uninformed())
    }

    fn node(op: PlanOp) -> PlanNode {
        PlanNode { op, est_rows: 0 }
    }

    #[test]
    fn accessible_descendant_query_certifies() {
        for policy in PlanPolicy::ALL {
            let p = plan("//patient/name", policy);
            let cert = certify(&p, &ctx());
            assert!(cert.certified(), "{policy:?}: {:?}", cert.findings);
            assert!(cert.emitted.types.contains("name"));
            assert!(!cert.emitted.types.contains("trial"));
        }
    }

    #[test]
    fn emitting_a_hidden_type_is_an_error() {
        // //trial certifiably emits the definitely-inaccessible type.
        let p = plan("//trial", PlanPolicy::ForceWalk);
        let cert = certify(&p, &ctx());
        assert!(!cert.certified());
        assert!(cert
            .errors()
            .any(|f| matches!(f, CertFinding::EmittedInaccessible { ty } if ty == "trial")));
    }

    #[test]
    fn hand_built_expand_then_child_walk_over_hidden_type_is_rejected() {
        // A hand-built leaky plan no lowering emits: expand every
        // descendant, then step to their hidden `clinicalTrial` children.
        let ops = vec![
            node(PlanOp::RootSeed),
            node(PlanOp::DescendantExpand { or_self: false }),
            node(PlanOp::ChildWalk(AxisTest::Label("clinicalTrial".into()))),
        ];
        let cert = certify_ops(&ops, &ctx());
        assert!(!cert.certified());
        assert_eq!(
            cert.errors().collect::<Vec<_>>(),
            vec![&CertFinding::EmittedInaccessible { ty: "clinicalTrial".into() }]
        );
    }

    #[test]
    fn allow_override_inside_hidden_region_is_emittable() {
        // `bill` sits below the hidden trial region but has an
        // accessible occurrence (nurse-spec style allow override), so
        // emitting it certifies.
        let p = plan("//bill", PlanPolicy::Auto);
        let cert = certify(&p, &ctx());
        assert!(cert.certified(), "{:?}", cert.findings);
        assert_eq!(cert.emitted.types, BTreeSet::from(["bill".to_string()]));
    }

    #[test]
    fn dead_operator_is_flagged_once() {
        let ops = vec![
            node(PlanOp::RootSeed),
            node(PlanOp::ChildWalk(AxisTest::Label("nonexistent".into()))),
            node(PlanOp::ChildWalk(AxisTest::Label("name".into()))),
            node(PlanOp::ChildWalk(AxisTest::Label("wardNo".into()))),
        ];
        let cert = certify_ops(&ops, &ctx());
        assert!(cert.certified(), "dead code is a warning, not an error");
        let dead: Vec<_> =
            cert.findings.iter().filter(|f| matches!(f, CertFinding::DeadOp { .. })).collect();
        assert_eq!(dead.len(), 1, "only the first dead op is reported: {dead:?}");
    }

    #[test]
    fn explicit_empty_set_is_not_dead_code() {
        let ops =
            vec![node(PlanOp::EmptySet), node(PlanOp::ChildWalk(AxisTest::Label("name".into())))];
        let cert = certify_ops(&ops, &ctx());
        assert!(cert.findings.is_empty(), "{:?}", cert.findings);
        assert!(cert.emitted.is_empty());
    }

    #[test]
    fn unguarded_probe_into_hidden_region_warns() {
        // dept[clinicalTrial] — existence of the hidden region is the
        // Example 1.1 inference channel.
        let p = plan("//dept[clinicalTrial]", PlanPolicy::ForceWalk);
        let cert = certify(&p, &ctx());
        assert!(cert.certified(), "probe channel is a warning: {:?}", cert.findings);
        assert!(cert
            .findings
            .iter()
            .any(|f| matches!(f, CertFinding::UnguardedProbe { ty, .. } if ty == "clinicalTrial")));
        assert!(cert.probed.types.contains("clinicalTrial"));
    }

    #[test]
    fn bitmap_guard_suppresses_the_probe_finding() {
        let probe = vec![
            node(PlanOp::ChildWalk(AxisTest::Label("clinicalTrial".into()))),
            node(PlanOp::BitmapFilter(AccessFilter::Member)),
        ];
        let ops = vec![
            node(PlanOp::RootSeed),
            node(PlanOp::ChildWalk(AxisTest::Label("dept".into()))),
            node(PlanOp::QualifierProbe(QualPlan::Exists(probe))),
        ];
        let cert = certify_ops(&ops, &ctx());
        assert!(
            !cert.findings.iter().any(|f| matches!(f, CertFinding::UnguardedProbe { .. })),
            "{:?}",
            cert.findings
        );
    }

    #[test]
    fn probe_of_accessible_data_does_not_warn() {
        let p = plan("//patient[wardNo='6']", PlanPolicy::Auto);
        let cert = certify(&p, &ctx());
        assert!(cert.certified());
        assert!(!cert.findings.iter().any(|f| matches!(f, CertFinding::UnguardedProbe { .. })));
        assert!(cert.probed.types.contains("wardNo"));
    }

    #[test]
    fn statically_false_qualifier_empties_the_state() {
        let ops = vec![node(PlanOp::RootSeed), node(PlanOp::QualifierProbe(QualPlan::False))];
        let cert = certify_ops(&ops, &ctx());
        assert!(cert.emitted.is_empty());
    }

    #[test]
    fn union_joins_arm_states() {
        let p = plan("//name | //wardNo", PlanPolicy::ForceJoin);
        let cert = certify(&p, &ctx());
        assert!(cert.certified());
        assert!(cert.emitted.types.contains("name") && cert.emitted.types.contains("wardNo"));
    }

    #[test]
    fn text_and_wildcard_steps_are_tracked() {
        let cert = certify(&plan("//patient/text()", PlanPolicy::ForceWalk), &ctx());
        assert!(!cert.emitted.text, "patient has no #PCDATA children");
        let cert = certify(&plan("//name/text()", PlanPolicy::ForceWalk), &ctx());
        assert!(cert.emitted.text);
        let cert = certify(&plan("dept/*", PlanPolicy::ForceWalk), &ctx());
        assert!(cert.emitted.types.contains("patientInfo"));
    }

    #[test]
    fn view_steps_confine_to_accessible_and_dummies() {
        let mut c = ctx();
        c.dummy_labels.insert("dummy1".into());
        c.dummy_visible.insert("clinicalTrial".into());
        let ops = vec![node(PlanOp::RootSeed), node(PlanOp::ViewDescendant(AxisTest::AnyElement))];
        let cert = certify_ops(&ops, &c);
        assert!(cert.certified(), "{:?}", cert.findings);
        assert!(!cert.emitted.types.contains("trial"), "hidden types filtered by view step");
        assert_eq!(cert.emitted.dummies, BTreeSet::from(["dummy1".to_string()]));

        let ops = vec![
            node(PlanOp::RootSeed),
            node(PlanOp::ViewDescendant(AxisTest::Label("dummy1".into()))),
        ];
        let cert = certify_ops(&ops, &c);
        assert!(cert.certified());
        assert_eq!(cert.emitted.dummies, BTreeSet::from(["dummy1".to_string()]));
    }

    #[test]
    fn element_filter_admits_dummies_that_expose_its_input_types() {
        // `trial` is hidden but served under the view's `dummy1`. The
        // view-element bitmap admits those occurrences, so a `//*` plan
        // through it must list the dummy, whether the filter runs alone
        // or fused into the scan.
        let mut c = ctx();
        c.dummy_labels.insert("dummy1".into());
        c.dummy_visible.insert("trial".into());
        let standalone = vec![
            node(PlanOp::RootSeed),
            node(PlanOp::DescendantSlice(AxisTest::AnyElement)),
            node(PlanOp::BitmapFilter(AccessFilter::Element)),
        ];
        let fused = vec![
            node(PlanOp::RootSeed),
            node(PlanOp::Fused(crate::plan::FusedScan {
                axis: AxisTest::AnyElement,
                filter: Some(AccessFilter::Element),
                qual: None,
                from_expand: false,
            })),
        ];
        for ops in [standalone, fused] {
            let cert = certify_ops(&ops, &c);
            assert!(cert.certified(), "{:?}", cert.findings);
            assert_eq!(cert.emitted.dummies, BTreeSet::from(["dummy1".to_string()]));
            assert!(!cert.emitted.types.contains("trial"), "hidden type stays filtered");
        }
        // Input types that no dummy exposes admit no dummy, and the
        // member bitmap never admits one.
        for (test, filter) in [
            (AxisTest::Label("name".into()), AccessFilter::Element),
            (AxisTest::AnyElement, AccessFilter::Member),
        ] {
            let ops = vec![
                node(PlanOp::RootSeed),
                node(PlanOp::DescendantSlice(test)),
                node(PlanOp::BitmapFilter(filter)),
            ];
            assert!(certify_ops(&ops, &c).emitted.dummies.is_empty(), "{filter}");
        }
    }

    /// Recursive bill-of-materials context: `part` contains `part`.
    fn recursive_ctx() -> CertifyContext {
        let edges: &[(&str, &[&str])] =
            &[("bom", &["part"]), ("part", &["part", "name", "serial"])];
        let mut children: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (p, kids) in edges {
            children.insert(p.to_string(), kids.iter().map(|k| k.to_string()).collect());
        }
        let set =
            |names: &[&str]| -> BTreeSet<String> { names.iter().map(|n| n.to_string()).collect() };
        CertifyContext {
            root: "bom".into(),
            children,
            text_types: set(&["name", "serial"]),
            accessible: set(&["bom", "part", "name"]),
            inaccessible: set(&["serial"]),
            hideable: set(&["serial"]),
            dummy_visible: BTreeSet::new(),
            dummy_labels: BTreeSet::new(),
        }
    }

    #[test]
    fn closure_reaches_fixpoint_on_recursive_schema() {
        // `(part)*/name` over the cyclic part → part production: the
        // closure transfer iterates to a fixpoint instead of unrolling.
        let p = plan("part/(part)*/name", PlanPolicy::ForceWalk);
        let cert = certify(&p, &recursive_ctx());
        assert!(cert.certified(), "{:?}", cert.findings);
        assert_eq!(cert.emitted.types, BTreeSet::from(["name".to_string()]));
        assert!(cert.to_text().contains("closure-expand"));
    }

    #[test]
    fn closure_emitting_hidden_type_is_rejected() {
        let p = plan("part/(part)*/serial", PlanPolicy::ForceWalk);
        let cert = certify(&p, &recursive_ctx());
        assert!(!cert.certified());
        assert!(cert
            .errors()
            .any(|f| matches!(f, CertFinding::EmittedInaccessible { ty } if ty == "serial")));
    }

    #[test]
    fn closure_probe_into_hidden_region_still_warns() {
        // The Example 1.1 channel survives under a closure: probing
        // `serial` deep inside the recursion without a bitmap guard.
        let p = plan("part[(part)*/serial]", PlanPolicy::ForceWalk);
        let cert = certify(&p, &recursive_ctx());
        assert!(cert
            .findings
            .iter()
            .any(|f| matches!(f, CertFinding::UnguardedProbe { ty, .. } if ty == "serial")));
    }

    #[test]
    fn renderings_are_stable_and_escaped() {
        let p = plan("//patient[name]", PlanPolicy::ForceWalk);
        let cert = certify(&p, &ctx());
        let text = cert.to_text();
        assert!(text.contains("certificate: certified"));
        assert!(text.contains("root-seed"));
        assert!(text.contains("emitted: {patient}"));
        let json = cert.to_json();
        assert!(json.contains("\"certified\": true"));
        assert!(json.contains("\"trace\""));
        // The ∅ state renders into JSON without raw control bytes.
        assert!(json.chars().all(|ch| (ch as u32) >= 0x20));
    }

    #[test]
    fn certificates_are_comparable_for_mismatch_detection() {
        let p = plan("//patient", PlanPolicy::Auto);
        let a = certify(&p, &ctx());
        let b = certify(&p, &ctx());
        assert_eq!(a, b);
        let other = certify(&plan("//name", PlanPolicy::Auto), &ctx());
        assert_ne!(a, other);
    }
}
