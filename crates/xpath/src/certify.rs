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
//! The abstract state over-approximates the set of nodes a pipeline
//! position can hold: a set of DTD element types, plus three markers
//! (`doc` — the virtual document node, `text` — text nodes, `dummies` —
//! view nodes served under a dummy label). Each [`PlanOp`] gets a
//! transfer function that maps input state to output state using only
//! the DTD edge graph and the type-level accessibility relation
//! ([`CertifyContext`]); no document is consulted. Because every
//! transfer function over-approximates the concrete operator (any node
//! the executor can produce has its type in the abstract output), the
//! final state over-approximates the emitted answer.
//!
//! [`CertifyContext::new`] numbers the element types once, in the byte
//! order of their names, and holds every type set as a bitset over those
//! ids (each type's children and strict descendants too), so a transfer
//! function is a few word-wide ORs and ANDs, and states render in name
//! order. Dummy labels are not DTD types, and a plan may name one the
//! context does not list, so states keep them in a set of their own.
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
//! * dead operators (abstract input ∅ that is not the result of an
//!   explicit `EmptySet`) yield [`CertFinding::DeadOp`] warnings.
//!
//! [`certify_traced`] runs the same interpreter and also records the
//! per-operator abstract states, for auditing (`sxv explain --verify`
//! prints them beside the plan). Certification is a pure function of
//! the plan and the context, so the traced verdict equals the untraced
//! one; the engine caches the untraced certificate, which builds no
//! strings unless it records a finding.
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
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use sxv_xml::json_escape;

/// The schema and policy facts the certifier reads, as plain named sets
/// (so the xpath crate needs no dependency on the spec/view machinery —
/// `sxv-core` builds this from `TypeAccessibility` and the derived
/// view). [`CertifyContext::new`] interns them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContextSets {
    /// Document root element type.
    pub root: String,
    /// DTD edge graph: element type → child element types.
    pub children: BTreeMap<String, BTreeSet<String>>,
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

/// A set of one context's element types: bit `i` stands for the type
/// with interned id `i`. Every set of a context has the same number of
/// words, so the binary operations zip word by word.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Types(Vec<u64>);

impl Types {
    fn none(words: usize) -> Types {
        Types(vec![0; words])
    }

    fn contains(&self, t: usize) -> bool {
        self.0[t / 64] & (1 << (t % 64)) != 0
    }

    fn insert(&mut self, t: usize) {
        self.0[t / 64] |= 1 << (t % 64);
    }

    fn union_with(&mut self, other: &Types) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a |= b;
        }
    }

    fn and(&self, other: &Types) -> Types {
        Types(self.0.iter().zip(&other.0).map(|(a, b)| a & b).collect())
    }

    fn intersects(&self, other: &Types) -> bool {
        self.0.iter().zip(&other.0).any(|(a, b)| a & b != 0)
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// The member ids, ascending (so their names come in byte order).
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest.wrapping_sub(1);
                (bit < 64).then_some(i * 64 + bit)
            })
        })
    }
}

/// Everything the abstract interpreter knows about the schema and the
/// access policy: the [`ContextSets`] it was built from, and their
/// interned bitset form, built once by [`CertifyContext::new`] and never
/// during a certification.
#[derive(Debug, Clone)]
pub struct CertifyContext {
    sets: ContextSets,
    /// Every element type the sets name, in byte order; a type's id is
    /// its index.
    names: Vec<String>,
    root: usize,
    /// Per type id: its child types.
    children: Vec<Types>,
    /// Per type id: its strict descendant types (the transitive closure
    /// of `children`).
    below: Vec<Types>,
    text_types: Types,
    accessible: Types,
    inaccessible: Types,
    hideable: Types,
    dummy_visible: Types,
}

impl CertifyContext {
    /// Intern `sets`: number every element type they name in the byte
    /// order of its name, and precompute each type set, each type's
    /// children and each type's strict-descendant closure as bitsets.
    pub fn new(sets: ContextSets) -> CertifyContext {
        let s = &sets;
        let mut all: BTreeSet<&String> = s.children.keys().chain([&s.root]).collect();
        let named = [&s.text_types, &s.accessible, &s.inaccessible, &s.hideable, &s.dummy_visible];
        for set in s.children.values().chain(named) {
            all.extend(set);
        }
        let names: Vec<String> = all.into_iter().cloned().collect();
        let words = names.len().div_ceil(64);
        let id = |t: &str| names.binary_search_by(|n| n.as_str().cmp(t)).expect("interned above");
        let bits = |set: &BTreeSet<String>| {
            let mut out = Types::none(words);
            set.iter().for_each(|t| out.insert(id(t)));
            out
        };
        let mut children = vec![Types::none(words); names.len()];
        for (parent, kids) in &sets.children {
            children[id(parent)] = bits(kids);
        }
        let below = (0..names.len())
            .map(|t| {
                let mut seen = children[t].clone();
                let mut work: Vec<usize> = seen.iter().collect();
                while let Some(c) = work.pop() {
                    for k in children[c].iter() {
                        if !seen.contains(k) {
                            seen.insert(k);
                            work.push(k);
                        }
                    }
                }
                seen
            })
            .collect();
        CertifyContext {
            root: id(&sets.root),
            children,
            below,
            text_types: bits(&sets.text_types),
            accessible: bits(&sets.accessible),
            inaccessible: bits(&sets.inaccessible),
            hideable: bits(&sets.hideable),
            dummy_visible: bits(&sets.dummy_visible),
            names,
            sets,
        }
    }

    /// The sets this context was built from.
    pub fn sets(&self) -> &ContextSets {
        &self.sets
    }

    /// True when emitting nodes of type `t` is provably fine: the type
    /// has an accessible occurrence, or it is served renamed behind a
    /// dummy label.
    pub fn emittable(&self, t: &str) -> bool {
        self.id(t).is_some_and(|t| self.emits(t))
    }

    fn emits(&self, t: usize) -> bool {
        self.accessible.contains(t) || self.dummy_visible.contains(t)
    }

    /// The interned id of element type `t`; `None` for a label the
    /// context does not know, which selects nothing.
    fn id(&self, t: &str) -> Option<usize> {
        self.names.binary_search_by(|n| n.as_str().cmp(t)).ok()
    }

    fn no_types(&self) -> Types {
        Types::none(self.names.len().div_ceil(64))
    }

    /// Strict descendants of `seeds` (`seeds` themselves only when
    /// reachable again, i.e. recursive).
    fn closure(&self, seeds: &Types) -> Types {
        let mut out = self.no_types();
        for t in seeds.iter() {
            out.union_with(&self.below[t]);
        }
        out
    }
}

/// Abstract state as a certificate reports it: an over-approximation of
/// the node set at one pipeline position, with types and dummies by
/// name.
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
    /// True when no node of any kind can be present.
    pub fn is_empty(&self) -> bool {
        !self.doc && !self.text && self.types.is_empty() && self.dummies.is_empty()
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

/// The interpreter's abstract state: [`AbsState`] with its element types
/// as a bitset over the context's interned ids, and its dummy labels
/// borrowed from the plan or the context.
#[derive(Debug, Clone, PartialEq, Eq)]
struct State<'a> {
    doc: bool,
    text: bool,
    types: Types,
    dummies: BTreeSet<&'a str>,
}

impl<'a> State<'a> {
    fn empty(ctx: &CertifyContext) -> State<'a> {
        State::of(ctx.no_types())
    }

    fn of(types: Types) -> State<'a> {
        State { doc: false, text: false, types, dummies: BTreeSet::new() }
    }

    fn is_empty(&self) -> bool {
        !self.doc && !self.text && self.types.is_empty() && self.dummies.is_empty()
    }

    /// Least upper bound (set union on every component).
    fn join(&mut self, other: &State<'a>) {
        self.doc |= other.doc;
        self.text |= other.text;
        self.types.union_with(&other.types);
        self.dummies.extend(&other.dummies);
    }

    fn named(&self, ctx: &CertifyContext) -> AbsState {
        AbsState {
            doc: self.doc,
            text: self.text,
            types: self.types.iter().map(|t| ctx.names[t].clone()).collect(),
            dummies: self.dummies.iter().map(|d| d.to_string()).collect(),
        }
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
}

/// A certificate with the per-operator abstract trace that produced it
/// ([`certify_traced`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedCertificate {
    /// The verdict: equal to what [`certify`] returns for the same plan
    /// and context.
    pub cert: PlanCertificate,
    /// Per-operator abstract trace.
    pub trace: Vec<TraceLine>,
}

impl TracedCertificate {
    /// Text rendering (printed by `sxv explain --verify`).
    pub fn to_text(&self) -> String {
        let cert = &self.cert;
        let mut out = String::new();
        let verdict = if cert.certified() { "certified" } else { "NOT CERTIFIED" };
        let _ = writeln!(out, "certificate: {verdict} ({} ops checked)", cert.ops_checked);
        let _ = writeln!(out, "  emitted: {}", cert.emitted.render());
        let _ = writeln!(out, "  probed:  {}", cert.probed.render());
        let _ = writeln!(out, "  trace:");
        for line in &self.trace {
            let pad = "  ".repeat(line.depth);
            let _ = writeln!(out, "    {pad}{:<40} {}", line.detail, line.state);
        }
        if !cert.findings.is_empty() {
            let _ = writeln!(out, "  findings:");
            for f in &cert.findings {
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
        let cert = &self.cert;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"certified\": {}, \"ops_checked\": {}, \"emitted\": {}, \"probed\": {}",
            cert.certified(),
            cert.ops_checked,
            state_json(&cert.emitted),
            state_json(&cert.probed)
        );
        out.push_str(", \"findings\": [");
        for (i, f) in cert.findings.iter().enumerate() {
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
/// `SecureEngine` executes plans) and collect the verdict. No trace is
/// recorded; [`certify_traced`] records one.
pub fn certify(plan: &CompiledQuery, ctx: &CertifyContext) -> PlanCertificate {
    interpret(&plan.ops, ctx, false).cert
}

/// [`certify`] with the per-operator abstract trace recorded, for
/// printing (`sxv explain --verify`). Its verdict equals [`certify`]'s.
pub fn certify_traced(plan: &CompiledQuery, ctx: &CertifyContext) -> TracedCertificate {
    interpret(&plan.ops, ctx, true)
}

/// Interpret a raw operator pipeline (hand-built plans in tests reach it
/// directly), recording the trace only when `traced`.
fn interpret(ops: &[PlanNode], ctx: &CertifyContext, traced: bool) -> TracedCertificate {
    let mut interp = Interp {
        ctx,
        trace: traced.then(Vec::new),
        findings: Vec::new(),
        ops_checked: 0,
        probed: State::empty(ctx),
    };
    let emitted = interp.run_pipeline(ops, interp.at_root(), 0);
    for t in emitted.types.iter() {
        if !ctx.emits(t) {
            interp.findings.push(CertFinding::EmittedInaccessible { ty: ctx.names[t].clone() });
        }
    }
    let cert = PlanCertificate {
        emitted: emitted.named(ctx),
        probed: interp.probed.named(ctx),
        findings: interp.findings,
        ops_checked: interp.ops_checked,
    };
    TracedCertificate { cert, trace: interp.trace.unwrap_or_default() }
}

struct Interp<'a> {
    ctx: &'a CertifyContext,
    /// The trace recorder: `None` unless the trace will be printed.
    trace: Option<Vec<TraceLine>>,
    findings: Vec<CertFinding>,
    ops_checked: usize,
    probed: State<'a>,
}

impl<'a> Interp<'a> {
    /// Abstract state for evaluation at the document root element.
    fn at_root(&self) -> State<'a> {
        let mut types = self.ctx.no_types();
        types.insert(self.ctx.root);
        State::of(types)
    }

    /// Where the next trace line goes (0 when not tracing).
    fn mark(&self) -> usize {
        self.trace.as_ref().map_or(0, Vec::len)
    }

    /// Record a trace line at position `at`, when tracing. `state` is
    /// `None` for a heading line (an arm, a chain, a closure body, a
    /// qualifier connective).
    fn record(
        &mut self,
        at: usize,
        depth: usize,
        detail: impl FnOnce() -> String,
        state: Option<&State<'a>>,
    ) {
        if let Some(trace) = &mut self.trace {
            let state = state.map_or_else(String::new, |s| s.named(self.ctx).render());
            trace.insert(at, TraceLine { depth, detail: detail(), state });
        }
    }

    fn push(&mut self, depth: usize, detail: impl FnOnce() -> String, state: Option<&State<'a>>) {
        self.record(self.mark(), depth, detail, state);
    }

    /// The element types a step can start from: the state's types, plus
    /// — when dummy nodes may be present — every hideable type (a dummy
    /// stands for a hidden occurrence of one of those).
    fn base_types(&self, state: &State<'a>) -> Types {
        let mut base = state.types.clone();
        if !state.dummies.is_empty() {
            base.union_with(&self.ctx.hideable);
        }
        base
    }

    /// The dummy labels of the view, as state members.
    fn all_dummies(&self) -> BTreeSet<&'a str> {
        self.ctx.sets.dummy_labels.iter().map(String::as_str).collect()
    }

    /// The transfer of a [`PlanOp::BitmapFilter`], alone or fused into a
    /// scan. Both bitmaps keep only accessible types. The member bitmap
    /// keeps text and drops dummies. The element bitmap drops text but
    /// admits every view element, including hidden occurrences served
    /// under a dummy label: when the input may hold a type that a dummy
    /// exposes, every dummy label may come out.
    fn bitmap_filter(&self, filter: AccessFilter, state: State<'a>) -> State<'a> {
        let types = state.types.and(&self.ctx.accessible);
        match filter {
            AccessFilter::Member => State { text: state.text, ..State::of(types) },
            AccessFilter::Element => {
                let mut dummies = state.dummies;
                if state.types.intersects(&self.ctx.dummy_visible) {
                    dummies.extend(self.all_dummies());
                }
                State { dummies, ..State::of(types) }
            }
        }
    }

    /// The transfer of a [`PlanOp::DescendantSlice`], alone or as a
    /// fused scan's axis: the descendants of the state's types that pass
    /// `test`.
    fn descendant_slice(&self, test: &AxisTest, state: &State<'a>) -> State<'a> {
        let (cand, text) = self.candidates(state, true);
        match test {
            AxisTest::Label(l) => self.select(l, &cand),
            AxisTest::AnyElement => State::of(cand),
            AxisTest::Text => State { text, ..State::empty(self.ctx) },
        }
    }

    /// The type `l` alone when `cand` holds it; nothing otherwise (a
    /// label the context does not know selects nothing).
    fn select(&self, l: &str, cand: &Types) -> State<'a> {
        let mut out = State::empty(self.ctx);
        if let Some(t) = self.ctx.id(l).filter(|&t| cand.contains(t)) {
            out.types.insert(t);
        }
        out
    }

    /// The transfer of a [`PlanOp::DescendantExpand`], alone or absorbed
    /// into a fused scan: every descendant type and text, plus the input
    /// itself when `or_self`.
    fn descendant_expand(&self, or_self: bool, state: State<'a>) -> State<'a> {
        let (cand, text) = self.candidates(&state, true);
        let mut out = State { text, ..State::of(cand) };
        if or_self {
            out.join(&state);
        }
        out
    }

    fn run_pipeline(&mut self, ops: &'a [PlanNode], input: State<'a>, depth: usize) -> State<'a> {
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

    fn step(&mut self, op: &'a PlanOp, state: State<'a>, depth: usize) -> State<'a> {
        self.ops_checked += 1;
        let out = match op {
            PlanOp::RootSeed => self.at_root(),
            PlanOp::DocSeed => State { doc: true, ..State::empty(self.ctx) },
            PlanOp::EmptySet => State::empty(self.ctx),
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
                    let mark = self.mark();
                    if !self.qual(q, &out, depth + 1) {
                        out = State::empty(self.ctx);
                    }
                    self.record(mark, depth, || op_detail(op), Some(&out));
                    return out;
                }
                out
            }
            PlanOp::SchemaSlice(s) => {
                // A schema slice is certified as the chain it retains,
                // then its fused qualifier: on every document where the
                // scan runs it selects exactly the chain's nodes, and the
                // chain itself runs everywhere else.
                let mark = self.mark();
                self.push(depth + 1, || "chain".into(), None);
                let mut out = self.run_pipeline(&s.chain, state, depth + 2);
                if let Some(q) = &s.scan.qual {
                    if !self.qual(q, &out, depth + 1) {
                        out = State::empty(self.ctx);
                    }
                }
                self.record(mark, depth, || op_detail(op), Some(&out));
                return out;
            }
            PlanOp::UnionMerge(arms) => {
                let mark = self.mark();
                let mut out = State::empty(self.ctx);
                for (k, arm) in arms.iter().enumerate() {
                    self.push(depth + 1, || format!("arm {}", k + 1), None);
                    let r = self.run_pipeline(arm, state.clone(), depth + 2);
                    out.join(&r);
                }
                self.record(mark, depth, || "union-merge".into(), Some(&out));
                return out;
            }
            PlanOp::QualifierProbe(q) => {
                let mark = self.mark();
                let may_hold = self.qual(q, &state, depth + 1);
                let out = if may_hold { state } else { State::empty(self.ctx) };
                self.record(mark, depth, || "qualifier-probe".into(), Some(&out));
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
                let mark = self.mark();
                let mut acc = state;
                loop {
                    if let Some(trace) = &mut self.trace {
                        trace.truncate(mark);
                    }
                    let findings_mark = self.findings.len();
                    let ops_mark = self.ops_checked;
                    self.push(depth + 1, || "body".into(), None);
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
                self.record(mark, depth, || "closure-expand".into(), Some(&acc));
                return acc;
            }
            PlanOp::ViewChild(test) => self.view_step(&state, test, false),
            PlanOp::ViewDescendant(test) => self.view_step(&state, test, true),
            PlanOp::ViewExpand { or_self } => {
                let (cand, text) = self.candidates(&state, true);
                let mut out = State { text, ..State::of(cand.and(&self.ctx.accessible)) };
                if !state.is_empty() {
                    out.dummies = self.all_dummies();
                }
                if *or_self {
                    out.doc = state.doc;
                    out.text |= state.text;
                    out.types.union_with(&state.types.and(&self.ctx.accessible));
                    out.dummies.extend(&state.dummies);
                }
                out
            }
        };
        self.push(depth, || op_detail(op), Some(&out));
        out
    }

    fn child_step(&self, state: &State<'a>, test: &AxisTest) -> State<'a> {
        let base = self.base_types(state);
        let mut kids = self.ctx.no_types();
        if state.doc {
            kids.insert(self.ctx.root);
        }
        for p in base.iter() {
            kids.union_with(&self.ctx.children[p]);
        }
        match test {
            AxisTest::Label(l) => self.select(l, &kids),
            AxisTest::AnyElement => State::of(kids),
            AxisTest::Text => {
                State { text: base.intersects(&self.ctx.text_types), ..State::empty(self.ctx) }
            }
        }
    }

    /// Candidate element types for a descendant step from `state` (and
    /// for a view step: view edges short-cut through hidden regions, so
    /// any document descendant type is a candidate), and whether text
    /// may be among the results (the context types' own text children
    /// are proper descendants too). The virtual doc node reaches the
    /// root element, and the whole tree when `doc_descends`.
    fn candidates(&self, state: &State<'a>, doc_descends: bool) -> (Types, bool) {
        let base = self.base_types(state);
        let mut cand = self.ctx.closure(&base);
        if state.doc {
            cand.insert(self.ctx.root);
            if doc_descends {
                cand.union_with(&self.ctx.below[self.ctx.root]);
            }
        }
        let text = base.intersects(&self.ctx.text_types) || cand.intersects(&self.ctx.text_types);
        (cand, text)
    }

    fn view_step(&self, state: &State<'a>, test: &'a AxisTest, descend: bool) -> State<'a> {
        let (cand, text) = self.candidates(state, descend);
        match test {
            AxisTest::Label(l) if is_dummy_label(l) => {
                let dummy_labels = &self.ctx.sets.dummy_labels;
                let mut out = State::empty(self.ctx);
                if !state.is_empty() && (dummy_labels.is_empty() || dummy_labels.contains(l)) {
                    out.dummies.insert(l);
                }
                out
            }
            AxisTest::Label(l) => self.select(l, &cand.and(&self.ctx.accessible)),
            AxisTest::AnyElement => {
                let mut out = State::of(cand.and(&self.ctx.accessible));
                if !state.is_empty() {
                    out.dummies = self.all_dummies();
                }
                out
            }
            AxisTest::Text => State { text, ..State::empty(self.ctx) },
        }
    }

    /// Analyze one qualifier: returns whether it may hold (false means
    /// the qualifier is statically unsatisfiable, so the probe filters
    /// everything out). Sub-pipeline results are accumulated into
    /// `probed` and checked for the unguarded-probe channel.
    fn qual(&mut self, q: &'a QualPlan, input: &State<'a>, depth: usize) -> bool {
        match q {
            QualPlan::True => {
                self.push(depth, || "true".into(), None);
                true
            }
            QualPlan::False => {
                self.push(depth, || "false".into(), None);
                false
            }
            QualPlan::Attr(a) => {
                self.push(depth, || format!("attr @{a}"), None);
                true
            }
            QualPlan::AttrEq(a, v) => {
                self.push(depth, || format!("attr @{a}='{v}'"), None);
                true
            }
            QualPlan::Exists(ops) => self.probe(ops, input, depth, None),
            QualPlan::Eq(ops, c) => self.probe(ops, input, depth, Some(c)),
            QualPlan::And(a, b) => {
                self.push(depth, || "and".into(), None);
                let ha = self.qual(a, input, depth + 1);
                let hb = self.qual(b, input, depth + 1);
                ha && hb
            }
            QualPlan::Or(a, b) => {
                self.push(depth, || "or".into(), None);
                let ha = self.qual(a, input, depth + 1);
                let hb = self.qual(b, input, depth + 1);
                ha || hb
            }
            QualPlan::Not(inner) => {
                self.push(depth, || "not".into(), None);
                // ¬q may hold even when q may hold; only analyze the
                // inner probe for channel findings.
                self.qual(inner, input, depth + 1);
                true
            }
        }
    }

    /// An `exists` probe, or an `eq` probe against the constant `eq`.
    fn probe(
        &mut self,
        ops: &'a [PlanNode],
        input: &State<'a>,
        depth: usize,
        eq: Option<&str>,
    ) -> bool {
        let what = || eq.map_or_else(|| "exists".to_string(), |c| format!("eq '{c}'"));
        let mark = self.mark();
        let result = self.run_pipeline(ops, input.clone(), depth + 1);
        self.record(mark, depth, what, Some(&result));
        self.probed.join(&result);
        // Example 1.1 channel: the probe's observable outcome depends
        // only on definitely-inaccessible structure, and nothing in the
        // sub-pipeline confines it to the view.
        let confined_to_hidden = !result.types.is_empty()
            && result.types.and(&self.ctx.inaccessible) == result.types
            && !result.doc
            && !result.text;
        if confined_to_hidden && !has_bitmap_guard(ops) {
            for t in result.types.iter() {
                let ty = self.ctx.names[t].clone();
                self.findings.push(CertFinding::UnguardedProbe { ty, at: what() });
            }
        }
        !result.is_empty()
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

    /// A small hospital-shaped context:
    ///
    /// ```text
    /// hospital -> dept -> patientInfo -> patient -> {name, wardNo}
    ///             dept -> clinicalTrial -> trial -> bill
    /// ```
    ///
    /// with the clinicalTrial/trial region hidden (but `bill` granted
    /// back by an explicit allow, as in the nurse spec).
    fn sets() -> ContextSets {
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
        ContextSets {
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

    fn ctx() -> CertifyContext {
        CertifyContext::new(sets())
    }

    fn certify_ops(ops: &[PlanNode], ctx: &CertifyContext) -> PlanCertificate {
        interpret(ops, ctx, false).cert
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
        let mut s = sets();
        s.dummy_labels.insert("dummy1".into());
        s.dummy_visible.insert("clinicalTrial".into());
        let c = CertifyContext::new(s);
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
        let mut s = sets();
        s.dummy_labels.insert("dummy1".into());
        s.dummy_visible.insert("trial".into());
        let c = CertifyContext::new(s);
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
        CertifyContext::new(ContextSets {
            root: "bom".into(),
            children,
            text_types: set(&["name", "serial"]),
            accessible: set(&["bom", "part", "name"]),
            inaccessible: set(&["serial"]),
            hideable: set(&["serial"]),
            dummy_visible: BTreeSet::new(),
            dummy_labels: BTreeSet::new(),
        })
    }

    #[test]
    fn closure_reaches_fixpoint_on_recursive_schema() {
        // `(part)*/name` over the cyclic part → part production: the
        // closure transfer iterates to a fixpoint instead of unrolling.
        let p = plan("part/(part)*/name", PlanPolicy::ForceWalk);
        let traced = certify_traced(&p, &recursive_ctx());
        let cert = &traced.cert;
        assert!(cert.certified(), "{:?}", cert.findings);
        assert_eq!(cert.emitted.types, BTreeSet::from(["name".to_string()]));
        assert!(traced.to_text().contains("closure-expand"));
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
        let cert = certify_traced(&p, &ctx());
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

    /// A context three 64-bit words wide: 140 types `t0`…`t139`, with a
    /// chain `t0 → t1 → … → t99` and `t0 → t100 … t139`. Interned in
    /// byte order, `t10` (id 2) sorts before `t9` (id 129), and the
    /// text type `t98` and the hidden type `t99` (ids 138 and 139) sit
    /// in the last word.
    fn wide_ctx() -> CertifyContext {
        let name = |i: usize| format!("t{i}");
        let mut s = ContextSets { root: name(0), ..ContextSets::default() };
        for i in 0..99 {
            s.children.entry(name(i)).or_default().insert(name(i + 1));
        }
        s.children.entry(name(0)).or_default().extend((100..140).map(name));
        s.text_types.insert(name(98));
        s.accessible = (0..140).filter(|&i| i != 99).map(name).collect();
        s.inaccessible.insert(name(99));
        s.hideable.insert(name(99));
        CertifyContext::new(s)
    }

    #[test]
    fn states_span_every_word_of_a_wide_context() {
        let c = wide_ctx();
        assert_eq!(
            [c.id("t10"), c.id("t9"), c.id("t98"), c.id("t99")].map(Option::unwrap),
            [2, 129, 138, 139]
        );
        let label = |l: &str| AxisTest::Label(l.into());
        // Each step crosses a word boundary: a descendant slice from
        // word 0 to word 2, a closure and a child step from `t9` in word
        // 2 to `t10` in word 0, and a descendant slice back to word 2.
        let ops = vec![
            node(PlanOp::RootSeed),
            node(PlanOp::DescendantSlice(label("t9"))),
            node(PlanOp::ClosureExpand { body: vec![node(PlanOp::ChildWalk(label("t10")))] }),
            node(PlanOp::ChildWalk(AxisTest::AnyElement)),
            node(PlanOp::DescendantSlice(label("t98"))),
            node(PlanOp::QualifierProbe(QualPlan::Exists(vec![node(PlanOp::ChildWalk(label(
                "t99",
            )))]))),
            node(PlanOp::DescendantExpand { or_self: false }),
        ];
        let traced = interpret(&ops, &c, true);
        let cert = &traced.cert;
        assert_eq!(*cert, certify_ops(&ops, &c), "tracing does not change the verdict");
        assert!(cert.emitted.text);
        assert_eq!(cert.emitted.types, BTreeSet::from(["t99".to_string()]));
        assert_eq!(cert.probed.types, BTreeSet::from(["t99".to_string()]));
        assert_eq!(
            cert.findings,
            [
                CertFinding::UnguardedProbe { ty: "t99".into(), at: "exists".into() },
                CertFinding::EmittedInaccessible { ty: "t99".into() },
            ]
        );
        let want = [
            "certificate: NOT CERTIFIED (9 ops checked)",
            "  emitted: {text, t99}",
            "  probed:  {t99}",
            "  trace:",
            "    root-seed                                {t0}",
            "    descendant-slice(t9)                     {t9}",
            "    closure-expand                           {t10, t9}",
            "      body                                     ",
            "        child-walk(t10)                          {t10}",
            "    child-walk(*)                            {t10, t11}",
            "    descendant-slice(t98)                    {t98}",
            "    qualifier-probe                          {t98}",
            "      exists                                   {t99}",
            "        child-walk(t99)                          {t99}",
            "    descendant-expand(proper)                {text, t99}",
            "  findings:",
            "    warning: qualifier probe `exists` reaches only the inaccessible type `t99` \
             without a bitmap guard (dummy-inference channel)",
            "    error: emitted type `t99` is not provably accessible",
        ];
        assert_eq!(traced.to_text(), want.map(|l| format!("{l}\n")).concat());
    }
}
