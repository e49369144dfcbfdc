//! Schema-covered run lowering: the `Auto` planner pass that replaces a
//! run of child steps, unions and closures ending in a label step `L` by
//! one descendant slice of `L` (a [`SchemaSlice`]) when the schema graph
//! proves the run reaches every `L` below its context.
//!
//! The proof is automaton containment. The run is a regular expression
//! over element labels, compiled to a Thompson NFA. The schema graph,
//! read from the run's context types, is an automaton too: its words are
//! the label paths a conforming document can have below a context node.
//! Exploring the product of the two — graph label × NFA state set — finds
//! every path the graph allows from a context type to `L` and checks that
//! the NFA accepts it. If it does for every path, the slice and the run
//! select the same nodes on every document whose label edges lie inside
//! the graph; [`SchemaSlice`] keeps the run and falls back to it on any
//! other document.
//!
//! Context types come from a type-level abstract interpretation of the
//! pipeline prefix over the same graph. The pass runs in every pipeline:
//! top level, union arms, closure bodies and qualifier sub-pipelines.
//! See DESIGN.md §18.

use crate::plan::{AxisTest, FusedScan, PlanNode, PlanOp, QualPlan, SchemaSlice};
use std::cell::Cell;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use sxv_xml::LabelGraph;

/// Most (label, NFA state set) pairs the containment checks of one
/// compile explore; once they are spent the pass lowers nothing more, so
/// its time stays bounded on any graph and query. A check on the shipped
/// DTDs explores tens of pairs.
const STATE_BUDGET: usize = 4096;

/// A fixed-width bitset of label ids or NFA states.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Bits(Vec<u64>);

impl Bits {
    fn new(width: usize) -> Bits {
        Bits(vec![0; width.div_ceil(64)])
    }

    fn single(width: usize, i: usize) -> Bits {
        let mut b = Bits::new(width);
        b.insert(i);
        b
    }

    fn full(width: usize) -> Bits {
        let mut b = Bits::new(width);
        (0..width).for_each(|i| {
            b.insert(i);
        });
        b
    }

    /// Set bit `i`; true if it was clear.
    fn insert(&mut self, i: usize) -> bool {
        let (w, m) = (i / 64, 1u64 << (i % 64));
        let word = &mut self.0[w];
        let fresh = *word & m == 0;
        *word |= m;
        fresh
    }

    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// OR `words` in; true if any bit was added.
    fn union_with(&mut self, words: &[u64]) -> bool {
        let mut grew = false;
        for (a, &b) in self.0.iter_mut().zip(words) {
            grew |= b & !*a != 0;
            *a |= b;
        }
        grew
    }

    fn intersects(&self, words: &[u64]) -> bool {
        self.0.iter().zip(words).any(|(&a, &b)| a & b != 0)
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
                rest &= rest - 1;
                Some(w * 64 + bit)
            })
        })
    }
}

/// What a pipeline position can hold, at type level: the element labels
/// (graph ids) of its nodes, and whether the virtual document node may be
/// among them. Text nodes are not tracked: they have no children and no
/// descendants, so a run and a slice both select nothing below them.
#[derive(Debug, Clone)]
struct Types {
    doc: bool,
    labels: Bits,
}

/// One NFA transition symbol.
#[derive(Debug, Clone, Copy)]
enum Sym {
    /// An element with this graph label.
    Label(u32),
    /// Any element.
    Any,
}

/// A Thompson NFA over graph label ids. Edges are collected flat and
/// [`Nfa::seal`] groups them by source state, so stepping a state set
/// touches only the edges leaving it.
#[derive(Default)]
struct Nfa {
    states: usize,
    /// Labelled transitions `(from, symbol, to)`.
    moves: Vec<(usize, Sym, usize)>,
    /// ε-transitions `(from, to)`.
    eps: Vec<(usize, usize)>,
    /// After sealing: the moves and ε-edges of state `q` are
    /// `moves[move_at[q]..move_at[q + 1]]` and likewise for `eps`.
    move_at: Vec<usize>,
    eps_at: Vec<usize>,
}

/// Sort `edges` by source state and return the per-state start offsets
/// (`states + 1` entries).
fn group_by_source<T>(edges: &mut [T], from: impl Fn(&T) -> usize, states: usize) -> Vec<usize> {
    edges.sort_by_key(&from);
    let mut at = vec![0; states + 1];
    for e in edges.iter() {
        at[from(e) + 1] += 1;
    }
    for q in 0..states {
        at[q + 1] += at[q];
    }
    at
}

impl Nfa {
    fn state(&mut self) -> usize {
        self.states += 1;
        self.states - 1
    }

    /// Append the automaton of `ops` from state `from`; returns its end
    /// state. `bounds`, when given, receives the end state of each
    /// top-level operator. A closure loops through a fresh hub and leaves
    /// through a fresh exit, so no edge leads from an operator's end state
    /// back into it: from the state before operator `i`, the NFA accepts
    /// at the state after operator `j` exactly the words of `ops[i..=j]`.
    fn build(
        &mut self,
        g: &LabelGraph,
        ops: &[PlanNode],
        from: usize,
        mut bounds: Option<&mut Vec<usize>>,
    ) -> usize {
        let mut cur = from;
        for node in ops {
            cur = match &node.op {
                PlanOp::ChildWalk(axis) | PlanOp::ChildMergeJoin(axis) => {
                    let next = self.state();
                    let sym = match axis {
                        AxisTest::Label(l) => g.label_id(l).map(Sym::Label),
                        _ => Some(Sym::Any),
                    };
                    // A label outside the graph matches nothing on a
                    // conforming document: leave the state dead.
                    if let Some(sym) = sym {
                        self.moves.push((cur, sym, next));
                    }
                    next
                }
                PlanOp::UnionMerge(arms) => {
                    let next = self.state();
                    for arm in arms {
                        let end = self.build(g, arm, cur, None);
                        self.eps.push((end, next));
                    }
                    next
                }
                PlanOp::ClosureExpand { body } => {
                    let (hub, exit) = (self.state(), self.state());
                    self.eps.push((cur, hub));
                    let end = self.build(g, body, hub, None);
                    self.eps.extend([(end, hub), (hub, exit)]);
                    exit
                }
                _ => unreachable!("only run operators compile to the NFA"),
            };
            if let Some(b) = bounds.as_deref_mut() {
                b.push(cur);
            }
        }
        cur
    }

    /// Finish construction: group the edges by source state.
    fn seal(&mut self) {
        self.move_at = group_by_source(&mut self.moves, |m| m.0, self.states);
        self.eps_at = group_by_source(&mut self.eps, |e| e.0, self.states);
    }

    /// Close `set` under ε-transitions (`stack` is scratch space).
    fn close(&self, set: &mut Bits, stack: &mut Vec<usize>) {
        stack.clear();
        stack.extend(set.iter());
        while let Some(q) = stack.pop() {
            for &(_, r) in &self.eps[self.eps_at[q]..self.eps_at[q + 1]] {
                if set.insert(r) {
                    stack.push(r);
                }
            }
        }
    }

    /// The ε-closed state set after reading one element labelled `y`.
    fn advance(&self, set: &Bits, y: u32, stack: &mut Vec<usize>) -> Bits {
        let mut out = Bits::new(self.states);
        for q in set.iter() {
            for &(_, sym, r) in &self.moves[self.move_at[q]..self.move_at[q + 1]] {
                if matches!(sym, Sym::Label(l) if l != y) {
                    continue;
                }
                out.insert(r);
            }
        }
        self.close(&mut out, stack);
        out
    }
}

/// Whether `op` can sit inside a run: a child step on elements, or a
/// union or closure built only from such steps.
fn run_op(op: &PlanOp) -> bool {
    match op {
        PlanOp::ChildWalk(axis) | PlanOp::ChildMergeJoin(axis) => *axis != AxisTest::Text,
        PlanOp::UnionMerge(arms) => arms.iter().all(|arm| arm.iter().all(|n| run_op(&n.op))),
        PlanOp::ClosureExpand { body } => body.iter().all(|n| run_op(&n.op)),
        _ => false,
    }
}

/// The label a run may end on: a child label step.
fn end_label(op: &PlanOp) -> Option<&str> {
    match op {
        PlanOp::ChildWalk(AxisTest::Label(l)) | PlanOp::ChildMergeJoin(AxisTest::Label(l)) => {
            Some(l)
        }
        _ => None,
    }
}

/// The NFA of one maximal stretch of run operators, built once and
/// entered at any operator boundary.
struct Segment {
    nfa: Nfa,
    /// `bounds[k]`: the state before operator `k` (`k = 0..=len`).
    bounds: Vec<usize>,
    /// Where a run may end: (operator index, graph label, the state
    /// after the operator).
    ends: Vec<(usize, u32, usize)>,
}

impl Segment {
    fn new(g: &LabelGraph, ops: &[PlanNode]) -> Segment {
        let mut nfa = Nfa { moves: Vec::with_capacity(ops.len()), ..Nfa::default() };
        let mut bounds = Vec::with_capacity(ops.len() + 1);
        bounds.push(nfa.state());
        nfa.build(g, ops, bounds[0], Some(&mut bounds));
        nfa.seal();
        let mut ends = Vec::with_capacity(ops.len());
        for (j, node) in ops.iter().enumerate() {
            if let Some(l) = end_label(&node.op).and_then(|l| g.label_id(l)) {
                ends.push((j, l, bounds[j + 1]));
            }
        }
        Segment { nfa, bounds, ends }
    }
}

/// Lower every schema-covered run in a compiled pipeline (the
/// `RootSeed`-first pipeline [`crate::compile`] builds) against `schema`.
pub(crate) fn lower_schema_runs(ops: Vec<PlanNode>, schema: &Arc<LabelGraph>) -> Vec<PlanNode> {
    // The check reads each label's reachability row
    // ([`LabelGraph::below`]), which costs labels² bits per graph.
    if schema.len() > LabelGraph::MAX_LABELS {
        return ops;
    }
    let pass = Pass { g: schema, width: schema.len(), budget: Cell::new(STATE_BUDGET) };
    let start = Types { doc: false, labels: Bits::new(pass.width) };
    pass.pipeline(ops, start).0
}

struct Pass<'g> {
    g: &'g Arc<LabelGraph>,
    width: usize,
    /// Exploration pairs this compile may still spend.
    budget: Cell<usize>,
}

impl Pass<'_> {
    /// Take one pair from the budget; false once it is spent.
    fn spend(&self) -> bool {
        let left = self.budget.get();
        self.budget.set(left.saturating_sub(1));
        left > 0
    }

    fn root(&self) -> Bits {
        Bits::single(self.width, self.g.root_id() as usize)
    }

    fn children(&self, of: &Bits) -> Bits {
        let mut out = Bits::new(self.width);
        for t in of.iter() {
            for &c in self.g.children(t as u32) {
                out.insert(c as usize);
            }
        }
        out
    }

    /// Labels strictly below `of`.
    fn below(&self, of: &Bits) -> Bits {
        let mut out = Bits::new(self.width);
        for t in of.iter() {
            out.union_with(self.g.below(t as u32));
        }
        out
    }

    /// Keep the labels an axis test admits.
    fn pick(&self, labels: Bits, axis: &AxisTest) -> Bits {
        match axis {
            AxisTest::AnyElement => labels,
            AxisTest::Text => Bits::new(self.width),
            AxisTest::Label(l) => match self.g.label_id(l) {
                Some(id) if labels.contains(id as usize) => Bits::single(self.width, id as usize),
                _ => Bits::new(self.width),
            },
        }
    }

    /// Descendants of `ts` (document node included: its descendants are
    /// the root and everything below it).
    fn descendants(&self, ts: &Types) -> Bits {
        let mut out = self.below(&ts.labels);
        if ts.doc {
            out.union_with(&self.root().0);
            out.union_with(&self.below(&self.root()).0);
        }
        out
    }

    fn transfer(&self, op: &PlanOp, ts: &Types) -> Types {
        let labels = |labels| Types { doc: false, labels };
        match op {
            PlanOp::RootSeed => labels(self.root()),
            PlanOp::DocSeed => Types { doc: true, labels: Bits::new(self.width) },
            PlanOp::EmptySet => labels(Bits::new(self.width)),
            PlanOp::ChildWalk(axis) | PlanOp::ChildMergeJoin(axis) => {
                let mut kids = self.children(&ts.labels);
                if ts.doc {
                    kids.union_with(&self.root().0);
                }
                labels(self.pick(kids, axis))
            }
            PlanOp::DescendantSlice(axis) => labels(self.pick(self.descendants(ts), axis)),
            PlanOp::DescendantExpand { or_self } => {
                let mut out = Types { doc: ts.doc && *or_self, labels: self.descendants(ts) };
                if *or_self {
                    out.labels.union_with(&ts.labels.0);
                }
                out
            }
            PlanOp::UnionMerge(arms) => {
                let mut out = Types { doc: false, labels: Bits::new(self.width) };
                for arm in arms {
                    let r = self.run(arm, ts.clone());
                    out.doc |= r.doc;
                    out.labels.union_with(&r.labels.0);
                }
                out
            }
            PlanOp::ClosureExpand { body } => self.closure(body, ts.clone()),
            PlanOp::QualifierProbe(_) => ts.clone(),
            PlanOp::SchemaSlice(s) => self.run(&s.chain, ts.clone()),
            // Fused and annotation operators never reach this pass; the
            // top state makes every later run decline.
            _ => Types { doc: true, labels: Bits::full(self.width) },
        }
    }

    /// The least fixpoint `acc ⊇ ts` closed under the body.
    fn closure(&self, body: &[PlanNode], mut acc: Types) -> Types {
        loop {
            let r = self.run(body, acc.clone());
            let grew = (r.doc && !acc.doc) | acc.labels.union_with(&r.labels.0);
            acc.doc |= r.doc;
            if !grew {
                return acc;
            }
        }
    }

    fn run(&self, ops: &[PlanNode], mut ts: Types) -> Types {
        for node in ops {
            ts = self.transfer(&node.op, &ts);
        }
        ts
    }

    /// Lower runs in `ops`, which starts from context `ts`: at each
    /// position take the longest covered run, else keep the operator
    /// (lowering inside its union arms, closure body or qualifier).
    /// Returns the lowered pipeline and its output context.
    fn pipeline(&self, ops: Vec<PlanNode>, mut ts: Types) -> (Vec<PlanNode>, Types) {
        let mut rest: VecDeque<PlanNode> = ops.into();
        let mut out = Vec::with_capacity(rest.len());
        // The current stretch of run operators: its NFA (when it holds two
        // or more), how far into it this position is, and how many of its
        // operators are left.
        let mut segment: Option<Segment> = None;
        let (mut at, mut left) = (0, 0);
        while !rest.is_empty() {
            if left == 0 {
                left = rest.iter().take_while(|n| run_op(&n.op)).count();
                segment =
                    (left >= 2).then(|| Segment::new(self.g, &rest.make_contiguous()[..left]));
                at = 0;
            }
            let run = segment.as_ref().and_then(|sg| self.longest_run(sg, at, &ts));
            if let Some((len, label)) = run {
                at += len;
                left -= len;
                let chain: Vec<PlanNode> = rest.drain(..len).collect();
                let last = chain.last().expect("runs are non-empty");
                let axis = AxisTest::Label(end_label(&last.op).expect("label end").to_string());
                let est_rows = last.est_rows;
                // A covered run reaches its label, and only it.
                ts = Types { doc: false, labels: Bits::single(self.width, label as usize) };
                let scan = FusedScan { axis, filter: None, qual: None, from_expand: false };
                let schema = Arc::clone(self.g);
                out.push(PlanNode {
                    op: PlanOp::SchemaSlice(SchemaSlice { scan, chain, schema }),
                    est_rows,
                });
                continue;
            }
            at += 1;
            left = left.saturating_sub(1);
            let mut node = rest.pop_front().expect("non-empty");
            let (op, next) = match node.op {
                PlanOp::UnionMerge(arms) => {
                    let mut out = Types { doc: false, labels: Bits::new(self.width) };
                    let arms = arms
                        .into_iter()
                        .map(|arm| {
                            let (arm, r) = self.pipeline(arm, ts.clone());
                            out.doc |= r.doc;
                            out.labels.union_with(&r.labels.0);
                            arm
                        })
                        .collect();
                    (PlanOp::UnionMerge(arms), out)
                }
                // The body runs from nodes of the closure's own result.
                PlanOp::ClosureExpand { body } => {
                    let next = self.closure(&body, ts.clone());
                    (PlanOp::ClosureExpand { body: self.pipeline(body, next.clone()).0 }, next)
                }
                PlanOp::QualifierProbe(q) => {
                    (PlanOp::QualifierProbe(self.qual(q, &ts)), ts.clone())
                }
                op => {
                    let next = self.transfer(&op, &ts);
                    (op, next)
                }
            };
            node.op = op;
            out.push(node);
            ts = next;
        }
        (out, ts)
    }

    /// Qualifier sub-pipelines run from one candidate of the probed
    /// context.
    fn qual(&self, q: QualPlan, ts: &Types) -> QualPlan {
        match q {
            QualPlan::Exists(ops) => QualPlan::Exists(self.pipeline(ops, ts.clone()).0),
            QualPlan::Eq(ops, c) => QualPlan::Eq(self.pipeline(ops, ts.clone()).0, c),
            QualPlan::And(a, b) => {
                QualPlan::And(Box::new(self.qual(*a, ts)), Box::new(self.qual(*b, ts)))
            }
            QualPlan::Or(a, b) => {
                QualPlan::Or(Box::new(self.qual(*a, ts)), Box::new(self.qual(*b, ts)))
            }
            QualPlan::Not(inner) => QualPlan::Not(Box::new(self.qual(*inner, ts))),
            leaf => leaf,
        }
    }

    /// The longest covered run starting at operator `at` of `sg` from
    /// context `ts` — at least two operators, ending on a child label
    /// step — as its length and final label id.
    fn longest_run(&self, sg: &Segment, at: usize, ts: &Types) -> Option<(usize, u32)> {
        if ts.doc || ts.labels.is_empty() {
            return None;
        }
        let nfa = &sg.nfa;
        // Candidate ends (operator index, graph label, accepting state)
        // after `at`; ends are in operator order.
        let ends = &sg.ends[sg.ends.partition_point(|&(j, ..)| j <= at)..];
        let mut targets = Bits::new(self.width);
        for &(_, l, _) in ends {
            targets.insert(l as usize);
        }
        if targets.is_empty() {
            return None;
        }
        // An end is covered when some graph path reaches its label and
        // the NFA accepts every such path there. Labels with no end label
        // at or below them are never explored.
        let mut reached = Bits::new(ends.len());
        let mut rejected = Bits::new(ends.len());
        // Visited (label, state set) pairs, the worklist and the
        // ε-closure stack.
        let mut seen = HashSet::new();
        let mut queue = Vec::new();
        let mut stack = Vec::new();
        let mut first = Bits::single(nfa.states, sg.bounds[at]);
        nfa.close(&mut first, &mut stack);
        for t in ts.labels.iter() {
            if !self.spend() {
                return None;
            }
            seen.insert((t as u32, first.clone()));
            queue.push((t as u32, first.clone()));
        }
        while let Some((x, set)) = queue.pop() {
            for &y in self.g.children(x) {
                let below = self.g.below(y);
                if !targets.contains(y as usize) && !targets.intersects(below) {
                    continue;
                }
                let next = nfa.advance(&set, y, &mut stack);
                let dead = next.is_empty();
                for (k, &(_, l, accept)) in ends.iter().enumerate() {
                    if l == y {
                        reached.insert(k);
                        if !next.contains(accept) {
                            rejected.insert(k);
                        }
                    }
                    // From a dead state set every path on to an end's
                    // label leaves the run's language.
                    if dead && below[l as usize / 64] & (1 << (l % 64)) != 0 {
                        reached.insert(k);
                        rejected.insert(k);
                    }
                }
                if (0..ends.len()).all(|k| rejected.contains(k)) {
                    return None;
                }
                if !dead && seen.insert((y, next.clone())) {
                    if !self.spend() {
                        return None;
                    }
                    queue.push((y, next));
                }
            }
        }
        let k = (0..ends.len()).rev().find(|&k| reached.contains(k) && !rejected.contains(k))?;
        let (j, l, _) = ends[k];
        Some((j + 1 - at, l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_at_root;
    use crate::parser::parse;
    use crate::plan::{compile, CostModel, PlanPolicy};
    use sxv_xml::{parse as parse_xml, DocIndex, Document};

    fn hospital() -> Document {
        parse_xml(
            "<hospital><dept><clinicalTrial><patientInfo><patient><name>Ann</name></patient>\
             </patientInfo></clinicalTrial><patientInfo><patient><name>Bob</name></patient>\
             <patient><name>Cat</name></patient></patientInfo></dept></hospital>",
        )
        .unwrap()
    }

    fn schema_slices(q: &str, policy: PlanPolicy, cost: &CostModel) -> u32 {
        compile(&parse(q).unwrap(), policy, cost).summary().schema_slice
    }

    #[test]
    fn lowers_only_runs_the_schema_covers() {
        let d = hospital();
        let idx = DocIndex::new(&d).unwrap();
        let cost = CostModel::from_index(&idx);
        // clinicalTrial occurs only under dept under the root.
        assert_eq!(schema_slices("dept/clinicalTrial", PlanPolicy::Auto, &cost), 1);
        // patientInfo also occurs under clinicalTrial, so the run
        // `dept/patientInfo` does not reach every patientInfo.
        assert_eq!(schema_slices("dept/patientInfo", PlanPolicy::Auto, &cost), 0);
        // From patientInfo the run reaches every name below it.
        let p = compile(&parse("dept/patientInfo/patient/name").unwrap(), PlanPolicy::Auto, &cost);
        let s = p.summary();
        assert_eq!(
            (s.child_walk + s.child_merge_join, s.schema_slice),
            (2, 1),
            "{}",
            p.explain_text()
        );
        // Closures and unions lower whole; qualifiers and union arms lower
        // inside.
        assert_eq!(
            schema_slices("dept/(clinicalTrial | .)/patientInfo", PlanPolicy::Auto, &cost),
            1
        );
        assert_eq!(schema_slices(".[dept/clinicalTrial]", PlanPolicy::Auto, &cost), 1);
        assert_eq!(
            schema_slices("dept/clinicalTrial | dept/patientInfo", PlanPolicy::Auto, &cost),
            1
        );
        // A single child step is not a run.
        assert_eq!(schema_slices("dept", PlanPolicy::Auto, &cost), 0);
        // Forced policies and schema-less models never lower.
        for policy in [PlanPolicy::ForceWalk, PlanPolicy::ForceJoin] {
            assert_eq!(schema_slices("dept/clinicalTrial", policy, &cost), 0);
        }
        assert_eq!(
            schema_slices("dept/clinicalTrial", PlanPolicy::Auto, &CostModel::uninformed()),
            0
        );
    }

    #[test]
    fn lowered_plans_answer_like_their_chains() {
        let d = hospital();
        let idx = DocIndex::new(&d).unwrap();
        let cost = CostModel::from_index(&idx);
        for q in [
            "dept/clinicalTrial",
            "dept/clinicalTrial/patientInfo/patient/name",
            "dept/(clinicalTrial | .)/patientInfo/patient",
            ".[dept/clinicalTrial]",
            "*/clinicalTrial",
        ] {
            let p = parse(q).unwrap();
            let plan = compile(&p, PlanPolicy::Auto, &cost);
            assert!(plan.summary().schema_slice > 0, "{q}: {}", plan.explain_text());
            let want = eval_at_root(&d, &p);
            assert_eq!(plan.execute(&d, Some(&idx)).0, want, "{q} (slice)");
            assert_eq!(plan.execute(&d, None).0, want, "{q} (no index: chain)");
        }
    }

    #[test]
    fn documents_outside_the_schema_run_the_chain() {
        let d = hospital();
        let idx = DocIndex::new(&d).unwrap();
        let p = parse("dept/clinicalTrial").unwrap();
        let plan = compile(&p, PlanPolicy::Auto, &CostModel::from_index(&idx));
        assert_eq!(plan.summary().schema_slice, 1);
        // An extra hospital → ward → dept edge puts a second clinicalTrial
        // below the root that the chain cannot reach; a root label the
        // schema does not start from makes the chain select nothing.
        for other in [
            "<hospital><dept><clinicalTrial/></dept><ward><dept><clinicalTrial/></dept></ward></hospital>",
            "<dept><clinicalTrial/></dept>",
        ] {
            let o = parse_xml(other).unwrap();
            let oidx = DocIndex::new(&o).unwrap();
            let got = plan.execute(&o, Some(&oidx)).0;
            assert_eq!(got, eval_at_root(&o, &p), "{other}");
            assert!(got.len() < oidx.label_list("clinicalTrial").len(), "{other}: a slice would differ");
        }
    }

    #[test]
    fn containment_follows_the_run_language() {
        let schema = |edges: &[(&str, &str)]| {
            CostModel::uninformed().with_schema(LabelGraph::new("r", edges.to_vec()))
        };
        // Any number of `a`s, then `b`: `(a)*/b` covers it, `a/b` does not.
        let loops = schema(&[("r", "a"), ("a", "a"), ("a", "b")]);
        assert_eq!(schema_slices("(a)*/b", PlanPolicy::Auto, &loops), 1);
        assert_eq!(schema_slices("a/b", PlanPolicy::Auto, &loops), 0);
        assert_eq!(schema_slices("a/(a)*/b", PlanPolicy::Auto, &loops), 1);
        // `b` also hangs off the root directly: the closure must allow
        // zero iterations, and `a/(a)*/b` covers only below its `a`.
        let both = schema(&[("r", "a"), ("a", "a"), ("a", "b"), ("r", "b")]);
        assert_eq!(schema_slices("(a)*/b", PlanPolicy::Auto, &both), 1);
        let s = compile(&parse("a/(a)*/b").unwrap(), PlanPolicy::Auto, &both).summary();
        assert_eq!((s.child_walk + s.child_merge_join, s.schema_slice), (1, 1), "{s:?}");
        assert_eq!(schema_slices("(. | a/(a)*)/b", PlanPolicy::Auto, &both), 1);
        // A wildcard step covers every label on its level.
        let wide = schema(&[("r", "x"), ("r", "y"), ("x", "t"), ("y", "t")]);
        assert_eq!(schema_slices("*/t", PlanPolicy::Auto, &wide), 1);
        assert_eq!(schema_slices("(x | y)/t", PlanPolicy::Auto, &wide), 1);
        assert_eq!(schema_slices("x/t", PlanPolicy::Auto, &wide), 0);
        // Every `q` lies below `(p)*`, but `s` also lies below `z`: only
        // `(p)*/q` lowers, and `s` stays a child step after it.
        let after =
            schema(&[("r", "p"), ("p", "p"), ("p", "q"), ("q", "s"), ("p", "z"), ("z", "s")]);
        let plan = compile(&parse("(p)*/q/s").unwrap(), PlanPolicy::Auto, &after);
        let s = plan.summary();
        assert_eq!((s.schema_slice, s.child_walk + s.child_merge_join), (1, 1), "{s:?}");
        assert!(plan.explain_text().contains("schema-slice(q)"), "{}", plan.explain_text());
    }

    #[test]
    fn lowering_stops_once_the_state_budget_is_spent() {
        // Proving `*/t` covered visits one (label, states) pair per label
        // under the root. With 500 such labels a handful of proofs spend
        // the compile's budget and the later qualifiers stay unlowered;
        // with 10 every one lowers.
        let schema = |n: usize| {
            let edges: Vec<(String, String)> = (0..n)
                .flat_map(|i| [("r".to_string(), format!("l{i}")), (format!("l{i}"), "t".into())])
                .collect();
            CostModel::uninformed().with_schema(LabelGraph::new("r", edges))
        };
        let q = format!(".{}", "[*/t]".repeat(20));
        let lowered = schema_slices(&q, PlanPolicy::Auto, &schema(500));
        assert!((1..20).contains(&lowered), "{lowered} of 20 lowered");
        assert_eq!(schema_slices(&q, PlanPolicy::Auto, &schema(10)), 20);
    }
}
