//! Algorithm `rewrite` — §4, Fig. 6 of the paper — and the dynamic
//! program it shares with `optimize` (§5.2, Fig. 10).
//!
//! Transforms an XPath query `p` posed over a security view into an
//! equivalent query `p_t` over the original document, so that
//! `p(T_v) = p_t(T)` for every instance `T` — querying the view without
//! ever materializing it.
//!
//! The dynamic program computes, for every sub-query `p'` and graph node
//! `A`, the *local translation* of `p'` at `A`. `optimize` "evaluates" a
//! query over the document-DTD graph the way `rewrite` evaluates it over
//! the view-DTD graph, so one memoized DP (`ViewGraph::translate`)
//! serves both. The `Rules` trait names the four places where Fig. 10
//! departs from Fig. 6: how the alternatives by which `//` reaches one
//! target combine, how union arms combine (Fig. 10 case 6 drops an arm
//! contained in its sibling), whether an attribute test stays as
//! written, and how a translated qualifier is decided (case 7). This
//! module holds Fig. 6's rules; `crate::optimize` holds Fig. 10's.
//! The memo stores a table on its (sub-query, node) key's second visit,
//! not its first: most keys come round once, so each table is computed
//! at most twice and every later visit hits.
//!
//! Three refinements over the letter of Fig. 6:
//!
//! * **Per-target tables.** Fig. 6 stores one `rw(p', A)` and one
//!   `reach(p', A)` set, and combines steps as
//!   `rw(p1, A) / (∪_v rw(p2, v))`, which can apply a `v`-specific
//!   continuation underneath a different type's image when two view types
//!   share a child label with different σ annotations. We table
//!   translations per *target* node — `rw(p', A) : target ↦ query` — so
//!   every composed fragment is evaluated in the context it was translated
//!   for. The two coincide whenever no reachable view types share a child
//!   label (true for all examples in the paper); DESIGN.md §7 gives a view
//!   on which the merge returns hidden nodes.
//! * **Factored Step arms.** The arms `q1/q2` by which a step reaches one
//!   target combine through `factored_union`, under both rule sets, so
//!   the two routes through a DTD diamond (`s → (a | b)`, `a → t`,
//!   `b → t`) share their prefix and continuation as `…/(a | b)/…`.
//!   Unioned one by one, each diamond would double the translation.
//! * **`recProc`** (precomputation for `//`) follows the paper exactly:
//!   symbolic per-node accumulation over the DAG in topological order, so
//!   each intermediate node's path expression is built once and reused
//!   (`recrw(a, g) = (l_b ∪ ε)/l_c/(l_e ∪ l_f)/l_g` for Fig. 7(a)).
//!   It depends only on the graph, so [`ViewGraph`] computes each node's
//!   table once and every query translated over the graph shares it.
//!
//! **Recursive views** (§4.2): over a cyclic view DTD `//` has
//! infinitely many σ-paths, and the paper observes the finite-union
//! translation fails — the answer is a *regular* path expression like
//! `(a/c)*/b`, beyond standard XPath. Our query language carries the
//! Kleene closure operator (`Path::Closure`), so [`rewrite`] handles
//! recursive views directly: `recProc` falls back from the DAG
//! topological accumulation to Kleene state elimination
//! (McNaughton–Yamada) whose loop expressions become `(…)*` closures,
//! executed natively by the plan layer's `closure-expand` operator.
//! [`rewrite_with_height`] (unfolding to the document height, §4.2's
//! original workaround) is retained as a differential-testing oracle.

use crate::error::{Error, Result};
use crate::view::def::{SecurityView, ViewContent, ViewItem};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::OnceLock;
use sxv_xpath::{factored_union, simplify, Path, Qualifier};

/// Rewrite a view query to a document query. Recursive views are
/// handled directly: cycles in the view DTD graph translate to Kleene
/// closures (`(…)*`) instead of requiring height-bounded unfolding.
pub fn rewrite(view: &SecurityView, p: &Path) -> Result<Path> {
    Ok(ViewGraph::from_view(view)?.rewrite(p))
}

/// Rewrite over a (possibly recursive) view by unfolding to `height` —
/// §4.2's original workaround. Kept as a differential-testing oracle
/// for the direct closure-based translation; also valid for
/// non-recursive views (where it simply bounds the DAG).
pub fn rewrite_with_height(view: &SecurityView, p: &Path, height: usize) -> Result<Path> {
    Ok(ViewGraph::unfolded(view, height)?.rewrite(p))
}

/// `recProc(A)`: every node `B` reachable from `A` (descendant-or-self),
/// in the order `//` visits them, with its `recrw(A, B)` expression.
type RecTable = Vec<(usize, Path)>;

/// A DAG over view-DTD nodes with σ-labelled edges — the structure the
/// rewriting runs on. Node 0 is the virtual *document node* (its
/// only child is the view root), so absolute queries translate naturally.
///
/// Everything here depends only on the view (or DTD), never on a query:
/// build the graph once per policy and translate every query through it.
/// Each node's `recProc` table is filled on first use and then shared by
/// every later query, including concurrent ones.
#[derive(Debug)]
pub struct ViewGraph {
    labels: Vec<String>,
    children: Vec<Vec<usize>>,
    sigma: HashMap<(usize, usize), Path>,
    /// Visible attributes per node (attribute-level access control —
    /// hidden attributes make `[@a]` qualifiers false over the view).
    attrs: Vec<Vec<String>>,
    /// Per node: does its production allow text children (`str`)?
    has_text: Vec<bool>,
    doc_node: usize,
    root: usize,
    /// Does the graph contain a cycle? Fixed at construction.
    cyclic: bool,
    /// `recProc` per node, one lazily filled slot each.
    rec: Vec<OnceLock<RecTable>>,
}

impl ViewGraph {
    /// Build directly from a view. Recursive views yield a cyclic
    /// graph, which `recProc` handles via Kleene state elimination.
    pub fn from_view(view: &SecurityView) -> Result<Self> {
        let mut labels: Vec<String> = vec![String::new()]; // 0 = document node
        let mut index: HashMap<&str, usize> = HashMap::new();
        for (name, _) in view.productions() {
            index.insert(name, labels.len());
            labels.push(name.clone());
        }
        let mut children = vec![Vec::new(); labels.len()];
        let mut sigma = HashMap::new();
        let root = *index
            .get(view.root())
            .ok_or_else(|| Error::NoView("view has no root production".into()))?;
        children[0].push(root);
        sigma.insert((0, root), Path::label(view.root()));
        for (name, content) in view.productions() {
            let a = index[name.as_str()];
            for child in content.child_types() {
                let b = *index
                    .get(child)
                    .ok_or_else(|| Error::NoView(format!("undeclared view type {child}")))?;
                children[a].push(b);
                let q = view
                    .sigma(name, child)
                    .ok_or_else(|| Error::NoView(format!("missing σ({name}, {child})")))?
                    .clone();
                sigma.insert((a, b), q);
            }
        }
        let attrs = labels.iter().map(|l| view.visible_attributes(l).to_vec()).collect();
        let has_text =
            labels.iter().map(|l| matches!(view.production(l), Some(ViewContent::Str))).collect();
        Ok(ViewGraph::new(labels, children, sigma, attrs, has_text, root))
    }

    /// Build by unfolding the (possibly recursive) view DTD to `height`.
    pub fn unfolded(view: &SecurityView, height: usize) -> Result<Self> {
        let min_heights = view_min_heights(view);
        let fits = |name: &str, depth: usize| {
            min_heights.get(name).map(|&h| h != usize::MAX && depth + h <= height).unwrap_or(false)
        };
        if !fits(view.root(), 0) {
            return Err(Error::UnfoldImpossible { height });
        }
        let mut labels: Vec<String> = vec![String::new()];
        let mut children: Vec<Vec<usize>> = vec![Vec::new()];
        let mut sigma = HashMap::new();
        let mut index: HashMap<(String, usize), usize> = HashMap::new();
        let root_key = (view.root().to_string(), 0usize);
        index.insert(root_key.clone(), 1);
        labels.push(view.root().to_string());
        children.push(Vec::new());
        children[0].push(1);
        sigma.insert((0usize, 1usize), Path::label(view.root()));
        let mut work = vec![1usize];
        let mut keys = vec![root_key];
        while let Some(n) = work.pop() {
            let (name, depth) = keys[n - 1].clone();
            let production = view.production(&name).expect("declared view type");
            for child in production.child_types() {
                if !fits(child, depth + 1) {
                    continue;
                }
                let key = (child.to_string(), depth + 1);
                let id = match index.get(&key) {
                    Some(&id) => id,
                    None => {
                        let id = labels.len();
                        index.insert(key.clone(), id);
                        keys.push(key);
                        labels.push(child.to_string());
                        children.push(Vec::new());
                        work.push(id);
                        id
                    }
                };
                children[n].push(id);
                let q = view
                    .sigma(&name, child)
                    .ok_or_else(|| Error::NoView(format!("missing σ({name}, {child})")))?
                    .clone();
                sigma.insert((n, id), q);
            }
        }
        let attrs = labels.iter().map(|l| view.visible_attributes(l).to_vec()).collect();
        let has_text =
            labels.iter().map(|l| matches!(view.production(l), Some(ViewContent::Str))).collect();
        Ok(ViewGraph::new(labels, children, sigma, attrs, has_text, 1))
    }

    /// Build from a document DTD with identity σ (each edge annotated by
    /// its child label). Used by the §5 optimizer, which "evaluates"
    /// queries over the document-DTD graph the same way rewriting
    /// evaluates them over the view-DTD graph.
    pub fn from_dtd(dtd: &sxv_dtd::Dtd) -> Self {
        let mut labels: Vec<String> = vec![String::new()];
        let mut index: HashMap<&str, usize> = HashMap::new();
        for (name, _) in dtd.productions() {
            index.insert(name, labels.len());
            labels.push(name.clone());
        }
        let mut children = vec![Vec::new(); labels.len()];
        let mut sigma = HashMap::new();
        let root = index[dtd.root()];
        children[0].push(root);
        sigma.insert((0, root), Path::label(dtd.root()));
        for (name, content) in dtd.productions() {
            let a = index[name.as_str()];
            let mut seen: Vec<usize> = Vec::new();
            for child in content.child_types() {
                let b = index[child];
                if !seen.contains(&b) {
                    seen.push(b);
                    children[a].push(b);
                    sigma.insert((a, b), Path::label(child));
                }
            }
        }
        // Over the document itself every declared attribute is visible.
        let attrs = labels
            .iter()
            .map(|l| dtd.attribute_defs(l).iter().map(|d| d.name.clone()).collect())
            .collect();
        let has_text = labels
            .iter()
            .map(|l| matches!(dtd.production(l), Some(sxv_dtd::NormalContent::Str)))
            .collect();
        ViewGraph::new(labels, children, sigma, attrs, has_text, root)
    }

    /// Build from a document DTD unfolded to `height` (§4.2 applied to
    /// the *document* side — used to optimize queries over recursive
    /// document DTDs). Identity σ, labels repeat across depths.
    pub fn from_dtd_unfolded(dtd: &sxv_dtd::Dtd, height: usize) -> Result<Self> {
        let unfolded =
            sxv_dtd::UnfoldedDtd::new(dtd, height).ok_or(Error::UnfoldImpossible { height })?;
        let n = unfolded.len();
        // Node 0 = document node; unfolded node i → graph node i + 1.
        let mut labels = vec![String::new()];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
        let mut sigma = HashMap::new();
        for id in unfolded.ids() {
            labels.push(unfolded.label(id).to_string());
        }
        let root = unfolded.root().0 + 1;
        children[0].push(root);
        sigma.insert((0, root), Path::label(unfolded.label(unfolded.root())));
        for id in unfolded.ids() {
            let a = id.0 + 1;
            for child in unfolded.children(id) {
                let b = child.0 + 1;
                children[a].push(b);
                sigma.insert((a, b), Path::label(unfolded.label(child)));
            }
        }
        let attrs = labels
            .iter()
            .map(|l| dtd.attribute_defs(l).iter().map(|d| d.name.clone()).collect())
            .collect();
        let has_text = labels
            .iter()
            .map(|l| matches!(dtd.production(l), Some(sxv_dtd::NormalContent::Str)))
            .collect();
        Ok(ViewGraph::new(labels, children, sigma, attrs, has_text, root))
    }

    fn new(
        labels: Vec<String>,
        children: Vec<Vec<usize>>,
        sigma: HashMap<(usize, usize), Path>,
        attrs: Vec<Vec<String>>,
        has_text: Vec<bool>,
        root: usize,
    ) -> Self {
        let cyclic = has_cycle(&children);
        let rec = children.iter().map(|_| OnceLock::new()).collect();
        ViewGraph { labels, children, sigma, attrs, has_text, doc_node: 0, root, cyclic, rec }
    }

    /// The virtual document node (parent of the root).
    pub fn doc_node(&self) -> usize {
        self.doc_node
    }

    /// Is `attr` visible on (view) elements at this node?
    fn attribute_visible(&self, node: usize, attr: &str) -> bool {
        self.attrs[node].iter().any(|a| a == attr)
    }

    /// Can elements at this node carry text children (`str` production)?
    pub fn has_text(&self, node: usize) -> bool {
        self.has_text[node]
    }

    /// The root element node.
    pub fn root_node(&self) -> usize {
        self.root
    }

    /// Label of a node (empty string for the document node).
    pub fn label_of(&self, n: usize) -> &str {
        &self.labels[n]
    }

    /// Children of a node.
    pub fn children_of(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        self.children[n].iter().copied()
    }

    /// First node with the given label (labels are unique for graphs built
    /// from views/DTDs; unfolded graphs repeat labels across depths).
    pub fn node_by_label(&self, label: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == label)
    }

    /// Does the graph contain a cycle (recursive view or DTD)? The
    /// Prop. 5.1 image/simulation machinery assumes a DAG — per-label
    /// nodes conflate distinct occurrences once a cycle lets a label
    /// repeat along a path — so containment tests consult this and
    /// decline to certify on cyclic graphs.
    pub fn is_cyclic(&self) -> bool {
        self.cyclic
    }

    /// Nodes reachable from `n`, including `n` (descendant-or-self).
    pub fn descendants_or_self(&self, n: usize) -> BTreeSet<usize> {
        let mut reach = BTreeSet::new();
        reach.insert(n);
        let mut stack = vec![n];
        while let Some(x) = stack.pop() {
            for &y in &self.children[x] {
                if reach.insert(y) {
                    stack.push(y);
                }
            }
        }
        reach
    }

    /// Number of nodes (including the virtual document node) — the
    /// `|D_v|` of Theorem 4.1.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True iff the graph is empty (never: construction adds the root).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Rewrite a query evaluated at the view root (per-target tables).
    pub fn rewrite(&self, p: &Path) -> Path {
        self.translate(p, &Fig6(self))
    }

    /// Translate `p`, evaluated at the root, by the per-target dynamic
    /// program under `rules`: Fig. 6's for [`ViewGraph::rewrite`],
    /// Fig. 10's for `optimize`.
    pub(crate) fn translate(&self, p: &Path, rules: &impl Rules) -> Path {
        let mut dp = Dp { graph: self, rules, memo: HashMap::new(), seen: HashSet::new() };
        Path::union_all(dp.path(p, self.root).into_values())
    }

    fn sigma_edge(&self, a: usize, b: usize) -> &Path {
        &self.sigma[&(a, b)]
    }

    /// `recProc(A)`: every node `B` reachable from `A` (descendant-or-self)
    /// with `recrw(A, B)`, in the order `//` visits them. Computed on the
    /// first call for `A` and shared by every later one.
    pub(crate) fn rec_proc(&self, a: usize) -> &[(usize, Path)] {
        self.rec[a].get_or_init(|| self.compute_rec_proc(a))
    }

    /// `recProc(A)`, computed anew: descendant-or-self reachability with
    /// translated path expressions, built in topological order so shared
    /// prefixes stay shared (the paper's symbolic `Z_x` variables).
    fn compute_rec_proc(&self, a: usize) -> RecTable {
        let reach = self.descendants_or_self(a);
        // Kahn topological order of the reachable subgraph.
        let mut indegree: HashMap<usize, usize> = reach.iter().map(|&n| (n, 0)).collect();
        for &x in &reach {
            for &y in &self.children[x] {
                if reach.contains(&y) {
                    *indegree.get_mut(&y).unwrap() += 1;
                }
            }
        }
        let mut queue: Vec<usize> = reach.iter().copied().filter(|n| indegree[n] == 0).collect();
        let mut order = Vec::with_capacity(reach.len());
        while let Some(x) = queue.pop() {
            order.push(x);
            for &y in &self.children[x] {
                if let Some(d) = indegree.get_mut(&y) {
                    *d -= 1;
                    if *d == 0 {
                        queue.push(y);
                    }
                }
            }
        }
        if order.len() < reach.len() {
            // Cyclic reachable subgraph (recursive view or DTD): Kahn's
            // order is partial, so the symbolic DAG accumulation below
            // does not apply. Fall back to Kleene state elimination —
            // recrw entries become regular path expressions whose loops
            // are `(…)*` closures (§4.2 handled directly, no unfolding).
            let nodes: Vec<usize> = reach.iter().copied().collect();
            let mut edges: HashMap<(usize, usize), Path> = HashMap::new();
            for &x in &nodes {
                for &y in &self.children[x] {
                    if reach.contains(&y) {
                        edges.insert((x, y), self.sigma_edge(x, y).clone());
                    }
                }
            }
            let mut recrw = kleene_reach(&nodes, &edges, a);
            return nodes.into_iter().map(|y| (y, recrw.remove(&y).expect("every node"))).collect();
        }
        let mut recrw: HashMap<usize, Path> = HashMap::new();
        recrw.insert(a, Path::Empty);
        for &y in &order {
            if y == a {
                continue;
            }
            // Group incoming edges by their σ annotation and factor common
            // prefixes, so shared intermediate nodes are expressed once —
            // this is what keeps `recrw(A, B)` bounded by |D_v| (the
            // paper's symbolic `Z_x` sharing): Fig. 7(a) yields
            // `(b ∪ ε)/c/(e ∪ f)/g`, not four enumerated paths.
            let mut groups: Vec<(Path, Vec<Path>)> = Vec::new();
            for &x in &reach {
                if self.children[x].contains(&y) {
                    if let Some(prefix) = recrw.get(&x) {
                        let s = self.sigma_edge(x, y);
                        match groups.iter_mut().find(|(gs, _)| gs == s) {
                            Some((_, prefixes)) => prefixes.push(prefix.clone()),
                            None => groups.push((s.clone(), vec![prefix.clone()])),
                        }
                    }
                }
            }
            let mut acc = Path::EmptySet;
            for (s, prefixes) in groups {
                acc = Path::union(acc, Path::step(factored_union(prefixes), s));
            }
            recrw.insert(y, acc);
        }
        order.into_iter().map(|y| (y, recrw.remove(&y).expect("every node"))).collect()
    }
}

/// Iterative three-color DFS over an adjacency list: does it hold a
/// cycle? (0 = white, 1 = on stack, 2 = done.)
fn has_cycle(children: &[Vec<usize>]) -> bool {
    let mut color = vec![0u8; children.len()];
    for start in 0..children.len() {
        if color[start] != 0 {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        color[start] = 1;
        while let Some(&mut (n, ref mut i)) = stack.last_mut() {
            if *i < children[n].len() {
                let c = children[n][*i];
                *i += 1;
                match color[c] {
                    0 => {
                        color[c] = 1;
                        stack.push((c, 0));
                    }
                    1 => return true,
                    _ => {}
                }
            } else {
                color[n] = 2;
                stack.pop();
            }
        }
    }
    false
}

/// Walk expressions from `start` over an edge-labelled graph, by Kleene
/// state elimination (McNaughton–Yamada): `out[y]` is a path expression
/// selecting, from `start`'s document context, the document nodes of
/// every walk ending at `y` (including the empty walk when
/// `y == start`). Cycles become `(…)*` closures — exactly the regular
/// path expressions §4.2 shows finite unions cannot express, supplied
/// here by the extended `Path::Closure` operator.
///
/// Soundness of composing σ annotations along walks is the same
/// argument as the `Step` case of `rw`: each edge expression is
/// evaluated at the document nodes its source view node translates to.
/// Intermediate expressions are re-simplified each round to keep the
/// (worst-case exponential) elimination bounded on the small graphs
/// view DTDs produce.
pub(crate) fn kleene_reach(
    nodes: &[usize],
    edges: &HashMap<(usize, usize), Path>,
    start: usize,
) -> HashMap<usize, Path> {
    let mut r: HashMap<(usize, usize), Path> = edges.clone();
    for &k in nodes {
        // R^k_ij = R_ij ∪ R_ik (R_kk)* R_kj, all taken at round k-1:
        // snapshot row k and column k before updating.
        let kk_star = Path::closure(r.get(&(k, k)).cloned().unwrap_or(Path::EmptySet));
        let row_k: Vec<(usize, Path)> =
            nodes.iter().filter_map(|&j| r.get(&(k, j)).map(|p| (j, p.clone()))).collect();
        let col_k: Vec<(usize, Path)> =
            nodes.iter().filter_map(|&i| r.get(&(i, k)).map(|p| (i, p.clone()))).collect();
        for (i, ik) in &col_k {
            for (j, kj) in &row_k {
                let via = Path::step(ik.clone(), Path::step(kk_star.clone(), kj.clone()));
                if via.is_empty_set() {
                    continue;
                }
                let cur = r.remove(&(*i, *j)).unwrap_or(Path::EmptySet);
                r.insert((*i, *j), simplify(&Path::union(cur, via)));
            }
        }
    }
    let mut out = HashMap::new();
    for &y in nodes {
        let walks = r.get(&(start, y)).cloned().unwrap_or(Path::EmptySet);
        // The empty walk reaches `start` itself; `R_ss` is closed under
        // concatenation, so `(R_ss)* = ε ∪ R_ss`. Emitting the union, not
        // the closure, matters: `R_ss` already contains every loop's
        // closure, and `(R_ss)*` would re-run that inner closure from
        // every frontier node of the outer one. Without loops this is
        // `ε ∪ ∅ = ε`, matching the DAG accumulation.
        let e = if y == start { Path::union(Path::Empty, walks) } else { walks };
        out.insert(y, simplify(&e));
    }
    out
}

/// Continuation of a query from a *text* node: text nodes are leaves, so
/// only `ε` (and qualifiers over the text itself) survive; label, wildcard
/// and text steps become `∅`. This mapping is exact — view text nodes and
/// their document sources are both leaves.
pub(crate) fn continue_from_text(p: &Path) -> Path {
    match p {
        Path::Empty => Path::Empty,
        Path::EmptySet | Path::Label(_) | Path::Wildcard | Path::Text | Path::Doc => Path::EmptySet,
        Path::Step(a, b) => Path::step(continue_from_text(a), continue_from_text(b)),
        // descendant-or-self of a leaf is the leaf itself.
        Path::Descendant(inner) => continue_from_text(inner),
        // ε ∈ (p)*, and no iteration leaves the leaf: the closure at a
        // text node is the text node itself.
        Path::Closure(_) => Path::Empty,
        Path::Union(a, b) => Path::union(continue_from_text(a), continue_from_text(b)),
        Path::Filter(base, q) => Path::filter(continue_from_text(base), text_qual(q)),
    }
}

/// A qualifier evaluated at a text node: attribute tests are false, path
/// tests reduce through [`continue_from_text`], `[. = c]` compares the
/// text itself.
pub(crate) fn text_qual(q: &Qualifier) -> Qualifier {
    match q {
        Qualifier::True | Qualifier::False => q.clone(),
        Qualifier::Attr(_) | Qualifier::AttrEq(..) => Qualifier::False,
        Qualifier::Path(p) => Qualifier::path(continue_from_text(p)),
        Qualifier::Eq(p, c) => {
            let reduced = continue_from_text(p);
            if reduced.is_empty_set() {
                Qualifier::False
            } else {
                Qualifier::Eq(reduced, c.clone())
            }
        }
        Qualifier::And(a, b) => Qualifier::and(text_qual(a), text_qual(b)),
        Qualifier::Or(a, b) => Qualifier::or(text_qual(a), text_qual(b)),
        Qualifier::Not(inner) => Qualifier::not(text_qual(inner)),
    }
}

/// Compute minimum instance heights for view types (the unfolding's
/// non-recursive-rule analysis, mirroring `DtdGraph::min_heights`).
fn view_min_heights(view: &SecurityView) -> HashMap<String, usize> {
    let mut h: HashMap<String, usize> =
        view.productions().iter().map(|(n, _)| (n.clone(), usize::MAX)).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (name, content) in view.productions() {
            let candidate = match content {
                ViewContent::Str | ViewContent::Empty => Some(0),
                ViewContent::Star(_) => Some(0),
                ViewContent::Seq(items) => {
                    // Required (One) children bound the height; Many
                    // children can be absent.
                    let mut worst = 0usize;
                    let mut ok = true;
                    for item in items {
                        if let ViewItem::One(b) = item {
                            match h[b.as_str()] {
                                usize::MAX => ok = false,
                                v => worst = worst.max(v + 1),
                            }
                        }
                    }
                    ok.then_some(worst)
                }
                ViewContent::Choice { alternatives, optional } => {
                    if *optional {
                        Some(0)
                    } else {
                        alternatives
                            .iter()
                            .map(|b| h[b.as_str()])
                            .filter(|&v| v != usize::MAX)
                            .min()
                            .map(|v| v + 1)
                    }
                }
            };
            if let Some(c) = candidate {
                if c < h[name.as_str()] {
                    h.insert(name.clone(), c);
                    changed = true;
                }
            }
        }
    }
    h
}

/// A translation target: a view-DTD node, or the text content of one
/// (`text()` steps land on text, which no further label step can leave).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Target {
    /// An element node of the view graph.
    Node(usize),
    /// The text children of an element node.
    TextOf(usize),
}

/// Per-target translation table: target → document query.
pub(crate) type Table = BTreeMap<Target, Path>;

/// The four places where `optimize` (§5.2, Fig. 10) departs from
/// `rewrite` (§4, Fig. 6). Every other case is the one dynamic program
/// of [`ViewGraph::translate`].
pub(crate) trait Rules {
    /// Combine the alternatives by which `//` reaches one target, given
    /// in visit order.
    fn descendant(&self, alternatives: Vec<Path>) -> Path;
    /// Combine the tables of a union's two arms at `node`.
    fn union(&self, t1: Table, t2: Table, node: usize) -> Table;
    /// Does a test of attribute `attr` at `node` stay as written? If
    /// not, the test is false.
    fn keeps_attribute(&self, node: usize, attr: &str) -> bool;
    /// Decide qualifier `q` at `node`, given its translation.
    fn decide(&self, q: &Qualifier, translated: Qualifier, node: usize) -> Qualifier;
}

/// Fig. 6 over a view graph: `//` factors the prefixes that reach one
/// target, a union keeps both arms, an attribute the view hides is
/// absent from the user's perspective (its test is false; visible
/// attributes live on the same document nodes), and a translated
/// qualifier stands as it is.
struct Fig6<'a>(&'a ViewGraph);

impl Rules for Fig6<'_> {
    fn descendant(&self, alternatives: Vec<Path>) -> Path {
        factored_union(alternatives)
    }

    fn union(&self, t1: Table, t2: Table, _: usize) -> Table {
        merge_tables(t1, t2)
    }

    fn keeps_attribute(&self, node: usize, attr: &str) -> bool {
        self.0.attribute_visible(node, attr)
    }

    fn decide(&self, _: &Qualifier, translated: Qualifier, _: usize) -> Qualifier {
        translated
    }
}

/// One translation: the graph, its rules and the memo of the DP.
struct Dp<'a, R> {
    graph: &'a ViewGraph,
    rules: &'a R,
    /// (sub-query address, node) → table, stored on the key's second
    /// visit: most keys come round once, and a table stored then is a
    /// copy nothing reads. Per call: addresses are reused from one
    /// query to the next.
    memo: HashMap<(usize, usize), Table>,
    /// Keys visited once so far.
    seen: HashSet<(usize, usize)>,
}

impl<R: Rules> Dp<'_, R> {
    /// The per-target table of `p` at `node`. Case numbers are Fig. 10's.
    fn path(&mut self, p: &Path, node: usize) -> Table {
        let key = (p as *const Path as usize, node);
        if let Some(hit) = self.memo.get(&key) {
            return hit.clone();
        }
        let recurring = !self.seen.insert(key);
        let graph = self.graph;
        let mut out = Table::new();
        match p {
            // Case (1).
            Path::Empty => {
                out.insert(Target::Node(node), Path::Empty);
            }
            Path::EmptySet => {}
            Path::Doc => {
                out.insert(Target::Node(graph.doc_node), Path::Doc);
            }
            // Cases (2) and (3): a label or wildcard reaches the children
            // it names, each through its σ edge; labels the graph does not
            // allow prune to ∅.
            Path::Label(l) => {
                for &c in &graph.children[node] {
                    if graph.labels[c] == *l {
                        merge(&mut out, Target::Node(c), graph.sigma_edge(node, c).clone());
                    }
                }
            }
            Path::Wildcard => {
                for &c in &graph.children[node] {
                    merge(&mut out, Target::Node(c), graph.sigma_edge(node, c).clone());
                }
            }
            // text() lands on the text content of a `str`-production node;
            // over the document the same node's text children are selected.
            Path::Text => {
                if graph.has_text[node] {
                    out.insert(Target::TextOf(node), Path::Text);
                }
            }
            // Case (4), with one factored union per target: the arms
            // through `a_i` and `b_i` of a diamond share their prefix and
            // continuation, which a plain union would copy into each.
            Path::Step(p1, p2) => {
                let mut arms: BTreeMap<Target, Vec<Path>> = BTreeMap::new();
                for (t, q1) in self.path(p1, node) {
                    match t {
                        Target::Node(v) => {
                            for (w, q2) in self.path(p2, v) {
                                arms.entry(w).or_default().push(Path::step(q1.clone(), q2));
                            }
                        }
                        // From a text node only ε (and qualifiers on the
                        // text itself) can continue; everything else is ∅.
                        Target::TextOf(_) => {
                            let composed = Path::step(q1, continue_from_text(p2));
                            if !composed.is_empty_set() {
                                arms.entry(t).or_default().push(composed);
                            }
                        }
                    }
                }
                out = arms
                    .into_iter()
                    .map(|(w, mut arms)| match arms.len() {
                        1 => (w, arms.pop().expect("one arm")),
                        _ => (w, factored_union(arms)),
                    })
                    .collect();
            }
            // Case (5): `//` through the precomputed `recProc` paths.
            Path::Descendant(p1) => {
                let mut branches: BTreeMap<Target, Vec<Path>> = BTreeMap::new();
                // `//` expands to descendant-or-self, which includes *text*
                // nodes; when `p1` is nullable (e.g. `//(l | ε)`) those text
                // nodes stay in the answer, so every reachable str-production
                // node also contributes its text children, continued through
                // the leaf-restricted form of `p1`.
                let text_cont = continue_from_text(p1);
                for &(b, ref prefix) in graph.rec_proc(node) {
                    if prefix.is_empty_set() {
                        continue;
                    }
                    for (w, q) in self.path(p1, b) {
                        branches.entry(w).or_default().push(Path::step(prefix.clone(), q));
                    }
                    if graph.has_text[b] && !text_cont.is_empty_set() {
                        branches.entry(Target::TextOf(b)).or_default().push(Path::step(
                            prefix.clone(),
                            Path::step(Path::Text, text_cont.clone()),
                        ));
                    }
                }
                out = branches
                    .into_iter()
                    .map(|(w, alts)| (w, self.rules.descendant(alts)))
                    .collect();
            }
            // Case (6).
            Path::Union(p1, p2) => {
                let t1 = self.path(p1, node);
                let t2 = self.path(p2, node);
                out = self.rules.union(t1, t2, node);
            }
            Path::Closure(p1) => {
                // `(p1)*` over the graph: discover the graph whose edge
                // x→y is p1's per-target translation at x, then Kleene-
                // eliminate it — the same machinery recProc uses for
                // cyclic σ graphs. Text targets are closure endpoints
                // (text is a leaf; re-applying p1 there never leaves it).
                let mut nodes: Vec<usize> = vec![node];
                let mut edges: HashMap<(usize, usize), Path> = HashMap::new();
                let mut texts: Vec<(usize, usize, Path)> = Vec::new();
                let mut i = 0;
                while i < nodes.len() {
                    let x = nodes[i];
                    i += 1;
                    for (t, q) in self.path(p1, x) {
                        match t {
                            Target::Node(y) => {
                                match edges.remove(&(x, y)) {
                                    Some(prev) => {
                                        edges.insert((x, y), Path::union(prev, q));
                                    }
                                    None => {
                                        edges.insert((x, y), q);
                                    }
                                }
                                if !nodes.contains(&y) {
                                    nodes.push(y);
                                }
                            }
                            Target::TextOf(ty) => texts.push((x, ty, q)),
                        }
                    }
                }
                let reach_expr = kleene_reach(&nodes, &edges, node);
                for (&y, e) in &reach_expr {
                    if !e.is_empty_set() {
                        merge(&mut out, Target::Node(y), e.clone());
                    }
                }
                for (x, ty, q) in texts {
                    let prefix = &reach_expr[&x];
                    if !prefix.is_empty_set() {
                        merge(&mut out, Target::TextOf(ty), Path::step(prefix.clone(), q));
                    }
                }
            }
            // Case (7), for the `ε[q]` that `optimize` normalizes every
            // filter to; `rewrite` filters any base.
            Path::Filter(base, q) => {
                for (t, qb) in self.path(base, node) {
                    let rq = match t {
                        Target::Node(v) => self.qual(q, v),
                        Target::TextOf(_) => text_qual(q),
                    };
                    let filtered = Path::filter(qb, rq);
                    if !filtered.is_empty_set() {
                        merge(&mut out, t, filtered);
                    }
                }
            }
        }
        if recurring {
            self.memo.insert(key, out.clone());
        }
        out
    }

    /// Translate qualifier `q` at `node`, then let the rules decide it.
    fn qual(&mut self, q: &Qualifier, node: usize) -> Qualifier {
        let translated = match q {
            Qualifier::True | Qualifier::False => q.clone(),
            Qualifier::Attr(a) | Qualifier::AttrEq(a, _) => {
                if self.rules.keeps_attribute(node, a) {
                    q.clone()
                } else {
                    Qualifier::False
                }
            }
            Qualifier::Path(p) => {
                Qualifier::path(Path::union_all(self.path(p, node).into_values()))
            }
            Qualifier::Eq(p, c) => {
                let union = Path::union_all(self.path(p, node).into_values());
                if union.is_empty_set() {
                    Qualifier::False
                } else {
                    Qualifier::Eq(union, c.clone())
                }
            }
            Qualifier::And(a, b) => Qualifier::and(self.qual(a, node), self.qual(b, node)),
            Qualifier::Or(a, b) => Qualifier::or(self.qual(a, node), self.qual(b, node)),
            Qualifier::Not(inner) => Qualifier::not(self.qual(inner, node)),
        };
        self.rules.decide(q, translated, node)
    }
}

/// Add `q` to `target`'s entry as one more union arm.
fn merge(table: &mut Table, target: Target, q: Path) {
    let slot = table.entry(target).or_insert(Path::EmptySet);
    *slot = Path::union(std::mem::replace(slot, Path::EmptySet), q);
}

/// Both arms of a union, target by target.
pub(crate) fn merge_tables(mut t1: Table, t2: Table) -> Table {
    for (w, q) in t2 {
        merge(&mut t1, w, q);
    }
    t1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AccessSpec;
    use crate::view::derive::derive_view;
    use crate::view::materialize::materialize;
    use sxv_dtd::parse_dtd;
    use sxv_xml::parse as parse_xml;
    use sxv_xpath::{eval_at_root, parse};

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

    fn hospital_doc() -> sxv_xml::Document {
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

    /// `p(T_v) = p_t(T)` checked through the materialization mapping.
    fn assert_equivalent(spec: &AccessSpec, query: &str) {
        let view = derive_view(spec).unwrap();
        let doc = hospital_doc();
        let p = parse(query).unwrap();
        let pt = rewrite(&view, &p).unwrap();
        let m = materialize(spec, &view, &doc).unwrap();
        let over_view: Vec<_> = m.sources_of(&eval_at_root(&m.doc, &p));
        let over_doc = eval_at_root(&doc, &pt);
        assert_eq!(
            over_view, over_doc,
            "query {query}: view answer ≠ rewritten answer\n  p_t = {pt}"
        );
    }

    #[test]
    fn example_4_1_descendant_query() {
        let view = derive_view(&nurse_spec()).unwrap();
        let p = parse("//patient//bill").unwrap();
        let pt = rewrite(&view, &p).unwrap();
        let s = pt.to_string();
        // The structure of the paper's answer: reach patients through
        // dept[q1] and both patientInfo routes, then bills through the
        // hidden trial/regular elements.
        assert!(s.contains("dept[*/patient/wardNo='6']"), "{s}");
        assert!(s.contains("clinicalTrial/patientInfo"), "{s}");
        assert!(s.contains("trial"), "{s}");
        assert!(s.contains("regular"), "{s}");
        // And it evaluates correctly.
        assert_equivalent(&nurse_spec(), "//patient//bill");
    }

    #[test]
    fn equivalence_on_paper_queries() {
        let spec = nurse_spec();
        for q in [
            "//patient",
            "//patient/name",
            "dept/patientInfo/patient/name",
            "//dept//patientInfo/patient/name",
            "//dept/patientInfo/patient/name",
            "//bill",
            "//patient[wardNo='6']/name",
            "dept/*",
            "*",
            "//name",
            "dept/staffInfo/staff/nurse/name",
            "//patient[treatment]",
            "//patient[not(treatment)]",
            "//treatment/*/bill",
            "//treatment/*",
        ] {
            assert_equivalent(&spec, q);
        }
    }

    #[test]
    fn inference_attack_of_example_1_1_blocked() {
        // Over the *view*, //dept//patientInfo/... and //dept/patientInfo/...
        // return the same patients — the clinicalTrial grouping is gone, so
        // the Example 1.1 difference attack yields nothing.
        let spec = nurse_spec();
        let view = derive_view(&spec).unwrap();
        let doc = hospital_doc();
        let p1 = parse("//dept//patientInfo/patient/name").unwrap();
        let p2 = parse("//dept/patientInfo/patient/name").unwrap();
        let t1 = rewrite(&view, &p1).unwrap();
        let t2 = rewrite(&view, &p2).unwrap();
        let r1 = eval_at_root(&doc, &t1);
        let r2 = eval_at_root(&doc, &t2);
        assert_eq!(r1, r2, "both queries must see the same flattened patients");
        let names: Vec<String> = r1.iter().map(|&n| doc.string_value(n)).collect();
        assert!(names.contains(&"Ann".to_string()), "trial patients included, not separable");
    }

    #[test]
    fn queries_mentioning_hidden_labels_rewrite_to_empty() {
        let view = derive_view(&nurse_spec()).unwrap();
        for q in ["//clinicalTrial", "//trial", "dept/clinicalTrial", "//regular/medication"] {
            let pt = rewrite(&view, &parse(q).unwrap()).unwrap();
            assert!(pt.is_empty_set(), "{q} must translate to ∅, got {pt}");
        }
    }

    #[test]
    fn dummy_labels_are_queryable() {
        let spec = nurse_spec();
        let view = derive_view(&spec).unwrap();
        let doc = hospital_doc();
        // Users see dummy1/dummy2 in the view DTD and may query them.
        let p = parse("//treatment/dummy1/bill").unwrap();
        let pt = rewrite(&view, &p).unwrap();
        let r = eval_at_root(&doc, &pt);
        assert_eq!(r.len(), 1, "Ann's trial bill via its dummy name: {pt}");
    }

    #[test]
    fn absolute_queries_supported() {
        assert_equivalent(&nurse_spec(), "/hospital/dept/patientInfo/patient");
    }

    #[test]
    fn recproc_factored_form_fig_7a() {
        // Fig. 7(a)'s diamond shape: a has children b and c, b also leads
        // to c, c branches to e|f, both of which lead to g. recrw(a, g)
        // must stay factored — (… ∪ ε)/c/(e ∪ f)/g — not an enumeration of
        // the four root-to-g paths.
        let dtd = parse_dtd(
            "<!ELEMENT a (b, c)><!ELEMENT b (c)><!ELEMENT c (e | f)>\
             <!ELEMENT e (g)><!ELEMENT f (g)><!ELEMENT g EMPTY>",
            "a",
        )
        .unwrap();
        let spec = AccessSpec::builder(&dtd).build().unwrap();
        let view = derive_view(&spec).unwrap();
        let graph = ViewGraph::from_view(&view).unwrap();
        let pt = graph.rewrite(&parse("//g").unwrap());
        let s = pt.to_string();
        // Sharing: `g` and `c` appear once, not once per enumerated path.
        assert_eq!(s.matches('g').count(), 1, "g translated once: {s}");
        assert_eq!(s.matches('c').count(), 1, "c shared across both routes: {s}");
        assert!(s.contains("e | f") || s.contains("f | e"), "choice stays factored: {s}");
    }

    #[test]
    fn recursive_view_rewrites_directly_with_closure() {
        // A recursive view DTD (a → b, clist; clist → c*; c → a): the
        // Fig. 7(b) argument shows `//` needs a *regular* expression —
        // which the direct translation now produces as a `(…)*` closure.
        let dtd = parse_dtd(
            "<!ELEMENT a (b, clist)><!ELEMENT clist (c*)>\
             <!ELEMENT c (a)><!ELEMENT b (#PCDATA)>",
            "a",
        )
        .unwrap();
        let spec = AccessSpec::builder(&dtd).build().unwrap();
        let view = derive_view(&spec).unwrap();
        assert!(view.is_recursive());
        let p = parse("//b").unwrap();
        let pt = rewrite(&view, &p).unwrap();
        assert!(pt.to_string().contains(")*"), "cycle translated to a closure: {pt}");
        let doc =
            parse_xml("<a><b>1</b><clist><c><a><b>2</b><clist/></a></c></clist></a>").unwrap();
        let r = eval_at_root(&doc, &pt);
        assert_eq!(r.len(), 2, "both b's found: {pt}");
        // The direct translation agrees with the §4.2 unfolding oracle
        // at the document's height.
        let oracle = rewrite_with_height(&view, &p, doc.height()).unwrap();
        assert_eq!(r, eval_at_root(&doc, &oracle), "direct ≠ unfolded: {pt} vs {oracle}");
        // And keeps working on a document deeper than that height.
        let deep = parse_xml(
            "<a><b>1</b><clist><c><a><b>2</b><clist><c><a><b>3</b><clist><c><a><b>4</b>\
             <clist/></a></c></clist></a></c></clist></a></c></clist></a>",
        )
        .unwrap();
        assert_eq!(eval_at_root(&deep, &pt).len(), 4, "{pt}");
    }

    /// Whether a closure occurs inside a closure body anywhere in `p`.
    fn nested_closure(p: &Path, in_closure: bool) -> bool {
        match p {
            Path::Closure(body) => in_closure || nested_closure(body, true),
            Path::Step(a, b) | Path::Union(a, b) => {
                nested_closure(a, in_closure) || nested_closure(b, in_closure)
            }
            Path::Descendant(inner) | Path::Filter(inner, _) => nested_closure(inner, in_closure),
            _ => false,
        }
    }

    #[test]
    fn bom_optimize_translation_has_no_closure_inside_a_closure() {
        // `kleene_reach` once emitted `(R_ss)*` for the start node, whose
        // body `R_ss` already holds the loop's closure: optimize's B1
        // translation then re-ran that inner closure from every frontier
        // node of the outer one. `R_ss` is closed under concatenation, so
        // `ε ∪ R_ss` is the same language with one closure level.
        let dtd = parse_dtd(include_str!("../../../assets/bom.dtd"), "bom").unwrap();
        let spec =
            AccessSpec::parse(&dtd, include_str!("../../../assets/bom_contractor.spec"), &[])
                .unwrap();
        let view = derive_view(&spec).unwrap();
        assert!(view.is_recursive());
        let rewritten = rewrite(&view, &parse("//partno").unwrap()).unwrap();
        let optimized = crate::optimize::optimize(spec.dtd(), &rewritten).unwrap();
        for (what, p) in [("rewrite", &rewritten), ("optimize", &optimized)] {
            assert!(p.to_string().contains(")*"), "{what} still serves recursion by closure: {p}");
            assert!(!nested_closure(p, false), "{what} nests a closure in a closure: {p}");
        }
    }

    #[test]
    fn recursive_view_with_hidden_recursion() {
        // Hide `clist`'s label entirely: the recursion survives through the
        // view's dummy/shortcut structure, and //b over the unfolded view
        // translates to a union over the unrolled chains.
        let dtd = parse_dtd(
            "<!ELEMENT a (b, clist)><!ELEMENT clist (c*)>\
             <!ELEMENT c (a)><!ELEMENT b (#PCDATA)>",
            "a",
        )
        .unwrap();
        let spec = AccessSpec::builder(&dtd).deny("a", "clist").allow("c", "a").build().unwrap();
        let view = derive_view(&spec).unwrap();
        assert!(view.is_recursive(), "recursion retained through the hidden region");
        let doc = parse_xml(
            "<a><b>x</b><clist><c><a><b>y</b><clist><c><a><b>z</b><clist/></a></c></clist></a></c></clist></a>",
        )
        .unwrap();
        let pt = rewrite_with_height(&view, &parse("//b").unwrap(), doc.height()).unwrap();
        let r = eval_at_root(&doc, &pt);
        assert_eq!(r.len(), 3, "all b's through the unrolled chain: {pt}");
    }

    #[test]
    fn per_target_fixes_shared_label_leak() {
        // r → a, b ; a → c (σ c) ; b → c (σ x/c): the verbatim Fig. 6
        // merge applies b's continuation under a and returns a's hidden
        // x/c/t (DESIGN.md §7). Build such a view by hand.
        use std::collections::BTreeMap;
        let mut sigma = BTreeMap::new();
        sigma.insert(("r".to_string(), "a".to_string()), parse("a").unwrap());
        sigma.insert(("r".to_string(), "b".to_string()), parse("b").unwrap());
        sigma.insert(("a".to_string(), "c".to_string()), parse("c").unwrap());
        sigma.insert(("b".to_string(), "c".to_string()), parse("x/c").unwrap());
        sigma.insert(("c".to_string(), "t".to_string()), parse("t").unwrap());
        let view = SecurityView::new(
            "r".into(),
            vec![
                (
                    "r".into(),
                    ViewContent::Seq(vec![ViewItem::One("a".into()), ViewItem::One("b".into())]),
                ),
                ("a".into(), ViewContent::Star("c".into())),
                ("b".into(), ViewContent::Star("c".into())),
                ("c".into(), ViewContent::Star("t".into())),
                ("t".into(), ViewContent::Str),
            ],
            sigma,
        );
        // Document where `a` also has an x/c subtree that the view hides.
        let doc = parse_xml(
            "<r><a><c><t>visible-a</t></c><x><c><t>leak</t></c></x></a>\
             <b><x><c><t>visible-b</t></c></x></b></r>",
        )
        .unwrap();
        let p = parse("*/c/t").unwrap();
        let precise = rewrite(&view, &p).unwrap();
        let r = eval_at_root(&doc, &precise);
        let values: Vec<String> = r.iter().map(|&n| doc.string_value(n)).collect();
        assert_eq!(values, ["visible-a", "visible-b"], "precise variant: {precise}");
    }

    #[test]
    fn qualifier_translation_uses_sigma() {
        let spec = nurse_spec();
        assert_equivalent(&spec, "dept[patientInfo/patient/name='Ann']/staffInfo");
        assert_equivalent(&spec, "//patient[name='Ann' or name='Bob']");
        assert_equivalent(&spec, "//patient[treatment and wardNo='6']/name");
    }

    #[test]
    fn attribute_qualifier_neutralized_for_hidden_attr_in_unfolded_graph() {
        // Recursive DTD with an attribute hidden by the policy: the
        // unfolded graph must carry attribute visibility too.
        let dtd = parse_dtd(
            "<!ELEMENT n (v, kids)><!ELEMENT kids (n*)><!ELEMENT v (#PCDATA)>             <!ATTLIST n secret CDATA #IMPLIED>             <!ATTLIST n public CDATA #IMPLIED>",
            "n",
        )
        .unwrap();
        let spec = AccessSpec::builder(&dtd).deny_attr("n", "secret").build().unwrap();
        let view = derive_view(&spec).unwrap();
        assert!(view.is_recursive());
        let hidden = rewrite_with_height(&view, &parse("//n[@secret='x']").unwrap(), 6).unwrap();
        assert!(hidden.is_empty_set(), "hidden attribute test must be false: {hidden}");
        let visible = rewrite_with_height(&view, &parse("//n[@public='x']").unwrap(), 6).unwrap();
        assert!(!visible.is_empty_set());
        assert!(visible.to_string().contains("@public"), "{visible}");
    }

    #[test]
    fn wildcard_at_document_node_reaches_root_only() {
        let view = derive_view(&nurse_spec()).unwrap();
        let graph = ViewGraph::from_view(&view).unwrap();
        let pt = graph.rewrite(&parse("/*").unwrap());
        let doc = hospital_doc();
        use sxv_xpath::eval_at_document;
        let r = eval_at_document(&doc, &pt);
        assert_eq!(r, vec![doc.root().unwrap()]);
    }

    #[test]
    fn unfolding_impossible_height_errors() {
        let dtd = parse_dtd("<!ELEMENT a (b)><!ELEMENT b (#PCDATA)>", "a").unwrap();
        let spec = AccessSpec::builder(&dtd).build().unwrap();
        let view = derive_view(&spec).unwrap();
        assert!(matches!(
            rewrite_with_height(&view, &parse("//b").unwrap(), 0),
            Err(Error::UnfoldImpossible { height: 0 })
        ));
    }

    #[test]
    fn eq_qualifier_over_pruned_path_is_false() {
        let view = derive_view(&nurse_spec()).unwrap();
        // `test` is hidden: [test='x'] can never hold over the view.
        let pt = rewrite(&view, &parse("dept[test='x']").unwrap()).unwrap();
        assert!(pt.is_empty_set(), "{pt}");
    }

    #[test]
    fn negated_qualifier_over_pruned_path_is_true() {
        let spec = nurse_spec();
        let view = derive_view(&spec).unwrap();
        let doc = hospital_doc();
        // not([hidden]) is vacuously true over the view.
        let p = parse("//patient[not(treatment/trial)]/name").unwrap();
        let pt = rewrite(&view, &p).unwrap();
        let m = materialize(&spec, &view, &doc).unwrap();
        assert_eq!(m.sources_of(&eval_at_root(&m.doc, &p)), eval_at_root(&doc, &pt), "{pt}");
        // All visible patients qualify: trial's label does not exist in
        // the view, so the qualifier cannot discriminate.
        assert_eq!(eval_at_root(&doc, &pt).len(), 2);
    }

    #[test]
    fn text_selector_rewrites_exactly() {
        let spec = nurse_spec();
        let view = derive_view(&spec).unwrap();
        let doc = hospital_doc();
        let m = materialize(&spec, &view, &doc).unwrap();
        for q in [
            "//name/text()",
            "//patient/name/text()",
            "//text()",
            "//bill/text()[.='100']",
            "dept/patientInfo/patient/wardNo/text()",
            "//name/text()/.",
        ] {
            let p = parse(q).unwrap();
            let pt = rewrite(&view, &p).unwrap();
            let mut over_view = m.sources_of(&eval_at_root(&m.doc, &p));
            over_view.sort();
            over_view.dedup();
            assert_eq!(over_view, eval_at_root(&doc, &pt), "{q} → {pt}");
        }
        // Text of hidden elements is unreachable.
        let hidden = rewrite(&view, &parse("//test/text()").unwrap()).unwrap();
        assert!(hidden.is_empty_set(), "{hidden}");
        // No step continues past text.
        let dead = rewrite(&view, &parse("//name/text()/name").unwrap()).unwrap();
        assert!(dead.is_empty_set(), "{dead}");
    }

    /// A chain of `n` DTD diamonds: `r → s1`, `s_i → (a_i | b_i)`,
    /// `a_i → s_{i+1}`, `b_i → s_{i+1}`.
    fn diamond_chain(n: usize) -> sxv_dtd::Dtd {
        let mut text = String::from("<!ELEMENT r (s1)>");
        for i in 1..=n {
            let j = i + 1;
            text += &format!(
                "<!ELEMENT s{i} (a{i} | b{i})><!ELEMENT a{i} (s{j})><!ELEMENT b{i} (s{j})>"
            );
        }
        text += &format!("<!ELEMENT s{} EMPTY>", n + 1);
        parse_dtd(&text, "r").unwrap()
    }

    #[test]
    fn memo_stores_a_table_on_its_second_visit() {
        let n = 8;
        let dtd = diamond_chain(n);
        let view = derive_view(&AccessSpec::builder(&dtd).build().unwrap()).unwrap();
        let graph = ViewGraph::from_view(&view).unwrap();
        let rules = Fig6(&graph);
        let translate = |p: &Path, seen: HashSet<(usize, usize)>| {
            let mut dp = Dp { graph: &graph, rules: &rules, memo: HashMap::new(), seen };
            let table = dp.path(p, graph.root);
            (table, dp)
        };
        let wildcards = || (1..2 * n).map(|_| Path::Wildcard);
        // `s1/*/…/*`, left-nested as parsed: every sub-query meets one
        // node, so no table is worth a copy.
        let flat = wildcards().fold(Path::label("s1"), Path::step);
        let (_, dp) = translate(&flat, HashSet::new());
        assert!(dp.memo.is_empty(), "{} tables stored for {flat}", dp.memo.len());
        // `s1/(*/(*/(…)))`: each continuation is reached from `a_i` and
        // from `b_i`, so its table is stored and the third visit hits.
        let nested =
            Path::step(Path::label("s1"), wildcards().reduce(|acc, w| Path::step(w, acc)).unwrap());
        let (table, dp) = translate(&nested, HashSet::new());
        assert!(!dp.memo.is_empty(), "recurring keys must be stored");
        // With every key marked seen up front, every table is stored on
        // its first visit; the translation must not change.
        let keys: HashSet<_> = dp.seen.iter().chain(dp.memo.keys()).copied().collect();
        let (every, dp) = translate(&nested, keys.clone());
        assert_eq!(dp.memo.len(), keys.len());
        assert_eq!(table, every);
    }

    #[test]
    fn empty_and_epsilon_queries() {
        let view = derive_view(&nurse_spec()).unwrap();
        assert_eq!(rewrite(&view, &Path::Empty).unwrap(), Path::Empty);
        assert!(rewrite(&view, &Path::EmptySet).unwrap().is_empty_set());
    }
}
