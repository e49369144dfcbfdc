#![warn(missing_docs)]
//! # sxv-bench — benchmark workloads for the paper's evaluation (§6)
//!
//! Shared setup for the Criterion benches and the `table1` binary:
//!
//! * the Adex DTD reconstruction and the §6 security view ("N" on the
//!   children of `adex`, "Y" on the `buyer-info` and `real-estate`
//!   regions);
//! * the four queries Q1–Q4 of Table 1;
//! * datasets D1–D4 generated by varying the maximum branching factor, as
//!   the paper does with IBM's XML Generator (sizes are scaled down from
//!   the paper's 3.2–77 MB so the full sweep runs in CI time, keeping the
//!   ~1 : 5 : 16 : 24 size ratios);
//! * the three approaches (naive / rewrite / optimize) with their offline
//!   preparation steps.

use sxv_core::{
    build_access_view, derive_view, optimize, rewrite, AccessSpec, Approach, NaiveBaseline,
    SecurityView,
};
use sxv_dtd::{parse_dtd, Dtd};
use sxv_gen::{GenConfig, Generator};
use sxv_xml::{DocIndex, Document, NodeId};
use sxv_xpath::{
    compile, compile_annotate, eval_at_root, eval_at_root_indexed_with_stats,
    eval_at_root_with_stats, parse, AccessView, CostModel, EvalStats, Path, PlanPolicy,
    PlanSummary,
};

/// The Adex DTD reconstruction (see `assets/adex.dtd`).
pub const ADEX_DTD: &str = include_str!("../../../assets/adex.dtd");

/// The hospital DTD of Fig. 1 (used by the algorithm benches).
pub const HOSPITAL_DTD: &str = include_str!("../../../assets/hospital.dtd");

/// The nurse policy of Example 3.1.
pub const HOSPITAL_NURSE_SPEC: &str = include_str!("../../../assets/hospital_nurse.spec");

/// The §6 access policy in spec-file form (equivalent to [`adex_spec`];
/// asserted by a unit test). Used where the policy must travel as text —
/// `sxv pack` role sections, the coldstart bench probes.
pub const ADEX_SECTION6_SPEC: &str = include_str!("../../../assets/adex_section6.spec");

/// Text form of [`adex_restricted_spec`] (equivalence asserted by a
/// unit test). Packages ship policies as text, so the serve bench needs
/// the restricted role's spec in this form to pack multi-role tenants.
pub const ADEX_RESTRICTED_SPEC: &str = "\
ann(adex, head) = N\n\
ann(adex, body) = N\n\
ann(ad-content, real-estate) = Y\n";

/// Table 1's queries, by paper name.
pub const TABLE1_QUERIES: [(&str, &str); 4] = [
    ("Q1", "//buyer-info/contact-info"),
    ("Q2", "//house/r-e.warranty | //apartment/r-e.warranty"),
    ("Q3", "//buyer-info[//company-id and //contact-info]"),
    // §6's narrative shows Q4's rewritten form filtering `real-estate`
    // (`…/real-estate[house/r-e.asking-price and apartment/r-e.unit-type]`),
    // which the optimizer then empties via the exclusive constraint. With
    // the query phrased on `house` (as in the paper's query list), our
    // rewriting already prunes the dead qualifier to ∅ on its own; the
    // `real-estate` phrasing below reproduces the paper's intended
    // rewrite → optimize split. See EXPERIMENTS.md.
    ("Q4", "//real-estate[//r-e.asking-price and //r-e.unit-type]"),
];

/// Datasets D1–D4: (name, max branching factor). Sizes grow roughly
/// cubically in the factor through the section*/ad-instance*/photo*
/// nesting.
pub const DATASETS: [(&str, usize); 4] = [("D1", 24), ("D2", 42), ("D3", 64), ("D4", 74)];

/// Extended datasets D5–D7 for the cold-start bench: millions to tens of
/// millions of nodes. Too large for the per-query Table 1 sweeps (naive
/// evaluation alone would dominate CI time), and too large to generate
/// through an in-memory [`Document`] — use
/// [`AdexWorkload::dataset_to`] to stream them straight to disk.
pub const DATASETS_XL: [(&str, usize); 3] = [("D5", 130), ("D6", 210), ("D7", 330)];

/// The full Table 1 workload: policy, view, translated queries.
pub struct AdexWorkload {
    /// The Adex document DTD.
    pub dtd: Dtd,
    /// The §6 access policy.
    pub spec: AccessSpec,
    /// The derived security view.
    pub view: SecurityView,
    /// Q1–Q4, each translated under all three approaches.
    pub queries: Vec<TranslatedQuery>,
}

/// One Table 1 query in all three translated forms.
pub struct TranslatedQuery {
    /// Paper name (Q1–Q4).
    pub name: &'static str,
    /// The query as posed over the security view.
    pub view_query: Path,
    /// §6 naive translation (annotated-document form).
    pub naive: Path,
    /// Fig. 6 rewriting output.
    pub rewritten: Path,
    /// Fig. 10 optimization output.
    pub optimized: Path,
}

impl TranslatedQuery {
    /// The translated form evaluated under `approach`. The annotate
    /// approach serves the view query itself (security comes from the
    /// accessibility artifact at execution time, not from rewriting).
    pub fn translated(&self, approach: Approach) -> &Path {
        match approach {
            Approach::Naive => &self.naive,
            Approach::Rewrite => &self.rewritten,
            Approach::Optimize => &self.optimized,
            Approach::Annotate => &self.view_query,
        }
    }
}

/// Build the Adex document DTD.
pub fn adex_dtd() -> Dtd {
    parse_dtd(ADEX_DTD, "adex").expect("asset DTD parses")
}

/// The §6 security view: deny the children of `adex`, re-allow the
/// `buyer-info` and `real-estate` regions.
pub fn adex_spec(dtd: &Dtd) -> AccessSpec {
    AccessSpec::builder(dtd)
        .deny("adex", "head")
        .deny("adex", "body")
        .allow("head", "buyer-info")
        .allow("ad-content", "real-estate")
        .build()
        .expect("edges exist in the Adex DTD")
}

/// A strictly more restrictive second role over the same Adex DTD (for
/// multi-tenant serving benchmarks): the whole `head` region — buyer
/// identity, contact and payment data — stays denied, and only the
/// `real-estate` listings are re-allowed. Queries over `buyer-info`
/// (Q1, Q3) are empty for this role while Q2 still returns listings,
/// so mixed-role workloads exercise genuinely different views.
pub fn adex_restricted_spec(dtd: &Dtd) -> AccessSpec {
    AccessSpec::builder(dtd)
        .deny("adex", "head")
        .deny("adex", "body")
        .allow("ad-content", "real-estate")
        .build()
        .expect("edges exist in the Adex DTD")
}

impl AdexWorkload {
    /// Set up the complete workload (derive the view, translate Q1–Q4
    /// under all three approaches).
    pub fn new() -> AdexWorkload {
        let dtd = adex_dtd();
        let spec = adex_spec(&dtd);
        let view = derive_view(&spec).expect("derivation succeeds");
        let queries = TABLE1_QUERIES
            .iter()
            .map(|&(name, text)| {
                let view_query = parse(text).expect("query parses");
                let naive = NaiveBaseline::rewrite(&view_query);
                let rewritten = rewrite(&view, &view_query).expect("non-recursive view");
                let optimized = optimize(spec.dtd(), &rewritten).expect("DAG DTD");
                TranslatedQuery { name, view_query, naive, rewritten, optimized }
            })
            .collect();
        AdexWorkload { dtd, spec, view, queries }
    }

    /// The generator configuration all Adex datasets use — D1–D7 differ
    /// only in the branching factor and seed.
    pub fn dataset_config(max_branch: usize, seed: u64) -> GenConfig {
        GenConfig::seeded(seed)
            .with_max_branch(max_branch)
            .with_min_branch(max_branch / 2)
            .with_max_depth(64)
    }

    /// Generate the dataset with the given branching factor; returns the
    /// plain document and the naive approach's annotated copy.
    pub fn dataset(&self, max_branch: usize, seed: u64) -> (Document, Document) {
        let config = Self::dataset_config(max_branch, seed);
        let doc = Generator::for_dtd(&self.dtd, config).generate().expect("Adex DTD is consistent");
        let annotated = NaiveBaseline::annotate(&self.spec, &doc);
        (doc, annotated)
    }

    /// Stream the dataset with the given branching factor straight to a
    /// writer — the only practical route to D5–D7, whose tens of millions
    /// of nodes never fit comfortably as an in-memory [`Document`] plus
    /// serialization string. Returns the number of tree nodes written.
    pub fn dataset_to<W: std::io::Write>(
        &self,
        max_branch: usize,
        seed: u64,
        out: &mut W,
    ) -> std::io::Result<u64> {
        let config = Self::dataset_config(max_branch, seed);
        let n = Generator::for_dtd(&self.dtd, config).generate_to(out)?;
        Ok(n.expect("Adex DTD is consistent"))
    }

    /// Build the accessibility artifact of `doc` — the annotate
    /// approach's offline preparation step, analogous to the naive
    /// approach's annotated copy.
    pub fn access_view(&self, doc: &Document, index: Option<&DocIndex>) -> AccessView {
        build_access_view(&self.spec, &self.view, doc, index)
    }

    /// Evaluate one query under one approach. `doc` must be the annotated
    /// copy for [`Approach::Naive`] and the plain document otherwise.
    /// [`Approach::Annotate`] builds its accessibility artifact on the
    /// fly; benches should prepare it once with
    /// [`AdexWorkload::access_view`] and use [`AdexWorkload::run_annotate`].
    pub fn run(&self, q: &TranslatedQuery, approach: Approach, doc: &Document) -> Vec<NodeId> {
        if approach == Approach::Annotate {
            let access = self.access_view(doc, None);
            return self.run_annotate(q, doc, None, PlanPolicy::Auto, &access).0;
        }
        eval_at_root(doc, q.translated(approach))
    }

    /// Evaluate one query under the annotate approach against a prepared
    /// accessibility artifact: the view query is compiled to an
    /// access-filtered plan and executed directly over the document.
    pub fn run_annotate(
        &self,
        q: &TranslatedQuery,
        doc: &Document,
        index: Option<&DocIndex>,
        policy: PlanPolicy,
        access: &AccessView,
    ) -> (Vec<NodeId>, EvalStats, PlanSummary) {
        let cost = match index {
            Some(idx) => CostModel::from_index(idx),
            None => CostModel::uninformed(),
        };
        let plan = compile_annotate(&q.view_query, policy, &cost);
        let (answer, stats) = plan.execute_with_access(doc, index, Some(access));
        (answer, stats, plan.summary())
    }

    /// Like [`AdexWorkload::run`] but also returning the evaluator's work
    /// counters; pass a [`DocIndex`] (built for `doc`) to measure the
    /// structural fast path.
    pub fn run_counted(
        &self,
        q: &TranslatedQuery,
        approach: Approach,
        doc: &Document,
        index: Option<&DocIndex>,
    ) -> (Vec<NodeId>, EvalStats) {
        if approach == Approach::Annotate {
            let access = self.access_view(doc, index);
            let (ans, stats, _) = self.run_annotate(q, doc, index, PlanPolicy::Auto, &access);
            return (ans, stats);
        }
        let translated = q.translated(approach);
        match index {
            Some(idx) => eval_at_root_indexed_with_stats(doc, idx, translated),
            None => eval_at_root_with_stats(doc, translated),
        }
    }

    /// Compile the translated form once under `policy` (against the
    /// index's real cardinalities when one is given) and execute the
    /// plan — the engine's serving shape, minus the cache. Returns the
    /// answer, the executor's work counters, and the plan summary so
    /// benches can record the operator mix alongside the timings.
    pub fn run_policy(
        &self,
        q: &TranslatedQuery,
        approach: Approach,
        doc: &Document,
        index: Option<&DocIndex>,
        policy: PlanPolicy,
    ) -> (Vec<NodeId>, EvalStats, PlanSummary) {
        if approach == Approach::Annotate {
            let access = self.access_view(doc, index);
            return self.run_annotate(q, doc, index, policy, &access);
        }
        let cost = match index {
            Some(idx) => CostModel::from_index(idx),
            None => CostModel::uninformed(),
        };
        let plan = compile(q.translated(approach), policy, &cost);
        let (answer, stats) = plan.execute(doc, index);
        (answer, stats, plan.summary())
    }
}

impl Default for AdexWorkload {
    fn default() -> Self {
        AdexWorkload::new()
    }
}

/// Hospital workload for the algorithm-scaling benches.
pub struct HospitalWorkload {
    /// The Fig. 1 hospital DTD.
    pub dtd: Dtd,
    /// The Example 3.1 nurse policy (ward 6).
    pub spec: AccessSpec,
    /// The derived nurse view (Fig. 2).
    pub view: SecurityView,
}

impl HospitalWorkload {
    /// The Fig. 1 DTD with the Example 3.1 nurse policy (ward 6).
    pub fn new() -> HospitalWorkload {
        let dtd = parse_dtd(HOSPITAL_DTD, "hospital").expect("asset DTD parses");
        let spec = AccessSpec::parse(&dtd, HOSPITAL_NURSE_SPEC, &[("wardNo", "6")])
            .expect("asset spec parses");
        let view = derive_view(&spec).expect("derivation succeeds");
        HospitalWorkload { dtd, spec, view }
    }

    /// A hospital document with ward numbers drawn from a small pool so
    /// the `$wardNo` qualifier selects a stable fraction.
    pub fn document(&self, max_branch: usize, seed: u64) -> Document {
        let config = GenConfig::seeded(seed)
            .with_max_branch(max_branch)
            .with_max_depth(32)
            .with_values("wardNo", ["6", "7", "8", "9"]);
        Generator::for_dtd(&self.dtd, config).generate().expect("hospital DTD is consistent")
    }
}

impl Default for HospitalWorkload {
    fn default() -> Self {
        HospitalWorkload::new()
    }
}

/// The recursive bill-of-materials DTD (see `assets/bom.dtd`): parts
/// nest through `subpart` to arbitrary depth, so the derived view is
/// recursive and translation exercises the Kleene-closure path.
pub const BOM_DTD: &str = include_str!("../../../assets/bom.dtd");

/// The contractor policy over the BOM DTD (see
/// `assets/bom_contractor.spec`): cost and supplier denied, the
/// supplier's name re-allowed (spliced up into `part`).
pub const BOM_CONTRACTOR_SPEC: &str = include_str!("../../../assets/bom_contractor.spec");

/// Recursive-view queries for the unfold-vs-direct comparison; each one
/// traverses the part cycle at arbitrary nesting depth.
pub const BOM_QUERIES: [(&str, &str); 3] =
    [("B1", "//partno"), ("B2", "//part/name"), ("B3", "assembly/part/subpart//partno")];

/// Bill-of-materials workload: the recursive-DTD benchmark family for
/// the unfold-vs-direct comparison (§4.2 closure translation against
/// the height-bounded unfolding oracle).
pub struct BomWorkload {
    /// The recursive BOM document DTD.
    pub dtd: Dtd,
    /// The contractor policy.
    pub spec: AccessSpec,
    /// The derived (recursive) security view.
    pub view: SecurityView,
}

impl BomWorkload {
    /// Parse the assets and derive the recursive contractor view.
    pub fn new() -> BomWorkload {
        let dtd = parse_dtd(BOM_DTD, "bom").expect("asset DTD parses");
        let spec = AccessSpec::parse(&dtd, BOM_CONTRACTOR_SPEC, &[]).expect("asset spec parses");
        let view = derive_view(&spec).expect("derivation succeeds");
        assert!(view.is_recursive(), "the BOM contractor view must keep the part cycle");
        BomWorkload { dtd, spec, view }
    }

    /// A document whose part tree nests up to `max_depth` element levels
    /// (each part level costs two: `part` plus its `subpart` wrapper) —
    /// choose it deeper than any unfold height under test. `branch`
    /// bounds the parts per subpart list.
    pub fn document(&self, max_depth: usize, branch: usize, seed: u64) -> Document {
        let config = GenConfig::seeded(seed)
            .with_max_branch(branch)
            .with_min_branch(1)
            .with_max_depth(max_depth)
            .with_values("partno", ["p-100", "p-200", "p-300", "p-400"])
            .with_values("name", ["acme", "globex", "initech"]);
        Generator::for_dtd(&self.dtd, config).generate().expect("BOM DTD is consistent")
    }
}

impl Default for BomWorkload {
    fn default() -> Self {
        BomWorkload::new()
    }
}

/// One adaptive timing measurement: the median repetition and how many
/// repetitions backed it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Median wall-clock time of one repetition, in microseconds.
    pub median_us: f64,
    /// Number of repetitions measured.
    pub reps: usize,
}

impl Timing {
    /// Milliseconds view of the median (for ratio columns).
    pub fn median_ms(&self) -> f64 {
        self.median_us / 1e3
    }
}

/// Closed-loop adaptive timer: repeats `f` until the samples add up to
/// ≥ 20 ms of wall time (at least 5, at most 2001 repetitions), then
/// reports the median repetition in µs. Sub-millisecond evaluations —
/// where a fixed median-of-5 in integer ms prints `0.00` — get hundreds
/// of repetitions and a measurement well above clock granularity.
pub fn time_us<T>(mut f: impl FnMut() -> T) -> Timing {
    use std::time::Instant;
    const MIN_REPS: usize = 5;
    const MAX_REPS: usize = 2001;
    const MIN_TOTAL_SECS: f64 = 0.020;
    let mut samples = Vec::with_capacity(MIN_REPS);
    let mut total = 0.0f64;
    while samples.len() < MIN_REPS || (total < MIN_TOTAL_SECS && samples.len() < MAX_REPS) {
        let start = Instant::now();
        std::hint::black_box(f());
        let secs = start.elapsed().as_secs_f64();
        total += secs;
        samples.push(secs * 1e6);
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    Timing { median_us: samples[samples.len() / 2], reps: samples.len() }
}

/// Time two workloads A/B-style with interleaved repetitions so clock
/// and thermal drift hit both sides equally — the honest way to compare
/// two executions of the same work in one process. Same adaptive budget
/// as [`time_us`], split across the pair.
pub fn time_pair_us<A, B>(mut f: impl FnMut() -> A, mut g: impl FnMut() -> B) -> (Timing, Timing) {
    use std::time::Instant;
    const MIN_REPS: usize = 5;
    const MAX_REPS: usize = 2001;
    const MIN_TOTAL_SECS: f64 = 0.040;
    let mut fs = Vec::with_capacity(MIN_REPS);
    let mut gs = Vec::with_capacity(MIN_REPS);
    let mut total = 0.0f64;
    while fs.len() < MIN_REPS || (total < MIN_TOTAL_SECS && fs.len() < MAX_REPS) {
        let start = Instant::now();
        std::hint::black_box(f());
        let secs = start.elapsed().as_secs_f64();
        total += secs;
        fs.push(secs * 1e6);
        let start = Instant::now();
        std::hint::black_box(g());
        let secs = start.elapsed().as_secs_f64();
        total += secs;
        gs.push(secs * 1e6);
    }
    fs.sort_by(|a, b| a.total_cmp(b));
    gs.sort_by(|a, b| a.total_cmp(b));
    (
        Timing { median_us: fs[fs.len() / 2], reps: fs.len() },
        Timing { median_us: gs[gs.len() / 2], reps: gs.len() },
    )
}

pub use sxv_xml::json_escape;

/// A synthetic chain-of-diamonds DTD family for derive/rewrite scaling
/// benches: `r → s1; si → (ai | bi); ai → si+1; bi → si+1; sn → leaf`.
pub fn diamond_dtd(n: usize) -> Dtd {
    let mut src = String::new();
    src.push_str("<!ELEMENT r (s1)>");
    for i in 1..=n {
        src.push_str(&format!("<!ELEMENT s{i} (a{i} | b{i})>"));
        let next = if i == n { "leaf".to_string() } else { format!("s{}", i + 1) };
        src.push_str(&format!("<!ELEMENT a{i} ({next})>"));
        src.push_str(&format!("<!ELEMENT b{i} ({next})>"));
    }
    src.push_str("<!ELEMENT leaf (#PCDATA)>");
    parse_dtd(&src, "r").expect("diamond DTD parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_sets_up() {
        let w = AdexWorkload::new();
        assert_eq!(w.queries.len(), 4);
        // Q4 optimizes to the empty query (the paper's headline result).
        let q4 = &w.queries[3];
        assert!(q4.optimized.is_empty_set(), "Q4 → ∅, got {}", q4.optimized);
        // Q3's qualifier is dropped by co-existence.
        let q3 = &w.queries[2];
        assert!(
            !q3.optimized.to_string().contains('['),
            "Q3 qualifier dropped, got {}",
            q3.optimized
        );
        // Q2's apartment branch is pruned.
        let q2 = &w.queries[1];
        assert!(
            !q2.rewritten.to_string().contains("apartment"),
            "Q2 apartment branch pruned, got {}",
            q2.rewritten
        );
    }

    #[test]
    fn section6_spec_asset_matches_builder() {
        // `assets/adex_section6.spec` is the file form of adex_spec() so
        // CLI examples and snapshot tests use the exact §6 policy; the
        // two must derive identical views.
        let dtd = adex_dtd();
        let asset = AccessSpec::parse(&dtd, ADEX_SECTION6_SPEC, &[]).expect("asset spec parses");
        let from_asset = derive_view(&asset).expect("derives").view_dtd_to_string();
        let from_builder = derive_view(&adex_spec(&dtd)).expect("derives").view_dtd_to_string();
        assert_eq!(from_asset, from_builder);
    }

    #[test]
    fn restricted_spec_text_matches_builder() {
        let dtd = adex_dtd();
        let text = AccessSpec::parse(&dtd, ADEX_RESTRICTED_SPEC, &[]).expect("text spec parses");
        let from_text = derive_view(&text).expect("derives").view_dtd_to_string();
        let from_builder =
            derive_view(&adex_restricted_spec(&dtd)).expect("derives").view_dtd_to_string();
        assert_eq!(from_text, from_builder);
    }

    #[test]
    fn policy_plans_agree_on_small_dataset() {
        let w = AdexWorkload::new();
        let (doc, _) = w.dataset(10, 5);
        let index = DocIndex::new(&doc).unwrap();
        for q in &w.queries {
            let reference = w.run(q, Approach::Optimize, &doc);
            for policy in [PlanPolicy::ForceWalk, PlanPolicy::ForceJoin, PlanPolicy::Auto] {
                let (ans, _, plan) =
                    w.run_policy(q, Approach::Optimize, &doc, Some(&index), policy);
                assert_eq!(reference, ans, "{} under {policy}", q.name);
                // Q4 plans to the empty pipeline; everything else has ops.
                if q.name == "Q4" {
                    assert_eq!(plan.total_ops(), 0, "{}: {}", q.name, plan.mix());
                }
            }
        }
    }

    #[test]
    fn approaches_agree_on_small_dataset() {
        let w = AdexWorkload::new();
        let (doc, annotated) = w.dataset(12, 42);
        for q in &w.queries {
            let naive = w.run(q, Approach::Naive, &annotated);
            let rewritten = w.run(q, Approach::Rewrite, &doc);
            let optimized = w.run(q, Approach::Optimize, &doc);
            let annotate = w.run(q, Approach::Annotate, &doc);
            assert_eq!(rewritten, optimized, "{}", q.name);
            assert_eq!(naive, rewritten, "{}", q.name);
            assert_eq!(annotate, rewritten, "{}", q.name);
        }
    }

    #[test]
    fn annotate_agrees_under_prepared_artifact_and_policies() {
        let w = AdexWorkload::new();
        let (doc, _) = w.dataset(10, 5);
        let index = DocIndex::new(&doc).unwrap();
        let access = w.access_view(&doc, Some(&index));
        assert!(access.bytes() > 0);
        assert!(access.member_count() > 0);
        for q in &w.queries {
            let reference = w.run(q, Approach::Rewrite, &doc);
            for policy in [PlanPolicy::ForceWalk, PlanPolicy::ForceJoin, PlanPolicy::Auto] {
                for idx in [None, Some(&index)] {
                    let (ans, _, _) = w.run_annotate(q, &doc, idx, policy, &access);
                    assert_eq!(reference, ans, "{} under {policy}", q.name);
                }
            }
            let (counted, _) = w.run_counted(q, Approach::Annotate, &doc, Some(&index));
            assert_eq!(reference, counted, "{}", q.name);
        }
    }

    #[test]
    fn counted_runs_agree_with_plain_runs() {
        let w = AdexWorkload::new();
        let (doc, annotated) = w.dataset(10, 9);
        let index = DocIndex::new(&doc).unwrap();
        let naive_index = DocIndex::new(&annotated).unwrap();
        for q in &w.queries {
            for approach in [Approach::Rewrite, Approach::Optimize] {
                let plain = w.run(q, approach, &doc);
                let (scan, scan_stats) = w.run_counted(q, approach, &doc, None);
                let (indexed, idx_stats) = w.run_counted(q, approach, &doc, Some(&index));
                assert_eq!(plain, scan, "{}", q.name);
                assert_eq!(plain, indexed, "{}", q.name);
                assert_eq!(scan_stats.index_lookups, 0, "{}", q.name);
                assert!(
                    idx_stats.nodes_touched <= scan_stats.nodes_touched,
                    "{}: the index never does more axis work",
                    q.name
                );
            }
            // The naive translation is `//`-heavy: the index must both
            // agree and strictly reduce axis work.
            let (scan, scan_stats) = w.run_counted(q, Approach::Naive, &annotated, None);
            let (indexed, idx_stats) =
                w.run_counted(q, Approach::Naive, &annotated, Some(&naive_index));
            assert_eq!(scan, indexed, "{}", q.name);
            assert!(idx_stats.index_lookups > 0, "{}", q.name);
            assert!(
                idx_stats.nodes_touched < scan_stats.nodes_touched,
                "{}: indexed {} vs scan {}",
                q.name,
                idx_stats.nodes_touched,
                scan_stats.nodes_touched
            );
        }
    }

    #[test]
    fn streamed_dataset_matches_in_memory_dataset() {
        let w = AdexWorkload::new();
        let (doc, _) = w.dataset(8, 3);
        let mut buf = Vec::new();
        let nodes = w.dataset_to(8, 3, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), sxv_xml::to_string(&doc));
        assert_eq!(nodes, doc.len() as u64);
    }

    /// Not a test: prints node counts for the D1–D7 branch factors so the
    /// `DATASETS_XL` calibration can be re-checked after generator
    /// changes. `cargo test -p sxv-bench --release calibrate -- --ignored --nocapture`
    #[test]
    #[ignore = "calibration helper, run manually"]
    fn calibrate_dataset_sizes() {
        let w = AdexWorkload::new();
        for (name, branch) in DATASETS.iter().chain(DATASETS_XL.iter()) {
            let nodes = w.dataset_to(*branch, 7, &mut std::io::sink()).unwrap();
            println!("{name} (branch {branch}): {nodes} nodes");
        }
    }

    #[test]
    fn datasets_grow_with_branching() {
        let w = AdexWorkload::new();
        let (d_small, _) = w.dataset(10, 7);
        let (d_large, _) = w.dataset(30, 7);
        assert!(d_large.len() > d_small.len() * 5);
    }

    #[test]
    fn bom_closure_translation_matches_unfolding_oracle() {
        use sxv_core::rewrite_with_height;
        let w = BomWorkload::new();
        let doc = w.document(16, 2, 7);
        assert!(doc.height() > 6, "need real nesting, got height {}", doc.height());
        for (name, text) in BOM_QUERIES {
            let q = parse(text).expect("query parses");
            let direct = rewrite(&w.view, &q).expect("closure rewrite");
            let optimized = optimize(w.spec.dtd(), &direct).expect("closure optimize");
            let unfolded =
                rewrite_with_height(&w.view, &q, doc.height()).expect("unfolding oracle");
            let answer = eval_at_root(&doc, &direct);
            assert_eq!(answer, eval_at_root(&doc, &optimized), "{name}: optimize diverged");
            assert_eq!(answer, eval_at_root(&doc, &unfolded), "{name}: unfolding diverged");
            assert!(!answer.is_empty(), "{name} should select something");
        }
    }

    #[test]
    fn hospital_workload_sets_up() {
        let w = HospitalWorkload::new();
        let doc = w.document(6, 3);
        w.dtd.validate(&doc).unwrap();
        assert!(w.view.production("treatment").is_some());
    }

    #[test]
    fn diamond_family_scales() {
        let d = diamond_dtd(5);
        assert_eq!(d.root(), "r");
        assert!(d.contains("s5"));
        assert!(d.contains("leaf"));
    }
}
