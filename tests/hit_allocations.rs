//! A plan-cache hit hands out the cached plan: it allocates nothing
//! that grows with the translated query.
//!
//! A counting global allocator (counted per thread, so the test
//! harness's own threads do not leak into the figures) measures one warm
//! `answer_report_policy` hit and subtracts what its two unavoidable
//! parts allocate on their own: normalizing the query into its cache key
//! (`simplify`) and running the cached plan (`execute_with_access`).
//! What is left is the engine's per-hit overhead, which must stay within
//! a small constant however large the translation is. Copying the
//! translation into the report, as an earlier engine did, cost one
//! allocation per translated query node (38 of a BOM B1 hit's 43).

use secure_xml_views::core::{derive_view, AccessSpec, Approach, PlanPolicy, SecureEngine};
use secure_xml_views::dtd::parse_dtd;
use secure_xml_views::gen::{GenConfig, Generator};
use secure_xml_views::xml::{DocIndex, Document};
use secure_xml_views::xpath::{parse as parse_xpath, simplify};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation and reallocation made on the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the caller's; counting touches only a
// thread-local `Cell`, which neither allocates nor re-enters the
// allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread; its result is dropped after
/// the count is taken.
fn allocations<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    let made = ALLOCATIONS.with(Cell::get) - before;
    drop(result);
    made
}

/// Most allocations a hit may make beyond its cache key and its plan's
/// execution. Today's hits make none; the engine that copied the
/// translation made 4 to 44 on these cells.
const HIT_OVERHEAD: u64 = 1;

/// One policy, one document and the (query, approach) cells to check.
struct Case {
    name: &'static str,
    spec: AccessSpec,
    doc: Document,
    queries: &'static [(&'static str, &'static str)],
    approaches: &'static [Approach],
}

fn case(
    name: &'static str,
    (dtd, root, spec): (&str, &str, &str),
    config: GenConfig,
    queries: &'static [(&'static str, &'static str)],
    approaches: &'static [Approach],
) -> Case {
    let dtd = parse_dtd(dtd, root).expect("asset DTD parses");
    let spec = AccessSpec::parse(&dtd, spec, &[]).expect("asset spec parses");
    let doc = Generator::for_dtd(&dtd, config).generate().expect("asset DTD is consistent");
    Case { name, spec, doc, queries, approaches }
}

#[test]
fn a_hit_allocates_nothing_that_grows_with_its_translation() {
    let cases = [
        case(
            "Table 1",
            (
                include_str!("../assets/adex.dtd"),
                "adex",
                include_str!("../assets/adex_section6.spec"),
            ),
            GenConfig::seeded(7).with_max_branch(4).with_min_branch(2).with_max_depth(64),
            &[
                ("Q1", "//buyer-info/contact-info"),
                ("Q2", "//house/r-e.warranty | //apartment/r-e.warranty"),
                ("Q3", "//buyer-info[//company-id and //contact-info]"),
                ("Q4", "//real-estate[//r-e.asking-price and //r-e.unit-type]"),
            ],
            &[Approach::Rewrite, Approach::Optimize, Approach::Annotate],
        ),
        case(
            "BOM",
            (
                include_str!("../assets/bom.dtd"),
                "bom",
                include_str!("../assets/bom_contractor.spec"),
            ),
            GenConfig::seeded(7)
                .with_max_branch(2)
                .with_min_branch(2)
                .with_max_depth(12)
                .with_values("partno", ["p-100", "p-200", "p-300", "p-400"])
                .with_values("name", ["acme", "globex", "initech"]),
            &[("B1", "//partno"), ("B2", "//part/name"), ("B3", "assembly/part/subpart//partno")],
            &[Approach::Optimize],
        ),
    ];
    let mut report = Vec::new();
    let mut over = Vec::new();
    for Case { name, spec, doc, queries, approaches } in &cases {
        let view = derive_view(spec).expect("asset view derives");
        let engine = SecureEngine::new(spec, &view);
        let index = DocIndex::new(doc).expect("generated documents are in document order");
        for &(label, query) in *queries {
            let p = parse_xpath(query).expect("query parses");
            for &approach in *approaches {
                let answer = || {
                    engine
                        .answer_report_policy(doc, Some(&index), &p, approach, PlanPolicy::Auto)
                        .expect("query answers")
                };
                // Warm up: the miss compiles, the first hit runs profiled
                // and may replace the plan with a recompiled one.
                for _ in 0..3 {
                    answer();
                }
                let (answered, warm) = answer();
                assert!(warm.cache_hit, "{name} {label} {approach:?}: warm call missed");
                let plan = engine.plan_certified(&p, approach, PlanPolicy::Auto).0.unwrap().plan;
                let access =
                    (approach == Approach::Annotate).then(|| engine.access_view(doc, Some(&index)));
                let executed = plan.execute_with_access(doc, Some(&index), access.as_deref());
                assert_eq!(answered, executed.0, "{name} {label} {approach:?}");

                let hit = allocations(answer);
                let key = allocations(|| simplify(&p));
                let execute =
                    allocations(|| plan.execute_with_access(doc, Some(&index), access.as_deref()));
                let rest = hit.saturating_sub(key + execute);
                report.push(format!(
                    "{name} {label} {approach:?}: hit {hit} = key {key} + execute {execute} + \
                     rest {rest}"
                ));
                if rest > HIT_OVERHEAD {
                    over.push(report.last().cloned().unwrap());
                }
            }
        }
    }
    assert_eq!(report.len(), 15, "Table 1 x 3 approaches + B1-B3");
    assert!(
        over.is_empty(),
        "hits allocate more than {HIT_OVERHEAD} beyond key + execute:\n{}\nall cells:\n{}",
        over.join("\n"),
        report.join("\n")
    );
}
