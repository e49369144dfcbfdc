//! The auction-site scenario end to end: derived view shape, oracle
//! equivalence on generated documents, hidden-region probes, and the
//! attribute behaviour of the pruned regions.

use secure_xml_views::core::{
    derive_view, materialize, rewrite, AccessSpec, Approach, PlanPolicy, SecureEngine,
};
use secure_xml_views::dtd::parse_dtd;
use secure_xml_views::gen::{GenConfig, Generator};
use secure_xml_views::xml::{Document, NodeId};
use secure_xml_views::xpath::{eval_at_root, parse as parse_xpath, Path};

const AUCTION_DTD: &str = include_str!("../assets/auction.dtd");
const BIDDER_SPEC: &str = include_str!("../assets/auction_bidder.spec");

/// The engine's unindexed `ForceWalk` answer under `approach`.
fn answer(engine: &SecureEngine<'_>, doc: &Document, p: &Path, approach: Approach) -> Vec<NodeId> {
    engine.answer_report_policy(doc, None, p, approach, PlanPolicy::ForceWalk).unwrap().0
}

fn setup() -> (secure_xml_views::dtd::Dtd, AccessSpec) {
    let dtd = parse_dtd(AUCTION_DTD, "site").unwrap();
    let spec = AccessSpec::parse(&dtd, BIDDER_SPEC, &[]).unwrap();
    (dtd, spec)
}

fn document(seed: u64, branch: usize) -> secure_xml_views::xml::Document {
    let (dtd, _) = setup();
    let config = GenConfig::seeded(seed).with_max_branch(branch).with_max_depth(16);
    Generator::for_dtd(&dtd, config).generate().unwrap()
}

#[test]
fn bidder_view_shape() {
    let (_, spec) = setup();
    let view = derive_view(&spec).unwrap();
    // people is pruned entirely: site loses the child.
    let site = view.production("site").unwrap().to_string();
    assert_eq!(site, "open-auctions, closed-auctions, categories");
    // open-auction loses seller and reserve.
    assert_eq!(view.production("open-auction").unwrap().to_string(), "item-ref, bids, current");
    // bid loses the bidder identity but keeps amount and time.
    assert_eq!(view.production("bid").unwrap().to_string(), "amount, bid-time");
    // closed-auction loses the buyer.
    assert_eq!(view.production("closed-auction").unwrap().to_string(), "item-ref, final-price");
    // person/person-ref/reserve do not exist as view types.
    for hidden in ["person", "person-ref", "reserve", "seller", "bidder", "buyer"] {
        assert!(view.production(hidden).is_none(), "{hidden} leaked");
    }
    // id attributes on surviving types stay visible.
    assert!(view.attribute_visible("open-auction", "id"));
    assert!(view.attribute_visible("category", "id"));
}

#[test]
fn oracle_equivalence_on_generated_sites() {
    let (_, spec) = setup();
    let view = derive_view(&spec).unwrap();
    for seed in [1u64, 2, 3] {
        let doc = document(seed, 5);
        let m = materialize(&spec, &view, &doc).unwrap();
        for q in [
            "//bid/amount",
            "//open-auction[current]/item-ref",
            "//closed-auction/final-price",
            "//category/cat-name",
            "open-auctions/open-auction/bids/bid",
            "//open-auction[@id]",
            "//*",
        ] {
            let p = parse_xpath(q).unwrap();
            let pt = rewrite(&view, &p).unwrap();
            let mut over_view = m.sources_of(
                &eval_at_root(&m.doc, &p)
                    .into_iter()
                    .filter(|&n| m.doc.is_element(n))
                    .collect::<Vec<_>>(),
            );
            over_view.sort();
            over_view.dedup();
            let over_doc: Vec<_> =
                eval_at_root(&doc, &pt).into_iter().filter(|&n| doc.is_element(n)).collect();
            assert_eq!(over_view, over_doc, "seed {seed}: {q} → {pt}");
        }
    }
}

#[test]
fn hidden_regions_and_inference_probes() {
    let (_, spec) = setup();
    let view = derive_view(&spec).unwrap();
    let doc = document(7, 6);
    let engine = SecureEngine::new(&spec, &view);
    for probe in [
        "//reserve",
        "//seller",
        "//bidder",
        "//buyer",
        "//person",
        "//creditcard",
        "//emailaddress",
        "//person-ref",
        // structural probes trying to reach hidden data sideways
        "//open-auction/*/person-ref",
        "//bid[bidder]",
        "//open-auction[reserve='200']",
        "//open-auction[seller/person-ref='p1']",
    ] {
        let ans = answer(&engine, &doc, &parse_xpath(probe).unwrap(), Approach::Optimize);
        assert!(ans.is_empty(), "{probe} leaked {} nodes", ans.len());
    }
    // Negated hidden qualifiers must not discriminate either: every
    // visible bid satisfies not([bidder]) — the qualifier is vacuous.
    let all_bids = answer(&engine, &doc, &parse_xpath("//bid").unwrap(), Approach::Optimize);
    let not_bidder =
        answer(&engine, &doc, &parse_xpath("//bid[not(bidder)]").unwrap(), Approach::Optimize);
    assert_eq!(all_bids, not_bidder, "negation over a hidden label must be vacuous");
}

#[test]
fn indexed_and_unindexed_agree_on_auction_documents() {
    use secure_xml_views::xml::DocIndex;
    let (_, spec) = setup();
    let view = derive_view(&spec).unwrap();
    let engine = SecureEngine::new(&spec, &view);
    for seed in [3u64, 11, 17] {
        let doc = document(seed, 5);
        let index = DocIndex::new(&doc).expect("generated docs are in document order");
        for q in [
            "//bid/amount",
            "//open-auction[current]/item-ref",
            "//closed-auction/final-price",
            "//category/cat-name",
            "//open-auction[@id]",
            "//bid[amount]/bid-time",
            "//*",
        ] {
            let p = parse_xpath(q).unwrap();
            for approach in [Approach::Rewrite, Approach::Optimize] {
                let (plain, plain_report) = engine
                    .answer_report_policy(&doc, None, &p, approach, PlanPolicy::ForceWalk)
                    .unwrap();
                let (indexed, _) = engine
                    .answer_report_policy(&doc, Some(&index), &p, approach, PlanPolicy::ForceWalk)
                    .unwrap();
                assert_eq!(plain, indexed, "seed {seed}: {q} ({approach:?})");
                assert_eq!(plain_report.eval.index_lookups, 0, "{q}");
            }
        }
    }
    // Repeated queries above must have been served from the translation
    // cache: each (query, approach) pair is translated on first use, then
    // hit on the remaining plain+indexed calls (2 per seed × 3 seeds).
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 7 * 2);
    assert_eq!(stats.hits, 7 * 2 * (3 * 2 - 1));
}

#[test]
fn naive_rewrite_optimize_agree_on_auction_queries() {
    let (_, spec) = setup();
    let view = derive_view(&spec).unwrap();
    let doc = document(11, 5);
    let engine = SecureEngine::new(&spec, &view);
    for q in ["//bid/amount", "//final-price", "//category/cat-name", "//item-ref"] {
        let p = parse_xpath(q).unwrap();
        let naive = answer(&engine, &doc, &p, Approach::Naive);
        let rewritten = answer(&engine, &doc, &p, Approach::Rewrite);
        let optimized = answer(&engine, &doc, &p, Approach::Optimize);
        assert_eq!(naive, rewritten, "{q}");
        assert_eq!(rewritten, optimized, "{q}");
    }
}
