//! Third scenario: an XMark-style auction site with a bidder policy —
//! reserve prices, seller identities and other bidders' identities are
//! structurally unobservable, while bid histories stay fully queryable.
//!
//! ```text
//! cargo run --example auction_site --release
//! ```

use secure_xml_views::gen::{GenConfig, Generator};
use secure_xml_views::prelude::*;

const AUCTION_DTD: &str = include_str!("../assets/auction.dtd");
const BIDDER_SPEC: &str = include_str!("../assets/auction_bidder.spec");

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dtd = parse_dtd(AUCTION_DTD, "site")?;
    let spec = AccessSpec::parse(&dtd, BIDDER_SPEC, &[])?;
    let view = derive_view(&spec)?;
    let engine = SecureEngine::new(&spec, &view);

    println!("=== view DTD exposed to bidders ===\n{}", engine.exposed_view_dtd());
    // The bidder-facing schema must not even mention the hidden concepts.
    for hidden in ["reserve", "seller", "bidder", "buyer", "creditcard", "people"] {
        assert!(
            !engine.exposed_view_dtd().contains(hidden),
            "view DTD leaks the concept {hidden:?}"
        );
    }

    // Generate a site document.
    let config = GenConfig::seeded(1776)
        .with_max_branch(8)
        .with_max_depth(16)
        .with_values("amount", ["120", "145", "150", "180", "210"])
        .with_values("reserve", ["200", "300"])
        .with_values("current", ["150", "180"])
        .with_values("person-ref", ["p1", "p2", "p3"]);
    let doc = Generator::for_dtd(&dtd, config).generate().expect("consistent DTD");
    println!("site document: {} nodes", doc.len());

    // A bidder browses bid histories.
    let answer = |q: &str, approach| -> Result<Vec<NodeId>, Box<dyn std::error::Error>> {
        let p = parse_xpath(q)?;
        Ok(engine.answer_report_policy(&doc, None, &p, approach, PlanPolicy::ForceWalk)?.0)
    };
    let amounts = answer("//open-auction/bids/bid/amount", Approach::Optimize)?;
    println!(
        "\nvisible bid amounts: {:?}",
        amounts.iter().take(8).map(|&n| doc.string_value(n)).collect::<Vec<_>>()
    );

    // The current price is visible, the reserve is not — so the classic
    // probe "which auctions have current ≥ reserve" cannot be asked.
    let with_current = answer("//open-auction[current]", Approach::Optimize)?;
    let with_reserve = answer("//open-auction[reserve]", Approach::Optimize)?;
    println!(
        "auctions with visible current price: {}; with visible reserve: {}",
        with_current.len(),
        with_reserve.len()
    );
    assert!(with_reserve.is_empty());

    // All hidden regions are unreachable under any approach.
    for probe in ["//reserve", "//seller", "//bidder", "//buyer", "//creditcard", "//person"] {
        for approach in [Approach::Naive, Approach::Rewrite, Approach::Optimize] {
            assert!(answer(probe, approach)?.is_empty(), "{probe} leaked under {approach:?}");
        }
    }
    println!("\nhidden-region probes returned 0 nodes under all three approaches.");

    // Show a translated query: the rewriting bakes the policy in.
    let p = parse_xpath("//bid/*")?;
    println!("\n//bid/*  rewrites to  {}", engine.translate(&p, Approach::Rewrite)?);
    Ok(())
}
