//! The paper's §6 evaluation scenario at demo scale: the Adex
//! classified-ads DTD, the buyer/real-estate security view, and queries
//! Q1–Q4 answered under all three approaches.
//!
//! ```text
//! cargo run --example adex_classifieds --release
//! ```
//!
//! For the full Table 1 sweep use `cargo run -p sxv-bench --bin table1`.

use secure_xml_views::gen::{GenConfig, Generator};
use secure_xml_views::prelude::*;
use std::time::Instant;

const ADEX_DTD: &str = include_str!("../assets/adex.dtd");

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dtd = parse_dtd(ADEX_DTD, "adex")?;
    // §6: children of adex are denied; buyer-info and real-estate re-allowed.
    let spec = AccessSpec::builder(&dtd)
        .deny("adex", "head")
        .deny("adex", "body")
        .allow("head", "buyer-info")
        .allow("ad-content", "real-estate")
        .build()?;
    let view = derive_view(&spec)?;
    println!("view DTD for the real-estate user:\n{}", view.view_dtd_to_string());

    // Generate a classified-ads document (IBM XML Generator analogue).
    let config = GenConfig::seeded(2004).with_max_branch(24).with_min_branch(12).with_max_depth(64);
    let doc = Generator::for_dtd(&dtd, config).generate().expect("consistent DTD");
    println!("document: {} nodes ({} elements)\n", doc.len(), doc.element_count());

    let annotated = NaiveBaseline::annotate(&spec, &doc);
    let engine = SecureEngine::new(&spec, &view);

    let queries = [
        ("Q1", "//buyer-info/contact-info"),
        ("Q2", "//house/r-e.warranty | //apartment/r-e.warranty"),
        ("Q3", "//buyer-info[//company-id and //contact-info]"),
        ("Q4", "//real-estate[//r-e.asking-price and //r-e.unit-type]"),
    ];
    for (name, text) in queries {
        let p = parse_xpath(text)?;
        println!("{name}: {text}");
        for approach in [Approach::Naive, Approach::Rewrite, Approach::Optimize] {
            let translated = engine.translate(&p, approach)?;
            let start = Instant::now();
            let answer = match approach {
                Approach::Naive => secure_xml_views::xpath::eval_at_root(&annotated, &translated),
                _ => secure_xml_views::xpath::eval_at_root(&doc, &translated),
            };
            let elapsed = start.elapsed();
            println!(
                "  {approach:?}: {} results in {elapsed:.1?}   (query: {translated})",
                answer.len()
            );
        }
        println!();
    }

    // Sensitive regions are unreachable no matter how the user phrases it.
    for probe in ["//employment", "//salary", "//transaction-id", "//automotive/make"] {
        let p = parse_xpath(probe)?;
        let (answer, _) = engine.answer_report_policy(
            &doc,
            None,
            &p,
            Approach::Optimize,
            PlanPolicy::ForceWalk,
        )?;
        assert!(answer.is_empty(), "{probe} leaked");
    }
    println!("probe queries for hidden regions all returned 0 nodes.");
    Ok(())
}
