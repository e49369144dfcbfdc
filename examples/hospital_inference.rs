//! The paper's running example end to end: the hospital DTD (Fig. 1), the
//! nurse policy (Example 3.1), the derived security view (Fig. 2 /
//! Example 3.2), and the Example 1.1 *inference attack* — which succeeds
//! against naive label hiding but fails against the security view.
//!
//! ```text
//! cargo run --example hospital_inference
//! ```

use secure_xml_views::core::materialize;
use secure_xml_views::prelude::*;

const HOSPITAL_DTD: &str = include_str!("../assets/hospital.dtd");
const NURSE_SPEC: &str = include_str!("../assets/hospital_nurse.spec");

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dtd = parse_dtd(HOSPITAL_DTD, "hospital")?;
    let spec = AccessSpec::parse(&dtd, NURSE_SPEC, &[("wardNo", "6")])?;
    let view = derive_view(&spec)?;

    println!("=== document DTD (hidden from nurses) ===\n{dtd}");
    println!("=== view DTD exposed to nurses (Fig. 2) ===\n{}", view.view_dtd_to_string());
    println!("=== hidden σ annotations (never shown to users) ===");
    for (parent, child, q) in view.sigma_entries() {
        println!("  σ({parent}, {child}) = {q}");
    }

    let doc = parse_xml(
        r#"<hospital>
  <dept>
    <clinicalTrial>
      <patientInfo>
        <patient><name>Ann</name><wardNo>6</wardNo>
          <treatment><trial><bill>100</bill></trial></treatment>
        </patient>
      </patientInfo>
      <test>blood-panel</test>
    </clinicalTrial>
    <patientInfo>
      <patient><name>Bob</name><wardNo>6</wardNo>
        <treatment><regular><bill>70</bill><medication>aspirin</medication></regular></treatment>
      </patient>
    </patientInfo>
    <staffInfo><staff><nurse><name>Sue</name></nurse></staff></staffInfo>
  </dept>
</hospital>"#,
    )?;

    // What the nurse's view looks like (Example 3.3) — shown here for
    // illustration; the query path never materializes it.
    let materialized = materialize(&spec, &view, &doc)?;
    println!("\n=== materialized nurse view (illustration only) ===");
    println!("{}", secure_xml_views::xml::to_string_pretty(&materialized.doc));

    // Example 1.1: with naive label hiding (full DTD exposed), the attack
    // compares two queries to isolate clinical-trial patients:
    let p1 = parse_xpath("//dept//patientInfo/patient/name")?;
    let p2 = parse_xpath("//dept/patientInfo/patient/name")?;
    let all = secure_xml_views::xpath::eval_at_root(&doc, &p1);
    let non_trial = secure_xml_views::xpath::eval_at_root(&doc, &p2);
    let leaked: Vec<String> =
        all.iter().filter(|n| !non_trial.contains(n)).map(|&n| doc.string_value(n)).collect();
    println!("\n=== Example 1.1 against the RAW document (what the paper prevents) ===");
    println!("p1 \\ p2 = {leaked:?}   <-- trial patients inferred!");
    assert_eq!(leaked, ["Ann"]);

    // Against the security view, both queries rewrite to the same flat
    // patient set: the difference is empty and the inference fails.
    let engine = SecureEngine::new(&spec, &view);
    let answer =
        |p: &Path| engine.answer_report_policy(&doc, None, p, Approach::Optimize, PlanPolicy::Auto);
    let (r1, _) = answer(&p1)?;
    let (r2, _) = answer(&p2)?;
    println!("\n=== the same attack against the security view ===");
    println!("p1 over view: {:?}", r1.iter().map(|&n| doc.string_value(n)).collect::<Vec<_>>());
    println!("p2 over view: {:?}", r2.iter().map(|&n| doc.string_value(n)).collect::<Vec<_>>());
    assert_eq!(r1, r2, "difference attack yields nothing");
    println!("p1 \\ p2 = [] — the clinicalTrial grouping is unobservable.");

    // The nurse still sees everything she is entitled to, including
    // Ann's bill, without learning Ann is in a trial.
    let (bills, _) = answer(&parse_xpath("//patient//bill")?)?;
    println!(
        "\nbills visible to the nurse: {:?}",
        bills.iter().map(|&n| doc.string_value(n)).collect::<Vec<_>>()
    );
    assert_eq!(bills.len(), 2);
    Ok(())
}
