//! The full Fig. 3 framework: several user groups, one document, one
//! registry. Each group gets its own automatically derived view DTD, and
//! an engine over the group's registered spec and view rewrites its
//! queries against its own hidden σ — no view is ever materialized.
//!
//! ```text
//! cargo run --example policy_registry
//! ```

use secure_xml_views::prelude::*;
use std::collections::BTreeMap;

const HOSPITAL_DTD: &str = include_str!("../assets/hospital.dtd");
const NURSE_SPEC: &str = include_str!("../assets/hospital_nurse.spec");

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dtd = parse_dtd(HOSPITAL_DTD, "hospital")?;
    let mut registry = PolicyRegistry::new();

    // Ward-6 nurses: the paper's Example 3.1 policy.
    registry.register("nurse-ward6", AccessSpec::parse(&dtd, NURSE_SPEC, &[("wardNo", "6")])?)?;
    // Ward-7 nurses: same policy, different parameter binding.
    registry.register("nurse-ward7", AccessSpec::parse(&dtd, NURSE_SPEC, &[("wardNo", "7")])?)?;
    // Researchers: clinical trials only — and no patient names.
    registry.register(
        "researcher",
        AccessSpec::builder(&dtd)
            .deny("dept", "patientInfo")
            .deny("dept", "staffInfo")
            .deny("patient", "name")
            .build()?,
    )?;
    // Administrators: everything.
    registry.register("admin", AccessSpec::builder(&dtd).build()?)?;

    let doc = parse_xml(
        r#"<hospital>
  <dept>
    <clinicalTrial>
      <patientInfo><patient><name>Ann</name><wardNo>6</wardNo>
        <treatment><trial><bill>100</bill></trial></treatment></patient></patientInfo>
      <test>blood-panel</test>
    </clinicalTrial>
    <patientInfo><patient><name>Bob</name><wardNo>6</wardNo>
      <treatment><regular><bill>70</bill><medication>aspirin</medication></regular></treatment></patient></patientInfo>
    <staffInfo><staff><nurse><name>Sue</name></nurse></staff></staffInfo>
  </dept>
  <dept>
    <clinicalTrial><patientInfo/><test>x-ray</test></clinicalTrial>
    <patientInfo><patient><name>Cat</name><wardNo>7</wardNo>
      <treatment><regular><bill>30</bill><medication>ibuprofen</medication></regular></treatment></patient></patientInfo>
    <staffInfo/>
  </dept>
</hospital>"#,
    )?;

    println!("registered groups: {:?}\n", registry.groups().collect::<Vec<_>>());
    // One engine per group, borrowing the group's audited spec and view
    // (as `sxv serve` does for its roles).
    let mut engines = BTreeMap::new();
    for group in registry.groups() {
        engines.insert(group, SecureEngine::new(registry.spec(group)?, registry.view(group)?));
    }
    let answer = |group: &str, q: &str| {
        let p = parse_xpath(q).expect("query parses");
        engines[group]
            .answer_report_policy(&doc, None, &p, Approach::Optimize, PlanPolicy::Auto)
            .expect("query answers")
    };
    for group in ["nurse-ward6", "nurse-ward7", "researcher", "admin"] {
        println!("=== {group} ===");
        print!("{}", registry.exposed_view_dtd(group)?);
        for q in ["//patient/name", "//test", "//bill"] {
            let (nodes, report) = answer(group, q);
            let values: Vec<String> = nodes.iter().map(|&n| doc.string_value(n)).collect();
            println!("  {q}  →  {}", report.translated());
            println!("      = {values:?}");
        }
        println!();
    }

    // Spot checks on the separation.
    let names = |g: &str| -> Vec<String> {
        answer(g, "//patient/name").0.iter().map(|&n| doc.string_value(n)).collect()
    };
    assert_eq!(names("nurse-ward6"), ["Ann", "Bob"]);
    assert_eq!(names("nurse-ward7"), ["Cat"]);
    assert!(names("researcher").is_empty(), "researchers never see names");
    assert_eq!(names("admin"), ["Ann", "Bob", "Cat"]);
    // Only researchers and admins see test results.
    assert!(answer("nurse-ward6", "//test").0.is_empty());
    assert_eq!(answer("researcher", "//test").0.len(), 2);
    println!("separation checks passed.");
    Ok(())
}
