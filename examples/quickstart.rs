//! Quickstart: define a policy, derive a security view, query securely.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use secure_xml_views::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A document DTD and a conforming document.
    let dtd = parse_dtd(
        r#"
<!ELEMENT company (employee*)>
<!ELEMENT employee (name, salary, review)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT salary (#PCDATA)>
<!ELEMENT review (#PCDATA)>
"#,
        "company",
    )?;
    let doc = parse_xml(
        "<company>\
           <employee><name>Ada</name><salary>120000</salary><review>stellar</review></employee>\
           <employee><name>Bob</name><salary>90000</salary><review>solid</review></employee>\
         </company>",
    )?;

    // 2. An access policy: peers may see names, but not salaries or
    //    reviews (annotations attach to DTD edges, §3.2 of the paper).
    let spec =
        AccessSpec::builder(&dtd).deny("employee", "salary").deny("employee", "review").build()?;

    // 3. Derive the security view (Fig. 5). Users get the view DTD; the σ
    //    annotations stay hidden.
    let view = derive_view(&spec)?;
    println!("view DTD exposed to the user:\n{}", view.view_dtd_to_string());

    // 4. Answer view queries over the original document — no
    //    materialization, just query rewriting (Fig. 6) + DTD-aware
    //    optimization (Fig. 10).
    let engine = SecureEngine::new(&spec, &view);
    let answer =
        |p: &Path| engine.answer_report_policy(&doc, None, p, Approach::Optimize, PlanPolicy::Auto);

    let (names, _) = answer(&parse_xpath("//employee/name")?)?;
    println!("names visible: {:?}", names.iter().map(|&n| doc.string_value(n)).collect::<Vec<_>>());
    assert_eq!(names.len(), 2);

    let (salaries, _) = answer(&parse_xpath("//salary")?)?;
    println!("salaries visible: {}", salaries.len());
    assert!(salaries.is_empty(), "the view hides salaries entirely");

    // Even a wildcard sweep cannot reach hidden content.
    let (everything, _) = answer(&parse_xpath("//*")?)?;
    for &node in &everything {
        let label = doc.label_opt(node).unwrap_or("#text");
        assert!(label != "salary" && label != "review");
    }
    println!("wildcard sweep returned {} nodes, none sensitive", everything.len());
    Ok(())
}
