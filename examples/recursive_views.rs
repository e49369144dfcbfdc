//! Recursive security views: rewriting `//` over a cyclic view DTD
//! directly into Kleene-closure expressions — no document height
//! anywhere. The §4.2 height-bounded unfolding survives as a
//! differential-testing oracle and is cross-checked at the end.
//!
//! ```text
//! cargo run --example recursive_views
//! ```

use secure_xml_views::core::rewrite_with_height;
use secure_xml_views::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A recursive DTD: a message thread where replies nest arbitrarily.
    let dtd = parse_dtd(
        r#"
<!ELEMENT thread (message)>
<!ELEMENT message (author, text, moderation, replies)>
<!ELEMENT replies (message*)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT text (#PCDATA)>
<!ELEMENT moderation (#PCDATA)>
"#,
        "thread",
    )?;
    // Hide moderation notes at every nesting level.
    let spec = AccessSpec::builder(&dtd).deny("message", "moderation").build()?;
    let view = derive_view(&spec)?;
    assert!(view.is_recursive(), "replies/message recursion survives in the view");
    println!("recursive view DTD:\n{}", view.view_dtd_to_string());

    let doc = parse_xml(
        "<thread><message><author>ann</author><text>hi</text><moderation>ok</moderation>\
         <replies>\
           <message><author>bob</author><text>hey</text><moderation>flagged</moderation>\
             <replies>\
               <message><author>cat</author><text>yo</text><moderation>ok</moderation><replies/></message>\
             </replies>\
           </message>\
         </replies></message></thread>",
    )?;

    // The cycle is no obstacle: state elimination over the cyclic view
    // graph turns `//author` into a closed-form closure expression that
    // reaches authors at *every* nesting depth of *any* document.
    let p = parse_xpath("//author")?;
    let translated = rewrite(&view, &p)?;
    println!("//author translated directly (no height):\n  {translated}");
    let authors = secure_xml_views::xpath::eval_at_root(&doc, &translated);
    let names: Vec<String> = authors.iter().map(|&n| doc.string_value(n)).collect();
    println!("authors at every nesting level: {names:?}");
    assert_eq!(names, ["ann", "bob", "cat"]);

    // Moderation notes are invisible at every depth.
    let blocked = rewrite(&view, &parse_xpath("//moderation")?)?;
    assert!(secure_xml_views::xpath::eval_at_root(&doc, &blocked).is_empty());
    println!("//moderation rewrites to a query with no matches: {blocked}");

    // The serving engine compiles the closure into one cached plan; the
    // same entry would serve a thread nested a thousand replies deep.
    let engine = SecureEngine::new(&spec, &view);
    let (served, _) =
        engine.answer_report_policy(&doc, None, &p, Approach::Optimize, PlanPolicy::Auto)?;
    assert_eq!(served, authors);

    // Cross-check 1: the §4.2 unfolding oracle, given a sufficient
    // height, must agree with the direct closure translation.
    let unfolded = rewrite_with_height(&view, &p, doc.height())?;
    assert_eq!(
        secure_xml_views::xpath::eval_at_root(&doc, &unfolded),
        authors,
        "closure ≡ unfolding oracle"
    );
    println!("\nunfolding oracle at height {} agrees exactly.", doc.height());

    // Cross-check 2: the materialized view semantics.
    let m = materialize(&spec, &view, &doc)?;
    let over_view = secure_xml_views::xpath::eval_at_root(&m.doc, &p);
    assert_eq!(m.sources_of(&over_view), authors, "rewrite ≡ view semantics");
    println!("rewrite answers match the materialized view exactly.");
    Ok(())
}
