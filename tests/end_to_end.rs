//! Cross-crate end-to-end tests: generated documents, multiple policies
//! over the same document, the Adex pipeline against the materialization
//! oracle, and recursive-view querying.

use secure_xml_views::core::{
    derive_view, materialize, rewrite, rewrite_with_height, AccessSpec, Approach, PlanPolicy,
    SecureEngine,
};
use secure_xml_views::dtd::parse_dtd;
use secure_xml_views::gen::{GenConfig, Generator};
use secure_xml_views::xml::{Document, NodeId};
use secure_xml_views::xpath::{eval_at_root, parse as parse_xpath, Path};

const HOSPITAL_DTD: &str = include_str!("../assets/hospital.dtd");
const NURSE_SPEC: &str = include_str!("../assets/hospital_nurse.spec");
const ADEX_DTD: &str = include_str!("../assets/adex.dtd");

/// The engine's unindexed `ForceWalk` answer under `approach`.
fn answer(engine: &SecureEngine<'_>, doc: &Document, p: &Path, approach: Approach) -> Vec<NodeId> {
    engine.answer_report_policy(doc, None, p, approach, PlanPolicy::ForceWalk).unwrap().0
}

fn generated_hospital(seed: u64, branch: usize) -> (secure_xml_views::dtd::Dtd, Document) {
    let dtd = parse_dtd(HOSPITAL_DTD, "hospital").unwrap();
    let config = GenConfig::seeded(seed)
        .with_max_branch(branch)
        .with_max_depth(32)
        .with_values("wardNo", ["6", "7", "8"])
        .with_values("name", ["ann", "bob", "cat", "dan"]);
    let doc = Generator::for_dtd(&dtd, config).generate().unwrap();
    (dtd, doc)
}

/// Two user groups with different policies query the same document and
/// get exactly their own slices.
#[test]
fn multiple_policies_over_one_document() {
    let (dtd, doc) = generated_hospital(99, 6);

    // Nurses: the Example 3.1 policy (ward 6 only, no trial visibility).
    let nurse_spec = AccessSpec::parse(&dtd, NURSE_SPEC, &[("wardNo", "6")]).unwrap();
    let nurse_view = derive_view(&nurse_spec).unwrap();
    let nurse = SecureEngine::new(&nurse_spec, &nurse_view);

    // Billing clerks: bills and names only — nothing medical.
    let billing_spec = AccessSpec::builder(&dtd)
        .deny("dept", "staffInfo")
        .deny("patient", "wardNo")
        .deny("treatment", "trial")
        .deny("treatment", "regular")
        .allow("trial", "bill")
        .allow("regular", "bill")
        .deny("regular", "medication")
        .deny("clinicalTrial", "test")
        .build()
        .unwrap();
    let billing_view = derive_view(&billing_spec).unwrap();
    let billing = SecureEngine::new(&billing_spec, &billing_view);

    // Each group sees its own DTD, with its own blind spots.
    let nurse_dtd = nurse.exposed_view_dtd();
    let billing_dtd = billing.exposed_view_dtd();
    assert!(!nurse_dtd.contains("clinicalTrial"));
    assert!(nurse_dtd.contains("staffInfo"));
    assert!(!billing_dtd.contains("staffInfo"));
    assert!(!billing_dtd.contains("wardNo"));
    assert!(!billing_dtd.contains("medication"));

    // Nurses can see medication; billing cannot.
    let meds_q = parse_xpath("//medication").unwrap();
    let nurse_meds = answer(&nurse, &doc, &meds_q, Approach::Optimize);
    let billing_meds = answer(&billing, &doc, &meds_q, Approach::Optimize);
    assert!(billing_meds.is_empty());
    // Billing sees every bill in the document; the nurse only ward-6 ones.
    let bills_q = parse_xpath("//bill").unwrap();
    let billing_bills = answer(&billing, &doc, &bills_q, Approach::Optimize);
    let nurse_bills = answer(&nurse, &doc, &bills_q, Approach::Optimize);
    let all_bills = eval_at_root(&doc, &parse_xpath("//bill").unwrap());
    assert_eq!(billing_bills, all_bills);
    assert!(nurse_bills.len() <= all_bills.len());
    // Nothing the nurse sees is outside the full set.
    assert!(nurse_bills.iter().all(|b| all_bills.contains(b)));
    let _ = nurse_meds;
}

/// The three approaches agree on a larger generated hospital document for
/// a battery of queries.
#[test]
fn approaches_agree_on_generated_hospital() {
    let (dtd, doc) = generated_hospital(7, 8);
    let spec = AccessSpec::parse(&dtd, NURSE_SPEC, &[("wardNo", "6")]).unwrap();
    let view = derive_view(&spec).unwrap();
    let engine = SecureEngine::new(&spec, &view);
    for q in [
        "//patient/name",
        "//bill",
        "dept/patientInfo/patient",
        "//patient[wardNo='6']/name",
        "dept/staffInfo/staff/nurse/name",
    ] {
        let p = parse_xpath(q).unwrap();
        let r = answer(&engine, &doc, &p, Approach::Rewrite);
        let o = answer(&engine, &doc, &p, Approach::Optimize);
        assert_eq!(r, o, "{q}");
    }
}

/// Rewrite answers equal the materialization oracle on generated Adex
/// documents (the §6 configuration).
#[test]
fn adex_pipeline_matches_materialization_oracle() {
    let dtd = parse_dtd(ADEX_DTD, "adex").unwrap();
    let spec = AccessSpec::builder(&dtd)
        .deny("adex", "head")
        .deny("adex", "body")
        .allow("head", "buyer-info")
        .allow("ad-content", "real-estate")
        .build()
        .unwrap();
    let view = derive_view(&spec).unwrap();
    let config = GenConfig::seeded(31).with_max_branch(6).with_max_depth(64);
    let doc = Generator::for_dtd(&dtd, config).generate().unwrap();
    let m = materialize(&spec, &view, &doc).unwrap();
    for q in [
        "//buyer-info/contact-info",
        "//house/r-e.warranty | //apartment/r-e.warranty",
        "//buyer-info[//company-id and //contact-info]",
        "//real-estate[//r-e.asking-price and //r-e.unit-type]",
        "//house",
        "//apartment/r-e.rental-price",
        "*",
        "//real-estate/*",
    ] {
        let p = parse_xpath(q).unwrap();
        let pt = rewrite(&view, &p).unwrap();
        let over_view = m.sources_of(&eval_at_root(&m.doc, &p));
        let over_doc = eval_at_root(&doc, &pt);
        assert_eq!(over_view, over_doc, "{q} → {pt}");
    }
}

/// Hidden Adex regions stay hidden under arbitrary probing.
#[test]
fn adex_hidden_regions_unreachable() {
    let dtd = parse_dtd(ADEX_DTD, "adex").unwrap();
    let spec = AccessSpec::builder(&dtd)
        .deny("adex", "head")
        .deny("adex", "body")
        .allow("head", "buyer-info")
        .allow("ad-content", "real-estate")
        .build()
        .unwrap();
    let view = derive_view(&spec).unwrap();
    let doc = Generator::for_dtd(&dtd, GenConfig::seeded(5).with_max_branch(8).with_max_depth(64))
        .generate()
        .unwrap();
    let engine = SecureEngine::new(&spec, &view);
    for probe in [
        "//employment",
        "//automotive",
        "//salary",
        "//transaction-id",
        "//buyer-account",
        "//classification/region",
        "//photo",
        "//section",
        "//ad-id",
    ] {
        let ans = answer(&engine, &doc, &parse_xpath(probe).unwrap(), Approach::Optimize);
        assert!(ans.is_empty(), "{probe} leaked {} nodes", ans.len());
    }
    // The view DTD itself mentions none of the hidden labels.
    let exposed = engine.exposed_view_dtd();
    for hidden in ["employment", "automotive", "salary", "section", "photo", "head", "body"] {
        assert!(!exposed.contains(hidden), "view DTD leaks {hidden}");
    }
}

/// Recursive views answered end-to-end over generated documents.
#[test]
fn recursive_view_end_to_end() {
    let dtd = parse_dtd(
        "<!ELEMENT part (part-id, sub-parts, cost-center)>\
         <!ELEMENT sub-parts (part*)>\
         <!ELEMENT part-id (#PCDATA)>\
         <!ELEMENT cost-center (#PCDATA)>",
        "part",
    )
    .unwrap();
    let spec = AccessSpec::builder(&dtd).deny("part", "cost-center").build().unwrap();
    let view = derive_view(&spec).unwrap();
    assert!(view.is_recursive());
    let config = GenConfig::seeded(77).with_max_branch(2).with_max_depth(10);
    let doc = Generator::for_dtd(&dtd, config).generate().unwrap();
    let m = materialize(&spec, &view, &doc).unwrap();
    for q in ["//part-id", "//part/part-id", "part-id", "//sub-parts/part"] {
        let p = parse_xpath(q).unwrap();
        let pt = rewrite_with_height(&view, &p, doc.height()).unwrap();
        let over_view = m.sources_of(&eval_at_root(&m.doc, &p));
        let over_doc = eval_at_root(&doc, &pt);
        assert_eq!(over_view, over_doc, "{q} → {pt}");
    }
    // cost-center is invisible at every nesting level.
    let blocked =
        rewrite_with_height(&view, &parse_xpath("//cost-center").unwrap(), doc.height()).unwrap();
    assert!(eval_at_root(&doc, &blocked).is_empty());
}

/// The engine handles a policy whose qualifier has parameters bound per
/// user (two nurses in different wards get disjoint slices).
#[test]
fn parameterized_policies_differ_per_binding() {
    let (dtd, doc) = generated_hospital(123, 6);
    let ward6 = AccessSpec::parse(&dtd, NURSE_SPEC, &[("wardNo", "6")]).unwrap();
    let ward7 = AccessSpec::parse(&dtd, NURSE_SPEC, &[("wardNo", "7")]).unwrap();
    let v6 = derive_view(&ward6).unwrap();
    let v7 = derive_view(&ward7).unwrap();
    let e6 = SecureEngine::new(&ward6, &v6);
    let e7 = SecureEngine::new(&ward7, &v7);
    let q = parse_xpath("//dept").unwrap();
    let d6 = answer(&e6, &doc, &q, Approach::Optimize);
    let d7 = answer(&e7, &doc, &q, Approach::Optimize);
    // A dept with both ward-6 and ward-7 patients is visible to both;
    // the answers must each be subsets of all depts and generally differ.
    let all = eval_at_root(&doc, &q);
    assert!(d6.iter().all(|d| all.contains(d)));
    assert!(d7.iter().all(|d| all.contains(d)));
    // Consistency: a dept is in d6 iff it has a ward-6 patient.
    for &dept in &all {
        let has6 = !secure_xml_views::xpath::eval(
            &doc,
            &parse_xpath(".[*/patient/wardNo='6']").unwrap(),
            &[dept],
        )
        .is_empty();
        assert_eq!(d6.contains(&dept), has6);
    }
}

/// Coherence: a materialized view conforms to the *exported* view DTD —
/// the schema handed to users correctly describes what they see.
#[test]
fn materialized_views_conform_to_exported_view_dtd() {
    use secure_xml_views::dtd::{validate, validate_attributes};
    // Hospital / nurse.
    let (dtd, doc) = generated_hospital(21, 5);
    let spec = AccessSpec::parse(&dtd, NURSE_SPEC, &[("wardNo", "6")]).unwrap();
    let view = derive_view(&spec).unwrap();
    let m = materialize(&spec, &view, &doc).unwrap();
    let exported = view.view_general_dtd();
    validate(&exported, &m.doc).unwrap();
    validate_attributes(&exported, &m.doc).unwrap();

    // Adex / real-estate user.
    let adex = parse_dtd(ADEX_DTD, "adex").unwrap();
    let aspec = AccessSpec::builder(&adex)
        .deny("adex", "head")
        .deny("adex", "body")
        .allow("head", "buyer-info")
        .allow("ad-content", "real-estate")
        .build()
        .unwrap();
    let aview = derive_view(&aspec).unwrap();
    let adoc =
        Generator::for_dtd(&adex, GenConfig::seeded(8).with_max_branch(7).with_max_depth(64))
            .generate()
            .unwrap();
    let am = materialize(&aspec, &aview, &adoc).unwrap();
    validate(&aview.view_general_dtd(), &am.doc).unwrap();
    // The exported source parses as a real DTD file.
    let src = aview.to_dtd_source();
    let reparsed = secure_xml_views::dtd::parse_general_dtd(&src, "adex").unwrap();
    validate(&reparsed, &am.doc).unwrap();
}

/// The engine's Optimize path works over recursive document DTDs by
/// unfolding both the view and the optimizer to the document height.
#[test]
fn engine_optimize_on_recursive_dtd() {
    let dtd = parse_dtd(
        "<!ELEMENT part (part-id, sub-parts, cost-center)>\
         <!ELEMENT sub-parts (part*)>\
         <!ELEMENT part-id (#PCDATA)>\
         <!ELEMENT cost-center (#PCDATA)>",
        "part",
    )
    .unwrap();
    let spec = AccessSpec::builder(&dtd).deny("part", "cost-center").build().unwrap();
    let view = derive_view(&spec).unwrap();
    let doc = Generator::for_dtd(&dtd, GenConfig::seeded(3).with_max_branch(2).with_max_depth(8))
        .generate()
        .unwrap();
    let engine = SecureEngine::new(&spec, &view);
    let p = parse_xpath("//part-id").unwrap();
    let via_rewrite = answer(&engine, &doc, &p, Approach::Rewrite);
    let via_optimize = answer(&engine, &doc, &p, Approach::Optimize);
    assert_eq!(via_rewrite, via_optimize);
    assert!(!via_optimize.is_empty());
    let blocked = answer(&engine, &doc, &parse_xpath("//cost-center").unwrap(), Approach::Optimize);
    assert!(blocked.is_empty());
}
