//! Every worked example in the paper, pinned as an executable test:
//! Example 1.1 (inference attack), 3.1 (nurse specification), 3.2 (view
//! definition), 3.3 (materialization), 3.4 (derivation trace), 4.1
//! (rewriting //patient//bill), 5.1 (DTD constraints), 5.4 (optimize on
//! the hospital DTD), and the §6 rewrite narratives for Q1–Q4.

use secure_xml_views::core::{
    derive_view, materialize, optimize, rewrite, AccessSpec, Annotation, Approach, NaiveBaseline,
    PlanPolicy, SecureEngine, SecurityView, ViewContent, ViewItem,
};
use secure_xml_views::dtd::parse_dtd;
use secure_xml_views::xml::{parse as parse_xml, Document, NodeId};
use secure_xml_views::xpath::{eval_at_root, parse as parse_xpath, Path};

const HOSPITAL_DTD: &str = include_str!("../assets/hospital.dtd");
const NURSE_SPEC: &str = include_str!("../assets/hospital_nurse.spec");
const ADEX_DTD: &str = include_str!("../assets/adex.dtd");

/// The engine's unindexed `ForceWalk` answer under `approach`.
fn answer(engine: &SecureEngine<'_>, doc: &Document, p: &Path, approach: Approach) -> Vec<NodeId> {
    engine.answer_report_policy(doc, None, p, approach, PlanPolicy::ForceWalk).unwrap().0
}

fn hospital_setup() -> (AccessSpec, SecurityView) {
    let dtd = parse_dtd(HOSPITAL_DTD, "hospital").unwrap();
    let spec = AccessSpec::parse(&dtd, NURSE_SPEC, &[("wardNo", "6")]).unwrap();
    let view = derive_view(&spec).unwrap();
    (spec, view)
}

fn hospital_doc() -> Document {
    parse_xml(
        r#"<hospital>
  <dept>
    <clinicalTrial>
      <patientInfo>
        <patient><name>Ann</name><wardNo>6</wardNo>
          <treatment><trial><bill>100</bill></trial></treatment>
        </patient>
      </patientInfo>
      <test>t1</test>
    </clinicalTrial>
    <patientInfo>
      <patient><name>Bob</name><wardNo>6</wardNo>
        <treatment><regular><bill>70</bill><medication>m1</medication></regular></treatment>
      </patient>
    </patientInfo>
    <staffInfo><staff><nurse><name>Sue</name></nurse></staff></staffInfo>
  </dept>
  <dept>
    <clinicalTrial><patientInfo/><test>t2</test></clinicalTrial>
    <patientInfo>
      <patient><name>Cat</name><wardNo>7</wardNo>
        <treatment><regular><bill>30</bill><medication>m2</medication></regular></treatment>
      </patient>
    </patientInfo>
    <staffInfo/>
  </dept>
</hospital>"#,
    )
    .unwrap()
}

/// Example 1.1: over the raw document (full DTD exposed), the difference
/// of two permissible queries identifies clinical-trial patients.
#[test]
fn example_1_1_attack_works_on_raw_document() {
    let doc = hospital_doc();
    let p1 = parse_xpath("//dept//patientInfo/patient/name").unwrap();
    let p2 = parse_xpath("//dept/patientInfo/patient/name").unwrap();
    let all = eval_at_root(&doc, &p1);
    let non_trial = eval_at_root(&doc, &p2);
    let leaked: Vec<String> =
        all.iter().filter(|n| !non_trial.contains(n)).map(|&n| doc.string_value(n)).collect();
    assert_eq!(leaked, ["Ann"], "the paper's inference succeeds without views");
}

/// …and fails through the security view.
#[test]
fn example_1_1_attack_fails_through_view() {
    let (spec, view) = hospital_setup();
    let doc = hospital_doc();
    let engine = SecureEngine::new(&spec, &view);
    let r1 = answer(
        &engine,
        &doc,
        &parse_xpath("//dept//patientInfo/patient/name").unwrap(),
        Approach::Optimize,
    );
    let r2 = answer(
        &engine,
        &doc,
        &parse_xpath("//dept/patientInfo/patient/name").unwrap(),
        Approach::Optimize,
    );
    assert_eq!(r1, r2, "no query distinguishes trial from non-trial patients");
}

/// Example 3.1: the textual specification parses into the expected
/// annotations with inheritance left implicit.
#[test]
fn example_3_1_specification() {
    let (spec, _) = hospital_setup();
    assert_eq!(spec.len(), 9, "nine explicit annotations");
    assert_eq!(spec.annotation("dept", "clinicalTrial"), Some(&Annotation::Deny));
    assert_eq!(spec.annotation("clinicalTrial", "patientInfo"), Some(&Annotation::Allow));
    assert!(matches!(spec.annotation("hospital", "dept"), Some(Annotation::Cond(_))));
    // Inherited (unannotated) edges.
    assert_eq!(spec.annotation("dept", "patientInfo"), None);
    assert_eq!(spec.annotation("dept", "staffInfo"), None);
    assert_eq!(spec.annotation("staff", "doctor"), None);
}

/// Example 3.2 / 3.4: the derived view matches Fig. 2 — view DTD plus σ.
#[test]
fn example_3_2_view_definition() {
    let (_, view) = hospital_setup();
    // hospital → dept* with σ = dept[q1].
    assert_eq!(view.production("hospital"), Some(&ViewContent::Star("dept".into())));
    assert_eq!(view.sigma("hospital", "dept").unwrap().to_string(), "dept[*/patient/wardNo='6']");
    // dept → patientInfo*, staffInfo; σ(dept, patientInfo) ≡ the paper's
    // (clinicalTrial ∪ ε)/patientInfo.
    assert_eq!(
        view.production("dept"),
        Some(&ViewContent::Seq(vec![
            ViewItem::Many("patientInfo".into()),
            ViewItem::One("staffInfo".into()),
        ]))
    );
    assert_eq!(
        view.sigma("dept", "patientInfo").unwrap().to_string(),
        "clinicalTrial/patientInfo | patientInfo"
    );
    // treatment → dummy1 + dummy2 with σ = trial / regular (labels hidden).
    let ViewContent::Choice { alternatives, .. } = view.production("treatment").unwrap() else {
        panic!("treatment must be a choice of dummies");
    };
    assert_eq!(alternatives.len(), 2);
    assert!(alternatives.iter().all(|a| SecurityView::is_dummy(a)));
    // σ(A, B) = B for all untouched productions.
    assert_eq!(view.sigma("patient", "name").unwrap().to_string(), "name");
    assert_eq!(view.sigma("staffInfo", "staff").unwrap().to_string(), "staff");
}

/// Example 3.3: materializing the nurse view of the hospital document.
#[test]
fn example_3_3_materialization() {
    let (spec, view) = hospital_setup();
    let doc = hospital_doc();
    let m = materialize(&spec, &view, &doc).unwrap();
    let v = &m.doc;
    // Only the ward-6 dept; two patientInfo children; hidden labels gone.
    let root = v.root().unwrap();
    assert_eq!(v.children(root).len(), 1);
    let dept = v.children(root)[0];
    let labels: Vec<&str> = v.children(dept).iter().map(|&c| v.label(c).unwrap()).collect();
    assert_eq!(labels, ["patientInfo", "patientInfo", "staffInfo"]);
    for id in v.all_ids() {
        if let Some(l) = v.label_opt(id) {
            assert!(!matches!(l, "clinicalTrial" | "trial" | "regular" | "test"));
        }
    }
    // Ann's treatment holds a dummy with her bill; Bob's dummy also holds
    // medication. The document DTD guarantees one of trial/regular, so
    // each treatment has exactly one dummy child (case 4 of §3.3).
    let treatments: Vec<_> = v.all_ids().filter(|&i| v.label_opt(i) == Some("treatment")).collect();
    assert_eq!(treatments.len(), 2);
    for &t in &treatments {
        assert_eq!(v.children(t).len(), 1);
    }
}

/// Example 4.1: rewriting //patient//bill over the nurse view.
#[test]
fn example_4_1_rewriting() {
    let (spec, view) = hospital_setup();
    let doc = hospital_doc();
    let p = parse_xpath("//patient//bill").unwrap();
    let pt = rewrite(&view, &p).unwrap();
    // The paper's p1/p2/p3 structure: dept[q1], both patientInfo routes,
    // bills through hidden trial/regular.
    let s = pt.to_string();
    assert!(s.contains("dept[*/patient/wardNo='6']"), "{s}");
    assert!(s.contains("clinicalTrial/patientInfo"), "{s}");
    assert!(s.contains("trial/bill") || s.contains("trial"), "{s}");
    assert!(s.contains("regular"), "{s}");
    // And the equivalence p(T_v) = p_t(T) holds.
    let m = materialize(&spec, &view, &doc).unwrap();
    assert_eq!(m.sources_of(&eval_at_root(&m.doc, &p)), eval_at_root(&doc, &pt));
}

/// Example 5.4: optimize(//patient ∪ //(patient ∪ staff)[//medication])
/// over the hospital document DTD collapses to the //patient expansion.
#[test]
fn example_5_4_optimization() {
    let dtd = parse_dtd(HOSPITAL_DTD, "hospital").unwrap();
    let p = parse_xpath("//patient | //(patient | staff)[//medication]").unwrap();
    let o = optimize(&dtd, &p).unwrap();
    let doc = hospital_doc();
    assert_eq!(
        eval_at_root(&doc, &p),
        eval_at_root(&doc, &o),
        "optimization preserves semantics: {o}"
    );
    let s = o.to_string();
    assert!(!s.contains("staff"), "the [//medication]-guarded arm is absorbed: {s}");
    assert!(!s.contains("medication"), "qualifier arm dropped: {s}");
}

/// §6 narrative, Q1: the rewrite expands //buyer-info/contact-info into
/// the precise path /adex/head/buyer-info/contact-info.
#[test]
fn section_6_q1_rewrite() {
    let dtd = parse_dtd(ADEX_DTD, "adex").unwrap();
    let spec = AccessSpec::builder(&dtd)
        .deny("adex", "head")
        .deny("adex", "body")
        .allow("head", "buyer-info")
        .allow("ad-content", "real-estate")
        .build()
        .unwrap();
    let view = derive_view(&spec).unwrap();
    let pt = rewrite(&view, &parse_xpath("//buyer-info/contact-info").unwrap()).unwrap();
    assert_eq!(pt.to_string(), "head/buyer-info/contact-info");
}

/// §6 narrative, Q2: the apartment arm is simplified to empty because
/// r-e.warranty is not a sub-element of apartment.
#[test]
fn section_6_q2_rewrite_prunes_apartment() {
    let dtd = parse_dtd(ADEX_DTD, "adex").unwrap();
    let spec = AccessSpec::builder(&dtd)
        .deny("adex", "head")
        .deny("adex", "body")
        .allow("head", "buyer-info")
        .allow("ad-content", "real-estate")
        .build()
        .unwrap();
    let view = derive_view(&spec).unwrap();
    let q2 = parse_xpath("//house/r-e.warranty | //apartment/r-e.warranty").unwrap();
    let pt = rewrite(&view, &q2).unwrap();
    let s = pt.to_string();
    assert!(!s.contains("apartment"), "{s}");
    assert!(s.ends_with("house/r-e.warranty"), "{s}");
}

/// §6 narrative, Q3: co-existence drops the qualifier entirely.
#[test]
fn section_6_q3_optimize_drops_qualifier() {
    let dtd = parse_dtd(ADEX_DTD, "adex").unwrap();
    let spec = AccessSpec::builder(&dtd)
        .deny("adex", "head")
        .deny("adex", "body")
        .allow("head", "buyer-info")
        .allow("ad-content", "real-estate")
        .build()
        .unwrap();
    let view = derive_view(&spec).unwrap();
    let q3 = parse_xpath("//buyer-info[//company-id and //contact-info]").unwrap();
    let rewritten = rewrite(&view, &q3).unwrap();
    assert!(rewritten.to_string().contains('['), "rewrite keeps the qualifier");
    let optimized = optimize(&dtd, &rewritten).unwrap();
    assert_eq!(optimized.to_string(), "head/buyer-info");
}

/// §6 narrative, Q4: the exclusive constraint refines the rewritten query
/// to the empty query, so evaluation is avoided entirely.
#[test]
fn section_6_q4_optimize_empties_query() {
    let dtd = parse_dtd(ADEX_DTD, "adex").unwrap();
    let spec = AccessSpec::builder(&dtd)
        .deny("adex", "head")
        .deny("adex", "body")
        .allow("head", "buyer-info")
        .allow("ad-content", "real-estate")
        .build()
        .unwrap();
    let view = derive_view(&spec).unwrap();
    let q4 = parse_xpath("//real-estate[//r-e.asking-price and //r-e.unit-type]").unwrap();
    let rewritten = rewrite(&view, &q4).unwrap();
    let s = rewritten.to_string();
    assert!(
        s.contains("house/r-e.asking-price") && s.contains("apartment/r-e.unit-type"),
        "the rewritten form keeps both qualifier arms: {s}"
    );
    let optimized = optimize(&dtd, &rewritten).unwrap();
    assert!(optimized.is_empty_set(), "got {optimized}");
}

/// §6 naive baseline: the two rewriting rules as printed in the paper.
#[test]
fn section_6_naive_rules() {
    let q1 = parse_xpath("//buyer-info/contact-info").unwrap();
    assert_eq!(
        NaiveBaseline::rewrite(&q1).to_string(),
        "(//buyer-info//contact-info)[@accessibility='1']"
    );
}

/// Serving-path check: the indexed evaluator returns exactly the scan
/// evaluator's answers for translated queries over the hospital document,
/// and repeated queries hit the engine's translation cache.
#[test]
fn indexed_and_unindexed_agree_on_hospital_document() {
    use secure_xml_views::xml::DocIndex;
    let (spec, view) = hospital_setup();
    let doc = hospital_doc();
    let engine = SecureEngine::new(&spec, &view);
    let index = DocIndex::new(&doc).expect("parsed docs are in document order");
    for q in [
        "//patient/name",
        "//bill",
        "//patient[wardNo='6']/name",
        "dept/patientInfo/patient",
        "//name",
        "//*",
    ] {
        let p = parse_xpath(q).unwrap();
        for approach in [Approach::Rewrite, Approach::Optimize] {
            let (plain, _) = engine
                .answer_report_policy(&doc, None, &p, approach, PlanPolicy::ForceWalk)
                .unwrap();
            let (indexed, _) = engine
                .answer_report_policy(&doc, Some(&index), &p, approach, PlanPolicy::ForceWalk)
                .unwrap();
            assert_eq!(plain, indexed, "{q} ({approach:?})");
        }
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 6 * 2, "one translation per (query, approach)");
    assert_eq!(stats.hits, 6 * 2, "second call of each pair is cached");
}
