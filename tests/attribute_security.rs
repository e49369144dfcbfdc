//! Attribute-level access control — the paper scopes attributes out with
//! "they can be easily incorporated"; these tests cover our incorporation:
//! `<!ATTLIST>` declarations, `deny_attr` annotations, materialized views
//! without hidden attributes, and rewriting that neutralizes qualifiers
//! over hidden attributes (so attribute *values* cannot be probed).

use secure_xml_views::core::{
    derive_view, materialize, rewrite, AccessSpec, Approach, PlanPolicy, SecureEngine,
};
use secure_xml_views::dtd::{parse_dtd, validate_attributes};
use secure_xml_views::gen::{GenConfig, Generator};
use secure_xml_views::xml::{parse as parse_xml, Document, NodeId};
use secure_xml_views::xpath::{eval_at_root, parse as parse_xpath, Path};

const DTD: &str = r#"
<!ELEMENT ledger (account*)>
<!ELEMENT account (entry*)>
<!ELEMENT entry (#PCDATA)>
<!ATTLIST account owner CDATA #REQUIRED>
<!ATTLIST account rating CDATA #IMPLIED>
<!ATTLIST entry amount CDATA #REQUIRED>
<!ATTLIST entry flagged (yes | no) "no">
"#;

const DOC: &str = r#"<ledger>
  <account owner="ann" rating="AAA">
    <entry amount="10" flagged="no">coffee</entry>
    <entry amount="999" flagged="yes">unusual</entry>
  </account>
  <account owner="bob" rating="C">
    <entry amount="5" flagged="no">tea</entry>
  </account>
</ledger>"#;

/// The engine's unindexed `ForceWalk` answer under `approach`.
fn answer(engine: &SecureEngine<'_>, doc: &Document, p: &Path, approach: Approach) -> Vec<NodeId> {
    engine.answer_report_policy(doc, None, p, approach, PlanPolicy::ForceWalk).unwrap().0
}

fn setup() -> (secure_xml_views::dtd::Dtd, AccessSpec) {
    let dtd = parse_dtd(DTD, "ledger").unwrap();
    // Auditors may see accounts and entries, but not credit ratings and
    // not the fraud flags.
    let spec = AccessSpec::builder(&dtd)
        .deny_attr("account", "rating")
        .deny_attr("entry", "flagged")
        .build()
        .unwrap();
    (dtd, spec)
}

#[test]
fn attlist_roundtrip_through_normalization() {
    let (dtd, _) = setup();
    assert_eq!(dtd.attribute_defs("account").len(), 2);
    assert_eq!(dtd.attribute_defs("entry").len(), 2);
    let doc = parse_xml(DOC).unwrap();
    dtd.validate(&doc).unwrap();
    validate_attributes(&dtd.to_general(), &doc).unwrap();
}

#[test]
fn view_exposes_only_visible_attributes() {
    let (_, spec) = setup();
    let view = derive_view(&spec).unwrap();
    assert!(view.attribute_visible("account", "owner"));
    assert!(!view.attribute_visible("account", "rating"));
    assert!(view.attribute_visible("entry", "amount"));
    assert!(!view.attribute_visible("entry", "flagged"));
}

#[test]
fn materialized_view_strips_hidden_attributes() {
    let (_, spec) = setup();
    let view = derive_view(&spec).unwrap();
    let doc = parse_xml(DOC).unwrap();
    let m = materialize(&spec, &view, &doc).unwrap();
    for id in m.doc.all_ids() {
        match m.doc.label_opt(id) {
            Some("account") => {
                assert!(m.doc.attribute(id, "owner").is_some());
                assert!(m.doc.attribute(id, "rating").is_none(), "rating leaked");
            }
            Some("entry") => {
                assert!(m.doc.attribute(id, "amount").is_some());
                assert!(m.doc.attribute(id, "flagged").is_none(), "flagged leaked");
            }
            _ => {}
        }
    }
}

#[test]
fn qualifiers_over_hidden_attributes_are_neutralized() {
    let (_, spec) = setup();
    let view = derive_view(&spec).unwrap();
    let doc = parse_xml(DOC).unwrap();
    let engine = SecureEngine::new(&spec, &view);

    // Probing the hidden flag must not select anything — otherwise the
    // flag's value would be inferable from the result set.
    for probe in ["//entry[@flagged='yes']", "//entry[@flagged]", "//account[@rating='AAA']"] {
        let ans = answer(&engine, &doc, &parse_xpath(probe).unwrap(), Approach::Optimize);
        assert!(ans.is_empty(), "{probe} leaked {} nodes", ans.len());
    }
    // Visible attributes keep working.
    let anns = answer(
        &engine,
        &doc,
        &parse_xpath("//account[@owner='ann']/entry").unwrap(),
        Approach::Optimize,
    );
    assert_eq!(anns.len(), 2);
    let big =
        answer(&engine, &doc, &parse_xpath("//entry[@amount='999']").unwrap(), Approach::Optimize);
    assert_eq!(big.len(), 1);
}

#[test]
fn rewrite_matches_view_semantics_with_attributes() {
    let (_, spec) = setup();
    let view = derive_view(&spec).unwrap();
    let doc = parse_xml(DOC).unwrap();
    let m = materialize(&spec, &view, &doc).unwrap();
    for q in [
        "//entry[@flagged='yes']",
        "//entry[@amount='10']",
        "//account[@owner='bob']",
        "account[@rating='AAA']",
    ] {
        let p = parse_xpath(q).unwrap();
        let pt = rewrite(&view, &p).unwrap();
        let over_view = m.sources_of(&eval_at_root(&m.doc, &p));
        let over_doc = eval_at_root(&doc, &pt);
        assert_eq!(over_view, over_doc, "{q} → {pt}");
    }
}

#[test]
fn generated_documents_respect_attlists_end_to_end() {
    let (dtd, spec) = setup();
    let config = GenConfig::seeded(42)
        .with_max_branch(4)
        .with_values("account@owner", ["ann", "bob", "cat"])
        .with_values("entry@amount", ["1", "2", "3"]);
    let doc = Generator::for_dtd(&dtd, config).generate().unwrap();
    validate_attributes(&dtd.to_general(), &doc).unwrap();
    let view = derive_view(&spec).unwrap();
    let m = materialize(&spec, &view, &doc).unwrap();
    for id in m.doc.all_ids() {
        if m.doc.label_opt(id) == Some("account") {
            assert!(m.doc.attribute(id, "rating").is_none());
        }
    }
}

#[test]
fn attr_annotation_on_undeclared_attribute_rejected() {
    let dtd = parse_dtd(DTD, "ledger").unwrap();
    let e = AccessSpec::builder(&dtd).deny_attr("account", "ghost").build().unwrap_err();
    assert!(e.to_string().contains("@ghost"), "{e}");
}
