//! Translations stay linear over shared sub-DAGs. Over a chain of `n`
//! DTD diamonds (`r → s1`, `s_i → (a_i | b_i)`, `a_i → s_{i+1}`,
//! `b_i → s_{i+1}`, empty spec) a query reaches `s_{n+1}` along 2^n
//! label paths; its `rewrite` (Fig. 6) and `optimize` (Fig. 10)
//! translations must share them, not spell each one out.

use secure_xml_views::core::{derive_view, optimize, rewrite, AccessSpec};
use secure_xml_views::dtd::{parse_dtd, Dtd};
use secure_xml_views::xml::parse as parse_xml;
use secure_xml_views::xpath::{eval_at_root, Path};

fn diamond_chain(n: usize) -> Dtd {
    let mut text = String::from("<!ELEMENT r (s1)>");
    for i in 1..=n {
        let j = i + 1;
        text +=
            &format!("<!ELEMENT s{i} (a{i} | b{i})><!ELEMENT a{i} (s{j})><!ELEMENT b{i} (s{j})>");
    }
    text += &format!("<!ELEMENT s{} EMPTY>", n + 1);
    parse_dtd(&text, "r").unwrap()
}

/// One instance of the chain: `a_i` at odd `i`, `b_i` at even `i`.
fn diamond_instance(n: usize) -> String {
    let mut open = String::from("<r>");
    let mut close = String::from("</r>");
    for i in 1..=n {
        let c = if i % 2 == 1 { 'a' } else { 'b' };
        open += &format!("<s{i}><{c}{i}>");
        close = format!("</{c}{i}></s{i}>") + &close;
    }
    format!("{open}<s{}/>{close}", n + 1)
}

/// `//s{n+1}`, the flat `s1/*/…/*` (2n − 1 wildcards, left-nested as
/// parsed) and the right-nested `s1/(*/(*/(…)))`.
fn diamond_queries(n: usize) -> [(&'static str, Path); 3] {
    let wildcards = || (1..2 * n).map(|_| Path::Wildcard);
    let nested = wildcards().reduce(|acc, w| Path::step(w, acc)).unwrap();
    [
        ("descendant", Path::descendant(Path::label(format!("s{}", n + 1)))),
        ("flat", wildcards().fold(Path::label("s1"), Path::step)),
        ("right-nested", Path::step(Path::label("s1"), nested)),
    ]
}

#[test]
fn diamond_chain_translations_stay_linear() {
    let n = 32;
    let dtd = diamond_chain(n);
    let view = derive_view(&AccessSpec::builder(&dtd).build().unwrap()).unwrap();
    let doc = parse_xml(&diamond_instance(n)).unwrap();
    for (shape, p) in diamond_queries(n) {
        let rewritten = rewrite(&view, &p).unwrap();
        let translations = [
            ("rewrite", rewritten.clone()),
            ("optimize", optimize(&dtd, &p).unwrap()),
            ("rewrite + optimize", optimize(&dtd, &rewritten).unwrap()),
        ];
        let want = eval_at_root(&doc, &p);
        assert_eq!(want.len(), 1, "{shape} selects one node of the instance");
        for (how, t) in translations {
            let bytes = t.to_string().len();
            assert!(bytes <= 32 * n, "{shape} under {how}: {bytes} bytes at n = {n}: {t}");
            assert_eq!(eval_at_root(&doc, &t), want, "{shape} under {how}: {t}");
        }
    }
}
