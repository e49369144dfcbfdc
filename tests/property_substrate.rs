//! Property-based tests for the substrate crates:
//!
//! * XML serializer/parser and package write/load round-trips on random
//!   trees;
//! * XPath pretty-printer/parser round-trip on random ASTs;
//! * generated documents always conform to their DTD;
//! * Brzozowski content-model matching agrees with a naive backtracking
//!   matcher on random content models and words.

use proptest::prelude::*;
use secure_xml_views::dtd::{parse_general_dtd, validate, Content};
use secure_xml_views::gen::{GenConfig, Generator};
use secure_xml_views::pack::{load_package_bytes, package_to_bytes};
use secure_xml_views::xml::{
    parse as parse_xml, to_string, to_string_pretty, DocIndex, Document, DocumentBuilder, NodeId,
};
use secure_xml_views::xpath::{parse as parse_xpath, Path, Qualifier};

// ---------- random XML trees ----------

#[derive(Debug, Clone)]
enum TreeSpec {
    Element(String, Vec<(String, String)>, Vec<TreeSpec>),
    Text(String),
}

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_.-]{0,6}"
}

fn text_strategy() -> impl Strategy<Value = String> {
    // Avoid pure-whitespace text (the parser drops ignorable whitespace)
    // and leading/trailing space (mixed-content formatting).
    "[a-zA-Z0-9<>&'\"=]{1,12}"
}

fn tree_strategy() -> impl Strategy<Value = TreeSpec> {
    let leaf = prop_oneof![
        (name_strategy(), proptest::collection::vec((name_strategy(), text_strategy()), 0..3))
            .prop_map(|(n, attrs)| TreeSpec::Element(n, dedup_attrs(attrs), vec![])),
        text_strategy().prop_map(TreeSpec::Text),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        (
            name_strategy(),
            proptest::collection::vec((name_strategy(), text_strategy()), 0..3),
            proptest::collection::vec(inner, 0..4),
        )
            .prop_map(|(n, attrs, kids)| TreeSpec::Element(n, dedup_attrs(attrs), kids))
    })
}

fn dedup_attrs(attrs: Vec<(String, String)>) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for (k, v) in attrs {
        if !out.iter().any(|(n, _)| *n == k) {
            out.push((k, v));
        }
    }
    out
}

fn build(doc: &mut DocumentBuilder, parent: Option<NodeId>, spec: &TreeSpec) {
    match spec {
        TreeSpec::Element(name, attrs, kids) => {
            let id = match parent {
                None => doc.create_root(name).unwrap(),
                Some(p) => doc.append_element(p, name),
            };
            for (k, v) in attrs {
                doc.set_attribute(id, k, v).unwrap();
            }
            for kid in kids {
                build(doc, Some(id), kid);
            }
        }
        TreeSpec::Text(t) => {
            if let Some(p) = parent {
                doc.append_text(p, t.clone());
            }
        }
    }
}

fn build_doc(spec: &TreeSpec) -> Document {
    let mut doc = DocumentBuilder::new();
    build(&mut doc, None, spec);
    doc.finish()
}

/// Merge adjacent text siblings, which serialize as one text node.
fn merge_adjacent_text(spec: TreeSpec) -> TreeSpec {
    match spec {
        TreeSpec::Element(name, attrs, kids) => {
            let mut merged: Vec<TreeSpec> = Vec::new();
            for kid in kids.into_iter().map(merge_adjacent_text) {
                match (merged.last_mut(), kid) {
                    (Some(TreeSpec::Text(prev)), TreeSpec::Text(t)) => prev.push_str(&t),
                    (_, kid) => merged.push(kid),
                }
            }
            TreeSpec::Element(name, attrs, merged)
        }
        text => text,
    }
}

/// `a` and `b` agree on every node's label, parent, children, text,
/// attributes and string value.
fn same_nodes(a: &Document, b: &Document) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    prop_assert_eq!(a.root_opt(), b.root_opt());
    for id in a.all_ids() {
        prop_assert_eq!(a.label_opt(id), b.label_opt(id), "label of {}", id);
        prop_assert_eq!(a.parent(id), b.parent(id), "parent of {}", id);
        prop_assert_eq!(a.children(id), b.children(id), "children of {}", id);
        prop_assert_eq!(a.text_opt(id), b.text_opt(id), "text of {}", id);
        prop_assert_eq!(a.attributes(id), b.attributes(id), "attributes of {}", id);
        prop_assert_eq!(a.string_value(id), b.string_value(id), "string value of {}", id);
    }
    Ok(())
}

fn root_element(spec: TreeSpec) -> TreeSpec {
    match spec {
        e @ TreeSpec::Element(..) => e,
        TreeSpec::Text(t) => TreeSpec::Element("root".into(), vec![], vec![TreeSpec::Text(t)]),
    }
}

// ---------- random XPath ASTs ----------

fn xpath_label() -> impl Strategy<Value = String> {
    // Exclude names that collide with qualifier keywords at boundaries.
    "[a-z][a-z0-9_.-]{0,6}"
        .prop_filter("keyword", |s| !matches!(s.as_str(), "and" | "or" | "not" | "true" | "false"))
}

fn xpath_strategy() -> impl Strategy<Value = Path> {
    let leaf = prop_oneof![
        4 => xpath_label().prop_map(Path::label),
        1 => Just(Path::Wildcard),
        1 => Just(Path::Empty),
        1 => Just(Path::Text),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        let qual = prop_oneof![
            3 => inner.clone().prop_map(Qualifier::path),
            2 => (inner.clone(), "[a-zA-Z0-9 ]{0,8}")
                .prop_map(|(p, c)| Qualifier::Eq(p, c)),
            1 => (xpath_label(), "[a-zA-Z0-9]{0,6}").prop_map(|(a, v)| Qualifier::AttrEq(a, v)),
            1 => xpath_label().prop_map(Qualifier::Attr),
            1 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Qualifier::and(Qualifier::path(a), Qualifier::path(b))),
            1 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Qualifier::or(Qualifier::path(a), Qualifier::path(b))),
            1 => inner.clone().prop_map(|p| Qualifier::not(Qualifier::path(p))),
        ];
        prop_oneof![
            3 => (inner.clone(), inner.clone()).prop_map(|(a, b)| Path::step(a, b)),
            2 => inner.clone().prop_map(Path::descendant),
            2 => (inner.clone(), inner.clone()).prop_map(|(a, b)| Path::union(a, b)),
            2 => (inner, qual).prop_map(|(p, q)| Path::filter(p, q)),
        ]
    })
}

/// Canonicalize `Step`/`Union` chains to left association (how the parser
/// builds them), recursing into every position.
fn left_assoc(p: &Path) -> Path {
    fn flatten(p: &Path, out: &mut Vec<Path>) {
        match p {
            Path::Step(a, b) => {
                flatten(a, out);
                flatten(b, out);
            }
            other => out.push(left_assoc_node(other)),
        }
    }
    fn left_assoc_node(p: &Path) -> Path {
        match p {
            Path::Descendant(i) => Path::Descendant(Box::new(left_assoc(i))),
            Path::Union(..) => {
                let mut arms = Vec::new();
                fn flat_union(p: &Path, out: &mut Vec<Path>) {
                    match p {
                        Path::Union(a, b) => {
                            flat_union(a, out);
                            flat_union(b, out);
                        }
                        other => out.push(left_assoc(other)),
                    }
                }
                flat_union(p, &mut arms);
                let mut it = arms.into_iter();
                let first = it.next().expect("non-empty union");
                it.fold(first, |acc, a| Path::Union(Box::new(acc), Box::new(a)))
            }
            Path::Filter(base, q) => {
                Path::Filter(Box::new(left_assoc(base)), Box::new(left_assoc_qual(q)))
            }
            other => other.clone(),
        }
    }
    fn assoc_bool(q: &Qualifier, is_and: bool) -> Qualifier {
        fn flat(q: &Qualifier, is_and: bool, out: &mut Vec<Qualifier>) {
            match (q, is_and) {
                (Qualifier::And(a, b), true) | (Qualifier::Or(a, b), false) => {
                    flat(a, is_and, out);
                    flat(b, is_and, out);
                }
                _ => out.push(left_assoc_qual(q)),
            }
        }
        let mut arms = Vec::new();
        flat(q, is_and, &mut arms);
        let mut it = arms.into_iter();
        let first = it.next().expect("non-empty");
        it.fold(first, |acc, a| {
            if is_and {
                Qualifier::And(Box::new(acc), Box::new(a))
            } else {
                Qualifier::Or(Box::new(acc), Box::new(a))
            }
        })
    }
    fn left_assoc_qual(q: &Qualifier) -> Qualifier {
        match q {
            Qualifier::Path(p) => Qualifier::Path(left_assoc(p)),
            Qualifier::Eq(p, c) => Qualifier::Eq(left_assoc(p), c.clone()),
            Qualifier::And(..) => assoc_bool(q, true),
            Qualifier::Or(..) => assoc_bool(q, false),
            Qualifier::Not(i) => Qualifier::Not(Box::new(left_assoc_qual(i))),
            other => other.clone(),
        }
    }
    let mut factors = Vec::new();
    flatten(p, &mut factors);
    let mut it = factors.into_iter();
    let first = it.next().expect("at least one factor");
    it.fold(first, |acc, f| Path::Step(Box::new(acc), Box::new(f)))
}

// ---------- random content models ----------

fn content_strategy() -> impl Strategy<Value = Content> {
    let leaf = prop_oneof![
        3 => proptest::sample::select(vec!["a", "b", "c"]).prop_map(|n| Content::Name(n.into())),
        1 => Just(Content::Empty),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Content::Seq(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Content::Choice(vec![a, b])),
            inner.clone().prop_map(|i| Content::Star(Box::new(i))),
            inner.clone().prop_map(|i| Content::Plus(Box::new(i))),
            inner.prop_map(|i| Content::Opt(Box::new(i))),
        ]
    })
}

/// Reference matcher: naive backtracking over all splits (exponential but
/// fine at test sizes).
fn naive_matches(c: &Content, word: &[&str]) -> bool {
    match c {
        Content::Empty => word.is_empty(),
        Content::PcData => word.iter().all(|&w| w == "#PCDATA"),
        Content::Name(n) => word.len() == 1 && word[0] == n,
        Content::Seq(items) => naive_seq(items, word),
        Content::Choice(items) => items.iter().any(|i| naive_matches(i, word)),
        Content::Star(inner) => {
            word.is_empty()
                || (1..=word.len())
                    .any(|k| naive_matches(inner, &word[..k]) && naive_matches(c, &word[k..]))
        }
        Content::Plus(inner) => {
            // x+ matches ε iff x does; for non-empty words the first
            // repetition may match ε (k = 0), leaving the rest to x*.
            if word.is_empty() {
                inner.nullable()
            } else {
                (0..=word.len()).any(|k| {
                    naive_matches(inner, &word[..k])
                        && naive_matches(&Content::Star(inner.clone()), &word[k..])
                })
            }
        }
        Content::Opt(inner) => word.is_empty() || naive_matches(inner, word),
    }
}

fn naive_seq(items: &[Content], word: &[&str]) -> bool {
    match items {
        [] => word.is_empty(),
        [first, rest @ ..] => (0..=word.len())
            .any(|k| naive_matches(first, &word[..k]) && naive_seq(rest, &word[k..])),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn xml_roundtrip(spec in tree_strategy()) {
        let spec = root_element(spec);
        let doc = build_doc(&spec);
        let compact = to_string(&doc);
        let reparsed = parse_xml(&compact).unwrap();
        prop_assert_eq!(&to_string(&reparsed), &compact);
        // Pretty output must reparse to the same logical tree whenever no
        // mixed content is involved; at minimum it must stay well-formed.
        let pretty = to_string_pretty(&doc);
        prop_assert!(parse_xml(&pretty).is_ok());
        // The builder, the parser and a package load give the same nodes;
        // the parser joins adjacent text siblings into one text node.
        same_nodes(&build_doc(&merge_adjacent_text(spec)), &reparsed)?;
        let index = DocIndex::new(&doc).expect("builder order is document order");
        let blob = doc.columns().text_blob.as_str();
        prop_assert_eq!(index.text_buffer().as_ptr(), blob.as_ptr(), "shared text");
        let bytes = package_to_bytes("", "", &doc, &index, &[]).unwrap();
        same_nodes(&doc, &load_package_bytes(&bytes).unwrap().doc)?;
    }

    #[test]
    fn xpath_display_parse_roundtrip(p in xpath_strategy()) {
        let printed = p.to_string();
        let reparsed = parse_xpath(&printed)
            .unwrap_or_else(|e| panic!("{printed:?} failed to reparse: {e}"));
        // `/` is associative: `a/(b/c)` prints as `a/b/c`, which reparses
        // left-associated. Compare modulo step associativity.
        prop_assert_eq!(left_assoc(&reparsed), left_assoc(&p), "printed form: {}", printed);
    }

    #[test]
    fn brzozowski_agrees_with_backtracking(
        c in content_strategy(),
        word in proptest::collection::vec(proptest::sample::select(vec!["a", "b", "c"]), 0..6),
    ) {
        let w: Vec<&str> = word.iter().map(|s| &**s).collect();
        prop_assert_eq!(c.matches(w.iter().copied()), naive_matches(&c, &w), "model {}", c);
    }

    #[test]
    fn compiled_plan_matches_walk(spec in tree_strategy(), p in xpath_strategy()) {
        use secure_xml_views::xpath::{compile, eval_at_root, CostModel, PlanPolicy};
        let doc = build_doc(&root_element(spec));
        let idx = DocIndex::new(&doc).expect("builder order is document order");
        let expected = eval_at_root(&doc, &p);
        // Every policy × cost-model × runtime-index combination must agree
        // with the reference walk — including the engine's mismatch case
        // (plans costed for an index but executed without one).
        for policy in [PlanPolicy::ForceWalk, PlanPolicy::ForceJoin, PlanPolicy::Auto] {
            for cost in [CostModel::from_index(&idx), CostModel::uninformed()] {
                let plan = compile(&p, policy, &cost);
                for index in [Some(&idx), None] {
                    let (got, _) = plan.execute(&doc, index);
                    prop_assert_eq!(
                        &expected, &got,
                        "query {} under {} (index: {})", p, policy, index.is_some()
                    );
                }
            }
        }
    }

    #[test]
    fn generated_documents_conform(seed in 0u64..10_000, branch in 1usize..6) {
        let dtd = parse_general_dtd(
            "<!ELEMENT r (a*, (b | c), d?)>\
             <!ELEMENT a (e+)>\
             <!ELEMENT b (#PCDATA)>\
             <!ELEMENT c (a?, b)>\
             <!ELEMENT d EMPTY>\
             <!ELEMENT e (#PCDATA)>",
            "r",
        ).unwrap();
        let mut g = Generator::new(&dtd, GenConfig::seeded(seed).with_max_branch(branch));
        let doc = g.generate().expect("consistent DTD");
        validate(&dtd, &doc).unwrap();
        prop_assert!(doc.in_document_order());
    }

    #[test]
    fn recursive_generation_conforms(seed in 0u64..10_000, depth in 1usize..8) {
        let dtd = parse_general_dtd(
            "<!ELEMENT t (v, t*)><!ELEMENT v (#PCDATA)>",
            "t",
        ).unwrap();
        let mut g = Generator::new(
            &dtd,
            GenConfig::seeded(seed).with_max_depth(depth).with_max_branch(2),
        );
        let doc = g.generate().expect("consistent DTD");
        validate(&dtd, &doc).unwrap();
    }
}

/// Deterministic promotions of every seed recorded in
/// `tests/property_substrate.proptest-regressions`. The proptest runs
/// above re-explore the space randomly; these pin the exact shrunken
/// counter-examples so they are exercised on every `cargo test`,
/// independent of RNG stream or seed-replay support.
mod promoted_seeds {
    use super::{left_assoc, naive_matches};
    use secure_xml_views::dtd::Content;
    use secure_xml_views::xpath::{parse as parse_xpath, Path};

    fn label(l: &str) -> Path {
        Path::Label(l.to_string())
    }

    /// Display → parse must be the identity modulo `/`-associativity.
    fn assert_roundtrips(p: Path) {
        let printed = p.to_string();
        let reparsed =
            parse_xpath(&printed).unwrap_or_else(|e| panic!("{printed:?} failed to reparse: {e}"));
        assert_eq!(left_assoc(&reparsed), left_assoc(&p), "printed form: {printed}");
    }

    // cc 9e4c704e…: right-nested step chain `a/(a/a)`.
    #[test]
    fn seed_step_chain_roundtrip() {
        assert_roundtrips(Path::step(label("a"), Path::step(label("a"), label("a"))));
    }

    // cc 5cb26384…: descendant over a step, `//(a/a)`.
    #[test]
    fn seed_descendant_of_step_roundtrip() {
        assert_roundtrips(Path::Descendant(Box::new(Path::step(label("a"), label("a")))));
    }

    // cc 3c978b05…: right-nested union `a | (a | aa)`.
    #[test]
    fn seed_nested_union_roundtrip() {
        assert_roundtrips(Path::Union(
            Box::new(label("a")),
            Box::new(Path::Union(Box::new(label("a")), Box::new(label("aa")))),
        ));
    }

    // cc f6a3d045…: step whose middle segment is a descendant, `a/(//a/a)`.
    #[test]
    fn seed_step_around_descendant_roundtrip() {
        assert_roundtrips(Path::step(
            label("a"),
            Path::step(Path::Descendant(Box::new(label("a"))), label("a")),
        ));
    }

    // cc 9519cb04…: `(ε+, ε)` against the empty word — both the
    // derivative-based matcher and the backtracking reference must say
    // yes (ε+ = {ε}, so the sequence is nullable).
    #[test]
    fn seed_plus_empty_seq_matches_empty_word() {
        let c = Content::Seq(vec![Content::Plus(Box::new(Content::Empty)), Content::Empty]);
        let word: [&str; 0] = [];
        assert!(c.matches(word.iter().copied()), "derivative matcher");
        assert!(naive_matches(&c, &word), "backtracking reference");
        assert_eq!(c.matches(["a"]), naive_matches(&c, &["a"]), "non-empty word must agree too");
    }
}
