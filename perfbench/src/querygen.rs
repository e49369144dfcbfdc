//! Seeded XPath queries over a role's view DTD for `plan-churn`: random
//! walks along view productions (`SecurityView::productions` /
//! `child_types`) with child and `//` steps, qualifiers and unions. Every
//! label step follows an edge or a descendant relation of the view DTD,
//! so no query names a type the view cannot produce there.

use std::collections::{BTreeMap, BTreeSet};

use sxv_core::SecurityView;
use sxv_xpath::{parse, simplify};

use crate::harness::Rng;

/// The view DTD as child and descendant lists of nameable types (dummy
/// types are reachable through `//` but never named).
pub struct ViewTypes {
    root: String,
    children: BTreeMap<String, Vec<String>>,
    descendants: BTreeMap<String, Vec<String>>,
}

fn nameable(t: &str) -> bool {
    !SecurityView::is_dummy(t)
}

impl ViewTypes {
    pub fn new(view: &SecurityView) -> ViewTypes {
        let all: BTreeMap<String, Vec<String>> = view
            .productions()
            .iter()
            .map(|(name, content)| {
                (name.clone(), content.child_types().into_iter().map(str::to_string).collect())
            })
            .collect();
        let mut children = BTreeMap::new();
        let mut descendants = BTreeMap::new();
        for (name, kids) in &all {
            children.insert(name.clone(), kids.iter().filter(|k| nameable(k)).cloned().collect());
            let mut seen: BTreeSet<String> = BTreeSet::new();
            let mut frontier: Vec<&String> = kids.iter().collect();
            while let Some(t) = frontier.pop() {
                if seen.insert(t.clone()) {
                    frontier.extend(all.get(t).into_iter().flatten());
                }
            }
            descendants.insert(name.clone(), seen.into_iter().filter(|t| nameable(t)).collect());
        }
        ViewTypes { root: view.root().to_string(), children, descendants }
    }

    fn pick<'a>(list: &'a [String], rng: &mut Rng) -> Option<&'a String> {
        (!list.is_empty()).then(|| &list[rng.below(list.len())])
    }

    /// One step from type `from`: `/child` or `//descendant`. Returns the
    /// step text (with its separator) and the type reached.
    fn step(&self, from: &str, rng: &mut Rng, first: bool) -> Option<(String, String)> {
        let kids = &self.children[from];
        let desc = &self.descendants[from];
        let child = !kids.is_empty() && (desc.len() == kids.len() || rng.chance(0.6));
        if child {
            let t = Self::pick(kids, rng)?;
            Some((if first { t.clone() } else { format!("/{t}") }, t.clone()))
        } else {
            let t = Self::pick(desc, rng)?;
            Some((format!("//{t}"), t.clone()))
        }
    }

    /// A relative path of up to `max_steps` steps starting at type `from`.
    fn walk(
        &self,
        from: &str,
        max_steps: usize,
        qualify: f64,
        rng: &mut Rng,
    ) -> Option<(String, String)> {
        let mut text = String::new();
        let mut at = from.to_string();
        let steps = 1 + rng.below(max_steps);
        for i in 0..steps {
            let Some((s, t)) = self.step(&at, rng, i == 0) else { break };
            text.push_str(&s);
            at = t;
            if rng.chance(qualify) {
                if let Some(q) = self.qualifier(&at, rng) {
                    text.push_str(&format!("[{q}]"));
                }
            }
        }
        (!text.is_empty()).then_some((text, at))
    }

    fn qualifier(&self, at: &str, rng: &mut Rng) -> Option<String> {
        let atom = |rng: &mut Rng| self.walk(at, 2, 0.0, rng).map(|(p, _)| p);
        let a = atom(rng)?;
        Some(match rng.below(5) {
            0 => match atom(rng) {
                Some(b) => format!("{a} and {b}"),
                None => a,
            },
            1 => match atom(rng) {
                Some(b) => format!("{a} or {b}"),
                None => a,
            },
            2 => format!("not({a})"),
            _ => a,
        })
    }

    /// One query evaluated at the view root; sometimes a union of two.
    pub fn query(&self, rng: &mut Rng) -> Option<String> {
        let one = |rng: &mut Rng| self.walk(&self.root, 4, 0.25, rng).map(|(p, _)| p);
        let a = one(rng)?;
        if rng.chance(0.2) {
            if let Some(b) = one(rng) {
                return Some(format!("{a} | {b}"));
            }
        }
        Some(a)
    }
}

/// `count` distinct queries (distinct after the plan cache's own
/// normalization) for `view`, drawn from `rng`. Each must parse, and its
/// `Display` form must re-parse to the same `Path`.
pub fn distinct_queries(
    view: &SecurityView,
    count: usize,
    rng: &mut Rng,
) -> Result<Vec<String>, String> {
    let types = ViewTypes::new(view);
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for _ in 0..count * 200 {
        if out.len() == count {
            return Ok(out);
        }
        let Some(text) = types.query(rng) else { continue };
        let parsed =
            parse(&text).map_err(|e| format!("generated query {text:?} does not parse: {e}"))?;
        let shown = parsed.to_string();
        let reparsed = parse(&shown)
            .map_err(|e| format!("{shown:?} (from {text:?}) does not re-parse: {e}"))?;
        if reparsed != parsed {
            return Err(format!("{text:?} displays as {shown:?}, which parses differently"));
        }
        if seen.insert(simplify(&parsed).to_string()) {
            out.push(text);
        }
    }
    Err(format!("only {} distinct queries after {} draws", out.len(), count * 200))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxv_bench::{AdexWorkload, BomWorkload, HospitalWorkload};

    #[test]
    fn queries_are_distinct_typed_and_seeded() {
        for view in
            [AdexWorkload::new().view, HospitalWorkload::new().view, BomWorkload::new().view]
        {
            let a = distinct_queries(&view, 64, &mut Rng::new(5)).unwrap();
            assert_eq!(a, distinct_queries(&view, 64, &mut Rng::new(5)).unwrap());
            assert_ne!(a, distinct_queries(&view, 64, &mut Rng::new(6)).unwrap());
            let types = ViewTypes::new(&view);
            for q in &a {
                // Every named label is a nameable type of the view.
                for label in q.split(|c: char| !(c.is_alphanumeric() || c == '-' || c == '.')) {
                    if label.is_empty() || ["and", "or", "not"].contains(&label) {
                        continue;
                    }
                    assert!(types.children.contains_key(label), "{q}: {label}");
                    assert!(nameable(label), "{q}: {label}");
                }
            }
        }
    }
}
