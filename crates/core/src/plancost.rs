//! DTD-derived cardinality estimates for the query planner.
//!
//! The engine plans queries before any document arrives, so it cannot
//! read occurrence lists from a [`sxv_xml::DocIndex`]. What it does have
//! is the document DTD: paper normal form gives every element type a
//! production (`str`, `ε`, sequence, choice, star), from which expected
//! per-label element counts propagate root-down — a sequence child
//! occurs once per parent, a choice child `1/n` times, a starred child
//! [`STAR_BRANCH`] times. The resulting label table feeds
//! [`CostModel::from_estimates`], giving the planner the same shape of
//! statistics a real index would, just approximate.

use crate::analysis::dtd_children;
use std::collections::HashMap;
use sxv_dtd::{Dtd, NormalContent};
use sxv_xml::LabelGraph;
use sxv_xpath::CostModel;

/// Assumed repetitions of a `B*` child — matches the small synthetic
/// documents of the benchmark generator closely enough to order plans.
pub const STAR_BRANCH: f64 = 4.0;

/// Assumed continuation ratio of one recursion level: along an edge that
/// participates in a production cycle, each additional nesting level is
/// taken to be half as populated as the one above. With every cycle
/// edge damped below 1 the root-down propagation becomes a convergent
/// geometric series, so recursive DTDs get a finite *fixpoint*
/// cardinality (`est / (1 - r)` in the single-cycle case) instead of a
/// divergent unfolding that slams into an arbitrary ceiling.
pub const RECURSE_DECAY: f64 = 0.5;

/// Ceiling on any propagated estimate — a backstop for pathological
/// DTDs whose parallel cycle paths still sum to a gain ≥ 1.
const MAX_EST: f64 = 1e9;

/// Upper bound on propagation passes. DAG DTDs converge in at most
/// their depth; damped cycles converge geometrically; this cap only
/// matters for the pathological gain ≥ 1 case.
const MAX_PASSES: usize = 256;

/// Convergence tolerance for the fixpoint iteration.
const TOLERANCE: f64 = 1e-6;

fn child_weights(content: &NormalContent) -> Vec<(&str, f64)> {
    match content {
        NormalContent::Str | NormalContent::Empty => Vec::new(),
        NormalContent::Seq(names) => names.iter().map(|n| (n.as_str(), 1.0)).collect(),
        NormalContent::Choice(names) => {
            let w = 1.0 / names.len().max(1) as f64;
            names.iter().map(|n| (n.as_str(), w)).collect()
        }
        NormalContent::Star(name) => vec![(name.as_str(), STAR_BRANCH)],
    }
}

/// For each production slot, the set of slots reachable through child
/// edges (used to find edges that participate in a cycle).
fn reachability(adj: &[Vec<usize>]) -> Vec<Vec<bool>> {
    let n = adj.len();
    let mut reach = vec![vec![false; n]; n];
    for (start, row) in reach.iter_mut().enumerate() {
        let mut stack = vec![start];
        while let Some(x) = stack.pop() {
            for &y in &adj[x] {
                if !row[y] {
                    row[y] = true;
                    stack.push(y);
                }
            }
        }
    }
    reach
}

/// Expected per-label element counts (and text-node total) for documents
/// conforming to `dtd`, packaged as a planner [`CostModel`] that carries
/// the DTD's schema graph (root plus element-type edges), so `Auto` plans
/// lower schema-covered runs. `has_index` declares whether execution
/// will have a structural index — the engine's serving path passes
/// `true`.
///
/// Estimates solve `est = root + est · W` by fixed-point iteration over
/// the production list in declaration order, so the result is
/// deterministic for a given DTD (no hash-map iteration order leaks
/// into the numbers). Edges that close a production cycle are damped to
/// [`RECURSE_DECAY`] so the iteration converges to the geometric-series
/// fixpoint instead of unfolding the cycle to a clamp.
pub fn dtd_cost_model(dtd: &Dtd, has_index: bool) -> CostModel {
    let productions = dtd.productions();
    let n = productions.len();
    let slot: HashMap<&str, usize> =
        productions.iter().enumerate().map(|(i, (name, _))| (name.as_str(), i)).collect();
    // Per-slot weighted child edges, with cycle edges damped: an edge
    // i→j is in a cycle iff j reaches i (including i == j self-loops).
    let adj: Vec<Vec<usize>> = productions
        .iter()
        .map(|(_, content)| {
            child_weights(content).iter().filter_map(|(c, _)| slot.get(c).copied()).collect()
        })
        .collect();
    let reach = reachability(&adj);
    let edges: Vec<Vec<(usize, f64)>> = productions
        .iter()
        .enumerate()
        .map(|(i, (_, content))| {
            child_weights(content)
                .iter()
                .filter_map(|&(child, w)| {
                    let j = *slot.get(child)?;
                    let damped = if reach[j][i] { w.min(RECURSE_DECAY) } else { w };
                    Some((j, damped))
                })
                .collect()
        })
        .collect();
    let mut est = vec![0.0f64; n];
    if let Some(&r) = slot.get(dtd.root()) {
        est[r] = 1.0;
    }
    // est_{k+1} = root + est_k · W accumulates expected counts over all
    // root-to-type walks of length ≤ k+1; exact once k reaches the DAG
    // depth, geometrically convergent through damped cycles.
    for _ in 0..MAX_PASSES {
        let mut next = vec![0.0f64; n];
        if let Some(&r) = slot.get(dtd.root()) {
            next[r] = 1.0;
        }
        for (i, out) in edges.iter().enumerate() {
            if est[i] <= 0.0 {
                continue;
            }
            for &(j, w) in out {
                next[j] = (next[j] + est[i] * w).min(MAX_EST);
            }
        }
        let converged =
            next.iter().zip(&est).all(|(a, b)| (a - b).abs() <= TOLERANCE * b.abs().max(1.0));
        est = next;
        if converged {
            break;
        }
    }
    let texts: f64 = productions
        .iter()
        .enumerate()
        .filter(|(_, (_, c))| matches!(c, NormalContent::Str))
        .map(|(i, _)| est[i])
        .sum();
    let labels = productions.iter().enumerate().map(|(i, (name, _))| (name.clone(), est[i]));
    let children = dtd_children(dtd);
    let edges = children.iter().flat_map(|(p, kids)| kids.iter().map(move |c| (p, c)));
    CostModel::from_estimates(labels, texts, has_index)
        .with_schema(LabelGraph::new(dtd.root(), edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxv_dtd::parse_dtd;
    use sxv_xpath::{compile, parse, PlanPolicy};

    fn hospital_dtd() -> Dtd {
        parse_dtd(
            r#"
<!ELEMENT hospital (dept*)>
<!ELEMENT dept (patientInfo, staff)>
<!ELEMENT patientInfo (patient*)>
<!ELEMENT patient (name, wardNo)>
<!ELEMENT staff (doctor | nurse)>
<!ELEMENT doctor (name)>
<!ELEMENT nurse (name)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT wardNo (#PCDATA)>
"#,
            "hospital",
        )
        .unwrap()
    }

    #[test]
    fn estimates_follow_dtd_structure() {
        let cost = dtd_cost_model(&hospital_dtd(), true);
        // Star children multiply, sequence children carry through, choice
        // children split: 4 depts → 16 patients → 16 wardNos, and names
        // come from patients plus (one of) doctor/nurse per dept.
        let plan_patient = compile(&parse("//patient").unwrap(), PlanPolicy::Auto, &cost).summary();
        let plan_missing =
            compile(&parse("//nosuchlabel").unwrap(), PlanPolicy::Auto, &cost).summary();
        assert!(plan_patient.est_rows >= 8, "patients should be plural: {plan_patient:?}");
        assert_eq!(plan_missing.est_rows, 0, "labels outside the DTD cannot occur");
    }

    #[test]
    fn deterministic_across_builds() {
        let a = dtd_cost_model(&hospital_dtd(), true);
        let b = dtd_cost_model(&hospital_dtd(), true);
        assert_eq!(a, b);
    }

    #[test]
    fn recursive_dtd_converges_to_geometric_fixpoint() {
        let dtd = parse_dtd(
            r#"
<!ELEMENT part (part*)>
"#,
            "part",
        )
        .unwrap();
        let cost = dtd_cost_model(&dtd, true);
        let s = compile(&parse("//part").unwrap(), PlanPolicy::Auto, &cost).summary();
        // The self-loop damps to RECURSE_DECAY, so the fixpoint is the
        // geometric series 1/(1 - 0.5) = 2 parts expected — a small
        // finite number, not a divergent unfolding hitting the clamp.
        assert!(s.est_rows >= 1, "{s:?}");
        assert!(s.est_rows <= 4, "recursive estimate must stay near the fixpoint: {s:?}");
    }

    #[test]
    fn cycle_damping_leaves_acyclic_regions_exact() {
        // A recursive region (part) hanging off an acyclic spine: the
        // spine's estimates keep their exact DAG propagation while the
        // cycle converges instead of clamping.
        let dtd = parse_dtd(
            r#"
<!ELEMENT bom (assembly*)>
<!ELEMENT assembly (part)>
<!ELEMENT part (part*, name)>
<!ELEMENT name (#PCDATA)>
"#,
            "bom",
        )
        .unwrap();
        let cost = dtd_cost_model(&dtd, true);
        let assemblies =
            compile(&parse("//assembly").unwrap(), PlanPolicy::Auto, &cost).summary().est_rows;
        assert_eq!(assemblies, 4, "starred spine child keeps the exact STAR_BRANCH estimate");
        let parts = compile(&parse("//part").unwrap(), PlanPolicy::Auto, &cost).summary().est_rows;
        // 4 seed parts, doubled by the damped self-loop fixpoint.
        assert!((4..=16).contains(&parts), "parts estimate should be finite and plural: {parts}");
        let names = compile(&parse("//name").unwrap(), PlanPolicy::Auto, &cost).summary().est_rows;
        assert!(names >= parts, "every part carries a name: {names} < {parts}");
    }
}
