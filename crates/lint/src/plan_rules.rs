//! `SXV3xx` — plan-level rules: run the static certifier
//! ([`sxv_xpath::certify()`]) over a compiled plan and turn its findings
//! into diagnostics. Unlike the `SXV0xx`–`SXV2xx` families, these rules
//! audit the *output of the compiler*, so they catch bugs anywhere in
//! the translate → optimize → plan pipeline (a rewrite that forgets a σ
//! qualifier, an optimizer pass that drops a guard, a hand-authored
//! plan that filters on a hidden label).

use crate::diagnostics::Diagnostic;
use sxv_xpath::{certify, CertFinding, CertifyContext, CompiledQuery, PlanCertificate};

/// Certify `plan` against `ctx` and report the findings as `SXV3xx`
/// diagnostics, labelled with `label` (typically
/// `"query (approach, policy)"`).
///
/// When `given` is a certificate previously cached beside the plan (by
/// the engine's plan cache), it is compared against the fresh
/// certification; any disagreement is an `SXV305` error — it means the
/// cached verdict no longer describes the plan being served.
pub fn lint_plan(
    label: &str,
    plan: &CompiledQuery,
    ctx: &CertifyContext,
    given: Option<&PlanCertificate>,
) -> Vec<Diagnostic> {
    let fresh = certify(plan, ctx);
    let mut diags = Vec::new();
    if !fresh.certified() {
        let summary: Vec<String> = fresh.errors().map(CertFinding::describe).collect();
        diags.push(
            Diagnostic::new(
                "SXV301",
                label,
                format!(
                    "plan is not certified: {} error finding(s) over {} op(s)",
                    summary.len(),
                    fresh.ops_checked
                ),
            )
            .with_suggestion("run `sxv explain --verify` on this query to see the trace"),
        );
    }
    for finding in &fresh.findings {
        diags.push(match finding {
            CertFinding::EmittedInaccessible { .. } => {
                Diagnostic::new("SXV303", label, finding.describe()).with_suggestion(
                    "the translation must confine results to accessible or dummy-visible types",
                )
            }
            CertFinding::UnguardedProbe { .. } => {
                Diagnostic::new("SXV302", label, finding.describe())
                    .with_suggestion("guard the probe with an accessibility bitmap filter")
            }
            CertFinding::DeadOp { .. } => Diagnostic::new("SXV304", label, finding.describe())
                .with_suggestion("simplify the query or plan to drop the unreachable suffix"),
        });
    }
    if let Some(cached) = given {
        if cached != &fresh {
            diags.push(
                Diagnostic::new(
                    "SXV305",
                    label,
                    "cached certificate disagrees with a fresh certification of the same plan",
                )
                .with_suggestion("evict the plan cache entry and re-certify"),
            );
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxv_xpath::{compile, parse as parse_xpath, CostModel, PlanPolicy};

    fn ctx() -> CertifyContext {
        let mut ctx = CertifyContext { root: "r".into(), ..Default::default() };
        for (parent, kids) in
            [("r", vec!["a", "b"]), ("a", vec!["c"]), ("b", vec![]), ("c", vec![])]
        {
            ctx.children.insert(parent.into(), kids.into_iter().map(String::from).collect());
        }
        ctx.text_types.insert("b".into());
        ctx.text_types.insert("c".into());
        for t in ["r", "a", "c"] {
            ctx.accessible.insert(t.into());
        }
        ctx.inaccessible.insert("b".into());
        ctx.hideable.insert("b".into());
        ctx
    }

    fn plan_for(q: &str) -> CompiledQuery {
        compile(&parse_xpath(q).unwrap(), PlanPolicy::Auto, &CostModel::uninformed())
    }

    #[test]
    fn certified_plan_is_clean() {
        let plan = plan_for("//c");
        assert!(lint_plan("//c", &plan, &ctx(), None).is_empty());
    }

    #[test]
    fn leaky_plan_gets_301_and_303() {
        let plan = plan_for("//b");
        let diags = lint_plan("//b (rewrite, auto)", &plan, &ctx(), None);
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"SXV301"), "{codes:?}");
        assert!(codes.contains(&"SXV303"), "{codes:?}");
        assert!(diags.iter().all(|d| d.subject == "//b (rewrite, auto)"));
    }

    /// A recursive context (part → sub → part), as a recursive security
    /// view induces: closure plans certify through the fixpoint
    /// transfer, and a closure body emitting a hidden type is caught.
    fn recursive_ctx() -> CertifyContext {
        let mut ctx = CertifyContext { root: "part".into(), ..Default::default() };
        for (parent, kids) in [
            ("part", vec!["part-id", "serial", "sub"]),
            ("sub", vec!["part"]),
            ("part-id", vec![]),
            ("serial", vec![]),
        ] {
            ctx.children.insert(parent.into(), kids.into_iter().map(String::from).collect());
        }
        ctx.text_types.insert("part-id".into());
        ctx.text_types.insert("serial".into());
        for t in ["part", "sub", "part-id"] {
            ctx.accessible.insert(t.into());
        }
        ctx.inaccessible.insert("serial".into());
        ctx.hideable.insert("serial".into());
        ctx
    }

    #[test]
    fn closure_plan_certifies_clean() {
        use sxv_xpath::Path;
        // (sub/part)*/part-id — the shape the rewriter emits for a
        // recursive view; the certifier's fixpoint transfer must land on
        // a clean certificate, no unfolding anywhere.
        let q = Path::step(
            Path::closure(Path::step(Path::label("sub"), Path::label("part"))),
            Path::label("part-id"),
        );
        let plan = compile(&q, PlanPolicy::Auto, &CostModel::uninformed());
        let diags = lint_plan("closure", &plan, &recursive_ctx(), None);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn closure_plan_emitting_hidden_type_gets_301_and_303() {
        use sxv_xpath::Path;
        let q = Path::step(
            Path::closure(Path::step(Path::label("sub"), Path::label("part"))),
            Path::label("serial"),
        );
        let plan = compile(&q, PlanPolicy::Auto, &CostModel::uninformed());
        let codes: Vec<&str> = lint_plan("closure-leak", &plan, &recursive_ctx(), None)
            .iter()
            .map(|d| d.code)
            .collect();
        assert!(codes.contains(&"SXV301"), "{codes:?}");
        assert!(codes.contains(&"SXV303"), "{codes:?}");
    }

    #[test]
    fn matching_cached_certificate_is_silent_and_mismatch_is_305() {
        let plan = plan_for("//c");
        let context = ctx();
        let fresh = certify(&plan, &context);
        assert!(lint_plan("//c", &plan, &context, Some(&fresh)).is_empty());
        // A certificate from a *different* plan must trip the mismatch.
        let stale = certify(&plan_for("//a"), &context);
        let diags = lint_plan("//c", &plan, &context, Some(&stale));
        assert_eq!(diags.iter().map(|d| d.code).collect::<Vec<_>>(), ["SXV305"]);
    }
}
