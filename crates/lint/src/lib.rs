#![warn(missing_docs)]
//! # sxv-lint — static analysis for security views
//!
//! A linter that audits the three artifacts of the SIGMOD'04 security-view
//! pipeline *before any document is loaded*:
//!
//! * **access specifications** (`SXV0xx`) — parse errors, annotations on
//!   edges the document DTD does not have, dead annotations (unreachable
//!   or non-productive types), annotations made redundant by §3.2
//!   inheritance, and qualifiers that are statically false (`≡ N`) or
//!   true (`≡ Y`);
//! * **view definitions** (`SXV1xx`) — an independent re-check of any
//!   view (hand-authored or `derive`d) against the specification:
//!   soundness (no σ path reaches a definitely-inaccessible type),
//!   completeness (every accessible type appears in the view), and
//!   dummy-structure leaks (single expansions, distinguishable choices,
//!   cardinality exposure — the Example 1.1 inference channels);
//! * **view queries** (`SXV2xx`) — names missing from the view DTD,
//!   queries provably empty on every conforming document, and union arms
//!   subsumed by their siblings (Prop. 5.1 containment);
//! * **compiled plans** (`SXV3xx`, `sxv lint --plans`) — runs the static
//!   plan certifier ([`sxv_xpath::certify()`]) over every compiled plan:
//!   uncertified plans, emitted types that are not provably accessible,
//!   unguarded probes into hidden regions (the Example 1.1 channel at
//!   plan level), dead operators, and cache/certificate mismatches.
//!
//! The rule registry lives in [`RULES`]; each rule carries its default
//! severity and the paper section it is grounded in. [`LintConfig`]
//! applies `allow`/`warn`/`deny` overrides per code, and [`Report`]
//! renders the surviving findings as text or JSON and computes the
//! `sxv lint` exit code (0 clean, 1 warnings under `--deny-warnings`,
//! 2 errors).

pub mod diagnostics;
pub mod plan_rules;
pub mod query_rules;
pub mod spec_rules;
pub mod view_rules;

pub use diagnostics::{rule, Diagnostic, Level, LintConfig, Report, Rule, Severity, RULES};
pub use plan_rules::lint_plan;
pub use query_rules::lint_query;
pub use spec_rules::{lint_spec, SpecLint};
pub use view_rules::lint_view;

#[cfg(test)]
mod tests {
    use super::*;
    use sxv_core::derive_view;
    use sxv_dtd::parse_dtd;
    use sxv_xpath::parse as parse_xpath;

    /// End-to-end over one fixture: spec lints + view audit + query lints
    /// compose into a single report.
    #[test]
    fn full_pipeline_report() {
        let dtd = parse_dtd(
            "<!ELEMENT r (a, b)><!ELEMENT a (c*)><!ELEMENT b (#PCDATA)><!ELEMENT c (#PCDATA)>",
            "r",
        )
        .unwrap();
        let lint = lint_spec(&dtd, "ann(r, b) = N\nann(r, nosuch) = Y\n", &[]);
        let spec = lint.spec.as_ref().unwrap();
        let view = derive_view(spec).unwrap();
        let mut diags = lint.diagnostics.clone();
        diags.extend(lint_view(spec, &view));
        diags.extend(lint_query(&dtd, &view, &parse_xpath("a/c | b").unwrap()));
        let report = Report::build(diags, &LintConfig::new());
        let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, ["SXV002", "SXV201"], "{}", report.to_text());
        assert_eq!(report.exit_code(false), 2);
    }

    #[test]
    fn clean_pipeline_exits_zero() {
        let dtd = parse_dtd(
            "<!ELEMENT r (a, b)><!ELEMENT a (c*)><!ELEMENT b (#PCDATA)><!ELEMENT c (#PCDATA)>",
            "r",
        )
        .unwrap();
        let lint = lint_spec(&dtd, "ann(r, b) = N\n", &[]);
        let spec = lint.spec.as_ref().unwrap();
        let view = derive_view(spec).unwrap();
        let mut diags = lint.diagnostics.clone();
        diags.extend(lint_view(spec, &view));
        diags.extend(lint_query(&dtd, &view, &parse_xpath("//c").unwrap()));
        let report = Report::build(diags, &LintConfig::new());
        assert!(report.is_clean(), "{}", report.to_text());
        assert_eq!(report.exit_code(true), 0);
    }
}
