//! Multi-policy management — the full framework of Fig. 3.
//!
//! The paper's motivating setting is *multiple* user groups querying the
//! same document under different access policies, each with its own
//! automatically derived security view. [`PolicyRegistry`] packages that:
//! register one [`AccessSpec`] per user group, and the registry derives,
//! audits and stores the view and exposes the per-group view DTD.
//! Queries are answered by a [`crate::SecureEngine`] built over a group's
//! [`PolicyRegistry::spec`] and [`PolicyRegistry::view`], all against a
//! single shared document, with no view ever materialized.

use crate::analysis::audit_view;
use crate::error::{Error, Result};
use crate::spec::AccessSpec;
use crate::view::def::SecurityView;
use crate::view::derive::derive_view;
use std::collections::BTreeMap;

/// One registered user-group policy.
struct Policy {
    spec: AccessSpec,
    view: SecurityView,
}

/// A set of named access policies over one document DTD.
pub struct PolicyRegistry {
    policies: BTreeMap<String, Policy>,
}

impl PolicyRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        PolicyRegistry { policies: BTreeMap::new() }
    }

    /// Register a user group's policy; the security view is derived
    /// immediately (Fig. 5), re-checked by the static audit
    /// ([`audit_view`] — defense in depth; `derive` output always
    /// passes), and cached.
    pub fn register(&mut self, group: impl Into<String>, spec: AccessSpec) -> Result<()> {
        let view = derive_view(&spec)?;
        self.register_view(group, spec, view)
    }

    /// Register a policy with an explicitly supplied (e.g. hand-authored)
    /// view definition. The static audit gates registration: views with
    /// soundness or completeness violations are rejected, so a bad view
    /// fails at load time rather than at query time.
    pub fn register_view(
        &mut self,
        group: impl Into<String>,
        spec: AccessSpec,
        view: SecurityView,
    ) -> Result<()> {
        let errors: Vec<String> = audit_view(&spec, &view)
            .iter()
            .filter(|f| f.is_error())
            .map(|f| f.to_string())
            .collect();
        if !errors.is_empty() {
            return Err(Error::AuditFailed(errors.join("; ")));
        }
        self.policies.insert(group.into(), Policy { spec, view });
        Ok(())
    }

    /// Registered group names.
    pub fn groups(&self) -> impl Iterator<Item = &str> {
        self.policies.keys().map(String::as_str)
    }

    /// The view DTD text exposed to a group (σ stays hidden).
    pub fn exposed_view_dtd(&self, group: &str) -> Result<String> {
        Ok(self.policy(group)?.view.view_dtd_to_string())
    }

    /// The derived security view of a group (for inspection).
    pub fn view(&self, group: &str) -> Result<&SecurityView> {
        Ok(&self.policy(group)?.view)
    }

    /// The registered access specification of a group. Together with
    /// [`PolicyRegistry::view`], this is how callers answer a group's
    /// queries: build one [`crate::SecureEngine`] per group borrowing
    /// from the registry.
    pub fn spec(&self, group: &str) -> Result<&AccessSpec> {
        Ok(&self.policy(group)?.spec)
    }

    fn policy(&self, group: &str) -> Result<&Policy> {
        self.policies
            .get(group)
            .ok_or_else(|| Error::NoView(format!("no policy registered for group {group:?}")))
    }
}

impl Default for PolicyRegistry {
    fn default() -> Self {
        PolicyRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Approach, SecureEngine};
    use sxv_dtd::parse_dtd;
    use sxv_xml::{parse as parse_xml, Document, NodeId};
    use sxv_xpath::{parse, Path, PlanPolicy};

    /// Answer a group's query through an engine over its registered
    /// spec and view.
    fn answer(reg: &PolicyRegistry, group: &str, doc: &Document, p: &Path) -> Result<Vec<NodeId>> {
        let engine = SecureEngine::new(reg.spec(group)?, reg.view(group)?);
        let (answer, _) =
            engine.answer_report_policy(doc, None, p, Approach::Optimize, PlanPolicy::ForceWalk)?;
        Ok(answer)
    }

    fn dtd() -> sxv_dtd::Dtd {
        parse_dtd(
            "<!ELEMENT r (pub, sec, fin)>\
             <!ELEMENT pub (#PCDATA)><!ELEMENT sec (#PCDATA)><!ELEMENT fin (#PCDATA)>",
            "r",
        )
        .unwrap()
    }

    #[test]
    fn groups_get_disjoint_slices() {
        let dtd = dtd();
        let doc = parse_xml("<r><pub>p</pub><sec>s</sec><fin>f</fin></r>").unwrap();
        let mut reg = PolicyRegistry::new();
        reg.register(
            "public",
            AccessSpec::builder(&dtd).deny("r", "sec").deny("r", "fin").build().unwrap(),
        )
        .unwrap();
        reg.register("finance", AccessSpec::builder(&dtd).deny("r", "sec").build().unwrap())
            .unwrap();
        assert_eq!(reg.groups().collect::<Vec<_>>(), ["finance", "public"]);

        let q = parse("*").unwrap();
        let public = answer(&reg, "public", &doc, &q).unwrap();
        let finance = answer(&reg, "finance", &doc, &q).unwrap();
        assert_eq!(public.len(), 1);
        assert_eq!(finance.len(), 2);
        // View DTDs differ per group.
        assert!(!reg.exposed_view_dtd("public").unwrap().contains("fin"));
        assert!(reg.exposed_view_dtd("finance").unwrap().contains("fin"));
    }

    #[test]
    fn unknown_group_errors() {
        let reg = PolicyRegistry::new();
        assert!(reg.exposed_view_dtd("ghost").is_err());
        let doc = parse_xml("<r/>").unwrap();
        assert!(answer(&reg, "ghost", &doc, &Path::Wildcard).is_err());
    }

    #[test]
    fn leaky_hand_authored_view_rejected_at_load() {
        use crate::view::def::{ViewContent, ViewItem};
        let dtd = dtd();
        let spec = AccessSpec::builder(&dtd).deny("r", "sec").build().unwrap();
        // A hand-written view that exposes the denied `sec` type.
        let mut sigma = std::collections::BTreeMap::new();
        for child in ["pub", "sec", "fin"] {
            sigma.insert(("r".to_string(), child.to_string()), parse(child).unwrap());
        }
        let view = crate::view::def::SecurityView::new(
            "r".into(),
            vec![
                (
                    "r".into(),
                    ViewContent::Seq(vec![
                        ViewItem::One("pub".into()),
                        ViewItem::One("sec".into()),
                        ViewItem::One("fin".into()),
                    ]),
                ),
                ("pub".into(), ViewContent::Str),
                ("sec".into(), ViewContent::Str),
                ("fin".into(), ViewContent::Str),
            ],
            sigma,
        );
        let mut reg = PolicyRegistry::new();
        let err = reg.register_view("leaky", spec.clone(), view).unwrap_err();
        assert!(matches!(err, Error::AuditFailed(_)), "{err:?}");
        assert!(err.to_string().contains("sec"), "{err}");
        // The derived view for the same spec is accepted.
        let derived = derive_view(&spec).unwrap();
        reg.register_view("ok", spec, derived).unwrap();
    }

    #[test]
    fn reregistering_replaces_policy() {
        let dtd = dtd();
        let doc = parse_xml("<r><pub>p</pub><sec>s</sec><fin>f</fin></r>").unwrap();
        let mut reg = PolicyRegistry::new();
        reg.register("g", AccessSpec::builder(&dtd).deny("r", "sec").build().unwrap()).unwrap();
        assert_eq!(answer(&reg, "g", &doc, &parse("*").unwrap()).unwrap().len(), 2);
        reg.register("g", AccessSpec::builder(&dtd).build().unwrap()).unwrap();
        assert_eq!(answer(&reg, "g", &doc, &parse("*").unwrap()).unwrap().len(), 3);
    }
}
