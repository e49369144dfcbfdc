#![warn(missing_docs)]
//! # sxv-core — security views for XML
//!
//! The primary contribution of *Secure XML Querying with Security Views*
//! (Fan, Chan, Garofalakis — SIGMOD 2004), implemented in full:
//!
//! * **Access specifications** (§3.2): [`AccessSpec`] annotates document-DTD
//!   edges with `Y` / `N` / `[q]` ([`Annotation`]), with inheritance,
//!   overriding, content-based XPath qualifiers and `$parameters`.
//! * **Node accessibility** (§3.2, Prop. 3.1): [`accessibility::compute`]
//!   labels every document node accessible/inaccessible (the oracle,
//!   qualifiers decided per node); [`compute_accessibility`] is the
//!   serving pass, answering each conditional annotation with one
//!   compiled plan.
//! * **Security views** (§3.3): [`SecurityView`] = view DTD + hidden XPath
//!   annotations `σ`; [`materialize`] implements the §3.3 semantics (used
//!   for testing only — the query path never materializes).
//! * **Algorithm `derive`** (§3.4, Fig. 5): [`derive_view`] builds a sound
//!   and complete view definition in quadratic time — pruning,
//!   short-cutting and dummy-renaming inaccessible DTD regions, including
//!   recursive ones.
//! * **Algorithm `rewrite`** (§4, Fig. 6): [`rewrite()`](rewrite::rewrite) transforms a view
//!   query into an equivalent document query by dynamic programming over
//!   (sub-query, view-DTD-node) pairs, with `recProc` precomputation for
//!   `//`. Recursive views translate *directly* into Kleene-closure
//!   expressions by state elimination over the cyclic view graph — the
//!   §4.2 height-bounded unfolding ([`rewrite_with_height`]) is kept only
//!   as a differential-testing oracle.
//! * **Algorithm `optimize`** (§5, Fig. 10): [`optimize()`](optimize::optimize) prunes rewritten
//!   queries using DTD structural constraints (co-existence / exclusive /
//!   non-existence) and an approximate containment test based on
//!   qualifier-aware graph simulation over image graphs (Prop. 5.1).
//!   It runs `rewrite`'s dynamic program over the document-DTD graph,
//!   with Fig. 10's rules for unions, attribute tests and qualifiers in
//!   place of Fig. 6's: one DP serves both algorithms.
//! * **The §6 baseline**: [`NaiveBaseline`] annotates document elements
//!   with `accessibility` attributes and rewrites queries by widening `/`
//!   to `//` and appending `[@accessibility='1']`.
//! * [`SecureEngine`] ties it together: answer view queries over the
//!   original document via naive / rewrite / rewrite+optimize strategies,
//!   translating through view and DTD graphs it builds once (each node's
//!   `recProc` table is filled once and shared by every query);
//!   [`PolicyRegistry`] manages multiple user-group policies over one
//!   document (the full Fig. 3 framework).
//!
//! ## A note on Fig. 6 faithfulness
//!
//! The paper's `rewrite` combines step translations as
//! `rw(p1/p2, A) = rw(p1,A)/(∪_v rw(p2,v))`, which can leak when two view
//! types reachable via `p1` share a child label but carry different σ
//! annotations (a `v`-specific continuation gets applied under a different
//! type's image). Our implementation keeps the dynamic program but tables
//! translations *per target type*, so every composed fragment stays
//! context-correct. The two combinations coincide on view DTDs without
//! shared child labels (e.g. every example in the paper); DESIGN.md §7
//! gives a view on which the verbatim merge returns hidden nodes.

pub mod accessibility;
pub mod analysis;
pub mod annotate;
pub mod engine;
pub mod error;
pub mod materialized_baseline;
pub mod naive;
pub mod optimize;
pub mod plancost;
pub mod registry;
pub mod rewrite;
pub mod spec;
pub mod view;

pub use accessibility::{compute_accessibility, Accessibility};
pub use analysis::{audit_view, certify_context, AuditFinding, TypeAccessibility};
pub use annotate::build_access_view;
pub use engine::{
    answer_line, AccessCacheStats, Approach, CacheStats, Planned, QueryReport, SecureEngine,
};
pub use error::{Error, Result};
pub use materialized_baseline::MaterializedBaseline;
pub use naive::NaiveBaseline;
pub use optimize::{approx_contained, optimize, optimize_with_height};
pub use plancost::dtd_cost_model;
pub use registry::PolicyRegistry;
pub use rewrite::{rewrite, rewrite_with_height, ViewGraph};
pub use spec::{parse_spec_rules, RawRule, RawValue};
pub use spec::{AccessSpec, AccessSpecBuilder, Annotation};
pub use sxv_xpath::{
    certify, certify_traced, CertFinding, CertifyContext, ContextSets, PlanCertificate, TraceLine,
    TracedCertificate,
};
pub use sxv_xpath::{is_dummy_label, AccessView};
pub use sxv_xpath::{CompiledQuery, CostModel, PlanPolicy, PlanSummary};
pub use view::def::{SecurityView, ViewContent, ViewItem};
pub use view::derive::derive_view;
pub use view::materialize::{materialize, Materialized};
pub use view::parse::parse_view_text;
