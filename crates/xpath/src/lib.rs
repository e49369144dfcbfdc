#![warn(missing_docs)]
//! # sxv-xpath — the paper's XPath fragment `C`
//!
//! §2 of *Secure XML Querying with Security Views* (SIGMOD 2004) defines:
//!
//! ```text
//! p ::= ε | l | * | p/p | //p | p ∪ p | p[q]
//! q ::= p | p = c | q ∧ q | q ∨ q | ¬q
//! ```
//!
//! plus the special query `∅` returning the empty set. This crate provides
//! the AST ([`Path`], [`Qualifier`]) with simplifying smart constructors
//! (`∅ ∪ p ≡ p`, `p/∅ ≡ ∅`, …), a parser for a concrete text syntax
//! ([`parse()`](parser::parse)), a pretty-printer (`Display`), and a
//! set-at-a-time evaluator ([`eval()`](eval::eval), [`eval_at_root`],
//! [`eval_at_document`]).
//!
//! Two small extensions beyond the paper's grammar, both needed by the
//! paper itself:
//!
//! * attribute tests `[@a]` / `[@a='v']` in qualifiers — the §6 "naive"
//!   baseline appends `[@accessibility="1"]` to queries;
//! * an absolute-path marker (leading `/`) — the §6 rewritten queries are
//!   written absolutely (`/adex/head/buyer-info`).

pub mod access;
pub mod ast;
pub mod certify;
pub mod display;
pub mod error;
pub mod eval;
mod lowering;
pub mod parser;
pub mod plan;
pub mod simplify;
pub mod subq;

pub use access::{is_dummy_label, AccessView, AccessViewParts, PackedAccessViewParts};
pub use ast::{Path, Qualifier};
pub use certify::{
    certify, certify_ops, AbsState, CertFinding, CertifyContext, PlanCertificate, TraceLine,
};
pub use error::{Error, Result};
pub use eval::{
    eval, eval_at_document, eval_at_root, eval_at_root_indexed, eval_at_root_indexed_with_stats,
    eval_at_root_with_stats, eval_qualifier, eval_qualifier_indexed, eval_set_counting,
    eval_set_counting_indexed, EvalStats,
};
pub use parser::parse;
pub use plan::{
    compile, compile_annotate, AccessFilter, AxisTest, CompiledQuery, CostModel, FusedScan,
    PlanNode, PlanOp, PlanPolicy, PlanSummary, QualPlan, SchemaSlice, EQUIVALENCE_QUERIES,
};
pub use simplify::{factored_union, simplify};
pub use subq::{postorder, SubExpr};
