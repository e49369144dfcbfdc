#![warn(missing_docs)]
//! # secure-xml-views
//!
//! A full Rust reproduction of *Secure XML Querying with Security Views*
//! (Wenfei Fan, Chee-Yong Chan, Minos Garofalakis — SIGMOD 2004).
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`xml`] — column-stored XML tree, parser, serializer (substrate);
//! * [`dtd`] — DTD model, parser, validator, DTD graph (substrate);
//! * [`xpath`] — the paper's XPath fragment `C`: AST, parser, evaluator;
//! * [`gen`] — DTD-driven random document generator (IBM XML Generator
//!   analogue used in the paper's evaluation);
//! * [`core`] — the paper's contribution: access specifications (§3.2),
//!   security views and Algorithm `derive` (§3.3–3.4), XPath query
//!   rewriting (`rewrite`, §4), and DTD-aware optimization (`optimize`, §5),
//!   plus the §6 "naive" baseline;
//! * [`lint`] — the `sxv lint` static analyzer: audits specifications,
//!   view definitions (soundness / completeness / dummy leaks) and view
//!   queries before any document is loaded;
//! * [`pack`] — the `.sxvpkg` on-disk package format: flat checksummed
//!   little-endian serialization of a document, its index and per-role
//!   accessibility artifacts, loaded back with bulk word decoding for
//!   millisecond cold starts (`sxv pack` / `--package`);
//! * [`serve`] — the `sxv serve` daemon: a persistent multi-tenant
//!   HTTP/1.1 + JSON query server hosting many `(role, document)`
//!   tenants over one warm engine set, with admission control and
//!   per-tenant observability.
//!
//! ## Quickstart
//!
//! ```
//! use secure_xml_views::prelude::*;
//!
//! // A document DTD and an instance.
//! let dtd = parse_dtd("<!ELEMENT r (a, b)><!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>", "r").unwrap();
//! let doc = parse_xml("<r><a>public</a><b>secret</b></r>").unwrap();
//!
//! // Deny access to `b`.
//! let spec = AccessSpec::builder(&dtd).deny("r", "b").build().unwrap();
//!
//! // Derive the security view and query it without materialization:
//! // rewrite + optimize the view query, then run its plan over `doc`.
//! let view = derive_view(&spec).unwrap();
//! let engine = SecureEngine::new(&spec, &view);
//! let answer = |q| {
//!     let p = parse_xpath(q).unwrap();
//!     engine.answer_report_policy(&doc, None, &p, Approach::Optimize, PlanPolicy::Auto).unwrap().0
//! };
//! assert_eq!(answer("//a").len(), 1);
//! assert!(answer("//b").is_empty()); // `b` is invisible in the view
//! ```

pub use sxv_core as core;
pub use sxv_dtd as dtd;
pub use sxv_gen as gen;
pub use sxv_lint as lint;
pub use sxv_pack as pack;
pub use sxv_serve as serve;
pub use sxv_xml as xml;
pub use sxv_xpath as xpath;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use sxv_core::{
        derive_view, materialize, optimize, rewrite, AccessSpec, Annotation, Approach,
        NaiveBaseline, PlanPolicy, PolicyRegistry, SecureEngine, SecurityView,
    };
    pub use sxv_dtd::{parse_dtd, Dtd};
    pub use sxv_gen::{GenConfig, Generator};
    pub use sxv_xml::{parse as parse_xml, Document, NodeId};
    pub use sxv_xpath::{parse as parse_xpath, Path, Qualifier};
}
