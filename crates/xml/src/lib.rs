#![warn(missing_docs)]
//! # sxv-xml — XML tree substrate
//!
//! An arena-based XML document model with a hand-written parser and
//! serializer, built for the `secure-xml-views` reproduction of
//! *Secure XML Querying with Security Views* (SIGMOD 2004).
//!
//! The data model follows §2 of the paper: a document is an ordered tree
//! whose nodes are either *elements* (labelled with an element type) or
//! *text nodes* (carrying PCDATA, always leaves). Attributes are supported
//! minimally because the paper's "naive" baseline (§6) stores accessibility
//! flags in an attribute.
//!
//! ## Design notes
//!
//! * Nodes live in a flat arena ([`Document`]) and are addressed by
//!   [`NodeId`] indices, so node sets can be kept as sorted `Vec<NodeId>` /
//!   `BTreeSet<NodeId>` where ordering coincides with *document order*
//!   (pre-order), because the parser and all construction APIs allocate
//!   nodes in pre-order. [`Document::in_document_order`] verifies this
//!   invariant and is exercised by tests.
//! * No reference counting, no interior mutability: mutation goes through
//!   `&mut Document`.

pub mod bitmap;
pub mod column;
pub mod error;
pub mod index;
pub mod iter;
pub mod json;
pub mod label_graph;
pub mod node;
pub mod parser;
pub mod serializer;

pub use bitmap::NodeBitmap;
pub use column::{Bytes, Str, U32s};
pub use error::{Error, Result};
pub use index::{DocIndex, DocIndexParts, PackedDocIndexParts};
pub use iter::{Ancestors, Children, Descendants};
pub use json::json_escape;
pub use label_graph::LabelGraph;
pub use node::{
    DocId, Document, DocumentParts, LabelId, Node, NodeId, NodeKind, PackedDocumentParts,
};
pub use parser::parse;
pub use serializer::{
    to_string, to_string_pretty, write_document, write_escaped_attr, write_escaped_text,
};
