//! Error type for DTD parsing, normalization and validation.

use std::fmt;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// DTD text could not be parsed.
    Parse {
        /// Byte offset into the input where parsing failed.
        offset: usize,
        /// Human-readable description of what was expected.
        message: String,
    },
    /// The DTD references an element type that is never declared.
    UndeclaredElement {
        /// The declaration containing the dangling reference.
        referenced_by: String,
        /// The undeclared element-type name.
        name: String,
    },
    /// An element type is declared more than once.
    DuplicateDeclaration(String),
    /// The designated root type has no declaration.
    MissingRoot(String),
    /// A document failed validation against the DTD.
    Invalid {
        /// Rendering of the offending node.
        node: String,
        /// What failed to conform.
        message: String,
    },
    /// Content model uses a feature outside the supported subset
    /// (mixed content, `ANY`).
    Unsupported(String),
    /// A content model nests groups deeper than
    /// [`MAX_DEPTH`](crate::parser::MAX_DEPTH).
    TooDeep {
        /// Byte offset into the input where the limit was crossed.
        offset: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { offset, message } => {
                write!(f, "DTD parse error at byte {offset}: {message}")
            }
            Error::UndeclaredElement { referenced_by, name } => {
                write!(f, "element type {name:?} referenced by {referenced_by:?} is not declared")
            }
            Error::DuplicateDeclaration(name) => {
                write!(f, "element type {name:?} declared more than once")
            }
            Error::MissingRoot(name) => write!(f, "root element type {name:?} is not declared"),
            Error::Invalid { node, message } => {
                write!(f, "document does not conform to DTD at {node}: {message}")
            }
            Error::Unsupported(what) => write!(f, "unsupported DTD feature: {what}"),
            Error::TooDeep { offset } => write!(
                f,
                "DTD content model nests deeper than {} groups (at byte {offset})",
                crate::parser::MAX_DEPTH
            ),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(Error::Parse { offset: 1, message: "x".into() }.to_string().contains("byte 1"));
        assert!(Error::MissingRoot("r".into()).to_string().contains("\"r\""));
        assert!(Error::DuplicateDeclaration("a".into()).to_string().contains("more than once"));
        assert!(Error::Unsupported("ANY".into()).to_string().contains("ANY"));
        assert_eq!(
            Error::TooDeep { offset: 7 }.to_string(),
            "DTD content model nests deeper than 128 groups (at byte 7)"
        );
    }
}
