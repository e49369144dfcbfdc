//! Error type for XML parsing and tree manipulation.

use std::fmt;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The parser met unexpected input. Carries a byte offset and message.
    Parse {
        /// Byte offset into the input where parsing failed.
        offset: usize,
        /// Human-readable description of what was expected.
        message: String,
    },
    /// A tree operation was applied to a node of the wrong kind
    /// (e.g. asking for the label of a text node).
    WrongNodeKind {
        /// The node kind the operation needed.
        expected: &'static str,
        /// The node kind actually found.
        found: &'static str,
    },
    /// The document has no root element (empty document).
    NoRoot,
    /// Packed-column construction (loading a persisted package) was
    /// handed inconsistent arrays: lengths that disagree, a duplicate
    /// label or an out-of-bounds root.
    MalformedParts(String),
    /// A [`DocumentBuilder`](crate::DocumentBuilder) call the builder
    /// cannot honour: a second root, or an attribute set on a node other
    /// than the last one appended.
    Misuse(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { offset, message } => {
                write!(f, "XML parse error at byte {offset}: {message}")
            }
            Error::WrongNodeKind { expected, found } => {
                write!(f, "wrong node kind: expected {expected}, found {found}")
            }
            Error::NoRoot => write!(f, "document has no root element"),
            Error::MalformedParts(msg) => write!(f, "malformed document parts: {msg}"),
            Error::Misuse(msg) => write!(f, "document builder misuse: {msg}"),
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
    fn display_parse_error() {
        let e = Error::Parse { offset: 12, message: "expected '>'".into() };
        assert_eq!(e.to_string(), "XML parse error at byte 12: expected '>'");
    }

    #[test]
    fn display_wrong_kind() {
        let e = Error::WrongNodeKind { expected: "element", found: "text" };
        assert_eq!(e.to_string(), "wrong node kind: expected element, found text");
    }

    #[test]
    fn display_no_root() {
        assert_eq!(Error::NoRoot.to_string(), "document has no root element");
    }
}
