//! Error type for XPath parsing and evaluation.

use std::fmt;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Query text could not be parsed.
    Parse {
        /// Byte offset into the query where parsing failed.
        offset: usize,
        /// Human-readable description of what was expected.
        message: String,
    },
    /// Query text nests deeper than [`crate::parser::MAX_DEPTH`].
    TooDeep {
        /// Byte offset into the query where the limit was crossed.
        offset: usize,
    },
    /// Packed-column construction (loading a persisted package) was
    /// handed inconsistent arrays: lengths that disagree, unsorted or
    /// out-of-bounds dummy sources, or an out-of-bounds root.
    MalformedParts(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { offset, message } => {
                write!(f, "XPath parse error at byte {offset}: {message}")
            }
            Error::TooDeep { offset } => write!(
                f,
                "XPath query nests deeper than {} levels (at byte {offset})",
                crate::parser::MAX_DEPTH
            ),
            Error::MalformedParts(msg) => write!(f, "malformed access view parts: {msg}"),
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
    fn display() {
        let e = Error::Parse { offset: 4, message: "expected ']'".into() };
        assert_eq!(e.to_string(), "XPath parse error at byte 4: expected ']'");
        let e = Error::TooDeep { offset: 7 };
        assert_eq!(e.to_string(), "XPath query nests deeper than 128 levels (at byte 7)");
    }
}
