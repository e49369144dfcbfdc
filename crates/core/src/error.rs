//! Error type for the security-view machinery.

use std::fmt;

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A specification annotation refers to an edge `(A, B)` that does not
    /// exist in the document DTD.
    UnknownEdge {
        /// Parent element type of the annotated edge.
        parent: String,
        /// Child element type (or `@attribute`) of the annotated edge.
        child: String,
    },
    /// A specification qualifier still contains an unbound `$parameter`
    /// when it is needed for evaluation.
    UnboundParameter(String),
    /// A specification file could not be parsed.
    SpecParse {
        /// 1-based line number of the offending specification line.
        line: usize,
        /// What failed to parse.
        message: String,
    },
    /// View materialization aborted (§3.3 semantics): the extracted data
    /// did not fit the view DTD production.
    MaterializeAbort {
        /// Rendering of the view node being expanded.
        node: String,
        /// Which §3.3 case failed and how.
        message: String,
    },
    /// No sound and complete security view exists for the specification
    /// (Theorem 3.2 is an if-and-only-if).
    NoView(String),
    /// The static view audit found a soundness/completeness violation
    /// (see [`crate::analysis::audit_view`]).
    AuditFailed(String),
    /// A view-definition file could not be parsed.
    ViewParse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What failed to parse.
        message: String,
    },
    /// The view DTD cannot produce an instance within the given height,
    /// so unfolding (§4.2) is impossible.
    UnfoldImpossible {
        /// The height bound that admitted no instance.
        height: usize,
    },
    /// Strict verification mode refused to execute a plan whose static
    /// certificate (see [`sxv_xpath::certify()`]) reported errors.
    Uncertified {
        /// The user query whose plan failed certification.
        query: String,
        /// Semicolon-joined descriptions of the certificate's error findings.
        findings: String,
    },
    /// Wrapped DTD-layer error.
    Dtd(sxv_dtd::Error),
    /// Wrapped XPath-layer error.
    XPath(sxv_xpath::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownEdge { parent, child } => {
                write!(f, "annotation on unknown DTD edge ({parent}, {child})")
            }
            Error::UnboundParameter(name) => write!(f, "unbound specification parameter ${name}"),
            Error::SpecParse { line, message } => {
                write!(f, "specification parse error on line {line}: {message}")
            }
            Error::MaterializeAbort { node, message } => {
                write!(f, "view materialization aborted at {node}: {message}")
            }
            Error::NoView(why) => write!(f, "no sound and complete security view exists: {why}"),
            Error::AuditFailed(findings) => {
                write!(f, "view audit failed: {findings}")
            }
            Error::ViewParse { line, message } => {
                write!(f, "view definition parse error on line {line}: {message}")
            }
            Error::UnfoldImpossible { height } => {
                write!(f, "view DTD has no instance of height ≤ {height}; cannot unfold")
            }
            Error::Uncertified { query, findings } => {
                write!(f, "plan for `{query}` failed static certification: {findings}")
            }
            Error::Dtd(e) => write!(f, "{e}"),
            Error::XPath(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Dtd(e) => Some(e),
            Error::XPath(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sxv_dtd::Error> for Error {
    fn from(e: sxv_dtd::Error) -> Self {
        Error::Dtd(e)
    }
}

impl From<sxv_xpath::Error> for Error {
    fn from(e: sxv_xpath::Error) -> Self {
        Error::XPath(e)
    }
}

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(Error::UnknownEdge { parent: "a".into(), child: "b".into() }
            .to_string()
            .contains("(a, b)"));
        assert!(Error::UnboundParameter("wardNo".into()).to_string().contains("$wardNo"));
        assert!(Error::UnfoldImpossible { height: 3 }.to_string().contains("≤ 3"));
        assert!(Error::Uncertified { query: "//salary".into(), findings: "emits salary".into() }
            .to_string()
            .contains("failed static certification"));
    }

    #[test]
    fn from_wrapped_errors() {
        let d: Error = sxv_dtd::Error::MissingRoot("r".into()).into();
        assert!(matches!(d, Error::Dtd(_)));
        let x: Error = sxv_xpath::Error::Parse { offset: 0, message: "m".into() }.into();
        assert!(matches!(x, Error::XPath(_)));
    }
}
