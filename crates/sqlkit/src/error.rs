//! Error types for lexing and parsing.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// What kind of failure an [`Error`] is, for callers that answer the two
/// differently (an HTTP front end refuses over-deep input as a malformed
/// request before any engine sees it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The text is not in the dialect.
    Syntax,
    /// The text nests deeper than [`crate::parser::MAX_NESTING`].
    NestingTooDeep,
}

/// A lexing or parsing failure, carrying the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Byte offset into the source text where the error was detected.
    pub offset: usize,
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Which kind of failure this is.
    pub kind: ErrorKind,
}

impl Error {
    /// Create a new syntax error at `offset` with the given message.
    pub fn new(offset: usize, message: impl Into<String>) -> Self {
        Self { offset, message: message.into(), kind: ErrorKind::Syntax }
    }

    /// The nesting budget ran out at `offset`.
    pub fn nesting_too_deep(offset: usize, limit: usize) -> Self {
        Self {
            offset,
            message: format!("nesting deeper than {limit} levels"),
            kind: ErrorKind::NestingTooDeep,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_offset_and_message() {
        let e = Error::new(7, "unexpected token");
        assert_eq!(e.to_string(), "SQL error at byte 7: unexpected token");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::new(1, "x"), Error::new(1, "x"));
        assert_ne!(Error::new(1, "x"), Error::new(2, "x"));
    }
}
