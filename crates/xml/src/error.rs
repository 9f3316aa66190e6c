//! Parse errors with byte-offset context.

use std::fmt;

/// A convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// An XML parse or serialization error.
///
/// Every parse error carries the byte offset at which it was detected so
/// corpus-loading failures in multi-hundred-megabyte inputs can be located.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    kind: ErrorKind,
    /// Byte offset into the input at which the error was detected.
    offset: usize,
}

/// The category of an [`Error`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorKind {
    /// Input ended in the middle of a construct.
    UnexpectedEof(&'static str),
    /// A character that cannot begin or continue the current construct.
    UnexpectedChar { expected: &'static str, found: char },
    /// `</b>` closed an element opened as `<a>`.
    MismatchedClose { open: String, close: String },
    /// A close tag with no matching open tag.
    UnbalancedClose(String),
    /// Content found after the document element closed.
    TrailingContent,
    /// The document contains no root element.
    NoRootElement,
    /// An entity reference that is not one of the predefined five and not a
    /// character reference.
    UnknownEntity(String),
    /// A malformed numeric character reference, e.g. `&#x110000;`.
    BadCharRef(String),
    /// An attribute appeared twice on the same element.
    DuplicateAttribute(String),
    /// A name (tag or attribute) was empty or started with an invalid char.
    InvalidName,
}

impl Error {
    pub(crate) fn new(kind: ErrorKind, offset: usize) -> Self {
        Error { kind, offset }
    }

    /// The category of the error.
    pub fn kind(&self) -> &ErrorKind {
        &self.kind
    }

    /// Byte offset into the input at which the error was detected.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ErrorKind::UnexpectedEof(what) => {
                write!(f, "unexpected end of input while parsing {what}")
            }
            ErrorKind::UnexpectedChar { expected, found } => {
                write!(f, "expected {expected}, found {found:?}")
            }
            ErrorKind::MismatchedClose { open, close } => {
                write!(f, "element <{open}> closed by </{close}>")
            }
            ErrorKind::UnbalancedClose(tag) => write!(f, "close tag </{tag}> has no open tag"),
            ErrorKind::TrailingContent => write!(f, "content after document element"),
            ErrorKind::NoRootElement => write!(f, "document has no root element"),
            ErrorKind::UnknownEntity(name) => write!(f, "unknown entity &{name};"),
            ErrorKind::BadCharRef(text) => write!(f, "bad character reference &#{text};"),
            ErrorKind::DuplicateAttribute(name) => write!(f, "duplicate attribute {name:?}"),
            ErrorKind::InvalidName => write!(f, "invalid XML name"),
        }?;
        write!(f, " at byte {}", self.offset)
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_offset() {
        let err = Error::new(ErrorKind::TrailingContent, 17);
        assert!(err.to_string().contains("at byte 17"));
    }
}
