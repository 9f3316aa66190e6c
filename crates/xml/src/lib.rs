//! # tix-xml
//!
//! A from-scratch XML parser, DOM, and serializer.
//!
//! This crate is the lowest substrate of the TIX reproduction: everything
//! above it (the node store, the inverted index, the algebra) consumes XML
//! through the types defined here. It deliberately implements the subset of
//! XML 1.0 that document-centric databases care about:
//!
//! * elements with attributes (both quote styles),
//! * character data with the five predefined entities plus numeric
//!   character references,
//! * CDATA sections, comments, and processing instructions,
//! * an optional XML declaration and a skipped-over `<!DOCTYPE ...>`.
//!
//! Namespaces are treated lexically (a tag name may contain `:`), which is
//! how the INEX corpus and the paper's examples use them.
//!
//! The parser comes in two layers:
//!
//! * [`Reader`] — a pull (StAX-style) parser producing [`Event`]s. This is
//!   what the document loader in `tix-store` drives, so a 500 MB corpus
//!   never needs a full DOM in memory.
//! * [`Document`] — a compact owned DOM built on top of the reader, used by
//!   tests, examples, and small documents such as the paper's Figure 1.
//!
//! ```
//! use tix_xml::Document;
//!
//! let doc = Document::parse("<a x='1'>hi <b/> there</a>").unwrap();
//! let root = doc.root_element().unwrap();
//! assert_eq!(doc.tag(root), "a");
//! assert_eq!(doc.attribute(root, "x"), Some("1"));
//! assert_eq!(doc.text_content(root), "hi  there");
//! ```

mod dom;
mod error;
mod escape;
mod reader;
mod writer;

pub use dom::{Document, NodeId, NodeKind};
pub use error::{Error, Result};
pub use escape::{escape_attr, escape_text, unescape};
pub use reader::{Attribute, Event, Reader};
pub use writer::Writer;
