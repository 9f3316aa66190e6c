//! # TIX — Querying Structured Text in an XML Database
//!
//! A from-scratch Rust implementation of the TIX system (Al-Khalifa, Yu &
//! Jagadish, SIGMOD 2003): a bulk algebra over **scored XML trees** that
//! integrates information-retrieval relevance ranking into a database-style
//! pipelined query evaluator, together with the access methods that make it
//! fast — **TermJoin**, **PhraseFinder**, and the stack-based **Pick**.
//!
//! This crate is the facade: it re-exports the layered workspace and adds
//! the high-level [`Database`] convenience wrapper most applications want.
//!
//! | layer | crate | contents |
//! |-------|-------|----------|
//! | XML   | [`xml`] | pull parser, DOM, serializer |
//! | store | [`store`] | region-encoded node store, tag/child-count indexes |
//! | index | [`index`] | positional inverted index |
//! | algebra | [`core`] | scored trees, pattern trees, σ π ⨝ τ ρ |
//! | access methods | [`exec`] | TermJoin, PhraseFinder, Pick, baselines |
//! | language | [`query`] | the paper's extended-XQuery dialect (Fig. 10) |
//! | corpus | [`corpus`] | synthetic INEX-like corpus + paper workloads |
//!
//! ## Quickstart
//!
//! ```
//! use tix::Database;
//!
//! let mut db = Database::new();
//! db.load("docs.xml", "<article><p>rust xml database</p><p>other</p></article>").unwrap();
//! db.build_index();
//!
//! // Score every element by term containment (TermJoin access method):
//! let scored = db.term_join(&["rust", "database"]);
//! assert!(!scored.is_empty());
//! // The article and the first paragraph tie on score; document order
//! // puts the coarser unit first.
//! let best = &scored[0];
//! assert_eq!(db.store().tag_name(best.node), Some("article"));
//! ```

pub use tix_core as core;
pub use tix_corpus as corpus;
pub use tix_exec as exec;
pub use tix_index as index;
pub use tix_query as query;
pub use tix_store as store;
pub use tix_xml as xml;

mod db;
pub mod persist;

pub use db::{normalize_query, Database, ReadKind, SearchRequest, SearchResponse};
pub use persist::PersistError;
