//! # tix-store
//!
//! The XML database substrate of the TIX reproduction.
//!
//! The SIGMOD 2003 paper ran inside the TIMBER native XML database; this
//! crate is our stand-in. It provides:
//!
//! * a **region-encoded node store** — every node carries
//!   `(start, end, level)` where `start` is its preorder number and `end`
//!   the preorder number of its last descendant, so
//!   *ancestor(a, d) ⇔ a.start < d.start ∧ d.start ≤ a.end*. This is the
//!   invariant every stack-based algorithm in `tix-exec` (structural join,
//!   TermJoin, Pick) relies on;
//! * a **tag index** (tag → element list in document order), the access path
//!   for pattern-tree leaves;
//! * **parent pointers** and an O(1) **child-count index** (the auxiliary
//!   index that distinguishes *Enhanced TermJoin* from plain TermJoin in the
//!   paper's Tables 2–4), plus a deliberately navigation-based
//!   [`Store::count_children_by_navigation`] that models the paper's "a data
//!   access to the database is performed and some navigation is needed";
//! * text storage in a per-document byte arena with `alltext()`-style
//!   subtree text extraction (Fig. 9 of the paper).
//!
//! ```
//! use tix_store::{NodeRef, Store};
//!
//! let mut store = Store::new();
//! let doc = store.load_str("articles.xml", "<article><p>search engine</p></article>").unwrap();
//! let root = store.doc(doc).root();
//! let node = NodeRef::new(doc, root);
//! assert_eq!(store.tag_name(node), Some("article"));
//! assert_eq!(store.text_content(node), "search engine");
//! ```

mod document;
pub mod faultio;
mod interner;
mod node;
pub mod persist;
mod snapshot;
mod stats;
mod store;

pub use document::{DocData, LoadError};
pub use interner::{Interner, Symbol};
pub use node::{DocId, NodeIdx, NodeKind, NodeRec, NodeRef};
pub use snapshot::{SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_MIN_VERSION, SNAPSHOT_VERSION};
pub use stats::StoreStats;
pub use store::{FrozenStore, RemoveError, Removed, Store, Tombstones};
