//! # tix-index
//!
//! A positional inverted index over the [`tix_store`] node store.
//!
//! The paper's score-generating access methods (Sec. 5.1) assume "an index
//! look-up for an individual indexed term would at the very least return
//! identifiers of XML elements in which this term occurs ... one can easily
//! return more, such as the number of occurrences ... IR systems often keep
//! information regarding location in document for each occurrence of an
//! indexed term". This crate is that index:
//!
//! * every term occurrence becomes a [`Posting`] carrying the **text node**
//!   it occurs in and its **document-wide word offset** (what PhraseFinder
//!   uses for adjacency checks and the complex scoring function uses for
//!   term-distance);
//! * posting lists are kept in global document order `(doc, node, offset)`,
//!   the order the stack-based merge in TermJoin requires;
//! * per-term statistics (collection frequency, document frequency, node
//!   frequency) support tf·idf-style scoring and let the workload generator
//!   verify planted frequencies.
//!
//! ```
//! use tix_store::Store;
//! use tix_index::InvertedIndex;
//!
//! let mut store = Store::new();
//! store.load_str("d.xml", "<a><p>search engine basics</p><p>engine</p></a>").unwrap();
//! let index = InvertedIndex::build(&store);
//! assert_eq!(index.collection_frequency("engine"), 2);
//! assert_eq!(index.postings("search").len(), 1);
//! ```

mod build;
mod parallel;
mod postings;
mod reader;
mod snapshot;
mod tokenize;

pub use build::InvertedIndex;
pub use postings::{Posting, PostingList, TermId, TermStats};
pub use reader::{BlockSummary, IndexReader, TermSummary};
pub use snapshot::{IndexSnapshotError, INDEX_SNAPSHOT_MAGIC, INDEX_SNAPSHOT_VERSION};
pub use tokenize::{terms, tokenize, Token};
