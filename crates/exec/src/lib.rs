//! # tix-exec
//!
//! The physical access methods of the TIX paper (Sec. 5): how IR-style
//! scoring is evaluated *fast* inside a set-oriented, pipelined query
//! engine.
//!
//! ## Score-generating methods (Sec. 5.1)
//!
//! * [`termjoin::TermJoin`] — the paper's headline contribution: a
//!   stack-based single merge pass over per-term posting lists that scores
//!   **every ancestor element** by the term occurrences in its subtree
//!   (Fig. 11). Works with a [`termjoin::SimpleScorer`] or a
//!   [`termjoin::ComplexScorer`]; the latter's child-count access is what
//!   the *Enhanced TermJoin* variant accelerates through the store's
//!   child-count index ([`termjoin::ChildCountMode`]).
//! * [`phrase::phrase_finder`] — verifies phrase adjacency with word
//!   offsets *during* posting intersection (Sec. 5.1.2).
//!
//! ## Baselines (Sec. 6)
//!
//! Referee code: the paper measures TermJoin and PhraseFinder against
//! these, and so do this crate's differential suites (TermJoin ≡ Comp1
//! ≡ Comp2 ≡ Generalized Meet, PhraseFinder ≡ Comp3) and the `reproduce`
//! bench (Tables 1–5). The query planner never chooses them.
//!
//! * [`composite::comp1`] — the same functionality composed from standard
//!   operators: per-term index scan → ancestor expansion → sort-group →
//!   union (the paper's `Comp1`).
//! * [`composite::comp2`] — structural joins pushed down: per term, a
//!   stack-tree structural join of the **full element list** against the
//!   postings (`Comp2`).
//! * [`meet::generalized_meet`] — the Meet operator of Schmidt et al.,
//!   generalized to emit all ancestors with per-term occurrence counts.
//! * [`phrase::comp3`] — intersect-then-filter phrase baseline (`Comp3`).
//!
//! ## Score-modifying methods (Sec. 5.2)
//!
//! * [`modify::scored_value_join`] / [`modify::scored_union`] — the paper's
//!   Examples 5.1 and 5.2: standard value-join and set-union access methods
//!   extended with weighted score combination.
//!
//! ## Score-utilizing methods (Sec. 5.3)
//!
//! * [`pick::pick_stream`] — the stack-based Pick access method (Fig. 12),
//!   evaluating parent/child redundancy elimination in one blocking pass
//!   over a document-ordered scored-node stream.
//! * [`topk`] — Threshold evaluation: streaming min-score filtering and
//!   heap-based top-k (the techniques referenced from [8, 5]), with a
//!   deterministic arrival-order tie-break.
//! * [`pushdown`] — `Threshold … stop after k` pushed into TermJoin: a
//!   WAND-style document-at-a-time driver that stops scanning postings as
//!   soon as the §4.2 score bound proves the unscanned tail cannot change
//!   the top-k result; byte-identical to the full pipeline.
//!
//! ## Testing discipline
//!
//! The score-generating and score-utilizing access methods — TermJoin
//! (simple and complex scoring, both child-count modes), PhraseFinder, and
//! Pick — are differential-tested against independent implementations:
//! TermJoin against the `Comp1`/`Comp2` compositions and Generalized Meet,
//! PhraseFinder against `Comp3`, and Pick against the algebra-level
//! reference in `tix_core::ops::pick`, on both fixed corpora and
//! property-generated random collections (`tests/proptest_diff.rs`,
//! `tests/proptest_corpus_diff.rs`). The score-modifying methods
//! ([`modify`]) are covered by example-level tests only.

pub mod composite;
pub mod meet;
pub mod modify;
pub mod phrase;
pub mod pick;
pub mod pushdown;
pub mod scored;
pub mod stream;
pub mod structural;
pub mod termjoin;
pub mod topk;

pub use scored::{ScoredNode, TermHit};
pub use stream::ScoredStreamExt;
pub use termjoin::{ChildCountMode, ComplexScorer, SimpleScorer, TermJoin, TermJoinScorer};
