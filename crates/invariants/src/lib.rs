//! Algorithmic invariant checks for the TIX engine.
//!
//! The TIX algebra's correctness rests on structural contracts the type
//! system cannot express: region encodings must nest laminarly (paper
//! §4.1), posting lists must stay sorted by `(doc, start)` (§4.2),
//! TermJoin's and Pick's stacks must hold exactly one ancestor chain at
//! all times (Fig. 11, Fig. 12), Threshold must only ever filter (§4.2),
//! and Pick's output must be an antichain under the ancestor/descendant
//! order (§4.3). This crate encodes each contract as a checkable
//! predicate and lets the rest of the workspace assert them at operator
//! boundaries without paying for the checks in optimized builds.
//!
//! # Usage
//!
//! Every predicate comes in two flavors:
//!
//! * `try_*` — returns `Result<(), InvariantError>`; always compiled.
//!   Loaders use these to turn structural corruption into typed errors
//!   (`SnapshotError::Corrupt`) on *untrusted* input, in every build.
//! * `assert_*` — panics with the violation's description. Operators call
//!   these on *trusted* internal state, wrapped in [`check!`] so the call
//!   only exists in debug builds or under `--features check-invariants`.
//!
//! ```
//! # struct Posting { doc: u32, node: u32, offset: u32 }
//! # let postings = [Posting { doc: 0, node: 1, offset: 0 }];
//! tix_invariants::check! {
//!     tix_invariants::assert_postings_sorted(postings.len(), |i| {
//!         let p = &postings[i];
//!         (p.doc, p.node, p.offset)
//!     });
//! }
//! ```
//!
//! The predicates take closures rather than concrete types so this crate
//! depends on nothing and every layer (store, index, exec, core) can call
//! it without dependency cycles.

/// True when invariant checks are compiled into **this** crate. Consumers
/// gate their call sites with [`check!`], whose `cfg` is evaluated in the
/// consuming crate; this constant exists so tests can assert that both
/// evaluate the same way for a given profile.
pub const ACTIVE: bool = cfg!(any(debug_assertions, feature = "check-invariants"));

/// Run a block only when invariant checking is compiled in (debug builds,
/// or any build with the `check-invariants` feature).
///
/// The `cfg` is expanded in the *calling* crate, so each caller must
/// declare its own `check-invariants` feature (forwarding to its
/// dependencies' features); all TIX workspace crates do.
#[macro_export]
macro_rules! check {
    ($($body:tt)*) => {
        #[cfg(any(debug_assertions, feature = "check-invariants"))]
        {
            $($body)*
        }
    };
}

/// A violated invariant: which contract, and what the offending state was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantError {
    /// The contract's name (e.g. `"postings-sorted"`).
    pub invariant: &'static str,
    /// Human-readable description of the violation site.
    pub detail: String,
}

impl std::fmt::Display for InvariantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant `{}` violated: {}",
            self.invariant, self.detail
        )
    }
}

impl std::error::Error for InvariantError {}

fn violation(invariant: &'static str, detail: String) -> Result<(), InvariantError> {
    Err(InvariantError { invariant, detail })
}

/// Sentinel parent value for a document root, mirroring the store's
/// `NO_PARENT`.
pub const NO_PARENT: u32 = u32::MAX;

/// One node's region-encoding record, as seen by
/// [`try_regions_well_formed`]. The node's preorder index is its region
/// start; `end` is the largest preorder index in its subtree.
#[derive(Debug, Clone, Copy)]
pub struct Region {
    /// Region end key (inclusive): last preorder index in the subtree.
    pub end: u32,
    /// Parent's preorder index, or [`NO_PARENT`] for the root.
    pub parent: u32,
    /// Depth; the root is level 0.
    pub level: u32,
}

/// Region well-formedness (§4.1): for a document of `len` nodes in
/// preorder, node `i`'s region is `[i, end(i)]` and the encoding must
/// satisfy, for every node:
///
/// * `i <= end(i) < len` — a region contains its own start and stays in
///   bounds;
/// * the root (and only node 0) has [`NO_PARENT`] and level 0;
/// * `parent(i) < i` — parents precede children in preorder;
/// * `level(i) == level(parent(i)) + 1`;
/// * `end(i) <= end(parent(i))` — regions nest **laminarly**: a child's
///   region never escapes its parent's.
pub fn try_regions_well_formed(
    len: u32,
    get: impl Fn(u32) -> Region,
) -> Result<(), InvariantError> {
    const NAME: &str = "regions-well-formed";
    for i in 0..len {
        let r = get(i);
        if r.end < i || r.end >= len {
            return violation(NAME, format!("node {i}: end {} out of [{i}, {len})", r.end));
        }
        if r.parent == NO_PARENT {
            if i != 0 {
                return violation(NAME, format!("node {i}: NO_PARENT on a non-root node"));
            }
            if r.level != 0 {
                return violation(NAME, format!("root has level {} (want 0)", r.level));
            }
            continue;
        }
        if i == 0 {
            return violation(NAME, format!("root node has parent {}", r.parent));
        }
        if r.parent >= i {
            return violation(NAME, format!("node {i}: parent {} not before it", r.parent));
        }
        let p = get(r.parent);
        if r.level != p.level.saturating_add(1) {
            return violation(
                NAME,
                format!(
                    "node {i}: level {} but parent {} has level {}",
                    r.level, r.parent, p.level
                ),
            );
        }
        if r.end > p.end {
            return violation(
                NAME,
                format!(
                    "node {i}: region [{i}, {}] escapes parent {}'s region [{}, {}]",
                    r.end, r.parent, r.parent, p.end
                ),
            );
        }
    }
    Ok(())
}

/// Panicking form of [`try_regions_well_formed`]; wrap calls in [`check!`].
pub fn assert_regions_well_formed(len: u32, get: impl Fn(u32) -> Region) {
    if let Err(e) = try_regions_well_formed(len, &get) {
        panic!("{e}");
    }
}

/// Posting-list sort order (§4.2): `(doc, node, offset)` must be strictly
/// increasing — document-ordered, no duplicates. `get(i)` returns the
/// `i`-th posting's key.
pub fn try_postings_sorted(
    len: usize,
    get: impl Fn(usize) -> (u32, u32, u32),
) -> Result<(), InvariantError> {
    for i in 1..len {
        let prev = get(i - 1);
        let cur = get(i);
        if prev >= cur {
            return violation(
                "postings-sorted",
                format!("posting {i}: {cur:?} not after {prev:?}"),
            );
        }
    }
    Ok(())
}

/// Panicking form of [`try_postings_sorted`]; wrap calls in [`check!`].
pub fn assert_postings_sorted(len: usize, get: impl Fn(usize) -> (u32, u32, u32)) {
    if let Err(e) = try_postings_sorted(len, &get) {
        panic!("{e}");
    }
}

/// Scored-stream order: `(doc, node)` strictly increasing — the
/// precondition of every stream-merging operator (Pick, Meet, union).
pub fn try_stream_sorted_unique(
    len: usize,
    get: impl Fn(usize) -> (u32, u32),
) -> Result<(), InvariantError> {
    for i in 1..len {
        let prev = get(i - 1);
        let cur = get(i);
        if prev >= cur {
            return violation(
                "stream-sorted-unique",
                format!("item {i}: {cur:?} not after {prev:?}"),
            );
        }
    }
    Ok(())
}

/// Panicking form of [`try_stream_sorted_unique`]; wrap calls in [`check!`].
pub fn assert_stream_sorted_unique(len: usize, get: impl Fn(usize) -> (u32, u32)) {
    if let Err(e) = try_stream_sorted_unique(len, &get) {
        panic!("{e}");
    }
}

/// Stack discipline (Fig. 11 TermJoin, Fig. 12 Pick): a merge stack must
/// always hold a single ancestor chain — each entry strictly contains the
/// entry above it. `covers(i, j)` reports whether stack slot `i`'s region
/// contains slot `j`'s (slot 0 is the bottom).
pub fn try_stack_ancestor_chain(
    depth: usize,
    covers: impl Fn(usize, usize) -> bool,
) -> Result<(), InvariantError> {
    for i in 1..depth {
        if !covers(i - 1, i) {
            return violation(
                "stack-ancestor-chain",
                format!("stack slot {} does not contain slot {i}", i - 1),
            );
        }
    }
    Ok(())
}

/// Panicking form of [`try_stack_ancestor_chain`]; wrap calls in [`check!`].
pub fn assert_stack_ancestor_chain(depth: usize, covers: impl Fn(usize, usize) -> bool) {
    if let Err(e) = try_stack_ancestor_chain(depth, &covers) {
        panic!("{e}");
    }
}

/// Pick-output antichain (§4.3): no result may be an ancestor of another.
/// `get(i)` returns `(doc, start, end)` region keys; the sequence must be
/// sorted by `(doc, start)` (which Pick's streaming output guarantees), so
/// containment reduces to "a later start falls inside an earlier
/// still-open region".
pub fn try_antichain(
    len: usize,
    get: impl Fn(usize) -> (u32, u32, u32),
) -> Result<(), InvariantError> {
    const NAME: &str = "pick-antichain";
    let mut cur_doc = 0u32;
    let mut max_end = 0u32;
    let mut prev_start = 0u32;
    for i in 0..len {
        let (doc, start, end) = get(i);
        if i > 0 && (doc, start) <= (cur_doc, prev_start) {
            return violation(
                NAME,
                format!("item {i}: ({doc}, {start}) not after ({cur_doc}, {prev_start})"),
            );
        }
        if i == 0 || doc != cur_doc {
            cur_doc = doc;
            max_end = end;
        } else {
            if start <= max_end {
                return violation(
                    NAME,
                    format!("item {i} (doc {doc}, [{start}, {end}]) is inside an earlier result"),
                );
            }
            max_end = max_end.max(end);
        }
        prev_start = start;
    }
    Ok(())
}

/// Panicking form of [`try_antichain`]; wrap calls in [`check!`].
pub fn assert_antichain(len: usize, get: impl Fn(usize) -> (u32, u32, u32)) {
    if let Err(e) = try_antichain(len, &get) {
        panic!("{e}");
    }
}

/// Threshold monotonicity (§4.2): a `MinScore` threshold only filters —
/// every retained score must exceed `min`.
pub fn try_scores_above(
    scores: impl IntoIterator<Item = f64>,
    min: f64,
) -> Result<(), InvariantError> {
    for (i, s) in scores.into_iter().enumerate() {
        // NaN is never "above" anything — it is a violation too.
        if s.is_nan() || s <= min {
            return violation(
                "threshold-min-score",
                format!("retained item {i} has score {s} <= threshold {min}"),
            );
        }
    }
    Ok(())
}

/// Panicking form of [`try_scores_above`]; wrap calls in [`check!`].
pub fn assert_scores_above(scores: impl IntoIterator<Item = f64>, min: f64) {
    if let Err(e) = try_scores_above(scores, min) {
        panic!("{e}");
    }
}

/// Top-k output order (§4.2): scores non-increasing, NaN-free.
pub fn try_scores_sorted_desc(scores: impl IntoIterator<Item = f64>) -> Result<(), InvariantError> {
    const NAME: &str = "topk-sorted-desc";
    let mut prev: Option<f64> = None;
    for (i, s) in scores.into_iter().enumerate() {
        if s.is_nan() {
            return violation(NAME, format!("item {i} has a NaN score"));
        }
        if let Some(p) = prev {
            if s > p {
                return violation(NAME, format!("item {i}: score {s} > predecessor {p}"));
            }
        }
        prev = Some(s);
    }
    Ok(())
}

/// Panicking form of [`try_scores_sorted_desc`]; wrap calls in [`check!`].
pub fn assert_scores_sorted_desc(scores: impl IntoIterator<Item = f64>) {
    if let Err(e) = try_scores_sorted_desc(scores) {
        panic!("{e}");
    }
}

/// Top-k pushdown early exit (§4.2): the scan may stop only when the
/// current k-th score **strictly** exceeds the upper bound on every
/// unscanned candidate's score — strict, so a tying candidate (which
/// could never displace a retained entry but would tie it) provably does
/// not exist either. NaN on either side is a violation: no ordering claim
/// can be made from it.
pub fn try_topk_early_exit_safe(
    kth_score: f64,
    remaining_bound: f64,
) -> Result<(), InvariantError> {
    const NAME: &str = "topk-early-exit";
    if kth_score.is_nan() || remaining_bound.is_nan() {
        return violation(
            NAME,
            format!("NaN in exit decision: kth {kth_score}, bound {remaining_bound}"),
        );
    }
    if kth_score > remaining_bound {
        Ok(())
    } else {
        violation(
            NAME,
            format!("exited with kth score {kth_score} <= remaining bound {remaining_bound}"),
        )
    }
}

/// Panicking form of [`try_topk_early_exit_safe`]; wrap calls in [`check!`].
pub fn assert_topk_early_exit_safe(kth_score: f64, remaining_bound: f64) {
    if let Err(e) = try_topk_early_exit_safe(kth_score, remaining_bound) {
        panic!("{e}");
    }
}

/// Block-max skip metadata soundness (v3 `TIXPAK` posting blocks): the
/// per-block summaries a WAND-style skipping scan trusts must (a) be in
/// ascending, non-overlapping document order — `first_doc ≤ last_doc`
/// within a block, and the previous block's `last_doc ≤` the next block's
/// `first_doc` (equality allowed: a document's postings may straddle a
/// block boundary) — with a positive posting count, and (b) carry a
/// `max_doc_count` that dominates the **whole-list** posting total of
/// every document intersecting the block (`max_doc_total(first, last)`
/// reports the actual maximum from the decoded postings). (b) is what
/// makes the suffix-maximum over unscanned blocks a sound componentwise
/// counter bound in the §4.2 early exit.
pub fn try_block_summaries_sound(
    len: usize,
    get: impl Fn(usize) -> (u32, u32, u32, u32),
    max_doc_total: impl Fn(u32, u32) -> u32,
) -> Result<(), InvariantError> {
    const NAME: &str = "block-summaries";
    let mut prev_last: Option<u32> = None;
    for i in 0..len {
        let (first, last, postings, max_doc_count) = get(i);
        if first > last {
            return violation(
                NAME,
                format!("block {i}: first_doc {first} > last_doc {last}"),
            );
        }
        if postings == 0 {
            return violation(NAME, format!("block {i}: empty block"));
        }
        if let Some(prev) = prev_last {
            if prev > first {
                return violation(
                    NAME,
                    format!("block {i}: first_doc {first} before previous last_doc {prev}"),
                );
            }
        }
        let actual = max_doc_total(first, last);
        if max_doc_count < actual {
            return violation(
                NAME,
                format!(
                    "block {i}: max_doc_count {max_doc_count} < actual document total {actual}"
                ),
            );
        }
        prev_last = Some(last);
    }
    Ok(())
}

/// Panicking form of [`try_block_summaries_sound`]; wrap calls in
/// [`check!`].
pub fn assert_block_summaries_sound(
    len: usize,
    get: impl Fn(usize) -> (u32, u32, u32, u32),
    max_doc_total: impl Fn(u32, u32) -> u32,
) {
    if let Err(e) = try_block_summaries_sound(len, &get, &max_doc_total) {
        panic!("{e}");
    }
}

/// Scatter-gather merge correctness (§4.2 bounds applied across shards):
/// a coordinator's global top-k over per-shard top-k streams is exact iff
/// the global k-th score is at least every truncated shard's **exclusive**
/// upper bound on its unreturned scores. Each bound in `shard_bounds` is
/// `Some(b)` when that shard truncated its response and proved every
/// unreturned score `< b` (shards return their k-th-score ties, so the
/// bound excludes equality); `None` when the shard returned everything it
/// had. Unlike [`try_topk_early_exit_safe`], equality is safe here:
/// `global_kth == b` still implies every hidden score `< b <= global_kth`
/// cannot displace or tie a retained entry. NaN anywhere is a violation.
pub fn try_scatter_merge_bound(
    global_kth: f64,
    shard_bounds: impl IntoIterator<Item = Option<f64>>,
) -> Result<(), InvariantError> {
    const NAME: &str = "scatter-merge-bound";
    if global_kth.is_nan() {
        return violation(NAME, "global k-th score is NaN".to_string());
    }
    for (shard, bound) in shard_bounds.into_iter().enumerate() {
        let Some(b) = bound else { continue };
        if b.is_nan() {
            return violation(NAME, format!("shard {shard} reported a NaN bound"));
        }
        if global_kth < b {
            return violation(
                NAME,
                format!(
                    "global k-th score {global_kth} < shard {shard} unreturned-score \
                     bound {b}: a hidden result could belong in the top k"
                ),
            );
        }
    }
    Ok(())
}

/// Panicking form of [`try_scatter_merge_bound`]; wrap calls in [`check!`].
pub fn assert_scatter_merge_bound(
    global_kth: f64,
    shard_bounds: impl IntoIterator<Item = Option<f64>>,
) {
    if let Err(e) = try_scatter_merge_bound(global_kth, shard_bounds) {
        panic!("{e}");
    }
}

/// Pick vertical exclusivity (Sec. 3.3.2 / Fig. 12): no picked node may
/// have a picked **direct parent** — the parent/child redundancy-
/// elimination rule. Picking a node together with a deeper descendant is
/// legitimate when the intermediate node is unpicked: in the paper's Fig. 8
/// both the chapter and a section-title beneath an unpicked section are
/// returned. `picked(i)` and `parent(i)` describe the candidate forest in
/// any indexing scheme the caller likes.
pub fn try_picked_exclusive(
    len: usize,
    picked: impl Fn(usize) -> bool,
    parent: impl Fn(usize) -> Option<usize>,
) -> Result<(), InvariantError> {
    for i in 0..len {
        if !picked(i) {
            continue;
        }
        if let Some(p) = parent(i) {
            if picked(p) {
                return violation(
                    "pick-vertical-exclusive",
                    format!("picked node {i} has picked parent {p}"),
                );
            }
        }
    }
    Ok(())
}

/// Panicking form of [`try_picked_exclusive`]; wrap calls in [`check!`].
pub fn assert_picked_exclusive(
    len: usize,
    picked: impl Fn(usize) -> bool,
    parent: impl Fn(usize) -> Option<usize>,
) {
    if let Err(e) = try_picked_exclusive(len, &picked, &parent) {
        panic!("{e}");
    }
}

/// Horizontal (sibling) redundancy elimination (Sec. 3.3.2): among the
/// items a horizontal Pick keeps, no two distinct items may be same-class
/// siblings — the paper's "returning only the first author of the relevant
/// article" rule leaves at most one representative per (parent, class)
/// group. `kept(i)` says whether item `i` survived; `same_class_siblings`
/// says whether two items share both a parent and a class.
pub fn try_horizontal_dedup(
    len: usize,
    kept: impl Fn(usize) -> bool,
    same_class_siblings: impl Fn(usize, usize) -> bool,
) -> Result<(), InvariantError> {
    for i in 0..len {
        if !kept(i) {
            continue;
        }
        for j in (i + 1)..len {
            if kept(j) && same_class_siblings(i, j) {
                return violation(
                    "pick-horizontal-dedup",
                    format!("kept items {i} and {j} are same-class siblings"),
                );
            }
        }
    }
    Ok(())
}

/// Panicking form of [`try_horizontal_dedup`]; wrap calls in [`check!`].
pub fn assert_horizontal_dedup(
    len: usize,
    kept: impl Fn(usize) -> bool,
    same_class_siblings: impl Fn(usize, usize) -> bool,
) {
    if let Err(e) = try_horizontal_dedup(len, &kept, &same_class_siblings) {
        panic!("{e}");
    }
}

/// Serving-cache coherence (the serving layer's contract): a cached query
/// result may only be served when it was computed at the store/index
/// generation that is current at serve time. `tix-server` keys its result
/// cache on `Database::generation`, so a lookup can only ever surface an
/// entry whose recorded generation matches — this check asserts that the
/// keying actually enforces the contract at the cache-lookup boundary.
pub fn try_cache_coherent(
    entry_generation: u64,
    current_generation: u64,
) -> Result<(), InvariantError> {
    if entry_generation != current_generation {
        return violation(
            "cache-coherent",
            format!(
                "cached result from generation {entry_generation} served at generation {current_generation}"
            ),
        );
    }
    Ok(())
}

/// Panicking form of [`try_cache_coherent`]; wrap calls in [`check!`].
pub fn assert_cache_coherent(entry_generation: u64, current_generation: u64) {
    if let Err(e) = try_cache_coherent(entry_generation, current_generation) {
        panic!("{e}");
    }
}

// ---- group commit -----------------------------------------------------------

/// Group-commit watermark coherence (the write path's contract): the
/// three LSN watermarks of the commit pipeline must always satisfy
/// `durable <= written <= staged` — a frame can only be fsynced once
/// written, and only written once staged. A violation means an
/// acknowledgement could name an LSN the log does not actually hold at
/// that durability level, which is exactly the lie prefix durability
/// forbids.
pub fn try_commit_watermarks(
    durable: u64,
    written: u64,
    staged: u64,
) -> Result<(), InvariantError> {
    if durable > written || written > staged {
        return violation(
            "commit-watermarks",
            format!(
                "watermarks out of order: durable {durable} <= written {written} <= staged {staged} must hold"
            ),
        );
    }
    Ok(())
}

/// Panicking form of [`try_commit_watermarks`]; wrap calls in [`check!`].
pub fn assert_commit_watermarks(durable: u64, written: u64, staged: u64) {
    if let Err(e) = try_commit_watermarks(durable, written, staged) {
        panic!("{e}");
    }
}

// ---- snapshot sealing -------------------------------------------------------

/// Lookup table for CRC-32 (IEEE 802.3, reflected, polynomial
/// `0xEDB88320`) — the checksum sealing every v2 snapshot section and
/// file. Hand-rolled so the persistence layer stays dependency-free.
const CRC32_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
}

/// Incremental CRC-32 (IEEE) digest. Feed bytes with [`Crc32::update`];
/// [`Crc32::finish`] yields the checksum without consuming the state, so
/// a running file digest can be inspected mid-stream.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh digest.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorb `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        for &b in bytes {
            let idx = ((c ^ u32::from(b)) & 0xFF) as usize;
            c = CRC32_TABLE[idx] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of everything absorbed so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut digest = Crc32::new();
    digest.update(bytes);
    digest.finish()
}

/// Snapshot seal (the persistence layer's durability contract): `bytes`
/// must be a complete image of a **sealed** snapshot file — it starts with
/// `magic`, carries a checksummed format version (`>= 2`; v1 predates
/// sealing), and its trailing four bytes are the little-endian CRC-32 of
/// everything before them. Writers assert this on the exact bytes they are
/// about to publish; loaders check it before trusting any length field in
/// the body.
pub fn try_snapshot_sealed(magic: &[u8], bytes: &[u8]) -> Result<(), InvariantError> {
    const NAME: &str = "snapshot-sealed";
    let min = magic.len() + 1 + 4;
    if bytes.len() < min {
        return violation(
            NAME,
            format!("{} bytes cannot hold magic, version, and seal", bytes.len()),
        );
    }
    if !bytes.starts_with(magic) {
        return violation(NAME, "magic bytes do not match".to_string());
    }
    let version = bytes.get(magic.len()).copied().unwrap_or(0);
    if version < 2 {
        return violation(NAME, format!("format version {version} predates sealing"));
    }
    let body_len = bytes.len() - 4;
    let mut tail = [0u8; 4];
    tail.copy_from_slice(&bytes[body_len..]);
    let stored = u32::from_le_bytes(tail);
    let actual = crc32(&bytes[..body_len]);
    if stored != actual {
        return violation(
            NAME,
            format!("trailing checksum {stored:#010x} != computed {actual:#010x}"),
        );
    }
    Ok(())
}

/// Panicking form of [`try_snapshot_sealed`]; wrap calls in [`check!`].
pub fn assert_snapshot_sealed(magic: &[u8], bytes: &[u8]) {
    if let Err(e) = try_snapshot_sealed(magic, bytes) {
        panic!("{e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regions(v: &[(u32, u32, u32)]) -> impl Fn(u32) -> Region + '_ {
        |i| {
            let (end, parent, level) = v[i as usize];
            Region { end, parent, level }
        }
    }

    #[test]
    fn block_summaries_sound_and_violations_caught() {
        // Two blocks over docs 0..=3 and 3..=7 (doc 3 straddles).
        let blocks = [(0u32, 3u32, 128u32, 9u32), (3, 7, 64, 9)];
        let get = |i: usize| blocks[i];
        assert!(try_block_summaries_sound(2, get, |_, _| 9).is_ok());
        assert!(try_block_summaries_sound(0, get, |_, _| 0).is_ok());
        // max_doc_count below the actual document total.
        assert!(try_block_summaries_sound(2, get, |_, _| 10).is_err());
        // first_doc > last_doc.
        assert!(try_block_summaries_sound(1, |_| (4, 3, 1, 1), |_, _| 0).is_err());
        // Empty block.
        assert!(try_block_summaries_sound(1, |_| (0, 0, 0, 1), |_, _| 0).is_err());
        // Out-of-order blocks: second starts before the first ends.
        let unordered = [(0u32, 5u32, 8u32, 3u32), (4, 9, 8, 3)];
        assert!(try_block_summaries_sound(2, |i| unordered[i], |_, _| 1).is_err());
    }

    #[test]
    fn well_formed_regions_pass() {
        // <a><b><c/></b><d/></a>: a=[0,3] b=[1,2] c=[2,2] d=[3,3]
        let v = [(3, NO_PARENT, 0), (2, 0, 1), (2, 1, 2), (3, 0, 1)];
        assert!(try_regions_well_formed(4, regions(&v)).is_ok());
        assert!(try_regions_well_formed(0, regions(&[])).is_ok());
    }

    #[test]
    fn region_violations_caught() {
        // end before start
        let v = [(0, NO_PARENT, 0), (0, 0, 1)];
        let bad = [(1, NO_PARENT, 0), (0, 0, 1)];
        assert!(try_regions_well_formed(2, regions(&v)).is_err()); // root end 0 < node 1
        assert!(try_regions_well_formed(2, regions(&bad)).is_err()); // child end 0 < 1
                                                                     // child escapes parent
        let escape = [(2, NO_PARENT, 0), (2, 0, 1), (2, 1, 2), (3, 0, 1)];
        assert!(try_regions_well_formed(3, regions(&escape)).is_ok());
        let esc2 = [(1, NO_PARENT, 0), (2, 0, 1), (2, 1, 2)];
        let err = try_regions_well_formed(3, regions(&esc2)).unwrap_err();
        assert_eq!(err.invariant, "regions-well-formed");
        // wrong level
        let lvl = [(1, NO_PARENT, 0), (1, 0, 2)];
        assert!(try_regions_well_formed(2, regions(&lvl)).is_err());
        // non-root without parent
        let orphan = [(1, NO_PARENT, 0), (1, NO_PARENT, 0)];
        assert!(try_regions_well_formed(2, regions(&orphan)).is_err());
    }

    #[test]
    fn postings_order() {
        let good = [(0, 1, 0), (0, 1, 1), (1, 0, 0)];
        assert!(try_postings_sorted(good.len(), |i| good[i]).is_ok());
        let dup = [(0, 1, 0), (0, 1, 0)];
        assert!(try_postings_sorted(dup.len(), |i| dup[i]).is_err());
        let back = [(1, 0, 0), (0, 1, 1)];
        let err = try_postings_sorted(back.len(), |i| back[i]).unwrap_err();
        assert_eq!(err.invariant, "postings-sorted");
    }

    #[test]
    fn stream_order() {
        let good = [(0, 1), (0, 5), (2, 0)];
        assert!(try_stream_sorted_unique(good.len(), |i| good[i]).is_ok());
        let dup = [(0, 5), (0, 5)];
        assert!(try_stream_sorted_unique(dup.len(), |i| dup[i]).is_err());
    }

    #[test]
    fn stack_chain() {
        // Entries as regions; entry i must contain entry i+1.
        let chain = [(0u32, 10u32), (1, 8), (2, 5)];
        let covers = |a: usize, b: usize| chain[a].0 < chain[b].0 && chain[b].1 <= chain[a].1;
        assert!(try_stack_ancestor_chain(3, covers).is_ok());
        let broken = [(0u32, 10u32), (1, 3), (4, 8)];
        let covers = |a: usize, b: usize| broken[a].0 < broken[b].0 && broken[b].1 <= broken[a].1;
        assert!(try_stack_ancestor_chain(3, covers).is_err());
    }

    #[test]
    fn antichain() {
        let good = [(0, 1, 3), (0, 4, 9), (1, 0, 5)];
        assert!(try_antichain(good.len(), |i| good[i]).is_ok());
        // Second item nested in the first.
        let nested = [(0, 1, 9), (0, 4, 5)];
        let err = try_antichain(nested.len(), |i| nested[i]).unwrap_err();
        assert_eq!(err.invariant, "pick-antichain");
        // Same node twice (unsorted/duplicate input is also rejected).
        let dup = [(0, 4, 5), (0, 4, 5)];
        assert!(try_antichain(dup.len(), |i| dup[i]).is_err());
        // Nesting across documents is fine (regions are per-document).
        let cross = [(0, 1, 9), (1, 4, 5)];
        assert!(try_antichain(cross.len(), |i| cross[i]).is_ok());
    }

    #[test]
    fn threshold_scores() {
        assert!(try_scores_above([1.0, 0.6], 0.5).is_ok());
        assert!(try_scores_above([1.0, 0.5], 0.5).is_err());
        assert!(try_scores_above([f64::NAN], 0.5).is_err());
        assert!(try_scores_above([], 0.5).is_ok());
    }

    #[test]
    fn topk_early_exit() {
        assert!(try_topk_early_exit_safe(2.0, 1.0).is_ok());
        // Equality is NOT safe: a tying candidate may exist.
        assert!(try_topk_early_exit_safe(1.0, 1.0).is_err());
        assert!(try_topk_early_exit_safe(0.5, 1.0).is_err());
        assert!(try_topk_early_exit_safe(f64::NAN, 0.0).is_err());
        assert!(try_topk_early_exit_safe(1.0, f64::NAN).is_err());
        // An infinite bound (scorer without a bound) never admits an exit.
        assert!(try_topk_early_exit_safe(1e300, f64::INFINITY).is_err());
    }

    #[test]
    fn scatter_merge_bound_allows_equality_and_untruncated_shards() {
        assert!(try_scatter_merge_bound(2.0, [Some(1.0), None, Some(2.0)]).is_ok());
        assert!(try_scatter_merge_bound(2.0, [None, None]).is_ok());
        assert!(try_scatter_merge_bound(2.0, []).is_ok());
        assert!(try_scatter_merge_bound(1.0, [Some(1.5)]).is_err());
        assert!(try_scatter_merge_bound(f64::NAN, [Some(0.0)]).is_err());
        assert!(try_scatter_merge_bound(1.0, [Some(f64::NAN)]).is_err());
    }

    #[test]
    fn topk_order() {
        assert!(try_scores_sorted_desc([3.0, 2.0, 2.0, 0.5]).is_ok());
        assert!(try_scores_sorted_desc([1.0, 2.0]).is_err());
        assert!(try_scores_sorted_desc([1.0, f64::NAN]).is_err());
    }

    #[test]
    fn pick_exclusivity() {
        // 0 -> 1 -> 2 chain (parent(i) = i - 1).
        let parent = |i: usize| if i == 0 { None } else { Some(i - 1) };
        assert!(try_picked_exclusive(3, |i| i == 2, parent).is_ok());
        // Grandparent + grandchild is fine when the middle node is unpicked
        // (paper Fig. 8: a chapter plus a title under an unpicked section).
        assert!(try_picked_exclusive(3, |i| i == 0 || i == 2, parent).is_ok());
        let err = try_picked_exclusive(3, |i| i == 1 || i == 2, parent).unwrap_err();
        assert_eq!(err.invariant, "pick-vertical-exclusive");
    }

    #[test]
    fn horizontal_dedup() {
        // Items 0..3 under one parent; 0 and 2 share a class, 1 differs.
        let same = |i: usize, j: usize| (i, j) == (0, 2) || (i, j) == (2, 0);
        assert!(try_horizontal_dedup(3, |i| i == 0 || i == 1, same).is_ok());
        let err = try_horizontal_dedup(3, |_| true, same).unwrap_err();
        assert_eq!(err.invariant, "pick-horizontal-dedup");
        // Dropping one member of the clashing pair restores the invariant.
        assert!(try_horizontal_dedup(3, |i| i != 2, same).is_ok());
    }

    #[test]
    fn cache_coherence() {
        assert!(try_cache_coherent(3, 3).is_ok());
        let err = try_cache_coherent(2, 3).unwrap_err();
        assert_eq!(err.invariant, "cache-coherent");
        assert!(err.to_string().contains("generation 2"), "{err}");
    }

    #[test]
    fn crc32_reference_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Incremental and one-shot digests agree on split input.
        let mut d = Crc32::new();
        d.update(b"1234");
        d.update(b"56789");
        assert_eq!(d.finish(), 0xCBF4_3926);
    }

    #[test]
    fn snapshot_seal_accepts_well_sealed_bytes() {
        let magic = b"TESTMAG";
        let mut bytes = Vec::new();
        bytes.extend_from_slice(magic);
        bytes.push(2); // version
        bytes.extend_from_slice(b"payload");
        let seal = crc32(&bytes);
        bytes.extend_from_slice(&seal.to_le_bytes());
        assert!(try_snapshot_sealed(magic, &bytes).is_ok());
    }

    #[test]
    fn snapshot_seal_violations_caught() {
        let magic = b"TESTMAG";
        let build = |version: u8| {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(magic);
            bytes.push(version);
            bytes.extend_from_slice(b"payload");
            let seal = crc32(&bytes);
            bytes.extend_from_slice(&seal.to_le_bytes());
            bytes
        };
        // Too short.
        let err = try_snapshot_sealed(magic, b"TE").unwrap_err();
        assert_eq!(err.invariant, "snapshot-sealed");
        // Wrong magic.
        let mut bad = build(2);
        bad[0] ^= 0xFF;
        // (recompute nothing: magic is checked before the seal)
        assert!(try_snapshot_sealed(magic, &bad).is_err());
        // Unsealed (v1) format.
        assert!(try_snapshot_sealed(magic, &build(1)).is_err());
        // Any single bit flip in body or seal breaks the seal.
        let good = build(2);
        for i in magic.len() + 1..good.len() {
            for bit in 0..8 {
                let mut flipped = good.clone();
                flipped[i] ^= 1 << bit;
                assert!(
                    try_snapshot_sealed(magic, &flipped).is_err(),
                    "flip at byte {i} bit {bit} kept the seal intact"
                );
            }
        }
    }

    #[test]
    // The initializer is dead exactly when the check! body runs — that
    // asymmetry is the behavior under test.
    #[allow(unused_assignments)]
    fn check_macro_gates_on_cfg() {
        let mut ran = false;
        check! {
            ran = true;
        }
        // In this crate the macro's cfg and ACTIVE agree by construction;
        // debug test builds run the body, release builds without the
        // feature skip it entirely.
        assert_eq!(ran, ACTIVE);
        let _ = &mut ran;
    }

    #[test]
    fn assert_forms_panic_with_context() {
        let result = std::panic::catch_unwind(|| {
            assert_postings_sorted(2, |_| (0, 0, 0));
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("postings-sorted"), "{msg}");
    }

    #[test]
    fn error_display() {
        let e = InvariantError {
            invariant: "postings-sorted",
            detail: "posting 3 out of order".into(),
        };
        assert_eq!(
            e.to_string(),
            "invariant `postings-sorted` violated: posting 3 out of order"
        );
    }
}
