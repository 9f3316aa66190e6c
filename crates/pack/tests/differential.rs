//! Differential property tests for the v3 `TIXPAK` representation: over
//! randomized corpora and randomized insert / remove / checkpoint
//! interleavings, a pack round-trip of the maintained index must answer
//! every query **byte-identically** (score bits included) to the
//! in-memory index — through the block-max pushdown driver and the
//! document-partitioned parallel pipeline at worker-thread counts 1, 2,
//! and 8 — and damaged pack bytes must always be rejected with a typed
//! error (never `Ok`, never a panic).

use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use tix::index::{IndexReader, InvertedIndex};
use tix::Database;
use tix_exec::pick::PickParams;
use tix_exec::scored::sort_by_node;
use tix_exec::termjoin::IdfScorer;
use tix_exec::{parallel, pushdown, ScoredNode, SimpleScorer};
use tix_index::IndexSnapshotError;
use tix_pack::{convert_v2_to_v3, pack_bytes, PackIndex};
use tix_store::faultio::FailingWriter;
use tix_store::persist::atomic_write;
use tix_store::Store;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(name: &str) -> PathBuf {
    let id = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("tix-pack-diff-{}-{name}-{id}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

const NAMES: [&str; 4] = ["a.xml", "b.xml", "c.xml", "d.xml"];
const DOCS: [&str; 4] = [
    "<d><s><p>alpha beta gamma</p></s></d>",
    "<d><p>beta beta delta</p><p>alpha</p></d>",
    "<d><s><p>gamma</p><p>epsilon alpha</p></s></d>",
    "<d><p>zeta alpha alpha</p></d>",
];
const QUERIES: [&[&str]; 5] = [
    &["alpha"],
    &["beta"],
    &["alpha", "beta"],
    &["gamma", "epsilon", "alpha"],
    &["nosuch"],
];

/// A result node named independently of document numbering: the
/// in-memory index addresses the store's slots (tombstones included),
/// a pack addresses dense ids.
fn named(store: &Store, node: tix_store::NodeRef) -> (String, u32) {
    (store.doc(node.doc).name().to_string(), node.node.as_u32())
}

/// Bitwise comparison of two scored-result streams, `a` over `store_a`
/// and `b` over `store_b`: same nodes by `(document name, node)`, same
/// order, and scores equal as IEEE-754 bit patterns — not approximately.
fn assert_bit_identical(
    (store_a, a): (&Store, &[ScoredNode]),
    (store_b, b): (&Store, &[ScoredNode]),
    what: &str,
) {
    assert_eq!(a.len(), b.len(), "{what}: result count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            named(store_a, x.node),
            named(store_b, y.node),
            "{what}: node at {i}"
        );
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{what}: score bits at {i} ({} vs {})",
            x.score,
            y.score
        );
    }
}

/// Run every query through both representations — pushdown driver (the
/// block-max path on the pack side) and the parallel full pipeline at
/// `threads` workers — and demand bit-identical answers. `mem` runs over
/// `store` as maintained (tombstones included); the pack, written in
/// dense ids, runs over the dense store a fresh load of the survivors
/// gives.
fn assert_answers_identical(store: &Store, mem: &InvertedIndex, pack: &PackIndex, threads: usize) {
    let dense = store.freeze().thaw();
    let pick = PickParams::paper();
    for (qi, terms) in QUERIES.iter().enumerate() {
        let simple = SimpleScorer::uniform();
        for k in [1, 3, 100] {
            let a =
                pushdown::search_topk(store, mem, terms, &simple, Some(&pick), k, None, &|| false)
                    .unwrap();
            let b =
                pushdown::search_topk(&dense, pack, terms, &simple, Some(&pick), k, None, &|| {
                    false
                })
                .unwrap();
            assert_bit_identical(
                (store, &a.results),
                (&dense, &b.results),
                &format!("q{qi} pushdown k={k}"),
            );
            assert_eq!(
                a.postings_total, b.postings_total,
                "q{qi}: representations disagree on list sizes"
            );
        }
        // The full parallel pipeline (no early exit) at this thread count.
        let full_a = sort_by_node(parallel::term_join_parallel(
            store, mem, terms, &simple, threads,
        ));
        let full_b = sort_by_node(parallel::term_join_parallel(
            &dense, pack, terms, &simple, threads,
        ));
        assert_bit_identical(
            (store, &full_a),
            (&dense, &full_b),
            &format!("q{qi} parallel t={threads}"),
        );
        // Idf scoring exercises the trait's idf() on both sides.
        let idf_a = IdfScorer::new(mem, store.doc_count(), terms);
        let idf_b = IdfScorer::new(pack, store.doc_count(), terms);
        let ra = pushdown::search_topk(store, mem, terms, &idf_a, Some(&pick), 5, None, &|| false)
            .unwrap();
        let rb =
            pushdown::search_topk(&dense, pack, terms, &idf_b, Some(&pick), 5, None, &|| false)
                .unwrap();
        assert_bit_identical(
            (store, &ra.results),
            (&dense, &rb.results),
            &format!("q{qi} idf"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized insert / remove / checkpoint interleavings: after every
    /// checkpoint (pack round-trip) the pack must answer bit-identically
    /// to the maintained in-memory index, at worker-thread counts 1, 2,
    /// and 8; installing the pack by reference and mutating on top of it
    /// (materialize-on-write) must keep the index equal to a rebuild.
    #[test]
    fn pack_roundtrip_answers_byte_identical(
        ops in proptest::collection::vec((0u8..10, 0u8..4, 0u8..4), 1..10),
        threads_sel in 0u8..3,
    ) {
        let threads = [1usize, 2, 8][threads_sel as usize % 3];
        let mut db = Database::new();
        db.set_threads(threads);
        db.build_index();
        for (step, &(kind, name_i, doc_i)) in ops.iter().enumerate() {
            let name = NAMES[name_i as usize % NAMES.len()];
            match kind % 10 {
                0..=4 => {
                    let _ = db.insert_document(name, DOCS[doc_i as usize % DOCS.len()]);
                }
                5..=7 => {
                    let _ = db.remove_document(name);
                }
                _ => {
                    // Checkpoint: pack the maintained index, reopen it by
                    // reference, compare answers, install it into the
                    // database (the next mutation materializes it).
                    // Consecutive checkpoints leave the db pack-backed;
                    // materialize to get the reference index either way.
                    let materialized;
                    let mem: &InvertedIndex = match db.mem_index() {
                        Some(mem) => mem,
                        None => {
                            materialized = db
                                .pack_index()
                                .expect("index present")
                                .to_inverted()
                                .expect("installed pack decodes");
                            &materialized
                        }
                    };
                    let bytes = pack_bytes(mem).unwrap();
                    let pack = PackIndex::from_bytes(bytes).unwrap();
                    assert_answers_identical(db.store(), mem, &pack, threads);
                    db.set_pack_index(pack);
                }
            }
            prop_assert!(db.has_index(), "step {step} lost the index");
        }
        // Final comparison: whatever representation the workload ended
        // on, pack the rebuild and compare against it.
        let rebuilt = InvertedIndex::build_with_threads(db.store(), threads);
        let pack = PackIndex::from_bytes(pack_bytes(&rebuilt).unwrap()).unwrap();
        assert_answers_identical(db.store(), &rebuilt, &pack, threads);
        // And the pack materializes back to the exact same index bytes.
        let mut a = Vec::new();
        rebuilt.save_snapshot(&mut a).unwrap();
        let mut b = Vec::new();
        pack.to_inverted().unwrap().save_snapshot(&mut b).unwrap();
        prop_assert_eq!(a, b, "pack materialization diverged from source");
    }

    /// The v2 → v3 converter round-trips: converting a v2 snapshot and
    /// materializing the result reproduces the v2 bytes exactly, and the
    /// converted pack answers queries bit-identically.
    #[test]
    fn converter_roundtrip_preserves_answers(
        ops in proptest::collection::vec((0u8..8, 0u8..4, 0u8..4), 1..8),
    ) {
        let mut db = Database::new();
        db.build_index();
        for &(kind, name_i, doc_i) in &ops {
            let name = NAMES[name_i as usize % NAMES.len()];
            if kind % 8 < 5 {
                let _ = db.insert_document(name, DOCS[doc_i as usize % DOCS.len()]);
            } else {
                let _ = db.remove_document(name);
            }
        }
        let mem = db.mem_index().unwrap();
        let mut v2 = Vec::new();
        mem.save_snapshot(&mut v2).unwrap();
        let v3 = convert_v2_to_v3(&v2).unwrap();
        let pack = PackIndex::from_bytes(v3).unwrap();
        assert_answers_identical(db.store(), mem, &pack, 2);
        let mut back = Vec::new();
        pack.to_inverted().unwrap().save_snapshot(&mut back).unwrap();
        prop_assert_eq!(v2, back, "v2 -> v3 -> v2 is not the identity");
    }
}

// ---- fault-injection sweeps (deterministic, exhaustive) -----------------

fn sample_pack_bytes() -> Vec<u8> {
    let mut store = Store::new();
    store
        .load_str("a.xml", "<a><p>alpha beta alpha</p><p>gamma beta</p></a>")
        .unwrap();
    store.load_str("b.xml", "<a><p>beta alpha</p></a>").unwrap();
    pack_bytes(&InvertedIndex::build(&store)).unwrap()
}

/// Pack magic is 6 bytes, version byte sits at offset 6; everything past
/// it is covered by section checksums and the whole-file seal.
fn assert_flip_rejected(err: &IndexSnapshotError, offset: usize, bit: u8) {
    match (offset, err) {
        (0..=5, IndexSnapshotError::BadMagic) => {}
        (6, IndexSnapshotError::UnsupportedVersion(_)) => {}
        (_, IndexSnapshotError::Corrupt(_)) if offset > 6 => {}
        _ => panic!("flip at byte {offset} bit {bit} mis-classified: {err:?}"),
    }
}

#[test]
fn every_single_bit_flip_in_a_pack_is_rejected() {
    let base = sample_pack_bytes();
    for offset in 0..base.len() {
        for bit in 0..8u8 {
            let mut flipped = base.clone();
            flipped[offset] ^= 1 << bit;
            let err = PackIndex::from_bytes(flipped)
                .err()
                .unwrap_or_else(|| panic!("flip at byte {offset} bit {bit} loaded cleanly"));
            assert_flip_rejected(&err, offset, bit);
        }
    }
}

#[test]
fn every_truncation_of_a_pack_is_rejected() {
    let base = sample_pack_bytes();
    for cut in 0..base.len() {
        assert!(
            PackIndex::from_bytes(base[..cut].to_vec()).is_err(),
            "v3 prefix of {cut} bytes loaded successfully"
        );
    }
    let mut extended = base.clone();
    extended.push(0);
    assert!(PackIndex::from_bytes(extended).is_err());
}

#[test]
fn torn_pack_write_preserves_committed_file_at_every_offset() {
    let dir = tmp_dir("torn");
    let path = dir.join("corpus.idx");
    let committed = sample_pack_bytes();
    atomic_write::<io::Error, _>(&path, |w| w.write_all(&committed)).unwrap();

    let mut store = Store::new();
    store
        .load_str("c.xml", "<r><p>delta epsilon</p></r>")
        .unwrap();
    let replacement = pack_bytes(&InvertedIndex::build(&store)).unwrap();

    for limit in 0..replacement.len() {
        let torn = atomic_write::<io::Error, _>(&path, |w| {
            let mut failing = FailingWriter::fail_after(w, limit as u64);
            failing.write_all(&replacement)
        });
        assert!(
            torn.is_err(),
            "write crashed after {limit} bytes yet committed"
        );
        assert_eq!(
            fs::read(&path).unwrap(),
            committed,
            "crash after {limit} bytes damaged the committed pack"
        );
    }
    // The committed file still opens and answers.
    let pack = PackIndex::open(&path).unwrap();
    assert!(pack.term_count() > 0);
}

/// Cold start is O(metadata): opening a pack decodes no posting blocks,
/// the first query decodes exactly its own terms, and the decode
/// counters prove the rest of the file was never touched — the server
/// cold-start property, asserted at the library layer.
#[test]
fn first_query_decodes_only_its_own_terms() {
    use tix_corpus::{CorpusSpec, Generator, PlantSpec};

    let spec = CorpusSpec::small();
    let plants = PlantSpec::default()
        .with_term("needle", 40)
        .with_term("haystack", 200);
    let generator = Generator::new(spec, plants).unwrap();
    let mut store = Store::new();
    generator.load_into(&mut store).unwrap();
    let mem = InvertedIndex::build(&store);

    let dir = tmp_dir("cold");
    let path = dir.join("corpus.idx");
    atomic_write::<io::Error, _>(&path, |w| w.write_all(&pack_bytes(&mem).unwrap())).unwrap();

    let pack = PackIndex::open(&path).unwrap();
    assert_eq!(pack.decoded_terms(), 0, "open must not decode postings");
    assert_eq!(pack.decoded_blocks(), 0);

    let pick = PickParams::paper();
    let scorer = SimpleScorer::uniform();
    let terms = ["needle", "haystack"];
    let run = pushdown::search_topk(
        &store,
        &pack,
        &terms,
        &scorer,
        Some(&pick),
        5,
        None,
        &|| false,
    )
    .unwrap();
    let full = pushdown::search_topk(&store, &mem, &terms, &scorer, Some(&pick), 5, None, &|| {
        false
    })
    .unwrap();
    assert_bit_identical(
        (&store, &run.results),
        (&store, &full.results),
        "cold-start query",
    );

    assert_eq!(
        pack.decoded_terms(),
        2,
        "first query must decode exactly its own terms"
    );
    assert!(
        pack.decoded_blocks() < pack.total_blocks(),
        "query decoded every block ({} of {})",
        pack.decoded_blocks(),
        pack.total_blocks()
    );
}
