//! Delete-oldest / insert-fresh churn through
//! `Database::{insert_document, remove_document}`, for three times the
//! live corpus size so any periodic reorganisation of document ids runs
//! several times. After every mutation, everything that leaves the process
//! must be byte-identical to a fresh `Database` loaded with the surviving
//! documents in load order: the v2 index snapshot, the v3 pack, the store
//! snapshot, and the rendered answers of a fixed search and phrase query.
//!
//! Two more databases follow the same mutations but replace their index
//! after each one — `set_index(InvertedIndex::build(store))` and
//! `build_index()` — and must answer identically to the maintained one.

use tix::corpus::{CorpusSpec, Generator, PlantSpec};
use tix::exec::pick::PickParams;
use tix::exec::ScoredNode;
use tix::index::InvertedIndex;
use tix::store::{DocId, NodeRef, Store};
use tix::Database;

/// Live documents at any time.
const LIVE: usize = 8;
/// Delete-oldest + insert-fresh rounds.
const ROUNDS: usize = 3 * LIVE;

const SEARCH: [&str; 3] = ["needle", "w3", "w5"];
const PHRASE: [&str; 2] = ["structured", "text"];

fn corpus() -> Vec<(String, String)> {
    let spec = CorpusSpec {
        articles: LIVE + ROUNDS,
        ..CorpusSpec::tiny()
    };
    let plants = PlantSpec::default()
        .with_term("needle", 12)
        .with_term("haystack", 3)
        .with_phrase("structured", "text", 10, 6);
    let generator = Generator::new(spec, plants).expect("plants fit the corpus");
    generator.documents().collect()
}

/// A node's id as the server renders it: `d<dense id>#<node>`, where the
/// dense id is the document's rank among live documents in load order.
fn rendered_id(store: &Store, node: NodeRef) -> String {
    let rank = store
        .doc_ids()
        .position(|id| id == node.doc)
        .expect("result nodes belong to live documents");
    NodeRef::new(DocId(rank as u32), node.node).to_string()
}

fn render(store: &Store, results: &[ScoredNode]) -> String {
    results
        .iter()
        .map(|s| {
            format!(
                "{} {} {:?} {:#x} {:?}\n",
                store.doc(s.node.doc).name(),
                rendered_id(store, s.node),
                store.tag_name(s.node),
                s.score.to_bits(),
                store.text_content(s.node)
            )
        })
        .collect()
}

/// The rendered `/search` and `/phrase` answers, and the full TermJoin
/// scoring (the access method a mismatched index used to panic in).
fn answers(db: &Database) -> String {
    let store = db.store();
    format!(
        "search\n{}phrase\n{}termjoin\n{}",
        render(store, &db.search(&SEARCH, PickParams::paper(), 10)),
        render(store, &db.find_phrase(&PHRASE)),
        render(store, &db.term_join(&SEARCH)),
    )
}

/// Everything that leaves the process: v2 index bytes, v3 pack bytes,
/// store snapshot bytes, rendered answers.
fn outputs(db: &Database) -> (Vec<u8>, Vec<u8>, Vec<u8>, String) {
    let index = db.mem_index().expect("an in-memory index");
    let mut v2 = Vec::new();
    index.save_snapshot(&mut v2).unwrap();
    let v3 = tix_pack::pack_bytes(index).unwrap();
    let mut store = Vec::new();
    db.store().save_snapshot(&mut store).unwrap();
    (v2, v3, store, answers(db))
}

fn fresh(survivors: &[(String, String)]) -> Database {
    let mut db = Database::new();
    for (name, xml) in survivors {
        db.load(name, xml).unwrap();
    }
    db.build_index();
    db
}

fn assert_matches_fresh(db: &Database, survivors: &[(String, String)], what: &str) {
    let (v2, v3, store, answers) = outputs(db);
    let (f_v2, f_v3, f_store, f_answers) = outputs(&fresh(survivors));
    assert!(
        v2 == f_v2,
        "{what}: v2 index snapshot differs from a fresh load"
    );
    assert!(v3 == f_v3, "{what}: v3 pack differs from a fresh load");
    assert!(
        store == f_store,
        "{what}: store snapshot differs from a fresh load"
    );
    assert_eq!(answers, f_answers, "{what}: rendered answers");
}

/// Apply one mutation to the maintained database and to the two that
/// replace their index afterwards, then check all three.
struct Churn {
    maintained: Database,
    set_index: Database,
    build_index: Database,
    survivors: Vec<(String, String)>,
}

impl Churn {
    fn each(&mut self, f: impl Fn(&mut Database)) {
        f(&mut self.maintained);
        f(&mut self.set_index);
        let rebuilt = InvertedIndex::build(self.set_index.store());
        self.set_index.set_index(rebuilt);
        f(&mut self.build_index);
        self.build_index.build_index();
    }

    fn check(&self, what: &str) {
        assert_matches_fresh(&self.maintained, &self.survivors, what);
        let expected = answers(&self.maintained);
        assert_eq!(
            answers(&self.set_index),
            expected,
            "{what}: set_index(build)"
        );
        assert_eq!(
            answers(&self.build_index),
            expected,
            "{what}: build_index()"
        );
    }
}

#[test]
fn churn_stays_byte_identical_to_a_fresh_load_of_the_survivors() {
    let docs = corpus();
    let (initial, fresh_docs) = docs.split_at(LIVE);
    let mut churn = Churn {
        maintained: fresh(initial),
        set_index: fresh(initial),
        build_index: fresh(initial),
        survivors: initial.to_vec(),
    };
    churn.check("initial load");
    for (round, (name, xml)) in fresh_docs.iter().enumerate() {
        let (oldest, _) = churn.survivors.remove(0);
        churn.each(|db| {
            // The oldest live document always has dense id 0.
            assert_eq!(db.remove_document(&oldest), Ok(DocId(0)));
        });
        churn.check(&format!("round {round}: removed {oldest}"));
        churn.each(|db| {
            db.insert_document(name, xml).unwrap();
        });
        churn.survivors.push((name.clone(), xml.clone()));
        churn.check(&format!("round {round}: inserted {name}"));
    }
}

#[test]
fn deleting_every_document_leaves_what_an_empty_load_leaves() {
    let docs = corpus();
    let mut churn = Churn {
        maintained: fresh(&docs[..LIVE]),
        set_index: fresh(&docs[..LIVE]),
        build_index: fresh(&docs[..LIVE]),
        survivors: docs[..LIVE].to_vec(),
    };
    // Newest first, so no removal is of the oldest document.
    while let Some((name, _)) = churn.survivors.pop() {
        churn.each(|db| {
            let dense = db.remove_document(&name).unwrap();
            assert_eq!(dense, DocId(db.store().doc_count() as u32));
        });
        churn.check(&format!("removed {name}"));
    }
}
