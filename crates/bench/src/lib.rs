//! Shared fixtures and timing helpers for the experiment harness.
//!
//! Two consumers use this crate:
//!
//! * the **`reproduce`** binary — regenerates every table of the paper's
//!   Sec. 6 with the paper's own methodology ("Each experiment was run
//!   five times. The lowest and highest readings were ignored and the
//!   remaining three were averaged");
//! * the **Criterion benches** (`benches/table*.rs`, `benches/pick.rs`) —
//!   statistical micro-benchmarks over representative rows of each table,
//!   on a smaller corpus so `cargo bench` completes in minutes.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use tix_corpus::{workloads, CorpusSpec, Generator};
use tix_exec::pick::{pick_stream, PickParams};
use tix_exec::scored::ScoredNode;
use tix_exec::termjoin::TermJoinScorer;
use tix_index::InvertedIndex;
use tix_store::{NodeKind, NodeRef, Store};

/// A loaded-and-indexed experiment corpus with every planted term of the
/// paper's workload grids.
pub struct Fixture {
    /// The database.
    pub store: Store,
    /// The positional inverted index.
    pub index: InvertedIndex,
    /// The plant scale factor: planted frequency = paper frequency × scale.
    pub scale: f64,
}

impl Fixture {
    /// Build a fixture: a corpus of `spec`'s shape with
    /// `workloads::paper_plants(scale)` planted.
    pub fn build(spec: CorpusSpec, scale: f64) -> Self {
        let plants = workloads::paper_plants(scale);
        let generator = Generator::new(spec, plants).expect("valid paper plant spec");
        let mut store = Store::new();
        generator.load_into(&mut store).expect("corpus loads");
        let index = InvertedIndex::build(&store);
        Fixture {
            store,
            index,
            scale,
        }
    }

    /// The benchmark-scale fixture (the default corpus, full paper
    /// frequencies). Built once per process.
    pub fn full() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| Fixture::build(CorpusSpec::default(), 1.0))
    }

    /// A small fixture for Criterion runs: 1/10 frequencies on the small
    /// corpus shape. Built once per process.
    pub fn small() -> &'static Fixture {
        static FIXTURE: OnceLock<Fixture> = OnceLock::new();
        FIXTURE.get_or_init(|| Fixture::build(CorpusSpec::small(), 0.1))
    }

    /// Run a score-generating method over `terms` and return the result
    /// count (keeps the optimizer honest in timing loops).
    pub fn run_method<S: TermJoinScorer>(
        &self,
        method: Method,
        terms: &[&str],
        scorer: &S,
    ) -> usize {
        match method {
            Method::TermJoin | Method::EnhancedTermJoin => {
                tix_exec::termjoin::TermJoin::new(&self.store, &self.index, terms, scorer)
                    .run()
                    .len()
            }
            Method::Comp1 => {
                tix_exec::composite::comp1(&self.store, &self.index, terms, scorer).len()
            }
            Method::Comp2 => {
                tix_exec::composite::comp2(&self.store, &self.index, terms, scorer).len()
            }
            Method::GeneralizedMeet => {
                tix_exec::meet::generalized_meet(&self.store, &self.index, terms, scorer).len()
            }
        }
    }

    /// A document-ordered scored stream of `n` elements for the Pick
    /// experiment: the first `n` elements of the corpus with deterministic
    /// pseudo-random scores in [0, 2).
    pub fn pick_input(&self, n: usize) -> Vec<ScoredNode> {
        let mut out = Vec::with_capacity(n);
        'outer: for doc in self.store.doc_ids() {
            let len = self.store.doc(doc).len() as u32;
            for i in 0..len {
                let node = NodeRef::new(doc, tix_store::NodeIdx(i));
                if self.store.kind(node) != NodeKind::Element {
                    continue;
                }
                // SplitMix-style hash of the node address → score in [0,2).
                let mut h = (doc.0 as u64) << 32 | i as u64;
                h = h.wrapping_mul(0x9E3779B97F4A7C15);
                h ^= h >> 29;
                let score = (h % 2000) as f64 / 1000.0;
                out.push(ScoredNode::new(node, score));
                if out.len() == n {
                    break 'outer;
                }
            }
        }
        out
    }

    /// Time one Pick run over an input of `n` nodes.
    pub fn run_pick(&self, input: &[ScoredNode]) -> usize {
        pick_stream(&self.store, input, &PickParams::paper()).len()
    }
}

/// The score-generating methods compared in Tables 1–4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The paper's Comp1 (standard operators, ancestor expansion).
    Comp1,
    /// The paper's Comp2 (structural joins pushed down).
    Comp2,
    /// Generalized Meet.
    GeneralizedMeet,
    /// The TermJoin access method.
    TermJoin,
    /// Enhanced TermJoin (child-count index; complex scoring only).
    EnhancedTermJoin,
}

impl Method {
    /// Column label used in the printed tables.
    pub fn label(self) -> &'static str {
        match self {
            Method::Comp1 => "Comp1",
            Method::Comp2 => "Comp2",
            Method::GeneralizedMeet => "Gen.Meet",
            Method::TermJoin => "TermJoin",
            Method::EnhancedTermJoin => "Enhanced",
        }
    }
}

/// The paper's timing methodology: run five times, drop the fastest and
/// slowest, average the remaining three.
pub fn paper_timing(mut run: impl FnMut()) -> Duration {
    let mut samples: Vec<Duration> = (0..5)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed()
        })
        .collect();
    samples.sort();
    let kept = &samples[1..4];
    kept.iter().sum::<Duration>() / 3
}

/// Format a duration as milliseconds with sensible precision.
pub fn fmt_ms(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.2}")
    } else {
        format!("{ms:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fixture_has_planted_terms() {
        let fixture = Fixture::small();
        // 1/10 of the paper's 1,000-frequency pair.
        assert_eq!(fixture.index.collection_frequency("qt1000a"), 100);
        assert_eq!(fixture.index.collection_frequency("qt1000b"), 100);
    }

    #[test]
    fn methods_agree_on_fixture() {
        let fixture = Fixture::small();
        let scorer = tix_exec::termjoin::SimpleScorer::new(vec![0.8, 0.6]);
        let terms = ["qt1000a", "qt1000b"];
        let n = fixture.run_method(Method::TermJoin, &terms, &scorer);
        assert!(n > 0);
        assert_eq!(fixture.run_method(Method::Comp1, &terms, &scorer), n);
        assert_eq!(fixture.run_method(Method::Comp2, &terms, &scorer), n);
        assert_eq!(
            fixture.run_method(Method::GeneralizedMeet, &terms, &scorer),
            n
        );
    }

    #[test]
    fn pick_input_sizes() {
        let fixture = Fixture::small();
        let input = fixture.pick_input(500);
        assert_eq!(input.len(), 500);
        assert!(input.windows(2).all(|w| w[0].node < w[1].node));
        let picked = fixture.run_pick(&input);
        assert!(picked > 0 && picked < 500);
    }

    #[test]
    fn paper_timing_averages() {
        let d = paper_timing(|| std::thread::sleep(Duration::from_millis(1)));
        assert!(d >= Duration::from_millis(1));
    }
}
