//! The request streams, made from `--seed` alone: the same seed gives the
//! same list of requests, byte for byte. The system under test receives
//! only the generated requests, never the seed or the workload's name.

use tix::corpus::workloads::{
    pair_term, table3_term2, table4_term, table5_terms, TABLE12_FREQUENCIES, TABLE3_TERM1,
    TABLE3_TERM2_FREQUENCIES, TABLE5_ROWS,
};
use tix::corpus::{Rng, Zipf};

use crate::spec::{Workload, HOT_DISTINCT, STREAM_LEN};

/// Pick parameters of a `/search` (the paper's: 0.8, 50 %). The cold
/// cycles vary the threshold between [`THRESHOLD_LO`] and 0.9 in steps of
/// 0.001: scores are whole occurrence counts, so every threshold in
/// (0, 1] picks the same nodes, but each is a result-cache key of its
/// own — the few planted queries of Tables 1–4 recur all through a cycle
/// and must not be answered from the cache there.
pub const PICK_THRESHOLD: f64 = 0.8;
pub const PICK_FRACTION: f64 = 0.5;
const THRESHOLD_LO: f64 = 0.5;
const THRESHOLD_STEPS: usize = 400;
pub const TOP_K: usize = 10;

/// Background query terms are drawn Zipf from these vocabulary ranks:
/// below 50 the lists are stop-word long, above 5000 mostly empty.
const RANK_LO: usize = 50;
const RANK_HI: usize = 5000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `GET /search?q=…&k=10`
    Search,
    /// `GET /search` with `min_score` (the pushdown plans).
    SearchMin,
    /// `GET /phrase?q=a+b`
    Phrase,
    /// `POST /query` in the Fig. 10 dialect.
    Query,
    /// `GET /health`
    Health,
}

/// One request: the parsed form the in-process replay needs and the bytes
/// that go over the socket.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub kind: Kind,
    pub terms: Vec<String>,
    pub min_score: Option<f64>,
    /// Pick relevance threshold of a `/search`.
    pub threshold: f64,
    /// `Kind::Query` only: the dialect text.
    pub body: String,
    pub method: &'static str,
    pub target: String,
    pub wire: Vec<u8>,
}

impl Req {
    fn new(kind: Kind, terms: Vec<String>, min_score: Option<f64>, body: String) -> Req {
        Req::with_threshold(kind, terms, min_score, body, PICK_THRESHOLD)
    }

    fn with_threshold(
        kind: Kind,
        terms: Vec<String>,
        min_score: Option<f64>,
        body: String,
        threshold: f64,
    ) -> Req {
        let q = terms.join("+");
        let (method, target) = match kind {
            Kind::Search | Kind::SearchMin => {
                let min = min_score.map_or(String::new(), |m| format!("&min_score={m}"));
                (
                    "GET",
                    format!(
                        "/search?q={q}&k={TOP_K}&threshold={threshold}&fraction={PICK_FRACTION}{min}"
                    ),
                )
            }
            Kind::Phrase => ("GET", format!("/phrase?q={q}")),
            Kind::Query => ("POST", "/query".to_string()),
            Kind::Health => ("GET", "/health".to_string()),
        };
        let wire = wire_bytes(method, &target, body.as_bytes());
        Req {
            kind,
            terms,
            min_score,
            threshold,
            body,
            method,
            target,
            wire,
        }
    }

    pub fn health() -> Req {
        Req::new(Kind::Health, Vec::new(), None, String::new())
    }

    /// A one-term search (the marker-term checks of `ingest_mixed`).
    pub fn search_one(term: &str) -> Req {
        Req::new(Kind::Search, vec![term.to_string()], None, String::new())
    }
}

/// The bytes of one HTTP/1.1 request. One connection per request, as the
/// server answers `Connection: close` today.
pub fn wire_bytes(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut wire = format!(
        "{method} {target} HTTP/1.1\r\nHost: tixbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// Percentages of the request kinds; the rest is `POST /query`.
#[derive(Debug, Clone, Copy)]
struct Mix {
    search: usize,
    search_min: usize,
    phrase: usize,
    /// Percentage of the `/search` term lists that are the planted pairs
    /// and groups of Tables 1–4 (5 : 2 : 2); the rest are background terms.
    planted: usize,
}

impl Mix {
    /// `query_cold`: 70 / 15 / 10 and the remaining 5 % `POST /query`.
    const FULL: Mix = Mix {
        search: 70,
        search_min: 15,
        phrase: 10,
        planted: 45,
    };
    /// No `/query`: it names documents, and `ingest_mixed` deletes them.
    const NO_QUERY: Mix = Mix {
        search: 75,
        search_min: 15,
        phrase: 10,
        planted: 45,
    };
    /// The coordinator has no `min_score` and routes `/query` to one
    /// shard, so the scatter stream is `/search` + `/phrase`. What a
    /// scatter costs depends on how many hits tie the k-th score on each
    /// shard, and a planted query brings the same tie set to all of its ~50
    /// repeats, so with the `query_cold` share of planted queries capacity
    /// moved by 8 % from seed to seed; mostly distinct background queries
    /// average that out (under 1 %).
    const SCATTER: Mix = Mix {
        search: 90,
        search_min: 0,
        phrase: 10,
        planted: 9,
    };
}

/// Table 5 rows whose phrase matches at most this many text nodes keep a
/// `/phrase` body within a few KiB (row 0 matches 1 400).
const SMALL_PHRASE: usize = 100;

/// The source of everything a seed decides. A seed picks *which* terms,
/// documents and order a cycle has, never *how much* of each kind: kinds,
/// templates, term counts and planted rows come in fixed proportions, and
/// background terms are drawn one from each equal-probability stratum of
/// the Zipf distribution. So two seeds give different inputs that cost
/// the system nearly the same, and a difference between two runs is the
/// system's, not the draw's.
struct Source {
    rng: Rng,
    /// Cumulative Zipf weights over ranks `RANK_LO..=RANK_HI`.
    cdf: Vec<f64>,
    articles: usize,
}

impl Source {
    fn new(seed: u64, articles: usize) -> Source {
        let mut total = 0.0;
        let cdf: Vec<f64> = (RANK_LO..=RANK_HI)
            .map(|rank| {
                total += ((rank + 1) as f64).powf(-1.07);
                total
            })
            .collect();
        Source {
            rng: Rng::new(seed).fork(0x7178_5354_5245_414d),
            cdf,
            articles: articles.max(1),
        }
    }

    /// `n` background terms, one from each of `n` equal-probability
    /// strata of the Zipf distribution over the rank range, shuffled.
    fn background(&mut self, n: usize) -> Vec<String> {
        let total = self.cdf.last().copied().unwrap_or(1.0);
        let mut terms: Vec<String> = (0..n)
            .map(|i| {
                let u = (i as f64 + self.rng.f64()) / n as f64 * total;
                let at = self
                    .cdf
                    .partition_point(|&c| c <= u)
                    .min(self.cdf.len() - 1);
                format!("w{}", RANK_LO + at)
            })
            .collect();
        self.rng.shuffle(&mut terms);
        terms
    }

    /// `n` term lists for `/search`, `planted` percent of them planted
    /// (the pairs of Tables 1–2, Table 3, Table 4 with 2–4 terms, 5 : 2 : 2),
    /// the rest 1–4 background terms; every frequency step and term count
    /// equally often.
    fn search_terms(&mut self, n: usize, planted: usize) -> Vec<Vec<String>> {
        let ninth = n * planted / 900;
        let (pairs, table3, table4) = (5 * ninth, 2 * ninth, 2 * ninth);
        let plain = n - pairs - table3 - table4;
        let mut pool = self.background((0..plain).map(|j| 1 + j % 4).sum());
        let mut lists: Vec<Vec<String>> = Vec::with_capacity(n);
        for j in 0..pairs {
            let freq = TABLE12_FREQUENCIES[j % TABLE12_FREQUENCIES.len()];
            lists.push(vec![pair_term(freq, 0), pair_term(freq, 1)]);
        }
        for j in 0..table3 {
            let freq = TABLE3_TERM2_FREQUENCIES[j % TABLE3_TERM2_FREQUENCIES.len()];
            lists.push(vec![TABLE3_TERM1.to_string(), table3_term2(freq)]);
        }
        for j in 0..table4 {
            lists.push((0..2 + j % 3).map(table4_term).collect());
        }
        for j in 0..plain {
            lists.push(pool.split_off(pool.len() - (1 + j % 4)));
        }
        lists
    }

    /// `n` requests in the proportions of `mix`, in shuffled order.
    fn cycle(&mut self, mix: Mix, n: usize) -> Vec<Req> {
        let phrases = n * mix.phrase / 100;
        let queries = n * (100 - mix.search - mix.search_min - mix.phrase) / 100;
        let searches = n - phrases - queries;
        let min_share = mix.search_min as f64 / (mix.search + mix.search_min).max(1) as f64;
        let mut reqs = Vec::with_capacity(n);
        for (j, terms) in self
            .search_terms(searches, mix.planted)
            .into_iter()
            .enumerate()
        {
            // Every 1/min_share-th list of every template gets a min_score.
            let with_min = ((j + 1) as f64 * min_share) as usize > (j as f64 * min_share) as usize;
            // Three decimals, so that the server parses back this very number.
            let threshold = THRESHOLD_LO + (j % THRESHOLD_STEPS) as f64 / 1000.0;
            let threshold = format!("{threshold:.3}").parse().unwrap_or(PICK_THRESHOLD);
            let (kind, min) = if with_min {
                let min = [1.0, 2.0, 3.0][(j as f64 * min_share) as usize % 3];
                (Kind::SearchMin, Some(min))
            } else {
                (Kind::Search, None)
            };
            reqs.push(Req::with_threshold(
                kind,
                terms,
                min,
                String::new(),
                threshold,
            ));
        }
        let mut pool = self.background(2 * (phrases / 2 + queries));
        for j in 0..phrases {
            let terms = if j % 2 == 0 {
                let (a, b) = table5_terms(j / 2 % TABLE5_ROWS.len());
                vec![a, b]
            } else {
                pool.split_off(pool.len() - 2)
            };
            reqs.push(Req::new(Kind::Phrase, terms, None, String::new()));
        }
        for _ in 0..queries {
            let doc = format!("article{:05}.xml", self.rng.index(self.articles));
            let terms = pool.split_off(pool.len() - 2);
            let body = format!(
                "For $a in document(\"{doc}\")//article/descendant-or-self::*\n\
                 Score $a using ScoreFoo($a, {{\"{} {}\"}}, {{}})\n\
                 Pick $a using PickFoo($a)\n\
                 Return $a\n\
                 Sortby(score)\n\
                 Threshold $a/@score > 0.5 stop after 5\n",
                terms[0], terms[1]
            );
            reqs.push(Req::new(Kind::Query, terms, None, body));
        }
        self.rng.shuffle(&mut reqs);
        reqs
    }

    /// The `query_hot` set: `HOT_DISTINCT` cacheable requests whose bodies
    /// all stay within a few KiB (top-10 searches, short phrase results),
    /// so that which of them a seed makes popular changes little.
    fn hot_set(&mut self) -> Vec<Req> {
        let mut set = Vec::with_capacity(HOT_DISTINCT);
        let small_rows: Vec<usize> = (0..TABLE5_ROWS.len())
            .filter(|&i| TABLE5_ROWS[i].result_size <= SMALL_PHRASE)
            .collect();
        let first_row = self.rng.index(small_rows.len());
        for j in 0..HOT_DISTINCT / 8 {
            let (a, b) = table5_terms(small_rows[(first_row + j) % small_rows.len()]);
            set.push(Req::new(Kind::Phrase, vec![a, b], None, String::new()));
        }
        for j in 0..HOT_DISTINCT / 8 {
            let freq = TABLE12_FREQUENCIES[(2 * j + 1) % TABLE12_FREQUENCIES.len()];
            let terms = vec![pair_term(freq, 0), pair_term(freq, 1)];
            set.push(Req::new(Kind::SearchMin, terms, Some(1.0), String::new()));
        }
        // 24 term lists hold each of the 11 planted pairs at most once.
        for terms in self.search_terms(HOT_DISTINCT - set.len(), Mix::FULL.planted) {
            set.push(Req::new(Kind::Search, terms, None, String::new()));
        }
        self.rng.shuffle(&mut set);
        set
    }
}

/// The request cycle of `workload` for `seed` over a corpus of
/// `articles` documents: `STREAM_LEN` requests, replayed round and round.
pub fn make_stream(workload: Workload, seed: u64, articles: usize) -> Vec<Req> {
    let mut source = Source::new(seed, articles);
    match workload {
        Workload::QueryCold => source.cycle(Mix::FULL, STREAM_LEN),
        Workload::IngestMixed => source.cycle(Mix::NO_QUERY, STREAM_LEN),
        Workload::ClusterScatter => source.cycle(Mix::SCATTER, STREAM_LEN),
        Workload::QueryHot => {
            // A small set that fits the result cache, asked for with
            // Zipf skew; every tenth request is a `/health` probe.
            let distinct = source.hot_set();
            let skew = Zipf::new(HOT_DISTINCT, 1.07);
            (0..STREAM_LEN)
                .map(|i| {
                    if i % 10 == 9 {
                        Req::health()
                    } else {
                        distinct[skew.sample(&mut source.rng)].clone()
                    }
                })
                .collect()
        }
    }
}

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A hash of the whole stream, cut to 48 bits so that it survives a trip
/// through a JSON number unchanged.
pub fn stream_hash(stream: &[Req]) -> u64 {
    let mut h = 0u64;
    for req in stream {
        h = fnv1a(&[&h.to_le_bytes()[..], &req.wire].concat());
    }
    h & 0xffff_ffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for workload in Workload::ALL {
            let a = make_stream(workload, 7, 1000);
            let b = make_stream(workload, 7, 1000);
            let c = make_stream(workload, 8, 1000);
            assert_eq!(a.len(), STREAM_LEN);
            assert_eq!(a, b, "{}", workload.name());
            assert_ne!(a, c, "{}", workload.name());
            assert_eq!(stream_hash(&a), stream_hash(&b));
            assert_ne!(stream_hash(&a), stream_hash(&c));
            assert!(stream_hash(&a) < 1 << 48);
        }
    }

    #[test]
    fn cold_stream_has_the_stated_mix_and_outgrows_the_cache() {
        let stream = make_stream(Workload::QueryCold, 1, 1000);
        let share = |kind: Kind| {
            stream.iter().filter(|r| r.kind == kind).count() as f64 / stream.len() as f64
        };
        assert!((share(Kind::Search) - 0.70).abs() < 0.03);
        assert!((share(Kind::SearchMin) - 0.15).abs() < 0.03);
        assert!((share(Kind::Phrase) - 0.10).abs() < 0.03);
        assert!((share(Kind::Query) - 0.05).abs() < 0.02);
        let distinct: std::collections::BTreeSet<&str> =
            stream.iter().map(|r| r.target.as_str()).collect();
        assert!(distinct.len() > 8 * 256, "{} distinct", distinct.len());
        assert!(stream
            .iter()
            .all(|r| r.threshold > 0.0 && r.threshold <= 1.0));
        for req in &stream {
            assert!((1..=4).contains(&req.terms.len()), "{:?}", req.terms);
        }
    }

    #[test]
    fn hot_stream_fits_the_cache() {
        let stream = make_stream(Workload::QueryHot, 1, 1000);
        let distinct: std::collections::BTreeSet<&str> = stream
            .iter()
            .filter(|r| r.kind != Kind::Health)
            .map(|r| r.target.as_str())
            .collect();
        assert!(distinct.len() <= HOT_DISTINCT);
        let health = stream.iter().filter(|r| r.kind == Kind::Health).count();
        assert_eq!(health, STREAM_LEN / 10);
        assert!(stream.iter().all(|r| r.kind != Kind::Query));
    }

    #[test]
    fn derived_streams_leave_out_what_their_server_cannot_answer() {
        let ingest = make_stream(Workload::IngestMixed, 3, 1000);
        assert!(ingest.iter().all(|r| r.kind != Kind::Query));
        let scatter = make_stream(Workload::ClusterScatter, 3, 1000);
        assert!(scatter
            .iter()
            .all(|r| matches!(r.kind, Kind::Search | Kind::Phrase)));
    }

    #[test]
    fn wire_format_is_one_closed_request() {
        let req = Req::search_one("mk7");
        let text = String::from_utf8(req.wire.clone()).unwrap();
        assert!(text.starts_with("GET /search?q=mk7&k=10&threshold=0.8&fraction=0.5 HTTP/1.1\r\n"));
        assert!(text.ends_with("Connection: close\r\n\r\n"));
        let post = wire_bytes("POST", "/query", b"abc");
        assert!(post.ends_with(b"Content-Length: 3\r\nConnection: close\r\n\r\nabc"));
    }
}
