//! Thread-scaling experiment: wall-clock speedup of the parallel index
//! build (`InvertedIndex::build_with_threads`) over 1/2/4/8 workers.
//!
//! The build is byte-identical at every thread count (enforced here with a
//! term-count assertion and, exhaustively, by `tix-index`'s
//! `tests/parallel_build.rs`); only wall-clock time varies. Reads run on
//! one thread, so they have no row here. Results go to stdout as a
//! markdown table and to `results/BENCH_scaling.json`.
//!
//! Environment:
//! * `TIX_ARTICLES` — corpus size (default 200, the small fixture shape);
//! * `TIX_SCALE`    — plant-frequency scale (default 0.1);
//! * `TIX_BENCH_THREADS` — comma-separated thread counts (default 1,2,4,8).

use std::fmt::Write as _;
use std::time::Duration;

use tix_bench::{fmt_ms, paper_timing, Fixture};
use tix_corpus::CorpusSpec;
use tix_index::InvertedIndex;

struct Row {
    name: &'static str,
    /// `(threads, averaged wall-clock)` per measured thread count.
    timings: Vec<(usize, Duration)>,
}

impl Row {
    fn speedup(&self, threads: usize) -> f64 {
        let base = self.timings[0].1.as_secs_f64();
        let t = self
            .timings
            .iter()
            .find(|(n, _)| *n == threads)
            .expect("measured thread count")
            .1
            .as_secs_f64();
        base / t.max(1e-12)
    }
}

fn main() {
    let articles: usize = env_parse("TIX_ARTICLES", 200);
    let scale: f64 = env_parse("TIX_SCALE", 0.1);
    let threads_axis: Vec<usize> = std::env::var("TIX_BENCH_THREADS")
        .map(|v| v.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .unwrap_or_default();
    let threads_axis = if threads_axis.is_empty() {
        vec![1, 2, 4, 8]
    } else {
        threads_axis
    };
    assert_eq!(
        threads_axis[0], 1,
        "the first thread count must be 1 (speedup baseline)"
    );

    let spec = CorpusSpec {
        articles,
        ..CorpusSpec::small()
    };
    let insertions = tix_corpus::workloads::paper_plants(scale).total_insertions();
    let capacity = spec.paragraph_count() * 8;
    if insertions > capacity {
        eprintln!(
            "error: the paper workload plants {insertions} term occurrences but \
             {articles} articles only hold {capacity}; raise TIX_ARTICLES or \
             lower TIX_SCALE (e.g. TIX_ARTICLES=200 TIX_SCALE=0.1)"
        );
        std::process::exit(2);
    }
    eprintln!("building fixture: {articles} articles, scale {scale} …");
    let fixture = Fixture::build(spec, scale);
    eprintln!(
        "corpus: {} docs, {} terms, {} tokens",
        fixture.store.doc_ids().count(),
        fixture.index.term_count(),
        fixture.index.total_tokens()
    );

    let timings = threads_axis
        .iter()
        .map(|&threads| {
            let d = paper_timing(|| {
                let index = InvertedIndex::build_with_threads(&fixture.store, threads);
                assert_eq!(index.term_count(), fixture.index.term_count());
            });
            eprintln!("  index-build @ {threads}: {} ms", fmt_ms(d));
            (threads, d)
        })
        .collect();
    let rows = [Row {
        name: "index-build",
        timings,
    }];

    print_and_save(&rows, &threads_axis, articles, scale);
}

fn print_and_save(rows: &[Row], threads_axis: &[usize], articles: usize, scale: f64) {
    let mut table = String::new();
    let mut header = String::from("| method |");
    let mut rule = String::from("|---|");
    for &t in threads_axis {
        write!(header, " {t} thr (ms) |").unwrap();
        rule.push_str("---:|");
    }
    for &t in &threads_axis[1..] {
        write!(header, " ×{t} speedup |").unwrap();
        rule.push_str("---:|");
    }
    table.push_str(&header);
    table.push('\n');
    table.push_str(&rule);
    table.push('\n');
    for row in rows {
        write!(table, "| {} |", row.name).unwrap();
        for (_, d) in &row.timings {
            write!(table, " {} |", fmt_ms(*d)).unwrap();
        }
        for &t in &threads_axis[1..] {
            write!(table, " {:.2} |", row.speedup(t)).unwrap();
        }
        table.push('\n');
    }
    println!("\n## Thread scaling ({articles} articles, scale {scale})\n\n{table}");

    let mut json = String::from("{\n");
    writeln!(json, "  \"experiment\": \"thread-scaling\",").unwrap();
    writeln!(json, "  \"articles\": {articles},").unwrap();
    writeln!(json, "  \"scale\": {scale},").unwrap();
    writeln!(
        json,
        "  \"threads\": [{}],",
        threads_axis
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    )
    .unwrap();
    json.push_str("  \"methods\": {\n");
    for (i, row) in rows.iter().enumerate() {
        writeln!(json, "    \"{}\": {{", row.name).unwrap();
        let ms: Vec<String> = row
            .timings
            .iter()
            .map(|(_, d)| format!("{:.4}", d.as_secs_f64() * 1e3))
            .collect();
        writeln!(json, "      \"wall_ms\": [{}],", ms.join(", ")).unwrap();
        let speedups: Vec<String> = threads_axis[1..]
            .iter()
            .map(|&t| format!("{:.3}", row.speedup(t)))
            .collect();
        writeln!(json, "      \"speedup_vs_1\": [{}]", speedups.join(", ")).unwrap();
        json.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    json.push_str("  }\n}\n");

    std::fs::create_dir_all("results").expect("create results/");
    let path = "results/BENCH_scaling.json";
    std::fs::write(path, &json).expect("write BENCH_scaling.json");
    eprintln!("wrote {path}");
}

fn env_parse<T: std::str::FromStr>(var: &str, default: T) -> T {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
