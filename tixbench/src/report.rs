//! What a run produces and how it is printed: every metric by name with
//! its unit, the result line the driver reads, `--repeat`'s quartiles and
//! the trajectory file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use tix_cluster::Json;

use crate::spec::{CorpusSize, MetricDef, Workload, END_TO_END, EXACT, PER_LAYER};
use crate::stats;

/// The outcome of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    pub values: BTreeMap<&'static str, f64>,
    /// Sample counts and the like, printed beside the value.
    pub notes: BTreeMap<&'static str, String>,
    /// Operations sent: requests of every phase and every check.
    pub attempted: u64,
    /// Transport errors, non-2xx answers (503 and 504 included), wrong
    /// bodies, and acknowledged documents that could not be found.
    pub failed: u64,
    /// The first few failures, in words.
    pub problems: Vec<String>,
}

impl RunResult {
    pub fn new(workload: Workload, seed: u64, trace: bool) -> RunResult {
        RunResult {
            workload,
            seed,
            trace,
            values: BTreeMap::new(),
            notes: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "{name} is not a metric the benchmark names"
        );
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn note(&mut self, name: &'static str, text: String) {
        self.notes.insert(name, text);
    }

    /// Count `n` more operations, `bad` of which failed.
    pub fn count(&mut self, n: usize, bad: usize) {
        self.attempted += n as u64;
        self.failed += bad as u64;
    }

    pub fn problem(&mut self, text: String) {
        if self.problems.len() < 8 {
            self.problems.push(text);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The metrics this run reports: every end-to-end metric with tracing
    /// off, every per-layer metric with tracing on.
    pub fn defs(&self) -> &'static [MetricDef] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// A layer that did not run in this workload reports 0.
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// End-to-end metrics the run failed to measure (a bug, not a result).
    pub fn missing(&self) -> Vec<&'static str> {
        if self.trace {
            return Vec::new();
        }
        END_TO_END
            .iter()
            .filter(|d| !self.values.contains_key(d.name))
            .map(|d| d.name)
            .collect()
    }

    /// Every metric by name with its unit, one per line.
    pub fn table(&self) -> String {
        let mut out = format!(
            "# {} seed={} trace={}\n",
            self.workload.name(),
            self.seed,
            u8::from(self.trace)
        );
        for def in self.defs() {
            let note = self.notes.get(def.name).map_or("", String::as_str);
            let _ = writeln!(
                out,
                "{:<34} {:>16.4} {:<7} ({} is better) {}",
                def.name,
                self.value(def.name),
                def.unit,
                def.better.as_str(),
                note
            );
        }
        let _ = writeln!(
            out,
            "{:<34} {:>16} of {} attempted",
            "failed", self.failed, self.attempted
        );
        for problem in &self.problems {
            let _ = writeln!(out, "PROBLEM: {problem}");
        }
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics_json(self.defs(), |name| self.value(name))
        )
    }
}

fn metrics_json(defs: &[MetricDef], value: impl Fn(&str) -> f64) -> String {
    let fields: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                value(d.name),
                d.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// `--repeat`: each metric's median, quartiles and relative spread over
/// the runs, and whether the exact counters were identical. Returns the
/// table and the verdict.
pub fn repeat_table(runs: &[RunResult]) -> (String, bool) {
    let Some(first) = runs.first() else {
        return (String::new(), false);
    };
    let mut out = format!(
        "# {} seed={} trace={} repeats={}\n{:<34} {:>14} {:>14} {:>14} {:>8}\n",
        first.workload.name(),
        first.seed,
        u8::from(first.trace),
        runs.len(),
        "metric",
        "q1",
        "median",
        "q3",
        "spread"
    );
    let mut identical = true;
    for def in first.defs() {
        let values: Vec<f64> = runs.iter().map(|r| r.value(def.name)).collect();
        let [q1, q2, q3] = stats::quartiles(&values);
        let exact = EXACT.contains(&def.name)
            || (def.name == "disk_bytes_per_xml_byte" && first.workload != Workload::IngestMixed);
        let mark = if !exact {
            ""
        } else if values.iter().all(|v| v.to_bits() == values[0].to_bits()) {
            "exact: identical"
        } else {
            identical = false;
            "exact: DIFFERS"
        };
        let _ = writeln!(
            out,
            "{:<34} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {}",
            def.name,
            q1,
            q2,
            q3,
            stats::relative_spread(&values) * 100.0,
            mark
        );
    }
    (out, identical)
}

/// The result line of a repeated run: the medians.
pub fn repeat_line(runs: &[RunResult], identical: bool) -> String {
    let first = &runs[0];
    let correct = identical && runs.iter().all(RunResult::correct);
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        runs.iter().map(|r| r.attempted).sum::<u64>().max(1),
        runs.iter().map(|r| r.failed).sum::<u64>(),
        metrics_json(first.defs(), |name| {
            stats::median(&runs.iter().map(|r| r.value(name)).collect::<Vec<_>>())
        })
    )
}

/// The checked-out revision, read from `.git` without running git;
/// `unknown` outside a repository (the driver's checkout is not one).
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|line| line.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One trajectory line: where and on what the numbers were measured,
/// every metric, and no claim.
pub fn trajectory_line(
    result: &RunResult,
    corpus: CorpusSize,
    seconds: f64,
    nproc: usize,
    pinned_cpu: Option<usize>,
    revision: &str,
) -> String {
    let pinned = pinned_cpu.map_or("null".to_string(), |cpu| cpu.to_string());
    format!(
        "{{\"revision\": \"{revision}\", \"nproc\": {nproc}, \"pinned_cpu\": {pinned}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {seconds}, \"trace\": {}, \"corpus\": {{\"name\": \"{}\", \"target_bytes\": {}, \"plant_scale\": {}}}, \"claim\": null, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.workload.name(),
        result.seed,
        u8::from(result.trace),
        corpus.name,
        corpus.target_bytes,
        corpus.plant_scale,
        result.correct(),
        result.attempted,
        result.failed,
        metrics_json(result.defs(), |name| result.value(name))
    )
}

/// Append `line` to the trajectory file.
pub fn append_trajectory(path: &Path, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")
}

/// A `/metrics` document, for deltas over a window.
pub struct Snapshot(Json);

impl Snapshot {
    pub fn parse(text: &str) -> Snapshot {
        Snapshot(Json::parse(text).unwrap_or(Json::Null))
    }

    /// The number at `path`, 0 when absent.
    pub fn num(&self, path: &[&str]) -> f64 {
        path.iter()
            .try_fold(&self.0, |doc, key| doc.get(key))
            .and_then(Json::f64)
            .unwrap_or(0.0)
    }

    /// `later − self` at `path`.
    pub fn delta(&self, later: &Snapshot, path: &[&str]) -> f64 {
        later.num(path) - self.num(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(values: &[(&'static str, f64)], trace: bool) -> RunResult {
        let mut r = RunResult::new(Workload::QueryCold, 1, trace);
        for &(name, value) in values {
            r.set(name, value);
        }
        r.count(10, 0);
        r
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        for trace in [false, true] {
            let r = run(&[], trace);
            let doc = Json::parse(&r.result_line()).expect("result line is JSON");
            let Json::Obj(pairs) = &doc else {
                panic!("not an object")
            };
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("metrics is not an object")
            };
            let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let expected: Vec<&str> = r.defs().iter().map(|d| d.name).collect();
            assert_eq!(names, expected);
            for (name, metric) in metrics {
                assert!(metric.get("value").and_then(Json::f64).is_some(), "{name}");
                assert!(metric.get("unit").and_then(Json::str).is_some(), "{name}");
            }
        }
    }

    #[test]
    fn unmeasured_end_to_end_metrics_are_reported_as_missing() {
        let r = run(&[("setup_s", 1.5)], false);
        assert!(!r.missing().contains(&"setup_s"));
        assert!(r.missing().contains(&"capacity_rps"));
        assert!(run(&[], true).missing().is_empty());
    }

    #[test]
    fn failures_and_problems_make_a_run_incorrect() {
        let mut r = run(&[], false);
        assert!(r.correct());
        r.count(5, 1);
        assert!(!r.correct());
        assert!(r
            .result_line()
            .starts_with("{\"correct\": false, \"attempted\": 15, \"failed\": 1,"));
        let mut p = run(&[], false);
        p.problem("wrong body".to_string());
        assert!(!p.correct());
        assert!(p.table().contains("PROBLEM: wrong body"));
    }

    #[test]
    fn values_keep_all_their_digits() {
        let r = run(&[("setup_s", 0.812_734_561_2)], false);
        assert!(r.result_line().contains("\"value\": 0.8127345612"));
        let mut nan = run(&[], false);
        nan.set("setup_s", f64::NAN);
        assert_eq!(nan.value("setup_s"), 0.0);
    }

    #[test]
    fn repeat_flags_an_exact_counter_that_moved() {
        let a = run(
            &[("exec.postings_scanned", 100.0), ("exec.execute_us", 5.0)],
            true,
        );
        let b = run(
            &[("exec.postings_scanned", 100.0), ("exec.execute_us", 7.0)],
            true,
        );
        let (table, identical) = repeat_table(&[a.clone(), b]);
        assert!(identical, "{table}");
        assert!(table.contains("exact: identical"));
        let c = run(&[("exec.postings_scanned", 101.0)], true);
        let (table, identical) = repeat_table(&[a.clone(), c.clone()]);
        assert!(!identical);
        assert!(table.contains("exact: DIFFERS"));
        assert!(repeat_line(&[a, c], identical).starts_with("{\"correct\": false"));
    }

    #[test]
    fn snapshots_give_deltas_of_nested_counters() {
        let before = Snapshot::parse(
            "{\"cache\":{\"hits\":3,\"misses\":1},\"queue\":{\"wait\":{\"sum_us\":10}}}",
        );
        let after = Snapshot::parse(
            "{\"cache\":{\"hits\":13,\"misses\":2},\"queue\":{\"wait\":{\"sum_us\":70}}}",
        );
        assert_eq!(before.delta(&after, &["cache", "hits"]), 10.0);
        assert_eq!(before.delta(&after, &["queue", "wait", "sum_us"]), 60.0);
        assert_eq!(before.num(&["no", "such"]), 0.0);
        assert_eq!(Snapshot::parse("not json").num(&["cache"]), 0.0);
    }

    #[test]
    fn trajectory_line_is_json_with_no_claim() {
        let r = run(&[("setup_s", 2.0)], false);
        let line = trajectory_line(&r, CorpusSize::INEX_32, 18.0, 2, Some(0), "abc123");
        let doc = Json::parse(&line).expect("trajectory line is JSON");
        assert_eq!(doc.get("claim"), Some(&Json::Null));
        assert_eq!(doc.get("revision").and_then(Json::str), Some("abc123"));
        assert_eq!(doc.get("nproc").and_then(Json::u64), Some(2));
        assert_eq!(doc.get("pinned_cpu").and_then(Json::u64), Some(0));
        assert!(doc.get("metrics").and_then(|m| m.get("setup_s")).is_some());
    }
}
