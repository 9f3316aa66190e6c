//! `tixbench` — the one end-to-end + per-layer benchmark every TIX
//! performance claim is measured with. See `README.md` beside this
//! package for the workloads, the metrics and why each was chosen.
//!
//! ```text
//! tixbench --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//!          [--repeat N] [--record] [--corpus inex-32|inex-16|inex-8|inex|…]
//! tixbench --quick [--seed <u64>]
//! ```
//!
//! The last line of standard output is one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! 0 only when every answer was correct.

mod affinity;
mod client;
mod layers;
mod report;
mod spec;
mod stats;
mod stream;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::RunResult;
use spec::{CorpusSize, Workload};
use workloads::Config;

/// Measured seconds of a run when `--seconds` is not given; the same
/// number as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    quick: bool,
    record: bool,
    corpus: Option<CorpusSize>,
}

fn usage() -> String {
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let corpora: Vec<&str> = CorpusSize::ALL.iter().map(|c| c.name).collect();
    format!(
        "usage: tixbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]\n\
         \x20               [--repeat N] [--record] [--corpus <{}>]\n\
         \x20      tixbench --quick [--seed N]",
        workloads.join("|"),
        corpora.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        quick: false,
        record: false,
        corpus: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|_| "bad --repeat")?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--corpus" => {
                let name = value()?;
                args.corpus =
                    Some(CorpusSize::parse(&name).ok_or(format!("unknown corpus {name:?}"))?);
            }
            "--quick" => args.quick = true,
            "--record" => args.record = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if args.workload.is_none() && !args.quick {
        return Err(usage());
    }
    Ok(args)
}

/// Everything the benchmark writes stays inside the checkout: under
/// cargo's target directory (`CARGO_TARGET_DIR`, which the driver points
/// into the checkout, or this package's own `target/`).
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("tixbench/target"))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn config(args: &Args, workload: Workload, trace: bool, run: usize) -> Config {
    let target = target_dir();
    Config {
        workload,
        seed: args.seed,
        seconds: if args.quick { 1.5 } else { args.seconds },
        trace,
        quick: args.quick,
        corpus: if args.quick {
            CorpusSize::QUICK
        } else {
            args.corpus.unwrap_or(workload.default_corpus())
        },
        work: target
            .join("tixbench-work")
            .join(format!("{}-{run}", std::process::id())),
        trace_dir: target.join("tixbench"),
        clients: nproc(),
    }
}

/// `--quick`: every workload, with and without tracing, on a tiny corpus.
/// Checks schema, names and correctness; prints no numbers, because none
/// of them means anything at this size.
fn quick(args: &Args) -> ExitCode {
    let mut all_good = true;
    let mut run = 0;
    for workload in Workload::ALL {
        for trace in [false, true] {
            run += 1;
            let result = workloads::run(&config(args, workload, trace, run));
            let missing = result.missing();
            let good = result.correct() && missing.is_empty();
            all_good &= good;
            println!(
                "{:<16} trace={} {} ({} metrics, {} operations, {} failed)",
                workload.name(),
                u8::from(trace),
                if good { "ok" } else { "FAILED" },
                result.defs().len(),
                result.attempted,
                result.failed
            );
            for name in missing {
                println!("  missing metric: {name}");
            }
            for problem in &result.problems {
                println!("  PROBLEM: {problem}");
            }
        }
    }
    if all_good {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn record(box_cpus: usize, pinned_cpu: Option<usize>, cfg: &Config, result: &RunResult) {
    let root = PathBuf::from(".");
    let line = report::trajectory_line(
        result,
        cfg.corpus,
        cfg.seconds,
        box_cpus,
        pinned_cpu,
        &report::git_revision(&root),
    );
    let path = PathBuf::from("tixbench/results/trajectory.jsonl");
    match report::append_trajectory(&path, &line) {
        Ok(()) => eprintln!("tixbench: appended to {}", path.display()),
        Err(e) => eprintln!("tixbench: could not append to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    // Before any thread is spawned, so that all of them inherit it. From
    // here on `nproc()` is 1: one client, one sender.
    let box_cpus = nproc();
    let pinned_cpu = affinity::pin_to_one_cpu();
    match pinned_cpu {
        Some(cpu) => eprintln!("tixbench: pinned to CPU {cpu}"),
        None => eprintln!("tixbench: could not pin to one CPU; expect noisier numbers"),
    }
    if args.quick {
        return quick(&args);
    }
    let workload = args.workload.expect("checked by parse_args");
    let mut runs = Vec::with_capacity(args.repeat);
    for run in 0..args.repeat {
        let cfg = config(&args, workload, args.trace, run);
        let result = workloads::run(&cfg);
        let missing = result.missing();
        if !missing.is_empty() {
            eprintln!("tixbench: bug: unmeasured end-to-end metrics {missing:?}");
            return ExitCode::from(3);
        }
        if args.record {
            record(box_cpus, pinned_cpu, &cfg, &result);
        }
        if args.repeat > 1 {
            eprint!("{}", result.table());
        }
        runs.push(result);
    }
    let (line, correct) = if args.repeat > 1 {
        let (table, identical) = report::repeat_table(&runs);
        print!("{table}");
        if !identical {
            println!("PROBLEM: an exact counter differs between repeats of one seed");
        }
        (
            report::repeat_line(&runs, identical),
            identical && runs.iter().all(RunResult::correct),
        )
    } else {
        print!("{}", runs[0].table());
        (runs[0].result_line(), runs[0].correct())
    };
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
