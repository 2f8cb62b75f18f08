//! `tsvd-e2e` — the repository's end-to-end benchmark.
//!
//! ```text
//! tsvd-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's form)
//! tsvd-e2e all [--seed n] [--seconds s] [--runs r] [--trace] [--out set.json]
//! tsvd-e2e compare <base.json> <new.json>
//! tsvd-e2e --smoke                                                   every workload + traced run, toy sizes
//! ```
//!
//! One run prints its metrics by name and unit on standard error and, as the
//! last line of standard output, one JSON object: `correct`, `attempted`,
//! `failed`, and either every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`). It exits non-zero if any output was wrong.
//! See `README.md` in this directory for what each metric means.

mod calib;
mod gen;
mod report;
mod stats;
mod sut;
mod trace;
mod workload;

use std::process::{Command, ExitCode, Stdio};

use report::{ResultSet, RunRecord};
use tsvd_rt::json::Json;
use workload::{RunDir, Spec, SPECS};

/// Pool threads of the SUT, pinned for every run.
const TSVD_THREADS: &str = "2";

/// One run's arguments.
struct RunArgs {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Run one workload in this process and print its result line.
fn run_one(args: &RunArgs) -> bool {
    let dir = RunDir::create();
    let out = workload::run(args.spec, args.seed, args.seconds, &dir);
    let mut failures = out.failures.clone();
    eprintln!(
        "== {} (scale {}, seed {}, {} s, TSVD_THREADS={TSVD_THREADS}, nproc {})",
        out.spec.name,
        out.spec.scale.name,
        args.seed,
        args.seconds,
        nproc()
    );
    eprintln!("   {}", out.spec.why);
    for m in &out.metrics {
        let raw = if m.factor == 1.0 {
            String::new()
        } else {
            format!("  (raw {:.4} at box speed x{:.3})", m.raw, m.factor)
        };
        eprintln!(
            "  {:<26} {:>14.4} {:<6} n={}{raw}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for note in &out.notes {
        eprintln!("  {note}");
    }
    let line = if args.trace {
        let traced = trace::traced(&out, &dir);
        failures.extend(traced.failures.iter().cloned());
        for (name, value) in &traced.metrics {
            eprintln!("  {name:<40} {value:>14.4}");
        }
        let metrics: Vec<(&str, f64, &str)> = traced
            .metrics
            .iter()
            .zip(trace::PER_LAYER)
            .map(|(&(name, value), (_, unit, _))| (name, value, unit))
            .collect();
        let failed = out.failed + traced.failures.len() as u64;
        report::result_line(failed == 0, out.attempted, failed, &metrics)
    } else {
        let metrics: Vec<(&str, f64, &str)> = out
            .metrics
            .iter()
            .map(|m| (m.name, m.value, m.unit))
            .collect();
        report::result_line(out.failed == 0, out.attempted, out.failed, &metrics)
    };
    for f in &failures {
        eprintln!("  WRONG: {f}");
    }
    eprintln!("  ops attempted {} failed {}", out.attempted, out.failed);
    println!("{line}");
    failures.is_empty() && out.failed == 0
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Run every workload, each in a fresh child process of this binary (so
/// set-up time and peak memory are per workload), `runs` times with
/// consecutive seeds; print the table and optionally write the set.
fn run_all(seed: u64, seconds: u64, runs: u64, trace: bool, out: Option<&str>) -> bool {
    let exe = std::env::current_exe().expect("path of the running binary");
    let mut set = ResultSet {
        git_sha: git_sha(),
        nproc: nproc(),
        threads: TSVD_THREADS.parse().expect("thread count"),
        seconds,
        runs: Vec::new(),
    };
    let mut all_correct = true;
    let modes: &[bool] = if trace { &[false, true] } else { &[false] };
    for r in 0..runs {
        for spec in &SPECS {
            for &traced in modes {
                let seed = seed + r;
                let child = Command::new(&exe)
                    .args(["--workload", spec.name])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .output()
                    .expect("start a workload process");
                let stdout = String::from_utf8_lossy(&child.stdout);
                let record = stdout
                    .lines()
                    .last()
                    .and_then(|l| Json::parse(l).ok())
                    .and_then(|j| RunRecord::parse(&j, spec.name, seed, traced).ok());
                match record {
                    Some(rec) => {
                        all_correct &= rec.correct && child.status.success();
                        set.runs.push(rec);
                    }
                    None => {
                        eprintln!(
                            "{}: no result line (exit {:?})",
                            spec.name,
                            child.status.code()
                        );
                        all_correct = false;
                    }
                }
            }
        }
    }
    println!(
        "commit {}  nproc {}  TSVD_THREADS {}  {} s per run  {} run(s) per workload from seed {seed}",
        set.git_sha, set.nproc, set.threads, seconds, runs
    );
    set.print_table(false);
    if trace {
        set.print_table(true);
    }
    if let Some(path) = out {
        std::fs::write(path, set.to_json()).expect("write the result set");
        println!("\nwrote {path}");
    }
    if !all_correct {
        println!("\nWRONG OUTPUT in at least one run");
    }
    all_correct
}

/// Every workload and its traced run at toy sizes, in this process.
fn smoke() -> bool {
    SPECS.iter().all(|s| {
        let spec = workload::spec(s.name, true).expect("known workload");
        [false, true].iter().all(|&trace| {
            run_one(&RunArgs {
                spec,
                seed: 1,
                seconds: 1.0,
                trace,
            })
        })
    })
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: tsvd-e2e --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       tsvd-e2e all [--seed n] [--seconds s] [--runs r] [--trace] [--out set.json]\n       tsvd-e2e compare <base.json> <new.json>\n       tsvd-e2e --smoke",
        SPECS.map(|s| s.name).join("|")
    );
    ExitCode::from(2)
}

/// The value following `flag`, if the flag is present.
fn value_of<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    // The SUT reads its knobs from TSVD_* variables: pin the thread count
    // and drop everything else, so a run never inherits a caller's setting.
    // Nothing else runs yet, so mutating the environment is sound.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("TSVD_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("TSVD_THREADS", TSVD_THREADS);

    let args: Vec<String> = std::env::args().skip(1).collect();
    let parse = |flag: &str, default: u64| -> Option<u64> {
        value_of(&args, flag).map_or(Some(default), |v| v.parse().ok())
    };
    let ok = match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return usage();
            };
            let load = |p: &str| {
                std::fs::read_to_string(p)
                    .map_err(|e| e.to_string())
                    .and_then(|t| ResultSet::parse(&t))
            };
            match (load(a), load(b)) {
                (Ok(a), Ok(b)) => !report::compare(&a, &b),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("cannot read a result set: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        Some("all") => {
            let (Some(seed), Some(seconds), Some(runs)) = (
                parse("--seed", 1),
                parse("--seconds", 15),
                parse("--runs", 1),
            ) else {
                return usage();
            };
            let trace = args.iter().any(|a| a == "--trace");
            run_all(seed, seconds, runs, trace, value_of(&args, "--out"))
        }
        _ if args.iter().any(|a| a == "--workload") => {
            let smoke = args.iter().any(|a| a == "--smoke");
            let spec = value_of(&args, "--workload").and_then(|w| workload::spec(w, smoke));
            let seconds = value_of(&args, "--seconds").and_then(|s| s.parse::<f64>().ok());
            let trace = match value_of(&args, "--trace") {
                Some("0") | None => Some(false),
                Some("1") => Some(true),
                _ => None,
            };
            let (Some(spec), Some(seed), Some(seconds), Some(trace)) =
                (spec, parse("--seed", 1), seconds, trace)
            else {
                return usage();
            };
            if !(seconds > 0.0 && seconds <= 60.0) {
                return usage();
            }
            run_one(&RunArgs {
                spec,
                seed,
                seconds,
                trace,
            })
        }
        Some("--smoke") => smoke(),
        _ => return usage(),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics the binary
    /// prints, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let j = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let list = |key: &str| j.get(key).and_then(Json::as_array).unwrap().to_vec();
        let s = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();
        let workloads = list("workloads");
        assert_eq!(workloads.len(), SPECS.len());
        for (w, spec) in workloads.iter().zip(&SPECS) {
            assert_eq!(s(w, "name"), spec.name);
            assert_eq!(s(w, "why"), spec.why);
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), report::END_TO_END.len());
        for (m, (name, unit, better, bound)) in e2e.iter().zip(report::END_TO_END) {
            assert_eq!(
                (s(m, "name"), s(m, "unit"), s(m, "better")),
                (name.into(), unit.into(), better.into())
            );
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), trace::PER_LAYER.len());
        for (m, (name, unit, better)) in layers.iter().zip(trace::PER_LAYER) {
            assert_eq!(
                (s(m, "name"), s(m, "unit"), s(m, "better")),
                (name.into(), unit.into(), better.into())
            );
        }
        assert_eq!(
            list("paths")
                .iter()
                .map(|p| p.as_str().unwrap())
                .collect::<Vec<_>>(),
            ["tsvd-e2e"]
        );
    }

    /// The smoke run end to end: every workload and its traced replay at toy
    /// sizes, with every correctness gate on.
    #[test]
    fn smoke_runs_every_workload_and_traced_replay() {
        assert!(smoke());
    }
}
