//! Timing harness: the workspace's `criterion` replacement.
//!
//! A bench target (`harness = false` under `[[bench]]`) constructs a
//! [`BenchHarness`] from the command line, registers closures with
//! [`BenchHarness::bench`], and calls [`BenchHarness::finish`]. Each
//! benchmark runs `warmup` throwaway iterations then `iters` timed ones;
//! the report prints min/mean/median/p95 and is written as JSON (via
//! [`crate::json`]) under `target/rt-bench/<suite>.json` so experiment
//! tooling can diff runs.
//!
//! Modes:
//! - default: 3 warmup + 15 timed iterations per benchmark;
//! - `--smoke` (or `TSVD_BENCH_SMOKE=1`): no warmup, 1 iteration — the CI
//!   gate that every bench target still *runs* without paying bench time;
//! - any other non-flag argument filters benchmarks by substring (the
//!   `cargo bench <filter>` convention). Unknown `--flags` are ignored so
//!   cargo's own harness arguments pass through harmlessly.

use crate::json::{Json, ToJson};
use std::time::Instant;

/// Re-export of the optimisation barrier benchmarks should wrap inputs and
/// outputs in (criterion's `black_box` equivalent).
pub use std::hint::black_box;

/// One benchmark's timing summary, in nanoseconds.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Timed iterations.
    pub iters: usize,
    /// Fastest iteration.
    pub min_ns: f64,
    /// Arithmetic mean.
    pub mean_ns: f64,
    /// Median (p50).
    pub median_ns: f64,
    /// 95th percentile.
    pub p95_ns: f64,
}

impl BenchResult {
    fn from_samples(name: &str, mut ns: Vec<f64>) -> BenchResult {
        ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let iters = ns.len();
        let mean = ns.iter().sum::<f64>() / iters as f64;
        // Linearly interpolated percentile over the sorted samples.
        let pct = |q: f64| {
            let pos = (iters as f64 - 1.0) * q;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            ns[lo] + (ns[hi] - ns[lo]) * (pos - lo as f64)
        };
        BenchResult {
            name: name.to_string(),
            iters,
            min_ns: ns[0],
            mean_ns: mean,
            median_ns: pct(0.50),
            p95_ns: pct(0.95),
        }
    }
}

impl ToJson for BenchResult {
    fn to_json(&self) -> Json {
        Json::object([
            ("name", Json::Str(self.name.clone())),
            ("iters", Json::Int(self.iters as i64)),
            ("min_ns", Json::Num(self.min_ns)),
            ("mean_ns", Json::Num(self.mean_ns)),
            ("median_ns", Json::Num(self.median_ns)),
            ("p95_ns", Json::Num(self.p95_ns)),
        ])
    }
}

/// Collects and runs a suite of benchmarks.
pub struct BenchHarness {
    suite: String,
    warmup: usize,
    iters: usize,
    filter: Option<String>,
    results: Vec<BenchResult>,
    /// Suite-level workload parameters (shard counts, batch windows, …)
    /// persisted in the JSON record alongside the thread count.
    params: Vec<(String, Json)>,
}

impl BenchHarness {
    /// A harness configured from `std::env::args` (see module docs).
    pub fn from_args(suite: &str) -> BenchHarness {
        let mut smoke = std::env::var("TSVD_BENCH_SMOKE")
            .map(|v| v == "1")
            .unwrap_or(false);
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            if arg == "--smoke" {
                smoke = true;
            } else if !arg.starts_with('-') {
                filter = Some(arg);
            }
        }
        let (warmup, iters) = if smoke { (0, 1) } else { (3, 15) };
        BenchHarness {
            suite: suite.to_string(),
            warmup,
            iters,
            filter,
            results: Vec::new(),
            params: Vec::new(),
        }
    }

    /// Record a workload parameter (shard count `R`, batch-window size, …)
    /// to be persisted in the suite's JSON record next to the thread count.
    /// Recording the same key again replaces the value.
    pub fn record_param(&mut self, key: &str, value: impl ToJson) {
        let v = value.to_json();
        if let Some(slot) = self.params.iter_mut().find(|(k, _)| k == key) {
            slot.1 = v;
        } else {
            self.params.push((key.to_string(), v));
        }
    }

    /// Time `f`, unless the command-line filter excludes `name`. The
    /// closure's return value is passed through [`black_box`] so its
    /// computation cannot be optimised away.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        for _ in 0..self.warmup {
            black_box(f());
        }
        let mut samples = Vec::with_capacity(self.iters);
        for _ in 0..self.iters {
            let t = Instant::now();
            black_box(f());
            samples.push(t.elapsed().as_secs_f64() * 1e9);
        }
        let r = BenchResult::from_samples(name, samples);
        eprintln!(
            "bench {suite}/{name}: median {median} p95 {p95} (n={n})",
            suite = self.suite,
            median = fmt_ns(r.median_ns),
            p95 = fmt_ns(r.p95_ns),
            n = r.iters,
        );
        self.results.push(r);
    }

    /// Results collected so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// The JSON record [`BenchHarness::finish`] persists. Carries the
    /// resolved pool thread count so perf trajectories stay comparable
    /// across machines and `TSVD_THREADS` settings.
    fn suite_record(&self) -> Json {
        Json::object([
            ("suite", Json::Str(self.suite.clone())),
            ("threads", Json::Int(crate::pool::num_threads() as i64)),
            (
                "params",
                Json::object(self.params.iter().map(|(k, v)| (k.clone(), v.clone()))),
            ),
            ("results", self.results.to_json()),
        ])
    }

    /// Print the summary table and persist `target/rt-bench/<suite>.json`.
    pub fn finish(self) {
        println!("\n## bench suite: {}\n", self.suite);
        println!(
            "| {:<40} | {:>6} | {:>12} | {:>12} | {:>12} |",
            "benchmark", "iters", "min", "median", "p95"
        );
        println!(
            "| {} | {} | {} | {} | {} |",
            "-".repeat(40),
            "-".repeat(6),
            "-".repeat(12),
            "-".repeat(12),
            "-".repeat(12)
        );
        for r in &self.results {
            println!(
                "| {:<40} | {:>6} | {:>12} | {:>12} | {:>12} |",
                r.name,
                r.iters,
                fmt_ns(r.min_ns),
                fmt_ns(r.median_ns),
                fmt_ns(r.p95_ns),
            );
        }
        let record = self.suite_record();
        let dir = std::path::Path::new("target/rt-bench");
        if std::fs::create_dir_all(dir).is_ok() {
            let path = dir.join(format!("{}.json", self.suite));
            if std::fs::write(&path, record.to_string_pretty()).is_ok() {
                eprintln!("[saved {}]", path.display());
            }
        }
    }
}

/// Human-readable nanosecond count.
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::FromJson;

    fn harness(warmup: usize, iters: usize) -> BenchHarness {
        BenchHarness {
            suite: "unit".to_string(),
            warmup,
            iters,
            filter: None,
            results: Vec::new(),
            params: Vec::new(),
        }
    }

    #[test]
    fn summary_statistics_are_order_statistics() {
        let r =
            BenchResult::from_samples("t", vec![5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]);
        assert_eq!(r.min_ns, 1.0);
        assert_eq!(r.median_ns, 5.5);
        assert!((r.p95_ns - 9.55).abs() < 1e-12, "{}", r.p95_ns);
        assert!((r.mean_ns - 5.5).abs() < 1e-12);
        assert_eq!(r.iters, 10);
    }

    #[test]
    fn harness_runs_and_records() {
        let mut h = harness(1, 5);
        let mut calls = 0usize;
        h.bench("count_calls", || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 6, "1 warmup + 5 timed");
        assert_eq!(h.results().len(), 1);
        assert!(h.results()[0].min_ns >= 0.0);
        assert!(h.results()[0].p95_ns >= h.results()[0].median_ns);
    }

    #[test]
    fn result_json_round_trips() {
        // The record type rt::bench emits must survive rt::json.
        let r = BenchResult {
            name: "kernel".into(),
            iters: 15,
            min_ns: 102.5,
            mean_ns: 110.25,
            median_ns: 108.0,
            p95_ns: 131.125,
        };
        let j = Json::parse(&r.to_json().to_string()).unwrap();
        assert_eq!(j["name"], "kernel");
        assert_eq!(i64::from_json(&j["iters"]).unwrap(), 15);
        assert_eq!(f64::from_json(&j["p95_ns"]).unwrap(), 131.125);
    }

    #[test]
    fn suite_record_carries_thread_count() {
        let mut h = harness(0, 1);
        h.bench("noop", || 0);
        let j = Json::parse(&h.suite_record().to_string()).unwrap();
        assert_eq!(j["suite"], "unit");
        let threads = i64::from_json(&j["threads"]).unwrap();
        assert_eq!(threads, crate::pool::num_threads() as i64);
        assert!(threads >= 1);
    }

    #[test]
    fn suite_record_carries_workload_params() {
        let mut h = harness(0, 1);
        h.bench("noop", || 0);
        h.record_param("shards", 4i64);
        h.record_param("batch_window", 512i64);
        h.record_param("shards", 8i64); // replaces, no duplicate key
        let j = Json::parse(&h.suite_record().to_string()).unwrap();
        assert_eq!(i64::from_json(&j["params"]["shards"]).unwrap(), 8);
        assert_eq!(i64::from_json(&j["params"]["batch_window"]).unwrap(), 512);
    }

    #[test]
    fn formats_scale() {
        assert_eq!(fmt_ns(500.0), "500ns");
        assert_eq!(fmt_ns(1500.0), "1.5µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000.0), "3.00s");
    }
}
