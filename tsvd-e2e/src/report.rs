//! Result lines, result sets, and the comparison of two sets.
//!
//! A *result line* is what one run prints last on standard output (the
//! driver's contract). A *set* is the JSON file `tsvd-e2e all --out` writes:
//! the result lines of every workload, one or more runs each, with the
//! commit, `nproc` and thread count they were taken under. `compare` reads
//! two sets.

use std::collections::BTreeMap;

use tsvd_rt::json::Json;

use crate::stats;

/// The end-to-end metrics: name, unit, direction, and the share of the
/// baseline's median by which a change may worsen the metric before it
/// counts as a regression — the `end_to_end` list of `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str, &str, f64); 7] = [
    ("setup_s", "s", "lower", 0.25),
    ("publish_ms_p50", "ms", "lower", 0.25),
    ("get_rows_burst_us_p50", "us", "lower", 0.25),
    ("top_k_burst_us_p50", "us", "lower", 0.25),
    ("recover_s", "s", "lower", 0.25),
    ("embed_resid_rel", "ratio", "lower", 0.02),
    ("peak_rss_mb", "MiB", "lower", 0.2),
];

/// Render the driver's result line. Values are printed with every digit
/// `f64` needs to round-trip.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// One parsed result line, tagged with what produced it.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// name → (value, unit)
    pub metrics: BTreeMap<String, (f64, String)>,
}

fn num(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number `{key}`"))
}

impl RunRecord {
    /// Parse a result line (or a record of a set file).
    pub fn parse(j: &Json, workload: &str, seed: u64, trace: bool) -> Result<RunRecord, String> {
        let Some(Json::Obj(pairs)) = j.get("metrics") else {
            return Err("missing object `metrics`".into());
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in pairs {
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            metrics.insert(name.clone(), (num(m, "value")?, unit.to_string()));
        }
        Ok(RunRecord {
            workload: workload.to_string(),
            seed,
            trace,
            correct: j.get("correct").and_then(Json::as_bool).unwrap_or(false),
            attempted: num(j, "attempted")? as u64,
            failed: num(j, "failed")? as u64,
            metrics,
        })
    }

    fn to_json(&self) -> String {
        let metrics: Vec<(&str, f64, &str)> = self
            .metrics
            .iter()
            .map(|(n, (v, u))| (n.as_str(), *v, u.as_str()))
            .collect();
        let line = result_line(self.correct, self.attempted, self.failed, &metrics);
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}",
            self.workload,
            self.seed,
            self.trace,
            &line[1..]
        )
    }
}

/// A set of runs with the environment they were taken under.
pub struct ResultSet {
    pub git_sha: String,
    pub nproc: usize,
    pub threads: usize,
    pub seconds: u64,
    pub runs: Vec<RunRecord>,
}

impl ResultSet {
    pub fn to_json(&self) -> String {
        let runs: Vec<String> = self.runs.iter().map(RunRecord::to_json).collect();
        format!(
            "{{\"git_sha\": \"{}\", \"nproc\": {}, \"tsvd_threads\": {}, \"seconds\": {},\n \"runs\": [\n  {}\n ]}}\n",
            self.git_sha,
            self.nproc,
            self.threads,
            self.seconds,
            runs.join(",\n  ")
        )
    }

    pub fn parse(text: &str) -> Result<ResultSet, String> {
        let j = Json::parse(text).map_err(|e| format!("not JSON: {e:?}"))?;
        let runs = j
            .get("runs")
            .and_then(Json::as_array)
            .ok_or("missing array `runs`")?
            .iter()
            .map(|r| {
                let workload = r
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or("run without workload")?;
                let trace = r.get("trace").and_then(Json::as_bool).unwrap_or(false);
                RunRecord::parse(r, workload, num(r, "seed")? as u64, trace)
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ResultSet {
            git_sha: j
                .get("git_sha")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
            nproc: num(&j, "nproc").unwrap_or(0.0) as usize,
            threads: num(&j, "tsvd_threads").unwrap_or(0.0) as usize,
            seconds: num(&j, "seconds").unwrap_or(0.0) as u64,
            runs,
        })
    }

    /// Values of every metric, grouped by `(workload, metric)` in first-seen
    /// order, over the runs with the given trace mode.
    pub fn grouped(&self, trace: bool) -> Vec<((String, String), Vec<f64>, String)> {
        let mut order: Vec<(String, String)> = Vec::new();
        let mut values: BTreeMap<(String, String), (Vec<f64>, String)> = BTreeMap::new();
        for run in self.runs.iter().filter(|r| r.trace == trace) {
            let names: Vec<&String> = if trace {
                run.metrics.keys().collect()
            } else {
                // End-to-end metrics in the table's order.
                END_TO_END
                    .iter()
                    .filter_map(|(n, ..)| run.metrics.get_key_value(*n).map(|(k, _)| k))
                    .collect()
            };
            for name in names {
                let key = (run.workload.clone(), name.clone());
                let (v, unit) = &run.metrics[name];
                let slot = values.entry(key.clone()).or_insert_with(|| {
                    order.push(key);
                    (Vec::new(), unit.clone())
                });
                slot.0.push(*v);
            }
        }
        order
            .into_iter()
            .map(|k| {
                let (v, u) = values.remove(&k).expect("ordered key has values");
                (k, v, u)
            })
            .collect()
    }

    /// Print medians (and, from two runs up, the quartile spread as a share
    /// of the median) of every metric.
    pub fn print_table(&self, trace: bool) {
        let mut last = String::new();
        for ((workload, metric), values, unit) in self.grouped(trace) {
            if workload != last {
                println!("\n{workload}");
                last = workload;
            }
            let spread = if values.len() >= 2 {
                format!("  spread {:5.1}%", stats::quartile_spread(&values) * 100.0)
            } else {
                String::new()
            };
            println!(
                "  {metric:<40} {:>14.4} {unit:<6} n={}{spread}",
                stats::median_of(values.clone()),
                values.len()
            );
        }
    }
}

/// Outcome of one `(metric, workload)` row of a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound: neither side's median
    /// resolves a change of that size.
    Unresolved,
}

/// Judge a row: medians `base` and `new`, the wider of the two sides'
/// spreads (if either side has enough runs for one), direction and bound.
pub fn judge(base: f64, new: f64, spread: Option<f64>, better: &str, bound: f64) -> Verdict {
    if spread.is_some_and(|s| s > bound) {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        "higher" => (base - new) / base.abs(),
        _ => (new - base) / base.abs(),
    };
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Compare set `b` against the baseline set `a`, one row per end-to-end
/// `(metric, workload)`; returns whether any row regressed.
pub fn compare(a: &ResultSet, b: &ResultSet) -> bool {
    println!(
        "base: {} (nproc {}, threads {})   new: {} (nproc {}, threads {})",
        a.git_sha, a.nproc, a.threads, b.git_sha, b.nproc, b.threads
    );
    println!(
        "{:<12} {:<24} {:>13} {:>13} {:>16} {:>7} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound", "spread"
    );
    let new: BTreeMap<(String, String), Vec<f64>> = b
        .grouped(false)
        .into_iter()
        .map(|(k, v, _)| (k, v))
        .collect();
    let mut regressed = false;
    for ((workload, metric), base_values, unit) in a.grouped(false) {
        let Some(&(_, _, better, bound)) = END_TO_END.iter().find(|m| m.0 == metric) else {
            continue;
        };
        let Some(new_values) = new.get(&(workload.clone(), metric.clone())) else {
            println!("{workload:<12} {metric:<24} missing from the new set");
            regressed = true;
            continue;
        };
        let base = stats::median_of(base_values.clone());
        let newv = stats::median_of(new_values.clone());
        // A spread needs a few runs per side; with fewer the row is judged
        // on the medians alone.
        let spread = [&base_values, new_values]
            .iter()
            .filter(|v| v.len() >= 4)
            .map(|v| stats::quartile_spread(v))
            .fold(None, |acc: Option<f64>, s| {
                Some(acc.map_or(s, |a| a.max(s)))
            });
        let verdict = judge(base, newv, spread, better, bound);
        regressed |= verdict == Verdict::Regressed;
        println!(
            "{workload:<12} {metric:<24} {base:>13.4} {newv:>13.4} {:>9.4}x of {base:<.4} {:>6.0}% {:>8}  {} ({unit}, {better} is better)",
            newv / base,
            bound * 100.0,
            spread.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0)),
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            },
        );
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let line = result_line(
            true,
            1000,
            0,
            &[("latency_ms", 1.2034, "ms"), ("setup_s", 0.8127, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        let rec = RunRecord::parse(&Json::parse(&line).unwrap(), "w", 7, false).unwrap();
        assert!(rec.correct);
        assert_eq!(rec.attempted, 1000);
        assert_eq!(rec.metrics["latency_ms"], (1.2034, "ms".to_string()));
        let set = ResultSet {
            git_sha: "abc".into(),
            nproc: 2,
            threads: 2,
            seconds: 10,
            runs: vec![rec.clone(), rec],
        };
        let back = ResultSet::parse(&set.to_json()).unwrap();
        assert_eq!(back.runs.len(), 2);
        assert_eq!(back.runs[1].seed, 7);
        assert_eq!(back.runs[0].metrics["setup_s"].0, 0.8127);
        assert_eq!(back.git_sha, "abc");
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, 10 % bound.
        assert_eq!(judge(100.0, 109.0, None, "lower", 0.10), Verdict::Ok);
        assert_eq!(judge(100.0, 111.0, None, "lower", 0.10), Verdict::Regressed);
        assert_eq!(judge(100.0, 50.0, None, "lower", 0.10), Verdict::Ok);
        // Higher is better.
        assert_eq!(judge(100.0, 91.0, None, "higher", 0.10), Verdict::Ok);
        assert_eq!(judge(100.0, 89.0, None, "higher", 0.10), Verdict::Regressed);
        assert_eq!(judge(100.0, 150.0, None, "higher", 0.10), Verdict::Ok);
        // A spread wider than the bound resolves nothing, either way.
        assert_eq!(
            judge(100.0, 150.0, Some(0.2), "lower", 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(100.0, 100.0, Some(0.2), "lower", 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(100.0, 111.0, Some(0.05), "lower", 0.10),
            Verdict::Regressed
        );
    }

    #[test]
    fn end_to_end_table_is_well_formed() {
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
        let largest = END_TO_END.iter().map(|m| m.3).fold(0.0, f64::max);
        assert_eq!(
            END_TO_END[0].3, largest,
            "setup_s carries the largest bound"
        );
        for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
            assert!(*bound > 0.0 && *bound <= 0.25, "{name}");
            assert!(matches!(*better, "lower" | "higher"));
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(END_TO_END[..i].iter().all(|o| o.0 != *name));
        }
    }
}
