//! Run every experiment binary in sequence — the one-command full
//! reproduction. Each experiment prints its own tables and writes JSON to
//! `target/experiments/`; this driver just orchestrates and reports wall
//! time per experiment.
//!
//! ```sh
//! cargo run --release -p tsvd-bench --bin run_all
//! ```

use std::process::Command;
use std::time::Instant;

const EXPERIMENTS: &[&str] = &[
    "exp1_static_nc",
    "exp1_static_lp",
    "exp2_svd_comparison",
    "exp3_snapshots_nc",
    "exp3_snapshots_lp",
    "exp4_batch_updates",
    "exp5_scalability",
    "fig11_vary_b",
    "fig12_vary_rmax",
    "fig13_vary_delta",
    "fig14_update_size",
    "exp6_subset_locality",
];

fn main() {
    // Resolve sibling binaries from our own location (all live in the same
    // target directory).
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("target dir").to_path_buf();
    let total = Instant::now();
    let mut failed = Vec::new();
    for name in EXPERIMENTS {
        let bin = dir.join(name);
        if !bin.exists() {
            eprintln!("!! {name}: binary not built (cargo build --release -p tsvd-bench)");
            failed.push(*name);
            continue;
        }
        eprintln!("\n================= {name} =================");
        let t = Instant::now();
        let status = Command::new(&bin).status();
        match status {
            Ok(s) if s.success() => {
                eprintln!("== {name} done in {:.1}s ==", t.elapsed().as_secs_f64());
            }
            Ok(s) => {
                eprintln!("!! {name} exited with {s}");
                failed.push(*name);
            }
            Err(e) => {
                eprintln!("!! {name} failed to launch: {e}");
                failed.push(*name);
            }
        }
    }
    eprintln!(
        "\nall experiments finished in {:.1} min ({} ok, {} failed{})",
        total.elapsed().as_secs_f64() / 60.0,
        EXPERIMENTS.len() - failed.len(),
        failed.len(),
        if failed.is_empty() {
            String::new()
        } else {
            format!(": {}", failed.join(", "))
        }
    );
    if !failed.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    /// `EXPERIMENTS` names exactly the binaries this package builds, so a
    /// deleted or added experiment cannot go unnoticed until the full
    /// reproduction runs.
    #[test]
    fn experiments_name_every_sibling_binary() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
        let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
            .expect("src/bin")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .filter(|stem| stem != "run_all")
            .collect();
        on_disk.sort();
        let mut listed: Vec<String> = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
        listed.sort();
        assert_eq!(listed, on_disk);
    }
}
