//! Shared batch-update driver for Exp. 4, Exp. 5, Figure 13 and Figure 14.
//!
//! Starts from a middle snapshot, replays the remaining event stream in
//! fixed-size batches, and maintains each method's embedding after every
//! batch — dynamically where the method supports it, by re-running
//! otherwise. The dynamic-PPR / proximity-matrix maintenance cost is shared
//! by all matrix-factorisation methods and is charged to each of them, as
//! in the paper's update-time accounting.

use crate::harness::timed;
use crate::setup::ExpSetup;
use std::collections::HashSet;
use tsvd_baselines::{DynPpe, SubsetStrap};
use tsvd_core::{TreeSvd, TreeSvdPipeline, UpdatePolicy};
use tsvd_graph::{DynGraph, EdgeEvent, EventKind};
use tsvd_linalg::DenseMatrix;
use tsvd_ppr::PprConfig;

/// Methods the batch-update experiments track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchMethod {
    /// Dynamic Tree-SVD (Algorithm 4, lazy policy from the setup config).
    TreeSvdDynamic,
    /// Static Tree-SVD re-run on the maintained proximity matrix.
    TreeSvdStatic,
    /// Subset-STRAP re-run on the maintained proximity matrix.
    SubsetStrap,
    /// DynPPE with incremental PPR + re-hashing.
    DynPpe,
}

impl BatchMethod {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            BatchMethod::TreeSvdDynamic => "Tree-SVD",
            BatchMethod::TreeSvdStatic => "Tree-SVD-S",
            BatchMethod::SubsetStrap => "Subset-STRAP",
            BatchMethod::DynPpe => "DynPPE",
        }
    }
}

/// Final state of one tracked method.
pub struct BatchOutcome {
    /// Which method.
    pub method: BatchMethod,
    /// Mean per-batch update time in seconds (PPR maintenance included).
    pub avg_secs: f64,
    /// Final left embedding.
    pub left: DenseMatrix,
    /// Final right embedding (None for DynPPE).
    pub right: Option<DenseMatrix>,
    /// Total first-level blocks re-factorised (dynamic Tree-SVD only).
    pub blocks_recomputed: usize,
}

/// Result of one batch-update run.
pub struct BatchRun {
    /// Per-method outcomes, in the order requested.
    pub outcomes: Vec<BatchOutcome>,
    /// Batches actually replayed.
    pub num_batches: usize,
    /// Events actually applied.
    pub events_applied: usize,
    /// The graph after all updates.
    pub final_graph: DynGraph,
}

/// Collect up to `limit` future events after snapshot `t_mid`, skipping any
/// insert whose edge is in `skip`.
pub fn future_events(
    s: &ExpSetup,
    t_mid: usize,
    limit: usize,
    skip: &HashSet<(u32, u32)>,
) -> Vec<EdgeEvent> {
    let stream = &s.dataset.stream;
    let mut out = Vec::with_capacity(limit.min(stream.num_events()));
    for t in (t_mid + 1)..=stream.num_snapshots() {
        for e in stream.batch(t) {
            if e.kind == EventKind::Insert && skip.contains(&(e.u, e.v)) {
                continue;
            }
            out.push(*e);
            if out.len() == limit {
                return out;
            }
        }
    }
    out
}

/// Replay `events` in `batch_size` chunks from snapshot `t_mid`, tracking
/// every method in `methods`. `policy_override` replaces the dynamic
/// update policy of the setup's tree config when given (Figure 13).
pub fn run_batch_updates(
    s: &ExpSetup,
    t_mid: usize,
    events: &[EdgeEvent],
    batch_size: usize,
    methods: &[BatchMethod],
    policy_override: Option<UpdatePolicy>,
) -> BatchRun {
    assert!(batch_size > 0);
    let mut tree_cfg = s.tree_cfg;
    if let Some(p) = policy_override {
        tree_cfg.policy = p;
    }
    let mut g = s.dataset.stream.snapshot(t_mid);
    // DynPPE maintains its own PPR state over its own graph copy.
    let mut dynppe_g = g.clone();
    let mut dynppe = if methods.contains(&BatchMethod::DynPpe) {
        let cfg = PprConfig {
            alpha: s.ppr_cfg.alpha,
            r_max: s.ppr_cfg.r_max * 0.5,
        };
        Some(DynPpe::build(
            &g,
            &s.subset,
            cfg,
            tree_cfg.dim,
            tree_cfg.seed,
        ))
    } else {
        None
    };
    let mut pipe = TreeSvdPipeline::new(&g, &s.subset, s.ppr_cfg, tree_cfg);
    let strap = SubsetStrap::new(tree_cfg.dim, tree_cfg.seed);

    let mut secs: Vec<f64> = vec![0.0; methods.len()];
    let mut blocks_recomputed = 0usize;
    let mut last_static_emb = None;
    let mut last_strap_pair = None;
    let mut num_batches = 0usize;
    for batch in events.chunks(batch_size) {
        num_batches += 1;
        // Shared PPR/proximity maintenance, charged to every MF method.
        let ((), ppr_secs) = timed(|| pipe.apply_events(&mut g, batch));
        for (mi, &m) in methods.iter().enumerate() {
            match m {
                BatchMethod::TreeSvdDynamic => {
                    let (stats, t) = timed(|| pipe.refresh_embedding());
                    blocks_recomputed += stats.blocks_recomputed;
                    secs[mi] += ppr_secs + t;
                }
                BatchMethod::TreeSvdStatic => {
                    let (emb, t) = timed(|| TreeSvd::new(tree_cfg).embed(pipe.matrix()));
                    last_static_emb = Some(emb);
                    secs[mi] += ppr_secs + t;
                }
                BatchMethod::SubsetStrap => {
                    let (pair, t) = timed(|| strap.factorize(&pipe.proximity_csr()));
                    last_strap_pair = Some(pair);
                    secs[mi] += ppr_secs + t;
                }
                BatchMethod::DynPpe => {
                    let dp = dynppe.as_mut().expect("DynPPE initialised");
                    let (_, t) = timed(|| dp.update(&mut dynppe_g, batch));
                    secs[mi] += t;
                }
            }
        }
    }

    let csr = pipe.proximity_csr();
    let outcomes = methods
        .iter()
        .enumerate()
        .map(|(mi, &m)| {
            let (left, right) = match m {
                BatchMethod::TreeSvdDynamic => {
                    let e = pipe.embedding();
                    (e.left(), Some(e.right(&csr)))
                }
                BatchMethod::TreeSvdStatic => {
                    let e = last_static_emb
                        .as_ref()
                        .cloned()
                        .unwrap_or_else(|| pipe.embedding().clone());
                    (e.left(), Some(e.right(&csr)))
                }
                BatchMethod::SubsetStrap => {
                    let p = last_strap_pair
                        .as_ref()
                        .cloned()
                        .unwrap_or_else(|| strap.factorize(&csr));
                    (p.left, p.right)
                }
                BatchMethod::DynPpe => (dynppe.as_ref().unwrap().embedding().left, None),
            };
            BatchOutcome {
                method: m,
                avg_secs: secs[mi] / num_batches.max(1) as f64,
                left,
                right,
                blocks_recomputed: if m == BatchMethod::TreeSvdDynamic {
                    blocks_recomputed
                } else {
                    0
                },
            }
        })
        .collect();
    BatchRun {
        outcomes,
        num_batches,
        events_applied: events.len(),
        final_graph: g,
    }
}

/// Standard knobs: batch size (`TSVD_BATCH_SIZE`, default 500) and batch
/// count (`TSVD_BATCHES`, default 20) — the scaled analogue of the paper's
/// 100 × 10⁴-event protocol.
pub fn batch_params() -> (usize, usize) {
    let size = std::env::var("TSVD_BATCH_SIZE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500);
    let count = std::env::var("TSVD_BATCHES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);
    (size, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::standard_setup;
    use tsvd_datasets::DatasetConfig;

    #[test]
    fn batch_driver_runs_all_methods() {
        let mut cfg = DatasetConfig::youtube();
        cfg.num_nodes = 400;
        cfg.num_edges = 2000;
        cfg.tau = 4;
        let s = standard_setup(&cfg);
        let events = future_events(&s, 2, 200, &HashSet::new());
        assert!(!events.is_empty());
        let methods = [
            BatchMethod::TreeSvdDynamic,
            BatchMethod::TreeSvdStatic,
            BatchMethod::SubsetStrap,
            BatchMethod::DynPpe,
        ];
        let run = run_batch_updates(&s, 2, &events, 50, &methods, None);
        assert_eq!(run.outcomes.len(), 4);
        assert!(run.num_batches >= 2);
        for o in &run.outcomes {
            assert_eq!(o.left.rows(), s.subset.len(), "{}", o.method.name());
            assert!(o.left.is_finite());
            assert!(o.avg_secs > 0.0);
            if o.method != BatchMethod::DynPpe {
                assert!(o.right.is_some());
            }
        }
    }

    #[test]
    fn future_events_respects_skip() {
        let mut cfg = DatasetConfig::youtube();
        cfg.num_nodes = 300;
        cfg.num_edges = 1200;
        cfg.tau = 3;
        let s = standard_setup(&cfg);
        let all = future_events(&s, 1, usize::MAX, &HashSet::new());
        let first_insert = all.iter().find(|e| e.kind == EventKind::Insert).unwrap();
        let mut skip = HashSet::new();
        skip.insert((first_insert.u, first_insert.v));
        let filtered = future_events(&s, 1, usize::MAX, &skip);
        assert!(filtered.len() < all.len());
        assert!(
            !filtered
                .iter()
                .any(|e| e.kind == EventKind::Insert
                    && (e.u, e.v) == (first_insert.u, first_insert.v))
        );
    }
}
