//! End-to-end dynamic subset embedding: graph → PPR → proximity matrix →
//! Tree-SVD, wired together the way the paper's system runs.

use crate::blocked::BlockedProximityMatrix;
use crate::config::TreeSvdConfig;
use crate::dynamic_tree::{DynamicTreeSvd, UpdateStats};
use crate::embedding::Embedding;
use tsvd_graph::{DynGraph, EdgeEvent};
use tsvd_linalg::CsrMatrix;
use tsvd_ppr::{PprConfig, SubsetPpr};

/// Cumulative wall-clock accounting of the pipeline's update phases —
/// where a deployment's maintenance budget actually goes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineTimings {
    /// Seconds in Dynamic Forward-Push (Algorithm 2) across all updates.
    pub ppr_secs: f64,
    /// Seconds refreshing dirty proximity rows (log transform + blocking,
    /// of the touched columns or of the whole row).
    pub rows_secs: f64,
    /// Seconds in the lazy Tree-SVD refresh (diffing + SVDs + merges).
    pub svd_secs: f64,
    /// Number of update calls accounted.
    pub updates: usize,
}

tsvd_rt::impl_json_struct!(PipelineTimings {
    ppr_secs,
    rows_secs,
    svd_secs,
    updates
});

/// Field-wise accumulation (update counts add), so per-shard or per-window
/// timing records aggregate without hand-rolled field sums.
impl std::ops::AddAssign for PipelineTimings {
    fn add_assign(&mut self, rhs: PipelineTimings) {
        self.ppr_secs += rhs.ppr_secs;
        self.rows_secs += rhs.rows_secs;
        self.svd_secs += rhs.svd_secs;
        self.updates += rhs.updates;
    }
}

impl std::ops::Add for PipelineTimings {
    type Output = PipelineTimings;
    fn add(mut self, rhs: PipelineTimings) -> PipelineTimings {
        self += rhs;
        self
    }
}

/// The complete dynamic subset-embedding system.
///
/// Owns the PPR states, the blocked proximity matrix, and the dynamic
/// Tree-SVD caches. Per snapshot:
///
/// 1. [`TreeSvdPipeline::update`] applies the event batch — Dynamic
///    Forward-Push refreshes PPR, dirty proximity rows are rebuilt, and
///    Algorithm 4 lazily re-factorises only the blocks that moved;
/// 2. [`TreeSvdPipeline::embedding`] returns the current `X = U·√Σ`.
///
/// # Examples
///
/// ```
/// use tsvd_core::{TreeSvdConfig, TreeSvdPipeline};
/// use tsvd_graph::{DynGraph, EdgeEvent};
/// use tsvd_ppr::PprConfig;
///
/// let mut g = DynGraph::with_nodes(20);
/// for u in 0..19 {
///     g.insert_edge(u, u + 1);
/// }
/// let cfg = TreeSvdConfig { dim: 4, num_blocks: 4, ..Default::default() };
/// let mut pipe = TreeSvdPipeline::new(&g, &[0, 5, 10], PprConfig::default(), cfg);
/// assert_eq!(pipe.embedding().left().rows(), 3);
/// let stats = pipe.update(&mut g, &[EdgeEvent::insert(19, 0)]);
/// assert!(stats.blocks_recomputed <= stats.blocks_total);
/// ```
#[derive(Debug, Clone)]
pub struct TreeSvdPipeline {
    ppr: SubsetPpr,
    matrix: BlockedProximityMatrix,
    tree: DynamicTreeSvd,
    embedding: Embedding,
    timings: PipelineTimings,
}

// `timings` was added after the first on-disk snapshots were written, so the
// decoder tolerates its absence (the moral equivalent of serde's
// `#[serde(default)]`) via [`tsvd_rt::json::field_or_default`].
impl tsvd_rt::json::ToJson for TreeSvdPipeline {
    fn to_json(&self) -> tsvd_rt::json::Json {
        use tsvd_rt::json::Json;
        Json::object([
            ("ppr", self.ppr.to_json()),
            ("matrix", self.matrix.to_json()),
            ("tree", self.tree.to_json()),
            ("embedding", self.embedding.to_json()),
            ("timings", self.timings.to_json()),
        ])
    }
}

impl tsvd_rt::json::FromJson for TreeSvdPipeline {
    fn from_json(j: &tsvd_rt::json::Json) -> Result<Self, tsvd_rt::json::JsonError> {
        use tsvd_rt::json::{field, field_or_default};
        Ok(TreeSvdPipeline {
            ppr: field(j, "ppr")?,
            matrix: field(j, "matrix")?,
            tree: field(j, "tree")?,
            embedding: field(j, "embedding")?,
            timings: field_or_default(j, "timings")?,
        })
    }
}

impl TreeSvdPipeline {
    /// Build the pipeline on graph `g` for subset `sources`.
    pub fn new(g: &DynGraph, sources: &[u32], ppr_cfg: PprConfig, tree_cfg: TreeSvdConfig) -> Self {
        tree_cfg.validate();
        assert!(!sources.is_empty(), "subset must be non-empty");
        assert!(
            sources.iter().all(|&s| (s as usize) < g.num_nodes()),
            "subset node out of range"
        );
        let mut ppr = SubsetPpr::build(g, sources, ppr_cfg);
        let rows = ppr.proximity_rows();
        let matrix = BlockedProximityMatrix::from_proximity_rows(g.num_nodes(), &tree_cfg, &rows);
        ppr.take_dirty_rows(); // initial build handled all rows
        let mut tree = DynamicTreeSvd::new(tree_cfg);
        let embedding = tree.build(&matrix);
        TreeSvdPipeline {
            ppr,
            matrix,
            tree,
            embedding,
            timings: PipelineTimings::default(),
        }
    }

    /// Apply an event batch (mutating the shared graph `g`) and refresh the
    /// embedding via the lazy dynamic algorithm. Returns update statistics.
    pub fn update(&mut self, g: &mut DynGraph, events: &[EdgeEvent]) -> UpdateStats {
        self.apply_events(g, events);
        self.refresh_embedding()
    }

    /// Phase 1 of [`TreeSvdPipeline::update`]: dynamic PPR refresh plus
    /// proximity-row refreshes, without touching the factorisation. Exposed
    /// separately so experiments can charge the (shared) PPR-maintenance
    /// cost fairly to every method that reuses this matrix.
    pub fn apply_events(&mut self, g: &mut DynGraph, events: &[EdgeEvent]) {
        let t0 = std::time::Instant::now();
        self.ppr.update(g, events);
        let t1 = std::time::Instant::now();
        for (i, update) in self.ppr.drain_row_updates() {
            self.matrix.apply_row_update(i, &update);
        }
        self.timings.ppr_secs += (t1 - t0).as_secs_f64();
        self.timings.rows_secs += t1.elapsed().as_secs_f64();
    }

    /// Phase 2 of [`TreeSvdPipeline::update`]: the lazy Tree-SVD refresh on
    /// the current matrix.
    pub fn refresh_embedding(&mut self) -> UpdateStats {
        let t0 = std::time::Instant::now();
        let (embedding, stats) = self.tree.update(&self.matrix);
        self.embedding = embedding;
        self.timings.svd_secs += t0.elapsed().as_secs_f64();
        self.timings.updates += 1;
        stats
    }

    /// Cumulative phase timings across all updates so far.
    pub fn timings(&self) -> PipelineTimings {
        self.timings
    }

    /// Throw away the Tree-SVD caches and rebuild from the current matrix
    /// (the "static rebuild" arm of the paper's comparisons).
    pub fn rebuild(&mut self) {
        self.embedding = self.tree.build(&self.matrix);
    }

    /// The current subset embedding.
    pub fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    /// The subset `S` in row order.
    pub fn sources(&self) -> &[u32] {
        self.ppr.sources()
    }

    /// The current proximity matrix as CSR (for right embeddings and
    /// quality measurements).
    pub fn proximity_csr(&self) -> CsrMatrix {
        self.matrix.to_csr()
    }

    /// The blocked proximity matrix.
    pub fn matrix(&self) -> &BlockedProximityMatrix {
        &self.matrix
    }

    /// The underlying PPR maintenance structure.
    pub fn ppr(&self) -> &SubsetPpr {
        &self.ppr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Level1Method, UpdatePolicy};
    use tsvd_rt::rng::StdRng;
    use tsvd_rt::rng::{Rng, SeedableRng};

    fn random_graph(rng: &mut StdRng, n: usize, m: usize) -> DynGraph {
        let mut g = DynGraph::with_nodes(n);
        while g.num_edges() < m {
            let u = rng.gen_range(0..n) as u32;
            let v = rng.gen_range(0..n) as u32;
            if u != v {
                g.insert_edge(u, v);
            }
        }
        g
    }

    fn tree_cfg() -> TreeSvdConfig {
        TreeSvdConfig {
            dim: 8,
            branching: 2,
            num_blocks: 4,
            oversample: 6,
            power_iters: 1,
            level1: Level1Method::Randomized,
            policy: UpdatePolicy::Lazy { delta: 0.3 },
            partition: crate::config::PartitionStrategy::EqualWidth,
            seed: 3,
        }
    }

    #[test]
    fn pipeline_builds_and_embeds() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = random_graph(&mut rng, 100, 400);
        let sources: Vec<u32> = (0..10).collect();
        let p = TreeSvdPipeline::new(
            &g,
            &sources,
            PprConfig {
                alpha: 0.2,
                r_max: 1e-4,
            },
            tree_cfg(),
        );
        let x = p.embedding().left();
        assert_eq!(x.rows(), 10);
        assert_eq!(x.cols(), 8);
        assert!(x.is_finite());
        assert!(x.frobenius_norm() > 0.0);
    }

    #[test]
    fn updates_converge_to_fresh_build() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = random_graph(&mut rng, 80, 240);
        let sources: Vec<u32> = (0..8).collect();
        let ppr_cfg = PprConfig {
            alpha: 0.2,
            r_max: 1e-5,
        };
        let mut cfg = tree_cfg();
        cfg.policy = UpdatePolicy::ChangedOnly; // exact tracking mode
        let mut pipe = TreeSvdPipeline::new(&g, &sources, ppr_cfg, cfg);
        // Stream 3 batches of events.
        for _ in 0..3 {
            let events: Vec<EdgeEvent> = (0..15)
                .map(|_| {
                    let u = rng.gen_range(0..80) as u32;
                    let v = rng.gen_range(0..80) as u32;
                    EdgeEvent::insert(u, v)
                })
                .filter(|e| e.u != e.v)
                .collect();
            pipe.update(&mut g, &events);
        }
        // Fresh pipeline on the final graph factorises the same proximity
        // matrix up to PPR approximation noise; compare projection quality.
        let fresh = TreeSvdPipeline::new(&g, &sources, ppr_cfg, cfg);
        let csr_dyn = pipe.proximity_csr();
        let csr_fresh = fresh.proximity_csr();
        let dyn_resid = pipe.embedding().projection_residual(&csr_dyn);
        let fresh_resid = fresh.embedding().projection_residual(&csr_fresh);
        let scale = csr_fresh.frobenius_norm().max(1.0);
        assert!(
            (dyn_resid - fresh_resid).abs() / scale < 0.05,
            "dyn {dyn_resid} vs fresh {fresh_resid}"
        );
    }

    #[test]
    fn lazy_pipeline_reports_skips() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = random_graph(&mut rng, 120, 600);
        let sources: Vec<u32> = (0..12).collect();
        let mut cfg = tree_cfg();
        cfg.policy = UpdatePolicy::Lazy { delta: 0.65 };
        let mut pipe = TreeSvdPipeline::new(
            &g,
            &sources,
            PprConfig {
                alpha: 0.2,
                r_max: 1e-4,
            },
            cfg,
        );
        // One tiny event far from most sources: most blocks should be quiet.
        let stats = pipe.update(&mut g, &[EdgeEvent::insert(100, 119)]);
        assert!(stats.blocks_recomputed <= stats.blocks_changed);
        assert!(stats.blocks_total == 4);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_subset_rejected() {
        let g = DynGraph::with_nodes(10);
        let _ = TreeSvdPipeline::new(&g, &[], PprConfig::default(), tree_cfg());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_subset_rejected() {
        let mut g = DynGraph::with_nodes(10);
        g.insert_edge(0, 1);
        let _ = TreeSvdPipeline::new(&g, &[99], PprConfig::default(), tree_cfg());
    }

    #[test]
    fn timings_accumulate_per_phase() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = random_graph(&mut rng, 80, 300);
        let sources: Vec<u32> = (0..6).collect();
        let mut pipe = TreeSvdPipeline::new(&g, &sources, PprConfig::default(), tree_cfg());
        assert_eq!(pipe.timings(), super::PipelineTimings::default());
        pipe.update(
            &mut g,
            &[EdgeEvent::insert(0, 79), EdgeEvent::insert(1, 78)],
        );
        let t = pipe.timings();
        assert_eq!(t.updates, 1);
        assert!(t.ppr_secs > 0.0);
        assert!(t.svd_secs >= 0.0);
    }

    #[test]
    fn stats_and_timings_merge_field_wise() {
        let a = UpdateStats {
            blocks_total: 8,
            blocks_changed: 3,
            blocks_recomputed: 2,
            merges_recomputed: 1,
            cells_rediffed: 40,
        };
        let b = UpdateStats {
            blocks_total: 8,
            blocks_changed: 5,
            blocks_recomputed: 4,
            merges_recomputed: 3,
            cells_rediffed: 60,
        };
        let mut acc = UpdateStats::default();
        acc += a;
        acc += b;
        assert_eq!(acc, a + b);
        assert_eq!(acc.blocks_total, 16);
        assert_eq!(acc.blocks_recomputed, 6);
        assert_eq!(acc.cells_rediffed, 100);

        let t1 = PipelineTimings {
            ppr_secs: 1.0,
            rows_secs: 0.5,
            svd_secs: 2.0,
            updates: 3,
        };
        let t2 = PipelineTimings {
            ppr_secs: 0.25,
            rows_secs: 0.25,
            svd_secs: 1.0,
            updates: 2,
        };
        let mut t = PipelineTimings::default();
        t += t1;
        t += t2;
        assert_eq!(t, t1 + t2);
        assert_eq!(t.updates, 5);
        assert_eq!((t.ppr_secs, t.rows_secs, t.svd_secs), (1.25, 0.75, 3.0));
    }

    #[test]
    fn rebuild_matches_update_all_policy() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut g = random_graph(&mut rng, 60, 200);
        let sources: Vec<u32> = (0..6).collect();
        let mut cfg = tree_cfg();
        cfg.policy = UpdatePolicy::All;
        let mut pipe = TreeSvdPipeline::new(
            &g,
            &sources,
            PprConfig {
                alpha: 0.2,
                r_max: 1e-4,
            },
            cfg,
        );
        let events = vec![EdgeEvent::insert(0, 59), EdgeEvent::insert(1, 58)];
        pipe.update(&mut g, &events);
        let after_update = pipe.embedding().left();
        pipe.rebuild();
        let after_rebuild = pipe.embedding().left();
        assert!(after_update.sub(&after_rebuild).max_abs() < 1e-12);
    }
}
