//! Cross-estimator consistency: local push must agree with power iteration
//! (the exact oracle) on the same graph, and the randomized SVD Tree-SVD
//! runs at level 1 must agree with the exact SVD on the same proximity
//! matrix — across crate boundaries, on a realistic generated graph.

use tree_svd::datasets::DatasetConfig;
use tree_svd::graph::Direction;
use tree_svd::linalg::randomized::randomized_svd;
use tree_svd::linalg::svd::exact_svd;
use tree_svd::linalg::RandomizedSvdConfig;
use tree_svd::ppr::exact::exact_ppr_row;
use tree_svd::ppr::{forward_push_fresh, PprConfig, SubsetPpr};
use tree_svd::prelude::*;

fn small_graph() -> (SyntheticDataset, DynGraph) {
    let mut cfg = DatasetConfig::patent();
    cfg.num_nodes = 400;
    cfg.num_edges = 2000;
    cfg.tau = 2;
    let ds = SyntheticDataset::generate(&cfg);
    let g = ds.stream.snapshot(2);
    (ds, g)
}

#[test]
fn push_ppr_agrees_with_power_iteration() {
    let (_, g) = small_graph();
    let alpha = 0.2;
    for source in [0u32, 17, 99] {
        let exact = exact_ppr_row(&g, Direction::Out, source, alpha, 1e-13);
        let push = forward_push_fresh(&g, Direction::Out, alpha, 1e-8, source);
        for u in 0..g.num_nodes() as u32 {
            let truth = exact[u as usize];
            assert!(
                (push.estimate(u) - truth).abs() < 1e-4,
                "push vs exact at ({source},{u})"
            );
        }
    }
}

#[test]
fn randomized_svd_agrees_with_exact_on_proximity_matrix() {
    let (ds, g) = small_graph();
    let subset = ds.sample_subset(40, 1);
    let ppr = SubsetPpr::build(
        &g,
        &subset,
        PprConfig {
            alpha: 0.2,
            r_max: 1e-4,
        },
    );
    let m = CsrMatrix::from_rows(g.num_nodes(), &ppr.proximity_rows());
    let d = 8;

    let exact = exact_svd(&m.to_dense());
    let rand = randomized_svd(
        &m,
        &RandomizedSvdConfig {
            rank: d,
            oversample: 10,
            power_iters: 3,
        },
        &mut <tsvd_rt::rng::StdRng as tsvd_rt::rng::SeedableRng>::seed_from_u64(1),
    );

    for j in 0..d {
        let truth = exact.s[j];
        assert!(
            (rand.s[j] - truth).abs() < 0.02 * exact.s[0],
            "randomized σ_{j}: {} vs {truth}",
            rand.s[j]
        );
    }
}

#[test]
fn lp_metrics_are_mutually_consistent() {
    // Precision@|pos|, AUC, and MAP must all rank a good embedding above a
    // random one on the same task.
    let (ds, g) = small_graph();
    let subset = ds.sample_subset(60, 2);
    let task = LinkPredictionTask::from_graph(&g, &subset, 0.3, 7);
    assert!(task.num_positives() > 10);
    let pipe = TreeSvdPipeline::new(
        &task.train_graph,
        &subset,
        PprConfig {
            alpha: 0.2,
            r_max: 5e-5,
        },
        TreeSvdConfig {
            dim: 16,
            num_blocks: 8,
            ..Default::default()
        },
    );
    let left = pipe.embedding().left();
    let right = pipe.embedding().right(&pipe.proximity_csr());
    use tsvd_rt::rng::{Rng, SeedableRng};
    let mut rng = tsvd_rt::rng::StdRng::seed_from_u64(9);
    let rl = DenseMatrix::from_fn(left.rows(), 16, |_, _| rng.gen_range(-1.0..1.0));
    let rr = DenseMatrix::from_fn(right.rows(), 16, |_, _| rng.gen_range(-1.0..1.0));
    assert!(task.precision(&left, &right) > task.precision(&rl, &rr));
    assert!(task.auc(&left, &right) > task.auc(&rl, &rr));
    assert!(task.average_precision(&left, &right) > task.average_precision(&rl, &rr));
    // precision_at with k = |pos| equals the headline precision.
    let k = task.num_positives();
    assert!((task.precision_at(&left, &right, k) - task.precision(&left, &right)).abs() < 1e-12);
}
