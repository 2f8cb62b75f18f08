//! Property-based tests for the evaluation layer: metric bounds and
//! identities, link-prediction scoring invariants.

use tsvd_eval::metrics::f1_scores;
use tsvd_eval::LinkPredictionTask;
use tsvd_graph::DynGraph;
use tsvd_linalg::DenseMatrix;
use tsvd_rt::check::{Checker, Gen};
use tsvd_rt::rng::{Rng, SeedableRng, StdRng};
use tsvd_rt::{assume, ensure, ensure_eq};

fn label_pairs(g: &mut Gen, classes: usize, len: std::ops::Range<usize>) -> Vec<(usize, usize)> {
    g.vec(len, |g| (g.usize_in(0..classes), g.usize_in(0..classes)))
}

#[test]
fn f1_scores_bounded_and_micro_is_accuracy() {
    Checker::new(64).run("f1_scores_bounded_and_micro_is_accuracy", |g| {
        let pairs = label_pairs(g, 5, 1..60);
        let truth: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        let pred: Vec<usize> = pairs.iter().map(|p| p.1).collect();
        let s = f1_scores(&truth, &pred);
        ensure!((0.0..=1.0).contains(&s.micro));
        ensure!((0.0..=1.0).contains(&s.macro_));
        let acc =
            truth.iter().zip(&pred).filter(|(a, b)| a == b).count() as f64 / truth.len() as f64;
        ensure!((s.micro - acc).abs() < 1e-12, "micro-F1 == accuracy");
        // Perfect prediction ⇒ both scores are 1.
        let p = f1_scores(&truth, &truth);
        ensure_eq!(p.micro, 1.0);
        ensure_eq!(p.macro_, 1.0);
        Ok(())
    });
}

#[test]
fn f1_invariant_under_label_permutation() {
    Checker::new(64).run("f1_invariant_under_label_permutation", |g| {
        let pairs = label_pairs(g, 4, 2..40);
        // Relabeling classes consistently must not change either score.
        let perm = [2usize, 0, 3, 1];
        let truth: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        let pred: Vec<usize> = pairs.iter().map(|p| p.1).collect();
        let t2: Vec<usize> = truth.iter().map(|&c| perm[c]).collect();
        let p2: Vec<usize> = pred.iter().map(|&c| perm[c]).collect();
        let a = f1_scores(&truth, &pred);
        let b = f1_scores(&t2, &p2);
        ensure!((a.micro - b.micro).abs() < 1e-12);
        ensure!((a.macro_ - b.macro_).abs() < 1e-12);
        Ok(())
    });
}

#[test]
fn link_prediction_precision_bounds() {
    Checker::new(64).run("link_prediction_precision_bounds", |gen| {
        let seed = gen.u64_in(0..50);
        let dim = gen.usize_in(1..6);
        let mut g = DynGraph::with_nodes(20);
        // Deterministic dense-ish graph.
        for u in 0..20u32 {
            for k in 1..5u32 {
                g.insert_edge(u, (u + k) % 20);
            }
        }
        let sources = vec![0u32, 3, 7, 11];
        let task = LinkPredictionTask::from_graph(&g, &sources, 0.4, seed);
        assume!(task.num_positives() > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let left = DenseMatrix::from_fn(4, dim, |_, _| rng.gen_range(-1.0..1.0));
        let right = DenseMatrix::from_fn(20, dim, |_, _| rng.gen_range(-1.0..1.0));
        let p = task.precision(&left, &right);
        ensure!((0.0..=1.0).contains(&p));
        // Scaling both embeddings by a positive constant is ranking-neutral.
        let mut l2 = left.clone();
        for v in l2.as_mut_slice() {
            *v *= 3.0;
        }
        let p2 = task.precision(&l2, &right);
        ensure!((p - p2).abs() < 1e-12);
        Ok(())
    });
}
