//! Node-classification evaluation (the paper's NC task).
//!
//! Single-label classification of the subset nodes from their embedding
//! rows, with a random train/test split at a given training ratio, exactly
//! as in DynPPE's protocol that the paper follows.

use crate::logreg::{LogRegConfig, LogisticRegression};
use crate::metrics::{f1_scores, F1Scores};
use tsvd_linalg::DenseMatrix;
use tsvd_rt::rng::SeedableRng;
use tsvd_rt::rng::SliceRandom;
use tsvd_rt::rng::StdRng;

/// A reusable node-classification task: fixed labels and a fixed split per
/// `(train_ratio, seed)`, so different methods are compared on identical
/// splits.
#[derive(Debug, Clone)]
pub struct NodeClassificationTask {
    labels: Vec<usize>,
    num_classes: usize,
    train_idx: Vec<usize>,
    test_idx: Vec<usize>,
}

impl NodeClassificationTask {
    /// Split `labels.len()` items at `train_ratio` using `seed`.
    pub fn new(labels: &[usize], train_ratio: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&train_ratio) && train_ratio > 0.0);
        assert!(!labels.is_empty(), "need at least one labelled node");
        let num_classes = labels.iter().copied().max().unwrap() + 1;
        let mut idx: Vec<usize> = (0..labels.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        let cut = ((labels.len() as f64) * train_ratio).round() as usize;
        let cut = cut.clamp(1, labels.len() - 1);
        let (train, test) = idx.split_at(cut);
        NodeClassificationTask {
            labels: labels.to_vec(),
            num_classes,
            train_idx: train.to_vec(),
            test_idx: test.to_vec(),
        }
    }

    /// Number of distinct classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Train a classifier on the embedding's train rows and score the test
    /// rows. `embedding` must have one row per labelled item.
    pub fn evaluate(&self, embedding: &DenseMatrix) -> F1Scores {
        assert_eq!(
            embedding.rows(),
            self.labels.len(),
            "embedding rows must match labels"
        );
        let d = embedding.cols();
        let mut x_train = DenseMatrix::zeros(self.train_idx.len(), d);
        let mut y_train = Vec::with_capacity(self.train_idx.len());
        for (r, &i) in self.train_idx.iter().enumerate() {
            x_train.row_mut(r).copy_from_slice(embedding.row(i));
            y_train.push(self.labels[i]);
        }
        let clf = LogisticRegression::train(
            &x_train,
            &y_train,
            self.num_classes,
            LogRegConfig::default(),
        );
        let truth: Vec<usize> = self.test_idx.iter().map(|&i| self.labels[i]).collect();
        let pred: Vec<usize> = self
            .test_idx
            .iter()
            .map(|&i| clf.predict_one(embedding.row(i)))
            .collect();
        f1_scores(&truth, &pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_rt::rng::Rng;

    /// Embedding where class is linearly decodable.
    fn informative_embedding(labels: &[usize], d: usize, seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        DenseMatrix::from_fn(labels.len(), d, |i, j| {
            let signal = if j == labels[i] { 2.0 } else { 0.0 };
            signal + rng.gen_range(-0.3..0.3)
        })
    }

    #[test]
    fn informative_features_score_high() {
        let labels: Vec<usize> = (0..120).map(|i| i % 4).collect();
        let task = NodeClassificationTask::new(&labels, 0.5, 7);
        let emb = informative_embedding(&labels, 8, 1);
        let s = task.evaluate(&emb);
        assert!(s.micro > 0.9, "micro {}", s.micro);
        assert!(s.macro_ > 0.9);
    }

    #[test]
    fn random_features_score_low() {
        let labels: Vec<usize> = (0..200).map(|i| i % 4).collect();
        let task = NodeClassificationTask::new(&labels, 0.5, 7);
        let mut rng = StdRng::seed_from_u64(2);
        let emb = DenseMatrix::from_fn(200, 8, |_, _| rng.gen_range(-1.0..1.0));
        let s = task.evaluate(&emb);
        assert!(s.micro < 0.5, "micro {}", s.micro);
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let labels: Vec<usize> = (0..50).map(|i| i % 2).collect();
        let a = NodeClassificationTask::new(&labels, 0.7, 3);
        let b = NodeClassificationTask::new(&labels, 0.7, 3);
        assert_eq!(a.train_idx, b.train_idx);
        let c = NodeClassificationTask::new(&labels, 0.7, 4);
        assert_ne!(a.train_idx, c.train_idx);
    }

    #[test]
    fn split_sizes_respect_ratio() {
        let labels: Vec<usize> = (0..100).map(|i| i % 3).collect();
        let task = NodeClassificationTask::new(&labels, 0.7, 1);
        assert_eq!(task.train_idx.len(), 70);
        assert_eq!(task.test_idx.len(), 30);
    }

    #[test]
    fn train_and_test_disjoint_covering() {
        let labels: Vec<usize> = (0..40).map(|i| i % 5).collect();
        let task = NodeClassificationTask::new(&labels, 0.5, 9);
        let mut all: Vec<usize> = task
            .train_idx
            .iter()
            .chain(task.test_idx.iter())
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn classification_split_partitions_indices() {
        use tsvd_rt::check::Checker;
        use tsvd_rt::{ensure, ensure_eq};
        Checker::new(64).run("classification_split_partitions_indices", |g| {
            let len = g.usize_in(4..80);
            let ratio = g.f64_in(0.2..0.8);
            let seed = g.u64_in(0..100);
            let labels: Vec<usize> = (0..len).map(|i| i % 3).collect();
            let task = NodeClassificationTask::new(&labels, ratio, seed);
            let (tr, te) = (task.train_idx.len(), task.test_idx.len());
            ensure_eq!(tr + te, len);
            ensure!(tr >= 1 && te >= 1);
            Ok(())
        });
    }
}
