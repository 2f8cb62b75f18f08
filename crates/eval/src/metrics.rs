//! Classification metrics: micro- and macro-averaged F1.

/// Micro- and macro-averaged F1 over a multi-class prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F1Scores {
    /// Micro-F1 (for single-label classification this equals accuracy).
    pub micro: f64,
    /// Macro-F1 (unweighted mean of per-class F1).
    pub macro_: f64,
}

/// Compute F1 scores from parallel truth/prediction label slices.
///
/// Classes are the union of labels appearing in either slice. Classes with
/// no true or predicted instances contribute an F1 of 0 to the macro
/// average, matching scikit-learn's `zero_division=0` convention.
pub fn f1_scores(truth: &[usize], pred: &[usize]) -> F1Scores {
    assert_eq!(truth.len(), pred.len(), "label length mismatch");
    if truth.is_empty() {
        return F1Scores {
            micro: 0.0,
            macro_: 0.0,
        };
    }
    let num_classes = truth
        .iter()
        .chain(pred.iter())
        .copied()
        .max()
        .map_or(0, |m| m + 1);
    let mut tp = vec![0usize; num_classes];
    let mut fp = vec![0usize; num_classes];
    let mut fnn = vec![0usize; num_classes];
    for (&t, &p) in truth.iter().zip(pred) {
        if t == p {
            tp[t] += 1;
        } else {
            fp[p] += 1;
            fnn[t] += 1;
        }
    }
    let (tp_sum, fp_sum, fn_sum) = (
        tp.iter().sum::<usize>() as f64,
        fp.iter().sum::<usize>() as f64,
        fnn.iter().sum::<usize>() as f64,
    );
    let micro = if tp_sum == 0.0 {
        0.0
    } else {
        2.0 * tp_sum / (2.0 * tp_sum + fp_sum + fn_sum)
    };
    let mut macro_sum = 0.0;
    let mut active = 0usize;
    for c in 0..num_classes {
        let denom = 2 * tp[c] + fp[c] + fnn[c];
        if tp[c] + fp[c] + fnn[c] == 0 {
            continue; // class absent from both truth and prediction
        }
        active += 1;
        if denom > 0 {
            macro_sum += 2.0 * tp[c] as f64 / denom as f64;
        }
    }
    let macro_ = if active == 0 {
        0.0
    } else {
        macro_sum / active as f64
    };
    F1Scores { micro, macro_ }
}

/// Area under the ROC curve for binary scores.
///
/// Computed as the Mann–Whitney U statistic: the probability that a random
/// positive outscores a random negative, with ties counted half. `O(n log n)`.
/// Returns 0.5 for degenerate inputs (no positives or no negatives).
pub fn roc_auc(scores: &[(f64, bool)]) -> f64 {
    let pos = scores.iter().filter(|e| e.1).count();
    let neg = scores.len() - pos;
    if pos == 0 || neg == 0 {
        return 0.5;
    }
    // Rank-sum with midpoint ranks for ties.
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].0.partial_cmp(&scores[b].0).unwrap());
    let mut rank_sum_pos = 0.0;
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]].0 == scores[order[i]].0 {
            j += 1;
        }
        // Average 1-based rank of the tie group [i, j].
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            if scores[idx].1 {
                rank_sum_pos += avg_rank;
            }
        }
        i = j + 1;
    }
    let u = rank_sum_pos - (pos as f64) * (pos as f64 + 1.0) / 2.0;
    u / (pos as f64 * neg as f64)
}

/// Precision among the top-`k` highest-scored items.
///
/// Ties at the cut are resolved by the sort's ordering (stable given equal
/// scores). `k` is clamped to the number of items; returns 0 for empty
/// input.
pub fn precision_at_k(scores: &[(f64, bool)], k: usize) -> f64 {
    if scores.is_empty() || k == 0 {
        return 0.0;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].0.partial_cmp(&scores[a].0).unwrap());
    let k = k.min(order.len());
    let hits = order[..k].iter().filter(|&&i| scores[i].1).count();
    hits as f64 / k as f64
}

/// Average precision (the area under the precision–recall curve as each
/// positive is encountered walking down the ranking). Returns 0 when there
/// are no positives.
pub fn average_precision(scores: &[(f64, bool)]) -> f64 {
    let num_pos = scores.iter().filter(|e| e.1).count();
    if num_pos == 0 {
        return 0.0;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].0.partial_cmp(&scores[a].0).unwrap());
    let mut hits = 0usize;
    let mut ap = 0.0;
    for (rank, &i) in order.iter().enumerate() {
        if scores[i].1 {
            hits += 1;
            ap += hits as f64 / (rank + 1) as f64;
        }
    }
    ap / num_pos as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let s = f1_scores(&[0, 1, 2, 1], &[0, 1, 2, 1]);
        assert_eq!(s.micro, 1.0);
        assert_eq!(s.macro_, 1.0);
    }

    #[test]
    fn all_wrong() {
        let s = f1_scores(&[0, 0, 0], &[1, 1, 1]);
        assert_eq!(s.micro, 0.0);
        assert_eq!(s.macro_, 0.0);
    }

    #[test]
    fn micro_equals_accuracy_single_label() {
        let truth = vec![0, 1, 2, 2, 1, 0, 0];
        let pred = vec![0, 2, 2, 2, 1, 1, 0];
        let s = f1_scores(&truth, &pred);
        let acc =
            truth.iter().zip(&pred).filter(|(a, b)| a == b).count() as f64 / truth.len() as f64;
        assert!((s.micro - acc).abs() < 1e-12);
    }

    #[test]
    fn macro_penalises_minority_errors_more() {
        // 9 of class 0 right, the single class-1 item wrong.
        let truth = vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 1];
        let pred = vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let s = f1_scores(&truth, &pred);
        assert!(s.micro > 0.85);
        assert!(s.macro_ < 0.55, "macro {}", s.macro_);
    }

    #[test]
    fn hand_computed_binary_case() {
        // truth: 0 0 1 1, pred: 0 1 1 1.
        // class0: tp=1 fp=0 fn=1 → f1 = 2/3; class1: tp=2 fp=1 fn=0 → 4/5.
        let s = f1_scores(&[0, 0, 1, 1], &[0, 1, 1, 1]);
        assert!((s.macro_ - (2.0 / 3.0 + 0.8) / 2.0).abs() < 1e-12);
        assert!((s.micro - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_input() {
        let s = f1_scores(&[], &[]);
        assert_eq!(s.micro, 0.0);
    }

    #[test]
    fn auc_perfect_and_inverted() {
        let perfect = vec![(0.9, true), (0.8, true), (0.3, false), (0.1, false)];
        assert_eq!(roc_auc(&perfect), 1.0);
        let inverted = vec![(0.1, true), (0.2, true), (0.8, false), (0.9, false)];
        assert_eq!(roc_auc(&inverted), 0.0);
    }

    #[test]
    fn auc_random_is_half() {
        // Alternating scores: every positive ties exactly one negative
        // above and one below on average.
        let scores: Vec<(f64, bool)> = (0..100).map(|i| (i as f64, i % 2 == 0)).collect();
        let auc = roc_auc(&scores);
        assert!((auc - 0.5).abs() < 0.02, "auc {auc}");
    }

    #[test]
    fn auc_handles_ties() {
        // All scores equal: AUC must be exactly 0.5.
        let scores = vec![(1.0, true), (1.0, false), (1.0, true), (1.0, false)];
        assert_eq!(roc_auc(&scores), 0.5);
    }

    #[test]
    fn precision_at_k_basics() {
        let scores = vec![(0.9, true), (0.8, false), (0.7, true), (0.1, false)];
        assert_eq!(precision_at_k(&scores, 1), 1.0);
        assert_eq!(precision_at_k(&scores, 2), 0.5);
        assert!((precision_at_k(&scores, 3) - 2.0 / 3.0).abs() < 1e-12);
        // k beyond length clamps.
        assert_eq!(precision_at_k(&scores, 100), 0.5);
        assert_eq!(precision_at_k(&[], 5), 0.0);
        assert_eq!(precision_at_k(&scores, 0), 0.0);
    }

    #[test]
    fn average_precision_hand_computed() {
        // Ranking: +, -, +  →  AP = (1/1 + 2/3) / 2 = 5/6.
        let scores = vec![(0.9, true), (0.5, false), (0.4, true)];
        assert!((average_precision(&scores) - 5.0 / 6.0).abs() < 1e-12);
        // Perfect ranking → AP = 1; no positives → 0.
        let perfect = vec![(0.9, true), (0.8, true), (0.1, false)];
        assert_eq!(average_precision(&perfect), 1.0);
        assert_eq!(average_precision(&[(0.3, false)]), 0.0);
    }

    #[test]
    fn average_precision_monotone_in_ranking_quality() {
        let good = vec![(0.9, true), (0.8, true), (0.2, false), (0.1, false)];
        let bad = vec![(0.9, false), (0.8, false), (0.2, true), (0.1, true)];
        assert!(average_precision(&good) > average_precision(&bad));
    }

    #[test]
    fn auc_degenerate_inputs() {
        assert_eq!(roc_auc(&[]), 0.5);
        assert_eq!(roc_auc(&[(1.0, true)]), 0.5);
        // Hand-computed: pos scores {3, 1}, neg {2}: one win, one loss.
        let s = vec![(3.0, true), (2.0, false), (1.0, true)];
        assert_eq!(roc_auc(&s), 0.5);
    }
}
