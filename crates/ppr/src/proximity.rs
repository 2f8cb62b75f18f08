//! The STRAP-style log-scaled proximity transform.
//!
//! `M_S(s, v) = log(p_s(v)/r_max + pᵀ_s(v)/r_max)`, kept only where the
//! argument exceeds 1 (so the stored matrix is sparse and non-negative).
//! Dividing by `r_max` rescales estimates into "units of the push
//! threshold"; the logarithm is the usual representation-power non-linearity
//! (STRAP, Lemane).

use crate::state::PprState;

/// `ln(p / r_max)` where that is positive — the stored value of a column
/// whose clamped forward + reverse estimate is `p` — else `None` (the
/// column is not stored).
#[inline]
fn log_scaled(p: f64, r_max: f64) -> Option<f64> {
    let scaled = p / r_max;
    (scaled > 1.0).then(|| scaled.ln())
}

/// One column of [`proximity_row`], straight from the two estimate maps:
/// the same clamp, the same sum (two terms, so the order they are met in
/// cannot matter; a clamped-away term adds an exact `0.0`) and the same
/// transform, hence the same bits.
pub(crate) fn proximity_entry(fwd: &PprState, bwd: &PprState, r_max: f64, v: u32) -> Option<f64> {
    log_scaled(fwd.estimate(v).max(0.0) + bwd.estimate(v).max(0.0), r_max)
}

/// Build the sparse proximity row for one source from its forward and
/// reverse push states. Returns `(node, value)` pairs sorted by node id.
///
/// Slightly negative estimates (possible transiently after deletions, before
/// the re-push) are clamped to zero.
pub fn proximity_row(fwd: &PprState, bwd: &PprState, r_max: f64) -> Vec<(u32, f64)> {
    debug_assert_eq!(fwd.source, bwd.source);
    let mut combined: Vec<(u32, f64)> = Vec::with_capacity(fwd.estimate_nnz() + bwd.estimate_nnz());
    for (v, p) in fwd.estimates() {
        if p > 0.0 {
            combined.push((v, p));
        }
    }
    for (v, p) in bwd.estimates() {
        if p > 0.0 {
            combined.push((v, p));
        }
    }
    combined.sort_unstable_by_key(|e| e.0);
    let mut out: Vec<(u32, f64)> = Vec::with_capacity(combined.len());
    let mut iter = combined.into_iter().peekable();
    while let Some((v, mut p)) = iter.next() {
        while iter.peek().is_some_and(|&(v2, _)| v2 == v) {
            p += iter.next().unwrap().1;
        }
        if let Some(value) = log_scaled(p, r_max) {
            out.push((v, value));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::PprState;

    fn state_with(source: u32, entries: &[(u32, f64)]) -> PprState {
        let mut s = PprState::new(source);
        for &(v, p) in entries {
            s.add_p(v, p);
        }
        s
    }

    #[test]
    fn combines_directions_and_logs() {
        let fwd = state_with(0, &[(1, 0.4), (2, 0.1)]);
        let bwd = state_with(0, &[(1, 0.2), (3, 0.3)]);
        let row = proximity_row(&fwd, &bwd, 0.01);
        let cols: Vec<u32> = row.iter().map(|e| e.0).collect();
        assert_eq!(cols, vec![1, 2, 3]);
        let v1 = row[0].1;
        assert!((v1 - (0.6_f64 / 0.01).ln()).abs() < 1e-12);
    }

    #[test]
    fn drops_subthreshold_entries() {
        let fwd = state_with(0, &[(1, 0.005), (2, 0.02)]);
        let bwd = state_with(0, &[]);
        let row = proximity_row(&fwd, &bwd, 0.01);
        // 0.005/0.01 = 0.5 ≤ 1 dropped; 0.02/0.01 = 2 kept.
        assert_eq!(row.len(), 1);
        assert_eq!(row[0].0, 2);
        assert!(row[0].1 > 0.0, "retained entries are positive");
    }

    #[test]
    fn negative_estimates_clamped() {
        let fwd = state_with(0, &[(1, -0.3), (2, 0.05)]);
        let bwd = state_with(0, &[(1, 0.002)]);
        let row = proximity_row(&fwd, &bwd, 0.01);
        // Node 1: only the positive bwd part counts → 0.2 ≤ 1 → dropped.
        assert_eq!(row.len(), 1);
        assert_eq!(row[0].0, 2);
    }

    #[test]
    fn single_entries_match_the_whole_row_bitwise() {
        let fwd = state_with(0, &[(1, 0.4), (2, 0.1), (4, -0.3), (6, 0.004), (7, 0.3)]);
        let bwd = state_with(0, &[(1, 0.2), (3, 0.3), (4, 0.002), (6, 0.007), (7, -0.1)]);
        let row = proximity_row(&fwd, &bwd, 0.01);
        for v in 0..9u32 {
            let want = row.iter().find(|e| e.0 == v).map(|e| e.1.to_bits());
            let got = proximity_entry(&fwd, &bwd, 0.01, v).map(f64::to_bits);
            assert_eq!(got, want, "column {v}");
        }
    }

    #[test]
    fn sorted_output() {
        let fwd = state_with(0, &[(9, 0.5), (1, 0.5)]);
        let bwd = state_with(0, &[(5, 0.5)]);
        let row = proximity_row(&fwd, &bwd, 0.001);
        let cols: Vec<u32> = row.iter().map(|e| e.0).collect();
        assert_eq!(cols, vec![1, 5, 9]);
    }
}
