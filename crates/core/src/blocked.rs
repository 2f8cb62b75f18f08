//! The vertically blocked proximity matrix `M_S = [M_{1,1}|…|M_{1,b}]`.
//!
//! Rows are subset sources, columns are graph nodes, and columns are cut
//! into `b` contiguous equal-width blocks. Storage is per `(row, block)`
//! sorted sparse vectors, which makes three things cheap:
//!
//! * extracting block `j` as a [`CsrMatrix`] for its SVD;
//! * replacing one source's row when its PPR changes (only the blocks whose
//!   content actually differs are re-normed and re-stamped), or patching
//!   just the columns that moved (only the cells they fall in are read);
//! * exact incremental bookkeeping of `‖B_j‖_F²` per block and a version
//!   counter per `(row, block)` that lets the dynamic layer compute
//!   `‖D_j‖_F` by diffing only changed cells.

use tsvd_linalg::CsrMatrix;
use tsvd_ppr::RowUpdate;

/// Blocked sparse `|S| × n` proximity matrix with norm/version tracking.
#[derive(Debug, Clone)]
pub struct BlockedProximityMatrix {
    num_rows: usize,
    num_cols: usize,
    /// `b + 1` column boundaries; block `j` covers `[bounds[j], bounds[j+1])`.
    bounds: Vec<u32>,
    /// `cells[row][block]`: sorted `(local_col, value)` pairs.
    cells: Vec<Vec<Vec<(u32, f64)>>>,
    /// `‖B_j‖_F²` per block, maintained exactly.
    block_normsq: Vec<f64>,
    /// Version stamp per `(row, block)`, bumped on content change.
    versions: Vec<Vec<u64>>,
    clock: u64,
}

tsvd_rt::impl_json_struct!(BlockedProximityMatrix {
    num_rows,
    num_cols,
    bounds,
    cells,
    block_normsq,
    versions,
    clock
});

impl BlockedProximityMatrix {
    /// An all-zero matrix with `num_blocks` equal-width column blocks.
    pub fn new(num_rows: usize, num_cols: usize, num_blocks: usize) -> Self {
        assert!(num_blocks >= 1, "need at least one block");
        assert!(num_cols >= num_blocks, "more blocks than columns");
        let bounds = (0..=num_blocks)
            .map(|j| ((j * num_cols) / num_blocks) as u32)
            .collect();
        BlockedProximityMatrix {
            num_rows,
            num_cols,
            bounds,
            cells: vec![vec![Vec::new(); num_blocks]; num_rows],
            block_normsq: vec![0.0; num_blocks],
            versions: vec![vec![0; num_blocks]; num_rows],
            clock: 0,
        }
    }

    /// Build a matrix holding `rows` in `cfg.num_blocks` equal-width blocks
    /// — the shared constructor behind `TreeSvdPipeline::new` and the
    /// serving layer's sharded engine.
    pub fn from_proximity_rows(
        num_cols: usize,
        cfg: &crate::config::TreeSvdConfig,
        rows: &[Vec<(u32, f64)>],
    ) -> Self {
        let mut m = BlockedProximityMatrix::new(rows.len(), num_cols, cfg.num_blocks);
        for (i, row) in rows.iter().enumerate() {
            m.set_row(i, row);
        }
        m
    }

    /// Number of rows `|S|`.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns `n`.
    #[inline]
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Number of column blocks `b`.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.block_normsq.len()
    }

    /// Column range `[start, end)` of block `j`.
    #[inline]
    pub fn block_range(&self, j: usize) -> (u32, u32) {
        (self.bounds[j], self.bounds[j + 1])
    }

    /// Which block a global column falls in (blocks are equal-width except
    /// for rounding, so this is a binary search over `b+1` boundaries).
    #[inline]
    pub fn block_of_col(&self, col: u32) -> usize {
        debug_assert!((col as usize) < self.num_cols);
        match self.bounds.binary_search(&col) {
            Ok(j) => j.min(self.num_blocks() - 1),
            Err(j) => j - 1,
        }
    }

    /// Replace row `i` with `entries` (global columns, sorted ascending).
    /// Only blocks whose cell content changes are re-normed and re-stamped.
    pub fn set_row(&mut self, i: usize, entries: &[(u32, f64)]) {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "row not sorted"
        );
        // A single NaN would silently poison every downstream norm, diff,
        // and factorisation; fail loudly at the boundary instead.
        assert!(
            entries.iter().all(|e| e.1.is_finite()),
            "row {i} contains a non-finite value"
        );
        let b = self.num_blocks();
        let mut per_block: Vec<Vec<(u32, f64)>> = vec![Vec::new(); b];
        for &(c, v) in entries {
            assert!((c as usize) < self.num_cols, "column {c} out of range");
            let j = self.block_of_col(c);
            per_block[j].push((c - self.bounds[j], v));
        }
        self.clock += 1;
        for (j, new_cell) in per_block.into_iter().enumerate() {
            self.replace_cell(i, j, new_cell);
        }
    }

    /// Edit row `i` in place: `patch` lists global columns (sorted
    /// ascending) with their new value, `None` removing the entry; every
    /// column not listed keeps its content. Leaves the matrix in exactly
    /// the state — cells, norms, version stamps, clock — that
    /// [`set_row`](Self::set_row) with the patched row would, at the cost
    /// of the cells the listed columns fall in rather than of the row.
    pub fn patch_row(&mut self, i: usize, patch: &[(u32, Option<f64>)]) {
        debug_assert!(
            patch.windows(2).all(|w| w[0].0 < w[1].0),
            "patch not sorted"
        );
        assert!(
            patch.iter().all(|e| e.1.is_none_or(f64::is_finite)),
            "row {i} contains a non-finite value"
        );
        self.clock += 1;
        let mut rest = patch;
        while let Some(&(first, _)) = rest.first() {
            assert!(
                (first as usize) < self.num_cols,
                "column {first} out of range"
            );
            let j = self.block_of_col(first);
            let (lo, hi) = (self.bounds[j], self.bounds[j + 1]);
            let (here, later) = rest.split_at(rest.partition_point(|e| e.0 < hi));
            rest = later;
            // Merge the cell with its share of the patch.
            let old_cell = &self.cells[i][j];
            let mut new_cell = Vec::with_capacity(old_cell.len() + here.len());
            let mut old = old_cell.iter().copied().peekable();
            for &(col, value) in here {
                let c = col - lo;
                while let Some(e) = old.next_if(|e| e.0 < c) {
                    new_cell.push(e);
                }
                old.next_if(|e| e.0 == c);
                if let Some(v) = value {
                    new_cell.push((c, v));
                }
            }
            new_cell.extend(old);
            self.replace_cell(i, j, new_cell);
        }
    }

    /// Apply one drained [`RowUpdate`] to row `i` — the row-refresh step
    /// shared by the offline pipeline and the serving engine.
    pub fn apply_row_update(&mut self, i: usize, update: &RowUpdate) {
        match update {
            RowUpdate::Whole(entries) => self.set_row(i, entries),
            RowUpdate::Patch(patch) => self.patch_row(i, patch),
        }
    }

    /// Install `new_cell` as cell `(i, j)`; if its content differs, re-norm
    /// the block and stamp the cell with the current clock.
    fn replace_cell(&mut self, i: usize, j: usize, new_cell: Vec<(u32, f64)>) {
        let old_cell = &mut self.cells[i][j];
        if *old_cell == new_cell {
            return;
        }
        let old_sq: f64 = old_cell.iter().map(|e| e.1 * e.1).sum();
        let new_sq: f64 = new_cell.iter().map(|e| e.1 * e.1).sum();
        self.block_normsq[j] += new_sq - old_sq;
        if self.block_normsq[j] < 0.0 {
            self.block_normsq[j] = 0.0; // rounding guard
        }
        *old_cell = new_cell;
        self.versions[i][j] = self.clock;
    }

    /// The sparse cell `(row, block)`: sorted `(local_col, value)` pairs.
    #[inline]
    pub fn cell(&self, i: usize, j: usize) -> &[(u32, f64)] {
        &self.cells[i][j]
    }

    /// Version stamp of cell `(row, block)`.
    #[inline]
    pub fn cell_version(&self, i: usize, j: usize) -> u64 {
        self.versions[i][j]
    }

    /// `‖B_j‖_F²` (exact, maintained incrementally).
    #[inline]
    pub fn block_norm_sq(&self, j: usize) -> f64 {
        self.block_normsq[j]
    }

    /// `‖M_S‖_F²`.
    pub fn frobenius_norm_sq(&self) -> f64 {
        self.block_normsq.iter().sum()
    }

    /// Total number of stored entries.
    pub fn nnz(&self) -> usize {
        self.cells
            .iter()
            .map(|row| row.iter().map(|c| c.len()).sum::<usize>())
            .sum()
    }

    /// Materialise block `j` as a CSR matrix (`|S| × block_width`).
    pub fn block_csr(&self, j: usize) -> CsrMatrix {
        let width = (self.bounds[j + 1] - self.bounds[j]) as usize;
        let mut indptr = Vec::with_capacity(self.num_rows + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0);
        for i in 0..self.num_rows {
            for &(c, v) in &self.cells[i][j] {
                indices.push(c);
                data.push(v);
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw(self.num_rows, width, indptr, indices, data)
    }

    /// Materialise the whole matrix as CSR (`|S| × n`).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut indptr = Vec::with_capacity(self.num_rows + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0);
        for i in 0..self.num_rows {
            for j in 0..self.num_blocks() {
                let base = self.bounds[j];
                for &(c, v) in &self.cells[i][j] {
                    indices.push(base + c);
                    data.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw(self.num_rows, self.num_cols, indptr, indices, data)
    }
}

/// Squared Frobenius distance between two sorted sparse rows — the per-cell
/// building block of `‖D_j‖_F²` in the lazy-update rule.
pub(crate) fn sparse_row_dist_sq(a: &[(u32, f64)], b: &[(u32, f64)]) -> f64 {
    let (mut ia, mut ib) = (0, 0);
    let mut acc = 0.0;
    while ia < a.len() && ib < b.len() {
        match a[ia].0.cmp(&b[ib].0) {
            std::cmp::Ordering::Less => {
                acc += a[ia].1 * a[ia].1;
                ia += 1;
            }
            std::cmp::Ordering::Greater => {
                acc += b[ib].1 * b[ib].1;
                ib += 1;
            }
            std::cmp::Ordering::Equal => {
                let d = a[ia].1 - b[ib].1;
                acc += d * d;
                ia += 1;
                ib += 1;
            }
        }
    }
    acc += a[ia..].iter().map(|e| e.1 * e.1).sum::<f64>();
    acc += b[ib..].iter().map(|e| e.1 * e.1).sum::<f64>();
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_boundaries_cover_columns() {
        let m = BlockedProximityMatrix::new(2, 100, 7);
        let mut total = 0;
        for j in 0..7 {
            let (a, b) = m.block_range(j);
            assert!(a < b);
            total += (b - a) as usize;
        }
        assert_eq!(total, 100);
        // Every column maps into a block containing it.
        for c in 0..100u32 {
            let j = m.block_of_col(c);
            let (a, b) = m.block_range(j);
            assert!(a <= c && c < b, "col {c} → block {j} [{a},{b})");
        }
    }

    #[test]
    fn set_row_splits_into_blocks() {
        let mut m = BlockedProximityMatrix::new(2, 10, 2); // blocks [0,5) [5,10)
        m.set_row(0, &[(1, 2.0), (4, 1.0), (7, 3.0)]);
        assert_eq!(m.cell(0, 0), &[(1, 2.0), (4, 1.0)]);
        assert_eq!(m.cell(0, 1), &[(2, 3.0)]);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn norms_maintained_exactly() {
        let mut m = BlockedProximityMatrix::new(3, 12, 3);
        m.set_row(0, &[(0, 1.0), (5, 2.0)]);
        m.set_row(1, &[(1, 3.0), (11, 4.0)]);
        m.set_row(2, &[(6, 1.5)]);
        // Check against the CSR ground truth, per block and in total.
        for j in 0..3 {
            let want = m.block_csr(j).frobenius_norm_sq();
            assert!((m.block_norm_sq(j) - want).abs() < 1e-12, "block {j}");
        }
        // Replace a row and re-check.
        m.set_row(1, &[(1, 1.0), (6, 2.0)]);
        for j in 0..3 {
            let want = m.block_csr(j).frobenius_norm_sq();
            assert!(
                (m.block_norm_sq(j) - want).abs() < 1e-12,
                "block {j} after update"
            );
        }
        assert!((m.frobenius_norm_sq() - m.to_csr().frobenius_norm_sq()).abs() < 1e-12);
    }

    #[test]
    fn versions_bump_only_on_change() {
        let mut m = BlockedProximityMatrix::new(1, 10, 2);
        m.set_row(0, &[(0, 1.0), (7, 2.0)]);
        let v0 = m.cell_version(0, 0);
        let v1 = m.cell_version(0, 1);
        assert!(v0 > 0 && v1 > 0);
        // Same content: no bump anywhere.
        m.set_row(0, &[(0, 1.0), (7, 2.0)]);
        assert_eq!(m.cell_version(0, 0), v0);
        assert_eq!(m.cell_version(0, 1), v1);
        // Change only the second block.
        m.set_row(0, &[(0, 1.0), (8, 2.0)]);
        assert_eq!(m.cell_version(0, 0), v0, "untouched block keeps its stamp");
        assert!(m.cell_version(0, 1) > v1);
    }

    #[test]
    fn patch_row_edits_only_the_cells_it_names() {
        let mut m = BlockedProximityMatrix::new(2, 12, 3); // [0,4) [4,8) [8,12)
        m.set_row(0, &[(1, 2.0), (5, 1.0), (6, 3.0), (9, 4.0)]);
        let stamps: Vec<u64> = (0..3).map(|j| m.cell_version(0, j)).collect();
        // Overwrite one column, remove one, insert one — all in block 1;
        // rewrite a block-2 value with the bits it already has.
        m.patch_row(
            0,
            &[(4, Some(0.5)), (5, Some(7.0)), (6, None), (9, Some(4.0))],
        );
        assert_eq!(m.cell(0, 0), &[(1, 2.0)]);
        assert_eq!(m.cell(0, 1), &[(0, 0.5), (1, 7.0)]);
        assert_eq!(m.cell(0, 2), &[(1, 4.0)]);
        assert_eq!(m.cell_version(0, 0), stamps[0], "unnamed cell untouched");
        assert!(m.cell_version(0, 1) > stamps[1]);
        assert_eq!(
            m.cell_version(0, 2),
            stamps[2],
            "bit-equal rewrite: no stamp"
        );
        for j in 0..3 {
            let want = m.block_csr(j).frobenius_norm_sq();
            assert!((m.block_norm_sq(j) - want).abs() < 1e-12, "block {j}");
        }
        // Removing a column that is not stored changes nothing but the clock.
        let before = m.cell_version(0, 0);
        m.patch_row(0, &[(2, None)]);
        assert_eq!(m.cell_version(0, 0), before);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn patch_rejects_out_of_range_column() {
        let mut m = BlockedProximityMatrix::new(1, 5, 2);
        m.patch_row(0, &[(1, Some(1.0)), (5, None)]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn patch_rejects_non_finite_values() {
        let mut m = BlockedProximityMatrix::new(1, 5, 1);
        m.patch_row(0, &[(1, Some(f64::INFINITY))]);
    }

    #[test]
    fn to_csr_matches_cells() {
        let mut m = BlockedProximityMatrix::new(2, 9, 3);
        m.set_row(0, &[(2, 1.0), (3, 2.0), (8, 3.0)]);
        m.set_row(1, &[(0, 4.0)]);
        let csr = m.to_csr();
        assert_eq!(csr.get(0, 2), 1.0);
        assert_eq!(csr.get(0, 3), 2.0);
        assert_eq!(csr.get(0, 8), 3.0);
        assert_eq!(csr.get(1, 0), 4.0);
        assert_eq!(csr.nnz(), 4);
        // Block extraction agrees with column slicing of the full CSR.
        for j in 0..3 {
            let (a, b) = m.block_range(j);
            let direct = m.block_csr(j);
            let sliced = csr.slice_cols(a, b);
            assert_eq!(direct, sliced, "block {j}");
        }
    }

    #[test]
    fn sparse_row_dist_sq_cases() {
        // Disjoint supports.
        let d = sparse_row_dist_sq(&[(0, 3.0)], &[(1, 4.0)]);
        assert!((d - 25.0).abs() < 1e-12);
        // Overlapping.
        let d = sparse_row_dist_sq(&[(0, 1.0), (2, 2.0)], &[(2, 5.0)]);
        assert!((d - (1.0 + 9.0)).abs() < 1e-12);
        // Identical.
        let d = sparse_row_dist_sq(&[(1, 2.0)], &[(1, 2.0)]);
        assert_eq!(d, 0.0);
        // Both empty.
        assert_eq!(sparse_row_dist_sq(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_non_finite_values() {
        let mut m = BlockedProximityMatrix::new(1, 5, 1);
        m.set_row(0, &[(1, f64::NAN)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_column() {
        let mut m = BlockedProximityMatrix::new(1, 5, 1);
        m.set_row(0, &[(5, 1.0)]);
    }
}
