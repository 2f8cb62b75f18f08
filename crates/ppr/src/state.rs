//! Per-source push state: the estimate vector `p_s` and residue vector `r_s`.

use std::collections::VecDeque;
use tsvd_rt::flat::FlatMap;

/// The local-push state of one PPR source: sparse estimate (`p`) and residue
/// (`r`) vectors, per Algorithm 1 of the paper.
///
/// Both vectors are sparse [`FlatMap`]s — forward push touches
/// `O(1/r_max)` nodes, a vanishing fraction of the graph — with a fixed
/// hash, so their slot order is the same in every process. The `dirty`
/// flag is set by any mutation and cleared by the consumer (the
/// proximity-matrix layer uses it to refresh only the rows that changed,
/// and `touched` to refresh only the columns of those rows that changed).
#[derive(Debug, Clone)]
pub struct PprState {
    /// The source node `s`.
    pub source: u32,
    pub(crate) p: FlatMap,
    pub(crate) r: FlatMap,
    /// Set whenever `p` changes; cleared via [`PprState::clear_dirty`].
    pub dirty: bool,
    /// Which estimates moved since `dirty` was last cleared. Working memory
    /// like `scratch`: empty between windows, excluded from serialisation.
    pub(crate) touched: Touched,
    /// Reusable push working memory (seed sort + frontier queue). Purely
    /// transient: always empty between pushes, excluded from serialisation.
    pub(crate) scratch: PushScratch,
}

/// The columns of `p` written since the dirty flag was last cleared.
#[derive(Debug, Clone)]
pub(crate) enum Touched {
    /// Every write since the last clear, in write order, duplicates and
    /// all; a superset of the columns whose estimate differs from what the
    /// consumer last saw.
    Cols(Vec<u32>),
    /// No consumer has seen this state's estimates yet (fresh, reset, or
    /// decoded while dirty): there is nothing to patch against.
    All,
}

/// Per-state scratch buffers for [`crate::push::forward_push`], kept on the
/// state so the dynamic re-push of every source in every window does not
/// pay two heap allocations (seed Vec + frontier VecDeque) per call.
#[derive(Debug, Clone, Default)]
pub(crate) struct PushScratch {
    pub(crate) seeds: Vec<u32>,
    pub(crate) queue: VecDeque<u32>,
}

// `scratch` and `touched` are working memory, not state: neither codec
// writes them. The touched-column list was not saved, so a state saved
// dirty can only be refreshed whole.
tsvd_rt::impl_json_struct!(PprState { source, p, r, dirty } transient {
    touched: if dirty {
        Touched::All
    } else {
        Touched::Cols(Vec::new())
    },
    scratch: PushScratch::default(),
});

impl PprState {
    /// Fresh state for `source`: `p = 0`, `r = 1_s` (one-hot residue).
    pub fn new(source: u32) -> Self {
        let mut r = FlatMap::new();
        r.insert(source, 1.0);
        PprState {
            source,
            p: FlatMap::new(),
            r,
            dirty: true,
            touched: Touched::All,
            scratch: PushScratch::default(),
        }
    }

    /// Reset to the fresh state (used when an incremental update falls back
    /// to a from-scratch push).
    pub fn reset(&mut self) {
        self.p.clear();
        self.r.clear();
        self.r.insert(self.source, 1.0);
        self.dirty = true;
        self.touched = Touched::All;
    }

    /// Current estimate `p_s(u)` of `π_s(u)`.
    #[inline]
    pub fn estimate(&self, u: u32) -> f64 {
        self.p.get(u).unwrap_or(0.0)
    }

    /// Current residue `r_s(u)`.
    #[inline]
    pub fn residue(&self, u: u32) -> f64 {
        self.r.get(u).unwrap_or(0.0)
    }

    /// Iterate non-zero estimate entries.
    pub fn estimates(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.p.iter()
    }

    /// Iterate non-zero residue entries.
    pub fn residues(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.r.iter()
    }

    /// Number of non-zero estimate entries.
    pub fn estimate_nnz(&self) -> usize {
        self.p.len()
    }

    /// Sum of all estimates (≤ 1 + O(r_max·pushes) for a fresh push).
    pub fn estimate_mass(&self) -> f64 {
        self.p.values().sum()
    }

    /// Total absolute residue mass.
    pub fn residue_mass(&self) -> f64 {
        self.r.values().map(|v| v.abs()).sum()
    }

    /// Clear the dirty flag (and the touched-column list that goes with
    /// it), returning the flag's previous value.
    pub fn clear_dirty(&mut self) -> bool {
        match &mut self.touched {
            Touched::Cols(cols) => cols.clear(),
            Touched::All => self.touched = Touched::Cols(Vec::new()),
        }
        std::mem::replace(&mut self.dirty, false)
    }

    /// Record a write to `p(u)`.
    #[inline]
    fn touch(&mut self, u: u32) {
        self.dirty = true;
        if let Touched::Cols(cols) = &mut self.touched {
            cols.push(u);
        }
    }

    #[inline]
    pub(crate) fn add_p(&mut self, u: u32, delta: f64) {
        if delta == 0.0 {
            return;
        }
        let e = self.p.slot(u);
        *e += delta;
        if *e == 0.0 {
            self.p.remove(u);
        }
        self.touch(u);
    }

    #[inline]
    pub(crate) fn scale_p(&mut self, u: u32, factor: f64) {
        if let Some(e) = self.p.get_mut(u) {
            *e *= factor;
            if *e == 0.0 {
                self.p.remove(u);
            }
            self.touch(u);
        }
    }

    #[inline]
    pub(crate) fn add_r(&mut self, u: u32, delta: f64) {
        if delta == 0.0 {
            return;
        }
        let e = self.r.slot(u);
        *e += delta;
        if *e == 0.0 {
            self.r.remove(u);
        }
    }

    #[inline]
    pub(crate) fn take_r(&mut self, u: u32) -> f64 {
        self.r.remove(u).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_is_one_hot() {
        let s = PprState::new(7);
        assert_eq!(s.residue(7), 1.0);
        assert_eq!(s.residue(3), 0.0);
        assert_eq!(s.estimate(7), 0.0);
        assert_eq!(s.estimate_mass(), 0.0);
        assert_eq!(s.residue_mass(), 1.0);
    }

    #[test]
    fn add_and_remove_entries() {
        let mut s = PprState::new(0);
        s.add_p(4, 0.5);
        assert_eq!(s.estimate(4), 0.5);
        s.add_p(4, -0.5);
        assert_eq!(s.estimate_nnz(), 0, "exact-zero entries are dropped");
        s.add_r(2, 0.25);
        assert_eq!(s.take_r(2), 0.25);
        assert_eq!(s.residue(2), 0.0);
    }

    #[test]
    fn dirty_flag_lifecycle() {
        let mut s = PprState::new(1);
        assert!(s.clear_dirty());
        assert!(!s.clear_dirty());
        s.add_p(9, 0.1);
        assert!(s.dirty);
        s.clear_dirty();
        s.scale_p(9, 2.0);
        assert!(s.dirty);
        assert_eq!(s.estimate(9), 0.2);
    }

    #[test]
    fn both_codecs_skip_scratch_and_touched_and_round_trip() {
        use tsvd_rt::bin::{decode_all, Encode};
        use tsvd_rt::json::{FromJson, Json, ToJson};

        let mut s = PprState::new(3);
        s.clear_dirty();
        s.add_p(1, 0.25);
        s.add_r(2, -0.5);
        s.scratch.seeds.push(9); // dirty scratch must not leak into JSON
        s.scratch.queue.push_back(9);
        assert!(matches!(&s.touched, Touched::Cols(c) if c == &[1]));
        let j = Json::parse(&s.to_json().to_string()).unwrap();
        assert!(j.get("scratch").is_none(), "scratch serialized");
        assert!(j.get("touched").is_none(), "touched serialized");
        let back = PprState::from_json(&j).unwrap();
        assert_eq!(back.source, 3);
        assert_eq!(back.estimate(1), 0.25);
        assert_eq!(back.residue(2), -0.5);
        assert_eq!(back.dirty, s.dirty);
        assert!(back.scratch.seeds.is_empty() && back.scratch.queue.is_empty());
        // Saved dirty, the list is gone: only a whole-row refresh is safe.
        assert!(matches!(back.touched, Touched::All));
        // Saved clean (the only way a checkpoint is ever written): empty.
        s.clear_dirty();
        let clean = PprState::from_json(&s.to_json()).unwrap();
        assert!(matches!(&clean.touched, Touched::Cols(c) if c.is_empty()));
        assert_eq!(s.to_json().to_string(), clean.to_json().to_string());

        // The binary codec reads the same field list and the same rule:
        // source · p · r (key-sorted runs) · dirty, and nothing else.
        let mut bytes = Vec::new();
        s.encode(&mut bytes);
        assert_eq!(bytes.len(), 4 + (4 + 12) + (4 + 2 * 12) + 1);
        let clean: PprState = decode_all(&bytes).unwrap();
        assert!(matches!(&clean.touched, Touched::Cols(c) if c.is_empty()));
        assert!(clean.scratch.seeds.is_empty() && clean.scratch.queue.is_empty());
        assert_eq!(s.to_json().to_string(), clean.to_json().to_string());
        s.add_p(5, 0.5);
        bytes.clear();
        s.encode(&mut bytes);
        let dirty: PprState = decode_all(&bytes).unwrap();
        assert!(dirty.dirty && matches!(dirty.touched, Touched::All));
    }

    #[test]
    fn touched_lists_every_estimate_write_until_cleared() {
        let mut s = PprState::new(1);
        assert!(
            matches!(s.touched, Touched::All),
            "nothing to patch against"
        );
        s.add_p(4, 0.5);
        assert!(matches!(s.touched, Touched::All), "still unseen");
        assert!(s.clear_dirty());
        s.add_p(9, 0.1);
        s.scale_p(4, 2.0);
        s.scale_p(7, 2.0); // absent: not a write
        s.add_p(9, -0.1); // removed again: still a write
        s.add_r(5, 0.3); // residues are not part of the row
        assert!(matches!(&s.touched, Touched::Cols(c) if c == &[9, 4, 9]));
        assert!(s.clear_dirty());
        assert!(matches!(&s.touched, Touched::Cols(c) if c.is_empty()));
        s.add_p(2, 0.2);
        s.reset();
        assert!(matches!(s.touched, Touched::All), "reset forgets the row");
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut s = PprState::new(5);
        s.add_p(1, 0.3);
        s.add_r(2, 0.4);
        s.reset();
        assert_eq!(s.estimate_nnz(), 0);
        assert_eq!(s.residue(5), 1.0);
        assert_eq!(s.residue(2), 0.0);
    }
}
