//! DynPPE (Guo et al., KDD 2021): hashing-based dynamic subset embedding.
//!
//! For each source `s ∈ S`, DynPPE keeps an approximate PPR vector via
//! Forward-Push and maps it to `d` dimensions with a signed feature hash
//! `h: Rⁿ → R^d`:  `e_s[idx(v)] += sign(v)·π̂_s(v)`. On graph updates the
//! PPR vectors refresh incrementally (Algorithm 2) and only the rows of
//! sources whose vectors changed are re-hashed — which is what makes DynPPE
//! fast, and the hashing is what makes it less accurate than MF methods
//! (Table 1 / Exp. 4 of the paper).

use crate::pair::EmbeddingPair;
use tsvd_graph::{Direction, DynGraph, EdgeEvent};
use tsvd_linalg::DenseMatrix;
use tsvd_ppr::dynamic::{batch_endpoints, dynamic_update, record_events};
use tsvd_ppr::{forward_push, PprConfig, PprState};
use tsvd_rt::pool::{par_for_each_mut, par_map};

/// Deterministic 32-bit mix (xorshift-multiply finaliser, splitmix-style).
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The DynPPE embedder.
#[derive(Debug, Clone)]
pub struct DynPpe {
    dim: usize,
    hash_seed: u64,
    cfg: PprConfig,
    sources: Vec<u32>,
    states: Vec<PprState>,
    emb: DenseMatrix,
}

impl DynPpe {
    /// Build on graph `g`: one forward push per source, then hash.
    pub fn build(
        g: &DynGraph,
        sources: &[u32],
        cfg: PprConfig,
        dim: usize,
        hash_seed: u64,
    ) -> Self {
        let states: Vec<PprState> = par_map(sources.len(), |i| {
            let mut st = PprState::new(sources[i]);
            forward_push(g, Direction::Out, cfg.alpha, cfg.r_max, &mut st);
            st
        });
        let mut me = DynPpe {
            dim,
            hash_seed,
            cfg,
            sources: sources.to_vec(),
            states,
            emb: DenseMatrix::zeros(sources.len(), dim),
        };
        for i in 0..me.sources.len() {
            me.rehash_row(i);
            me.states[i].clear_dirty();
        }
        me
    }

    /// Bucket index for node `v`.
    #[inline]
    fn bucket(&self, v: u32) -> usize {
        (mix(v as u64 ^ self.hash_seed) % self.dim as u64) as usize
    }

    /// ±1 sign for node `v` (independent hash).
    #[inline]
    fn sign(&self, v: u32) -> f64 {
        if mix(v as u64 ^ self.hash_seed.rotate_left(17)) & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Re-hash one source's embedding row from its current PPR estimate.
    ///
    /// Values are log-scaled exactly like the MF methods' proximity entries
    /// (`ln(p/r_max)` for `p > r_max`) before hashing: raw PPR magnitudes
    /// span many orders and would let a couple of hub entries drown the
    /// rest of the hashed signature.
    fn rehash_row(&mut self, i: usize) {
        let mut row = vec![0.0; self.dim];
        // Sort for a deterministic summation order (the estimate map is a
        // hash map whose iteration order varies between processes).
        let mut entries: Vec<(u32, f64)> = self.states[i].estimates().collect();
        entries.sort_unstable_by_key(|e| e.0);
        let r_max = self.cfg.r_max;
        for (v, p) in entries {
            let scaled = p / r_max;
            if scaled > 1.0 {
                row[self.bucket(v)] += self.sign(v) * scaled.ln();
            }
        }
        self.emb.row_mut(i).copy_from_slice(&row);
    }

    /// Apply an event batch: incremental PPR refresh (Algorithm 2), then
    /// re-hash only the rows whose PPR actually changed. Mutates `g`.
    /// Returns the number of re-hashed rows.
    pub fn update(&mut self, g: &mut DynGraph, events: &[EdgeEvent]) -> usize {
        let (recorded, _) = record_events(g, events);
        if recorded.is_empty() {
            return 0;
        }
        let endpoints = batch_endpoints(&recorded);
        let cfg = self.cfg;
        let g_ref: &DynGraph = g;
        par_for_each_mut(&mut self.states, |st| {
            dynamic_update(
                g_ref,
                Direction::Out,
                cfg.alpha,
                cfg.r_max,
                st,
                &recorded,
                &endpoints,
            );
        });
        let mut rehashed = 0;
        for i in 0..self.sources.len() {
            if self.states[i].clear_dirty() {
                self.rehash_row(i);
                rehashed += 1;
            }
        }
        rehashed
    }

    /// The current `|S| × d` embedding.
    pub fn embedding(&self) -> EmbeddingPair {
        EmbeddingPair::left_only(self.emb.clone())
    }

    /// The subset in row order.
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn build_produces_nonzero_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = random_graph(&mut rng, 60, 240);
        let d = DynPpe::build(&g, &[0, 1, 2], PprConfig::default(), 16, 7);
        let e = d.embedding();
        assert_eq!(e.left.rows(), 3);
        assert_eq!(e.dim(), 16);
        for i in 0..3 {
            let norm: f64 = e.left.row(i).iter().map(|v| v * v).sum();
            assert!(norm > 0.0, "row {i} empty");
        }
    }

    #[test]
    fn hash_preserves_l2_norm_approximately() {
        // Signed feature hashing is an ε-isometry in expectation:
        // ‖h(x)‖² has expectation ‖x‖². Check within a loose factor.
        let mut rng = StdRng::seed_from_u64(2);
        let g = random_graph(&mut rng, 200, 1000);
        let cfg = PprConfig {
            alpha: 0.2,
            r_max: 1e-5,
        };
        let d = DynPpe::build(&g, &[0], cfg, 64, 3);
        let hashed_sq: f64 = d.emb.row(0).iter().map(|v| v * v).sum();
        let true_sq: f64 = d.states[0]
            .estimates()
            .map(|(_, p)| {
                let sc = p / cfg.r_max;
                if sc > 1.0 {
                    sc.ln().powi(2)
                } else {
                    0.0
                }
            })
            .sum();
        assert!(
            hashed_sq > 0.3 * true_sq && hashed_sq < 3.0 * true_sq,
            "{hashed_sq} vs {true_sq}"
        );
    }

    #[test]
    fn update_only_rehashes_affected_sources() {
        let mut rng = StdRng::seed_from_u64(3);
        // Two disconnected cliques; sources in both.
        let mut g = DynGraph::with_nodes(40);
        for u in 0..20u32 {
            for v in 0..20u32 {
                if u != v && rng.gen_bool(0.3) {
                    g.insert_edge(u, v);
                }
            }
        }
        for u in 20..40u32 {
            for v in 20..40u32 {
                if u != v && rng.gen_bool(0.3) {
                    g.insert_edge(u, v);
                }
            }
        }
        let mut d = DynPpe::build(
            &g,
            &[0, 25],
            PprConfig {
                alpha: 0.2,
                r_max: 1e-4,
            },
            8,
            1,
        );
        // Event entirely inside the second clique: source 0 must be quiet.
        let rehashed = d.update(&mut g, &[EdgeEvent::insert(21, 39)]);
        assert!(rehashed <= 1, "only the affected source re-hashes");
    }

    #[test]
    fn update_matches_fresh_build_hash() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut g = random_graph(&mut rng, 50, 150);
        let cfg = PprConfig {
            alpha: 0.2,
            r_max: 1e-5,
        };
        let mut d = DynPpe::build(&g, &[3, 7], cfg, 32, 9);
        let events: Vec<EdgeEvent> = (0..10)
            .map(|i| EdgeEvent::insert(i as u32, (i + 11) as u32))
            .collect();
        d.update(&mut g, &events);
        let fresh = DynPpe::build(&g, &[3, 7], cfg, 32, 9);
        // Hashes of nearly identical PPR vectors are nearly identical.
        let diff = d.emb.sub(&fresh.emb).frobenius_norm();
        let scale = fresh.emb.frobenius_norm().max(1e-12);
        assert!(diff / scale < 0.05, "relative diff {}", diff / scale);
    }

    #[test]
    fn deterministic_hash() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_graph(&mut rng, 30, 90);
        let a = DynPpe::build(&g, &[0], PprConfig::default(), 8, 42);
        let b = DynPpe::build(&g, &[0], PprConfig::default(), 8, 42);
        assert!(a.emb.sub(&b.emb).max_abs() == 0.0);
        let c = DynPpe::build(&g, &[0], PprConfig::default(), 8, 43);
        assert!(
            a.emb.sub(&c.emb).max_abs() > 0.0,
            "different seed, different hash"
        );
    }
}
