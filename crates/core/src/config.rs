//! Tree-SVD configuration.

/// How the first (leaf) level of the tree factorises its sparse blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Level1Method {
    /// Sparse randomized SVD — Tree-SVD proper. Cost `O(nnz·(d+p))` per
    /// block, the paper's headline speedup over HSVD.
    Randomized,
    /// Exact SVD on the densified block — the HSVD baseline of Iwen & Ong.
    Exact,
}

tsvd_rt::impl_json_enum!(Level1Method { Randomized, Exact });

/// When the dynamic algorithm re-factorises a first-level block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdatePolicy {
    /// The paper's lazy rule (Lemma 3.4): recompute block `j` only when
    /// `‖(B^{t−i}_j)_d − B^{t−i}_j‖_F + ‖D_j‖_F > √2·δ·‖B^t_j‖_F`.
    Lazy {
        /// Threshold δ; the paper uses 0.65. Smaller δ updates more blocks.
        delta: f64,
    },
    /// Recompute every block whose contents changed at all (the eager
    /// dynamic scheme of Section 3, before the lazy refinement).
    ChangedOnly,
    /// Recompute every block every snapshot (equivalent to a static
    /// rebuild; used as an ablation anchor).
    All,
}

tsvd_rt::impl_json_enum!(UpdatePolicy {
    Lazy { delta },
    ChangedOnly,
    All
});

/// Full Tree-SVD parameterisation.
///
/// The paper's defaults are `d = 128`, `b = 64`, `k = 8` (so `q = 3`
/// levels) and `δ = 0.65`; scaled-down experiments in this repository use
/// smaller `d`/`b` but the same shape.
#[derive(Debug, Clone, Copy)]
pub struct TreeSvdConfig {
    /// Embedding dimension `d` (rank of every truncated SVD in the tree).
    pub dim: usize,
    /// Branching factor `k`: how many child factors merge per tree node.
    pub branching: usize,
    /// Number of first-level column blocks `b`. Need not be a power of `k`;
    /// the last group at each level may be smaller.
    pub num_blocks: usize,
    /// Oversampling for the level-1 randomized SVD.
    pub oversample: usize,
    /// Power iterations for the level-1 randomized SVD.
    pub power_iters: usize,
    /// First-level factorisation method.
    pub level1: Level1Method,
    /// Dynamic update policy.
    pub policy: UpdatePolicy,
    /// How columns are assigned to first-level blocks.
    pub partition: PartitionStrategy,
    /// Seed for the randomized range finders (deterministic runs).
    pub seed: u64,
}

tsvd_rt::impl_json_struct!(TreeSvdConfig {
    dim,
    branching,
    num_blocks,
    oversample,
    power_iters,
    level1,
    policy,
    partition,
    seed
});

/// How the proximity matrix's columns are cut into first-level blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitionStrategy {
    /// `b` equal-width contiguous column ranges (the paper's layout).
    EqualWidth,
}

tsvd_rt::impl_json_enum!(PartitionStrategy { EqualWidth });

impl Default for TreeSvdConfig {
    fn default() -> Self {
        TreeSvdConfig {
            dim: 32,
            branching: 4,
            num_blocks: 16,
            oversample: 8,
            power_iters: 1,
            level1: Level1Method::Randomized,
            policy: UpdatePolicy::Lazy { delta: 0.65 },
            partition: PartitionStrategy::EqualWidth,
            seed: 42,
        }
    }
}

impl TreeSvdConfig {
    /// Number of tree levels `q` (SVD rounds from leaves to root):
    /// `b` blocks shrink by factor `k` per merge until one remains.
    pub fn levels(&self) -> usize {
        assert!(self.branching >= 2, "branching factor must be ≥ 2");
        let mut q = 1;
        let mut nodes = self.num_blocks.max(1);
        while nodes > 1 {
            nodes = nodes.div_ceil(self.branching);
            q += 1;
        }
        q
    }

    /// Validate invariants, panicking with a descriptive message.
    pub fn validate(&self) {
        assert!(self.dim >= 1, "embedding dimension must be positive");
        assert!(self.branching >= 2, "branching factor must be ≥ 2");
        assert!(self.num_blocks >= 1, "need at least one block");
        if let UpdatePolicy::Lazy { delta } = self.policy {
            assert!(delta >= 0.0, "delta must be non-negative");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_match_paper_example() {
        // b = 64, k = 8 ⇒ q = 3 (the paper's Figure 1 configuration).
        let cfg = TreeSvdConfig {
            num_blocks: 64,
            branching: 8,
            ..Default::default()
        };
        assert_eq!(cfg.levels(), 3);
    }

    #[test]
    fn levels_handle_non_powers() {
        let cfg = TreeSvdConfig {
            num_blocks: 10,
            branching: 4,
            ..Default::default()
        };
        // 10 → 3 → 1: q = 3.
        assert_eq!(cfg.levels(), 3);
        let one = TreeSvdConfig {
            num_blocks: 1,
            branching: 4,
            ..Default::default()
        };
        assert_eq!(one.levels(), 1);
    }

    #[test]
    fn default_is_valid() {
        TreeSvdConfig::default().validate();
    }

    #[test]
    fn every_policy_round_trips_through_both_codecs() {
        use tsvd_rt::bin::{decode_all, Encode};
        use tsvd_rt::json::{FromJson, Json, ToJson};
        // The JSON text is an on-disk format (checkpoints written before
        // the binary one still load): externally tagged, as serde wrote it.
        let cases = [
            (
                UpdatePolicy::Lazy { delta: 0.65 },
                r#"{"Lazy":{"delta":0.65}}"#,
            ),
            (UpdatePolicy::ChangedOnly, r#""ChangedOnly""#),
            (UpdatePolicy::All, r#""All""#),
        ];
        for (index, (p, text)) in cases.into_iter().enumerate() {
            assert_eq!(p.to_json().to_string(), text);
            let j = Json::parse(text).unwrap();
            assert_eq!(UpdatePolicy::from_json(&j).unwrap(), p);
            let mut bytes = Vec::new();
            p.encode(&mut bytes);
            assert_eq!(bytes[0] as usize, index, "variant tags follow list order");
            assert_eq!(decode_all::<UpdatePolicy>(&bytes).unwrap(), p);
        }
        for bad in [
            r#""Lazy""#,
            r#"{"All":{}}"#,
            r#""Eager""#,
            "[]",
            r#"{"LazyIncremental":{"delta":0.65,"patch_budget":0.1,"refactor_budget":0.3}}"#,
        ] {
            let j = Json::parse(bad).unwrap();
            assert!(UpdatePolicy::from_json(&j).is_err(), "accepted {bad}");
        }
        assert!(decode_all::<UpdatePolicy>(&[3]).is_err());
    }

    #[test]
    #[should_panic(expected = "branching")]
    fn rejects_degenerate_branching() {
        TreeSvdConfig {
            branching: 1,
            ..Default::default()
        }
        .validate();
    }
}
