//! Serving-layer configuration.

use std::time::Duration;

/// Configuration of the serving front: shard fan-out plus the batching
/// window that trades per-event latency against update amortisation.
///
/// A flush is triggered by whichever fires first:
///
/// * **count** — the pending buffer reaches [`ServeConfig::flush_max_events`];
/// * **deadline** — the oldest pending event is
///   [`ServeConfig::flush_interval`] old.
///
/// Each flushed window is normalised with [`tsvd_graph::coalesce`] — one
/// event per `(u, v)` pair, last write wins — before it reaches the engine,
/// so a hot edge flapping inside one window costs one update, not many.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of pipeline replicas `R` the subset's rows are sharded over.
    /// Clamped to `|S|` at engine construction.
    pub num_shards: usize,
    /// Flush as soon as this many events are pending.
    pub flush_max_events: usize,
    /// Flush when the oldest pending event reaches this age (milliseconds).
    pub flush_interval_ms: u64,
    /// Per-tenant admission quota: the maximum number of submitted-but-not
    /// -yet-applied events a tenant may have pending. Submissions beyond it
    /// are rejected at admission (`SubmitError::QuotaExceeded`), which is
    /// the backpressure signal for that tenant's writers — other tenants
    /// are unaffected. `0` disables the quota (unbounded).
    pub tenant_quota: u64,
    /// With a durability sink attached: write a full host checkpoint (and
    /// compact the WAL behind it) every this many flushed windows. `0`
    /// checkpoints only at shutdown. Ignored without a sink.
    pub checkpoint_every: u64,
    /// How many recent flush windows the in-memory journal retains for
    /// `GetWindows` (follower feed). `0` = the built-in default
    /// ([`crate::journal::JOURNAL_KEEP`]). Small values force the
    /// compaction / re-seed path — useful in tests.
    pub journal_keep: usize,
}

tsvd_rt::impl_json_struct!(ServeConfig {
    num_shards,
    flush_max_events,
    flush_interval_ms,
    tenant_quota,
    checkpoint_every,
    journal_keep
});

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            num_shards: 4,
            flush_max_events: 512,
            flush_interval_ms: 20,
            tenant_quota: 0,
            checkpoint_every: 0,
            journal_keep: 0,
        }
    }
}

impl ServeConfig {
    /// The deadline trigger as a [`Duration`].
    pub fn flush_interval(&self) -> Duration {
        Duration::from_millis(self.flush_interval_ms)
    }

    /// The admission quota as an `Option` (`None` = unbounded).
    pub fn quota(&self) -> Option<u64> {
        (self.tenant_quota > 0).then_some(self.tenant_quota)
    }

    /// Panic on nonsensical settings (zero shards or degenerate windows).
    pub fn validate(&self) {
        assert!(self.num_shards >= 1, "need at least one shard");
        assert!(
            self.flush_max_events >= 1,
            "flush window must hold ≥ 1 event"
        );
        assert!(self.flush_interval_ms >= 1, "flush deadline must be ≥ 1ms");
    }
}

/// Configuration of the scatter-gather router tier
/// ([`crate::router::Router`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Tenant id the router serves (one router instance pins one tenant,
    /// like a [`crate::net::NetClient`]).
    pub tenant: u32,
    /// Epoch barrier: how many times a lagging shard is re-probed before
    /// the read fails with [`crate::router::RouterError::EpochBarrier`].
    pub barrier_retries: u32,
    /// Backoff between barrier retries, milliseconds (linear: attempt `k`
    /// sleeps `k * barrier_backoff_ms`).
    pub barrier_backoff_ms: u64,
    /// Page size (windows per pull) a failed-over follower uses while
    /// catching up / re-seeding.
    pub catch_up_page: u32,
}

tsvd_rt::impl_json_struct!(RouterConfig {
    tenant,
    barrier_retries,
    barrier_backoff_ms,
    catch_up_page
});

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            tenant: 0,
            barrier_retries: 8,
            barrier_backoff_ms: 2,
            catch_up_page: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_rt::json::{FromJson, Json};

    #[test]
    fn default_validates_and_round_trips() {
        let cfg = ServeConfig::default();
        cfg.validate();
        assert_eq!(cfg.flush_interval(), Duration::from_millis(20));
        let j = Json::parse(&tsvd_rt::json::ToJson::to_json(&cfg).to_string()).unwrap();
        let back = ServeConfig::from_json(&j).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn router_config_round_trips() {
        let cfg = RouterConfig {
            tenant: 3,
            barrier_retries: 2,
            barrier_backoff_ms: 7,
            catch_up_page: 16,
        };
        let j = Json::parse(&tsvd_rt::json::ToJson::to_json(&cfg).to_string()).unwrap();
        assert_eq!(RouterConfig::from_json(&j).unwrap(), cfg);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ServeConfig {
            num_shards: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "≥ 1 event")]
    fn zero_window_rejected() {
        ServeConfig {
            flush_max_events: 0,
            ..Default::default()
        }
        .validate();
    }
}
