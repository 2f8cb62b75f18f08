//! Observable serving counters.

use tsvd_core::PipelineTimings;

/// Point-in-time serving statistics, as returned by
/// [`crate::ServerHandle::stats`].
///
/// `events_pending` is the staleness estimate `submitted − applied −
/// coalesced`: events accepted by a handle but not yet reflected in the
/// served epoch (in the mailbox or in the open flush window).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeStats {
    /// Tenant these statistics describe (`0` for a single-tenant server).
    pub tenant: u32,
    /// Epoch currently being served (flushed batches since start).
    pub epoch: u64,
    /// Events accepted by `submit`/`submit_batch`.
    pub events_submitted: u64,
    /// Events applied by the engine (after coalescing).
    pub events_applied: u64,
    /// Events dropped by last-write-wins window coalescing.
    pub events_coalesced: u64,
    /// Staleness: accepted but not yet applied or coalesced away.
    pub events_pending: u64,
    /// Flushes executed.
    pub batches_flushed: u64,
    /// Wall-clock of the most recent flush, milliseconds.
    pub flush_ms_last: f64,
    /// Mean flush wall-clock, milliseconds.
    pub flush_ms_mean: f64,
    /// Worst flush wall-clock, milliseconds.
    pub flush_ms_max: f64,
    /// Level-1 blocks re-factorised (sparse randomized SVD) because the
    /// lazy rule fired, cumulative across flushes.
    pub blocks_refactored: u64,
    /// Cumulative per-stage engine timings (PPR / rows / SVD).
    pub timings: PipelineTimings,
}

tsvd_rt::impl_json_struct!(ServeStats {
    tenant,
    epoch,
    events_submitted,
    events_applied,
    events_coalesced,
    events_pending,
    batches_flushed,
    flush_ms_last,
    flush_ms_mean,
    flush_ms_max,
    blocks_refactored,
    timings
});

/// Host-level rollup across every tenant on a [`crate::TenantHost`]-backed
/// server: the shared-ingest counters plus the sums of the per-tenant
/// event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostStats {
    /// Registered tenants.
    pub tenants: usize,
    /// Edge batches recorded on the shared graph — the record-once
    /// counter: equal to the number of flushed windows, not
    /// `windows × tenants`.
    pub batches_recorded: u64,
    /// Minimum tenant epoch: the window watermark every tenant has
    /// committed and published.
    pub epoch: u64,
    /// Sum of per-tenant `events_submitted`.
    pub events_submitted: u64,
    /// Sum of per-tenant `events_applied` (attributed survivors).
    pub events_applied: u64,
    /// Sum of per-tenant `events_coalesced`.
    pub events_coalesced: u64,
    /// Sum of per-tenant `events_pending`.
    pub events_pending: u64,
}

tsvd_rt::impl_json_struct!(HostStats {
    tenants,
    batches_recorded,
    epoch,
    events_submitted,
    events_applied,
    events_coalesced,
    events_pending
});

/// Counters of one [`crate::router::Router`]: scatter-gather traffic plus
/// the fault-path events (barrier retries, failovers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Shard ranges in the router's [`crate::router::ShardMap`].
    pub shards: usize,
    /// `GetRows` reads served (scatter-gathers completed, success or not).
    pub reads: u64,
    /// `SubmitEvents` writes broadcast.
    pub writes: u64,
    /// `Flush` barriers broadcast.
    pub flushes: u64,
    /// Times a read found the shards at unequal epochs and re-probed the
    /// laggards (one count per retry round, not per shard).
    pub barrier_retries: u64,
    /// Times a shard range was failed over to its follower replica.
    pub failovers: u64,
    /// Ranges permanently poisoned: their leader diverged on a write and
    /// no follower replica could take over.
    pub poisoned: u64,
}

tsvd_rt::impl_json_struct!(RouterStats {
    shards,
    reads,
    writes,
    flushes,
    barrier_retries,
    failovers,
    poisoned
});

/// The wire `Stats` reply: the requesting tenant's [`ServeStats`] plus the
/// [`HostStats`] rollup.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsReply {
    /// Stats of the tenant the request was pinned to.
    pub tenant: ServeStats,
    /// Host-level rollup across all tenants.
    pub host: HostStats,
}

tsvd_rt::impl_json_struct!(StatsReply { tenant, host });

#[cfg(test)]
mod tests {
    use super::*;
    use tsvd_rt::json::{FromJson, Json, ToJson};

    #[test]
    fn json_round_trip() {
        let stats = ServeStats {
            tenant: 3,
            epoch: 7,
            events_submitted: 100,
            events_applied: 90,
            events_coalesced: 6,
            events_pending: 4,
            batches_flushed: 7,
            flush_ms_last: 1.5,
            flush_ms_mean: 2.0,
            flush_ms_max: 3.25,
            blocks_refactored: 2,
            timings: PipelineTimings {
                ppr_secs: 0.5,
                rows_secs: 0.25,
                svd_secs: 1.0,
                updates: 7,
            },
        };
        let j = Json::parse(&stats.to_json().to_string()).unwrap();
        assert_eq!(ServeStats::from_json(&j).unwrap(), stats);
    }

    #[test]
    fn stats_reply_round_trips_with_host_rollup() {
        let reply = StatsReply {
            tenant: ServeStats {
                tenant: 42,
                epoch: 4,
                events_submitted: 10,
                ..Default::default()
            },
            host: HostStats {
                tenants: 3,
                batches_recorded: 4,
                epoch: 4,
                events_submitted: 30,
                events_applied: 25,
                events_coalesced: 5,
                events_pending: 0,
            },
        };
        let j = Json::parse(&reply.to_json().to_string()).unwrap();
        assert_eq!(StatsReply::from_json(&j).unwrap(), reply);
    }
}
