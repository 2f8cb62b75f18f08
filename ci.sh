#!/usr/bin/env bash
# Pre-PR gate for the tree-svd workspace. Run from the repo root:
#
#     ./ci.sh
#
# Steps (all must pass):
#   1. hermeticity — no external crate dependencies may reappear;
#   2. cargo fmt --check;
#   3. cargo clippy --workspace --all-targets -D warnings;
#   3b. cargo doc --workspace --no-deps with rustdoc warnings as errors:
#      an intra-doc link to a deleted, renamed or private item, or an
#      ambiguous one, fails here instead of rendering as plain text;
#   4. cargo build --release;
#   4b. the frozen end-to-end benchmark (`tsvd-e2e/`, a package of its own
#      that BENCHMARK.json's command builds against this workspace) —
#      compiled and smoke-tested here, so a crate-API change that breaks
#      it fails in ci.sh and not in the pipeline that runs the benchmark;
#   5. cargo test --workspace (tier-1 gate) — every suite once under the
#      default env: unit tests, the tsvd-store fault battery (WAL: torn tails, byte flips, fuzz;
#      checkpoints: every truncation and every single-byte flip of the
#      newest file, re-sealed garbage into the decoder), the checkpoint
#      round-trip properties, the whole tsvd-serve package battery and
#      every root serving suite (serve_equivalence, net_soak, multi_tenant,
#      recovery, follower, router_soak);
#   6. the same with TSVD_THREADS=1 — the serial fallbacks of rt::pool must
#      stay equivalent to the parallel paths;
#   6b. the tsvd-store package (unit tests, fault_injection, and
#      sharded_checkpoints: committed files written with row-range PPR
#      shards decode to the one-pipeline host, bitwise), the wire
#      codec's property battery (tsvd-serve's net_props: round trips,
#      every byte flip, truncations, fuzz) and its unit battery
#      (tsvd-serve's lib `wire` tests: counts refused before allocation,
#      trailing bytes, top-k refusals, the golden ids and payload bytes)
#      once more with --release: what a decoder refuses must not depend
#      on overflow checks or a `debug_assert!` that an optimised build
#      compiles out; and the
#      top-k kernel's tests (tsvd-linalg `topk`: batch ≡ naive per query,
#      bitwise) plus the top-k serving equivalence suite with --release,
#      because the vectorised form of the batch scan exists only in
#      optimised builds; and the merge kernel's tests (tsvd-linalg
#      `usigma` and `left_only`: `exact_usigma` ≡ the full truncated SVD's
#      U·Σ, the pinned digest of the one-column Householder loops, and a
#      left-only Golub–Reinsch's U and w ≡ the full run's, all bitwise)
#      with --release, because the four-column Householder loops
#      vectorise differently in optimised builds; and the connection
#      loop's write-log tests under both fronts' handlers, its registry
#      leak test, its stop tests (a front with a listener and idle TCP and
#      loopback connections shuts down in under 10 ms and joins every
#      thread; a new connection's first ping waits on no accept poll; a
#      wire Shutdown is acked and closes every other connection; a
#      connection registered after the stop is closed at registration; a
#      stopping loop stops between frames on a busy line) and the
#      loopback backpressure test with --release,
#      because every benchmark number is taken from an optimised build;
#      and the server reactor's trigger tests with --release, for the
#      same reason (count_trigger_flushes_without_waiting_for_deadline,
#      deadline_trigger_flushes_partial_window,
#      deadline_trigger_is_not_pushed_out_by_a_later_submission and
#      dropped_handle_flushes_and_checkpoints_without_waiting_for_deadline:
#      a count flush, a deadline flush, a deadline a later submission
#      does not move, and a flush + checkpoint once every sender is gone);
#      and the flat PPR map (tsvd-rt `flat`: random operation sequences
#      against std's HashMap, contents and bytes, and decode refusals)
#      with the whole tsvd-ppr package with --release, because the probe
#      loop's index arithmetic and the push loop's `debug_assert!`s
#      (endpoint seeding ≡ a full residue scan) behave differently
#      without debug checks;
#   7. env matrix — three env vars are settings a suite reads (the rest
#      pass paths and roles to child processes), and each leg runs exactly
#      the suites that read its var under a value steps 5–6 did not
#      already cover:
#        tenants3 — TSVD_TENANTS=3 (read by tests/multi_tenant.rs and
#          tests/recovery.rs): three tenants on one graph through the TCP
#          soak and through SIGKILL + checkpoint/WAL recovery;
#        router-wal — TSVD_WAL=1 (read by tests/router_soak.rs): the
#          multi-process router soak with every shard journaling through
#          a WalStore;
#        threads4 — TSVD_THREADS=4: the top-k serving equivalence suite
#          (scan ≡ naive, wire, router merge, follower — the scan itself
#          no longer reads the pool, but the flushes that publish the
#          snapshots it scans do), the window path's bitwise pins (patch
#          path ≡ whole-row composition, the pre-patch golden) and the
#          checkpoint round trip (encoded bytes must not depend on the
#          thread count) with more pool participants than this box has
#          cores;
#   8. bench smoke — every registered rt::bench target (all ten
#      `[[bench]]` entries of crates/bench) runs once, no timing paid:
#      the PPR push cells (incl. the in-place two-event update and the
#      whole-subset replay + row drain), the dynamic-update and
#      factorisation comparisons, the WAL append/recovery suite with its
#      checkpoint-format cells (JSON vs binary write and load of a
#      `base`-shape host: ≈ 1 s to build, ≈ 2 s for the JSON pair), and
#      the top-k query grid (which asserts zero allocations per warm scan
#      and warm batch even in smoke).
#
# A per-step wall-clock summary is printed at the end.
#
# The workspace builds offline by design (.cargo/config.toml pins
# `net.offline`); every dependency is an in-tree `tsvd-*` path crate, with
# `tsvd-rt` providing the runtime substrate (rng/json/bin/check/bench/pool).

set -euo pipefail
cd "$(dirname "$0")"

STEP_NAMES=()
STEP_SECS=()
CUR_STEP=""
CUR_START=0

end_step() {
  if [ -n "$CUR_STEP" ]; then
    STEP_NAMES+=("$CUR_STEP")
    STEP_SECS+=($(($(date +%s) - CUR_START)))
    CUR_STEP=""
  fi
}

step() {
  end_step
  CUR_STEP="$*"
  CUR_START=$(date +%s)
  printf '\n== %s ==\n' "$*"
}

summary() {
  end_step
  printf '\n== wall-clock summary ==\n'
  local i
  for i in "${!STEP_NAMES[@]}"; do
    printf '%4ds  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
  done
}

step "hermeticity: only tsvd-* path dependencies allowed"
# Any dependency line in any manifest must reference a tsvd-* crate (or be a
# section header/field). Catches a reintroduced `rand = "0.8"` before the
# (offline) build fails with a confusing resolution error.
bad=$(find . -name Cargo.toml -not -path "./target/*" -print0 \
  | xargs -0 awk '
      /^\[(dev-|build-)?dependencies/ { indeps = 1; next }
      /^\[workspace.dependencies\]/   { indeps = 1; next }
      /^\[/                           { indeps = 0 }
      indeps && /^[a-zA-Z0-9_-]+ *=/ && !/^tsvd-/ {
        printf "%s: %s\n", FILENAME, $0
      }') || true
if [ -n "$bad" ]; then
  echo "non-tsvd dependencies found:" >&2
  echo "$bad" >&2
  exit 1
fi
echo "ok"

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -q -- -D warnings

step "cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

step "cargo build --release"
cargo build --release -q

step "tsvd-e2e: build + unit tests + --smoke against this workspace"
cargo test --release -q --manifest-path tsvd-e2e/Cargo.toml

step "cargo test --workspace"
cargo test --workspace -q

step "cargo test --workspace (TSVD_THREADS=1, serial fallbacks)"
TSVD_THREADS=1 cargo test --workspace -q

step "release: tsvd-store + wire net_props and unit battery (bounds without debug checks), top-k kernel + equivalence, merge kernel, connection loop, reactor triggers, flat PPR map + tsvd-ppr"
cargo test --release -q -p tsvd-store
cargo test --release -q -p tsvd-serve --test net_props
cargo test --release -q -p tsvd-serve --lib wire
cargo test --release -q -p tsvd-linalg topk
cargo test --release -q -p tsvd-linalg -- usigma left_only
cargo test --release -q -p tsvd-serve --test query_equivalence
cargo test --release -q -p tsvd-serve --lib conn
cargo test --release -q -p tsvd-serve --test net_loopback a_client_that_reads_nothing
cargo test --release -q -p tsvd-serve --lib -- count_trigger deadline_trigger dropped_handle
cargo test --release -q -p tsvd-rt flat
cargo test --release -q -p tsvd-ppr

# Env matrix (header, step 7).
step "env matrix: tenants3 (TSVD_TENANTS=3)"
TSVD_TENANTS=3 cargo test -q --test multi_tenant --test recovery

step "env matrix: router-wal (TSVD_WAL=1)"
TSVD_WAL=1 cargo test -q --test router_soak

step "env matrix: threads4 (TSVD_THREADS=4)"
TSVD_THREADS=4 cargo test -q -p tsvd-serve --test query_equivalence
TSVD_THREADS=4 cargo test -q --test window_delta --test checkpoint_codec

step "bench smoke (1 iteration per benchmark)"
TSVD_BENCH_SMOKE=1 cargo bench -q -p tsvd-bench --bench forward_push
TSVD_BENCH_SMOKE=1 cargo bench -q -p tsvd-bench --bench dynamic_update
TSVD_BENCH_SMOKE=1 cargo bench -q -p tsvd-bench --bench tree_svd
TSVD_BENCH_SMOKE=1 cargo bench -q -p tsvd-bench --bench svd_kernels
TSVD_BENCH_SMOKE=1 cargo bench -q -p tsvd-bench --bench pool_dispatch
TSVD_BENCH_SMOKE=1 cargo bench -q -p tsvd-bench --bench serving
TSVD_BENCH_SMOKE=1 cargo bench -q -p tsvd-bench --bench net
TSVD_BENCH_SMOKE=1 cargo bench -q -p tsvd-bench --bench router
TSVD_BENCH_SMOKE=1 cargo bench -q -p tsvd-bench --bench store
TSVD_BENCH_SMOKE=1 cargo bench -q -p tsvd-bench --bench query

summary
printf '\nci.sh: all checks passed\n'
