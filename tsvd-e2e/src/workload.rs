//! The four serving workloads and the harness that runs one of them end to
//! end: set-up, a timed phase with one writer and one reader connection,
//! restart, and the correctness gates.
//!
//! Every workload drives the same stack — `EmbeddingServer` behind a
//! `NetFront` on loopback TCP — with a different traffic mix, so every
//! end-to-end metric is measured on every workload:
//!
//! | workload      | scale | writer (connection 1)             | reader (connection 2)        | WAL |
//! |---------------|-------|-----------------------------------|------------------------------|-----|
//! | `trickle`     | base  | open loop, 50 events/s            | a burst every 5 ms           | no  |
//! | `firehose`    | base  | closed loop, 512-event windows    | a burst every 5 ms           | no  |
//! | `read_mostly` | wide  | open loop, 10 events/s            | bursts back to back          | no  |
//! | `durable`     | base  | as `trickle` (same seed, same events) | a burst every 5 ms       | yes |

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsvd_core::Embedding;
use tsvd_graph::{coalesce, EdgeEvent};
use tsvd_serve::net::Reply;
use tsvd_serve::{EmbeddingReader, EpochSnapshot, NetClient, ServeStats};

use crate::calib::{self, Calibrator};
use crate::gen::{self, BurstKind, EventGen, ReadGen};
use crate::stats;
use crate::sut::{self, Fixture, Scale, Serving};

/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 3;
/// Cold rebuilds per run on the workloads without a WAL (a rebuild is a
/// third of a second, so five of them are cheap); the median is reported.
const RESTART_REPS: usize = 5;
/// Recoveries per `durable` run, each from a fresh copy of the crashed
/// store; the median is reported. One recovery's time moved 11-17 % from
/// run to run (it page-faults its way through a 60 MB checkpoint).
const RECOVER_REPS: usize = 5;
/// Pause of the reader connection between two bursts on the workloads whose
/// subject is the write path: ≈ 150 bursts/s, under a tenth of one core, and
/// enough `TopK` bursts (a fifth of them) for a median that repeats.
const THINK_MS: u64 = 5;
/// A publish that takes longer than this is a failed operation.
const PUBLISH_TIMEOUT: Duration = Duration::from_secs(120);
/// Cadence at which the writer thread polls the served epoch.
const WATCH_EVERY: Duration = Duration::from_micros(200);
/// `durable` crashes this many windows after a checkpoint, so recovery
/// always replays exactly this many (single-event) windows.
pub const RECOVER_REPLAY_WINDOWS: u64 = 64;
/// `firehose` windows are fixed by the seed, but how many of them a run
/// finishes depends on the box. The accuracy number (and the traced run's
/// counts) are taken after exactly this many windows, so they depend on the
/// seed only.
pub const FIXED_PREFIX_WINDOWS: usize = 16;
/// How many windows the offline pipeline replays to check the served state
/// on the open-loop workloads. A full replay costs as much as the timed
/// phase itself; it is what the traced run does.
const CHECKED_WINDOWS: usize = 32;

/// How the writer connection offers events.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Writer {
    /// Open loop: single events on a seeded schedule, each timed from when
    /// it was due.
    Open { events_per_s: f64 },
    /// Closed loop: whole 512-event windows, each awaited before the next.
    Windows,
}

/// One workload: a scale, a durability mode and a traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub scale: Scale,
    pub durable: bool,
    pub writer: Writer,
    /// Pause of the reader connection between two bursts.
    pub think_ms: u64,
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "trickle",
        why: "open-loop 50 events/s, windows of one to three events: every flush is the per-window floor that scales with the matrix, not the delta",
        scale: sut::BASE,
        durable: false,
        writer: Writer::Open { events_per_s: 50.0 },
        think_ms: THINK_MS,
    },
    Spec {
        name: "firehose",
        why: "closed-loop full 512-event windows with a hot edge set: delta-dominated, PPR replay and fired blocks do the work, the floor is bypassed",
        scale: sut::BASE,
        durable: false,
        writer: Writer::Windows,
        think_ms: THINK_MS,
    },
    Spec {
        name: "read_mostly",
        why: "back-to-back pipelined GetRows/TopK bursts on a twice-wider subset beside 10 writes/s: codec, snapshot reads and top-k scans contend with flushes",
        scale: sut::WIDE,
        durable: false,
        writer: Writer::Open { events_per_s: 10.0 },
        think_ms: 0,
    },
    Spec {
        name: "durable",
        why: "trickle's traffic with a WAL fsync before every publish and a checkpoint every 128 windows, then crash recovery: the durability tax",
        scale: sut::BASE,
        durable: true,
        writer: Writer::Open { events_per_s: 50.0 },
        think_ms: THINK_MS,
    },
];

/// Look a workload up by name; `smoke` swaps in the toy scale.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let mut s = *SPECS.iter().find(|s| s.name == name)?;
    if smoke {
        s.scale = sut::TOY;
    }
    Some(s)
}

/// One end-to-end metric as printed: value, unit, and how many samples it
/// was taken from. A duration's `value` is its `raw` measurement divided by
/// the box-speed `factor` over the time it was measured in (see `calib.rs`;
/// for a median of repetitions, each corrected by its own factor, `factor`
/// is `raw / value`); everything else has factor 1.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub raw: f64,
    pub factor: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything a run produced: the end-to-end metrics, the failure ledger,
/// and what the traced replay needs.
pub struct RunOutput {
    pub spec: Spec,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed gate.
    pub failures: Vec<String>,
    /// Human-readable extras (lateness, tail percentile, counts).
    pub notes: Vec<String>,
    pub fixture: Fixture,
    /// Every window the server flushed, post-coalesce, in epoch order.
    pub windows: Vec<Vec<EdgeEvent>>,
    /// Windows `0..prefix_windows` are what the traced run takes its counts
    /// over: the seed-determined prefix on `firehose`, all of them elsewhere.
    pub prefix_windows: usize,
    /// The embedding served at the last epoch.
    pub served: Embedding,
    /// Server counters at the end of the timed phase.
    pub stats: ServeStats,
    /// Length of the timed phase, seconds.
    pub timed_secs: f64,
    pub publish_ms_max: f64,
    pub publish_ms_mean: f64,
    /// Mean `GetRows` burst of the timed phase, microseconds, raw.
    pub get_rows_burst_us_mean: f64,
    /// Mean round trip of 200 pings after the timed phase, microseconds.
    pub ping_us: f64,
    /// Box-speed factor of the timed phase.
    pub speed_factor: f64,
}

/// What the writer thread saw.
struct WriterLog {
    /// Raw events in submission order, and per event the instant (seconds
    /// since the phase began) it was due (open loop) or sent (closed loop).
    events: Vec<EdgeEvent>,
    ref_secs: Vec<f64>,
    /// Raw events per window for the closed-loop writer (empty: open loop).
    window_sizes: Vec<usize>,
    /// `(epoch, seconds)` — when each epoch was first seen published.
    seen: Vec<(u64, f64)>,
    /// Open loop: how late each event was sent, seconds.
    lateness: Vec<f64>,
    refused: u64,
    missed_publish: bool,
    /// Seconds from the phase's start to the last publish.
    elapsed: f64,
    stats: Option<ServeStats>,
    /// The served snapshot the offline replay is compared with.
    checked: Arc<EpochSnapshot>,
    /// Box-speed factor over the phase (a sample every 10 ms).
    speed_factor: f64,
}

/// Polls the served epoch and records when each one first became visible.
struct Watcher<'a> {
    reader: &'a EmbeddingReader,
    t0: Instant,
    last: u64,
    seen: Vec<(u64, f64)>,
    /// The snapshot served at (or just after) `check_epoch`, kept for the
    /// offline-replay gate.
    check_epoch: u64,
    checked: Option<Arc<EpochSnapshot>>,
    cal: Calibrator,
    cal_next: f64,
}

impl Watcher<'_> {
    fn poll(&mut self) {
        let e = self.reader.epoch();
        let now = self.t0.elapsed().as_secs_f64();
        if now >= self.cal_next {
            self.cal.sample();
            self.cal_next = now + calib::SAMPLE_EVERY.as_secs_f64();
        }
        if e > self.last {
            self.seen.extend((self.last + 1..=e).map(|k| (k, now)));
            self.last = e;
            if e >= self.check_epoch && self.checked.is_none() {
                self.checked = Some(self.reader.snapshot());
            }
        }
    }

    /// Poll until `done` or the publish timeout; `false` on timeout.
    fn wait(&mut self, mut done: impl FnMut(&Self) -> bool) -> bool {
        let deadline = Instant::now() + PUBLISH_TIMEOUT;
        loop {
            self.poll();
            if done(self) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(WATCH_EVERY);
        }
    }
}

/// The writer connection: offers events per `spec.writer` for `seconds`,
/// watching the served epoch from the same thread.
fn write_phase(
    spec: &Spec,
    gen: &mut EventGen,
    seed: u64,
    seconds: f64,
    client: &mut NetClient,
    reader: &EmbeddingReader,
) -> WriterLog {
    // Inputs are generated before the clock starts.
    let (offsets, open_events) = match spec.writer {
        Writer::Open { events_per_s } => {
            let n = ((events_per_s * seconds).round() as usize).max(1);
            let events: Vec<EdgeEvent> = (0..n).map(|_| gen.next_event()).collect();
            (gen::arrival_offsets(n, seconds, seed ^ 0xA11), events)
        }
        Writer::Windows => (Vec::new(), Vec::new()),
    };
    let t0 = Instant::now();
    let mut w = Watcher {
        reader,
        t0,
        last: reader.epoch(),
        seen: Vec::new(),
        check_epoch: match spec.writer {
            Writer::Open { .. } => CHECKED_WINDOWS as u64,
            Writer::Windows => FIXED_PREFIX_WINDOWS as u64,
        },
        checked: None,
        cal: Calibrator::new(),
        cal_next: 0.0,
    };
    let mut log = WriterLog {
        events: Vec::new(),
        ref_secs: Vec::new(),
        window_sizes: Vec::new(),
        seen: Vec::new(),
        lateness: Vec::new(),
        refused: 0,
        missed_publish: false,
        elapsed: 0.0,
        stats: None,
        checked: reader.snapshot(),
        speed_factor: 1.0,
    };
    let mut accepted = 0u64;
    match spec.writer {
        Writer::Open { .. } => {
            for (ev, due) in open_events.iter().zip(&offsets) {
                loop {
                    w.poll();
                    let now = t0.elapsed().as_secs_f64();
                    if now >= *due {
                        log.lateness.push(now - due);
                        break;
                    }
                    std::thread::sleep(WATCH_EVERY.min(Duration::from_secs_f64(due - now)));
                }
                match client.submit_events(vec![*ev]) {
                    Ok(n) => accepted += n,
                    Err(_) => log.refused += 1,
                }
            }
            log.events = open_events;
            log.ref_secs = offsets;
        }
        Writer::Windows => {
            while t0.elapsed().as_secs_f64() < seconds {
                let window = gen.next_hot_window(sut::FLUSH_MAX_EVENTS);
                let target = w.last + 1;
                let sent = t0.elapsed().as_secs_f64();
                match client.submit_events(window.clone()) {
                    Ok(n) => accepted += n,
                    Err(_) => {
                        log.refused += window.len() as u64;
                        break;
                    }
                }
                log.ref_secs.extend(std::iter::repeat_n(sent, window.len()));
                log.window_sizes.push(window.len());
                log.events.extend(window);
                if !w.wait(|w| w.last >= target) {
                    log.missed_publish = true;
                    break;
                }
            }
        }
    }
    // Drain: everything accepted must be published (the deadline trigger
    // flushes the last open window by itself). The server's counters settle
    // a moment before the epoch they belong to is visible, so the end is
    // the served snapshot that has applied everything the counters have.
    let mut stats = None;
    let mut drained = w.wait(|_| {
        stats = client.stats().ok().map(|s| s.tenant);
        stats.is_some_and(|t| t.events_pending == 0 && t.events_submitted == accepted)
    });
    let applied = stats.map_or(0, |t| t.events_applied);
    drained &= w.wait(|w| {
        let snap = w.reader.snapshot();
        snap.events_applied() >= applied && w.last >= snap.epoch()
    });
    if let Some(t) = &mut stats {
        t.epoch = w.last;
    }
    log.missed_publish |= !drained;
    log.elapsed = t0.elapsed().as_secs_f64();
    log.speed_factor = w.cal.take_factor();
    log.seen = w.seen;
    log.stats = stats;
    // A run shorter than the checked prefix is checked at its last epoch.
    log.checked = w.checked.unwrap_or_else(|| reader.snapshot());
    log
}

/// What the reader thread saw.
#[derive(Default)]
struct ReaderLog {
    get_rows_us: Vec<f64>,
    top_k_us: Vec<f64>,
    requests_ok: u64,
    requests_failed: u64,
    /// The first failure, for the log.
    first_failure: Option<String>,
    elapsed: f64,
}

fn reply_ok(kind: BurstKind, reply: &Reply, dim: usize, subset: usize) -> bool {
    match (kind, reply) {
        (BurstKind::GetRows, Reply::Rows(r)) => {
            r.rows.len() == gen::ROWS_PER_GET
                && r.rows
                    .iter()
                    .all(|row| row.as_ref().is_some_and(|v| v.len() == dim))
        }
        (BurstKind::TopK, Reply::TopKReply(t)) => {
            t.found && t.neighbors.len() == (gen::TOP_K as usize).min(subset - 1)
        }
        _ => false,
    }
}

/// The reader connection: closed-loop pipelined bursts of 16 requests with
/// `think` between them, until `stop`. A burst is timed from its first byte
/// sent to its last reply decoded and checked by `NetClient`'s epoch and
/// checksum guards.
fn read_phase(
    spec: &Spec,
    fx: &Fixture,
    seed: u64,
    client: &mut NetClient,
    stop: &AtomicBool,
) -> ReaderLog {
    let mut gen = ReadGen::new(&fx.subset, seed ^ 0x4EAD);
    let think = Duration::from_millis(spec.think_ms);
    let mut log = ReaderLog::default();
    let t0 = Instant::now();
    while !stop.load(Ordering::Acquire) {
        let (kind, reqs) = gen.next_burst();
        let t = Instant::now();
        let replies = client.pipeline(&reqs);
        let us = t.elapsed().as_secs_f64() * 1e6;
        match replies {
            Ok(replies) => {
                let mut ok = 0u64;
                for (req, reply) in reqs.iter().zip(&replies) {
                    if reply_ok(kind, reply, fx.tree.dim, fx.subset.len()) {
                        ok += 1;
                    } else if log.first_failure.is_none() {
                        let what = format!("{req:?} -> {reply:?}");
                        log.first_failure = Some(what.chars().take(400).collect());
                    }
                }
                log.requests_ok += ok;
                log.requests_failed += reqs.len() as u64 - ok;
                match kind {
                    BurstKind::GetRows => log.get_rows_us.push(us),
                    BurstKind::TopK => log.top_k_us.push(us),
                }
            }
            Err(e) => {
                log.requests_failed += reqs.len() as u64;
                log.first_failure
                    .get_or_insert_with(|| format!("{kind:?} burst: {e}"));
            }
        }
        if !think.is_zero() {
            std::thread::sleep(think);
        }
    }
    log.elapsed = t0.elapsed().as_secs_f64();
    log
}

/// For every raw event (FIFO order), the epoch whose window consumed it:
/// window `e` (1-based) consumes the next `raw_counts[e - 1]` events, where
/// a window's raw count is what it applied plus what coalescing dropped.
/// Events beyond the last window map to `None`.
pub fn covering_epochs(num_events: usize, raw_counts: &[usize]) -> Vec<Option<u64>> {
    let mut out = Vec::with_capacity(num_events);
    for (k, &n) in raw_counts.iter().enumerate() {
        let take = n.min(num_events - out.len());
        out.extend(std::iter::repeat_n(Some(k as u64 + 1), take));
    }
    out.resize(num_events, None);
    out
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A scratch directory under the build directory the binary runs from (so
/// the benchmark writes only inside its checkout), removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create() -> RunDir {
        let exe = std::env::current_exe().expect("path of the running binary");
        let target = exe
            .ancestors()
            .find(|p| {
                p.file_name()
                    .is_some_and(|n| n == "release" || n == "debug")
            })
            .and_then(Path::parent)
            .unwrap_or_else(|| exe.parent().expect("binary has a parent directory"));
        let dir = target
            .join("tsvd-e2e")
            .join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the run's scratch directory");
        RunDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// The directory traces are written to (kept after the run).
    pub fn trace_dir(&self) -> PathBuf {
        self.0.parent().expect("run dir has a parent").to_path_buf()
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create the copy directory");
    for entry in std::fs::read_dir(from).expect("list the store directory") {
        let entry = entry.expect("store directory entry");
        if entry.file_type().is_ok_and(|t| t.is_file()) {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy a store file");
        }
    }
}

/// Whether two embeddings are the same bit for bit.
pub fn bits_equal(a: &Embedding, b: &Embedding) -> bool {
    let same = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    same(a.u.as_slice(), b.u.as_slice()) && same(&a.sigma, &b.sigma)
}

/// Bring the SUT up once: fixture, initial factorisation, server (and WAL)
/// start, first round trip.
fn set_up(spec: &Spec, store: Option<&Path>) -> (Fixture, Serving) {
    let fx = sut::fixture(&spec.scale);
    let engine = sut::build_engine(&fx, &fx.g0, &fx.subset);
    let serving = sut::start(engine, store);
    serving.client().ping().expect("first round trip");
    (fx, serving)
}

/// Repetitions of a set-up or restart as `(seconds, box-speed factor over
/// those seconds)`: the median at nominal speed, and the raw median.
fn median_of_reps(reps: &[(f64, f64)]) -> (f64, f64) {
    (
        stats::median_of(reps.iter().map(|(secs, factor)| secs / factor).collect()),
        stats::median_of(reps.iter().map(|(secs, _)| *secs).collect()),
    )
}

/// Gates a run checks beside its operations (FIFO windows, counter
/// identity, publish wait, samples taken, restart state, offline replay).
const GATES: u64 = 6;

/// Run one workload end to end.
pub fn run(spec: Spec, seed: u64, seconds: f64, dir: &RunDir) -> RunOutput {
    let mut failures: Vec<String> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    let store_dir = dir.path().join("store");
    let store = spec.durable.then_some(store_dir.as_path());

    // ---- set-up, several times; the last one serves the run.
    let mut cal = Calibrator::new();
    let mut set_ups = Vec::new();
    let mut live: Option<(Fixture, Serving)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, serving)) = live.take() {
            drop(serving.stop());
            let _ = std::fs::remove_dir_all(&store_dir);
        }
        let (up, secs, factor) = cal.during(|| set_up(&spec, store));
        set_ups.push((secs, factor));
        live = Some(up);
    }
    let (fx, serving) = live.expect("at least one set-up");

    // ---- the timed phase: one writer + one reader connection.
    let mut wclient = serving.client();
    let mut rclient = serving.client();
    // The front polls for new connections every 25 ms: make sure both are
    // accepted before the clock starts.
    wclient.ping().expect("writer connection");
    rclient.ping().expect("reader connection");
    let stop = AtomicBool::new(false);
    let mut gen = EventGen::new(&fx.g0, seed);
    let (wlog, rlog) = std::thread::scope(|s| {
        let reader = s.spawn(|| read_phase(&spec, &fx, seed, &mut rclient, &stop));
        let wlog = write_phase(
            &spec,
            &mut gen,
            seed,
            seconds,
            &mut wclient,
            &serving.reader,
        );
        stop.store(true, Ordering::Release);
        (wlog, reader.join().expect("reader thread"))
    });
    let stats = wlog.stats.unwrap_or_else(|| {
        failures.push("no stats reply at the end of the timed phase".into());
        wclient.stats().expect("stats after the timed phase").tenant
    });
    let measured_epochs = stats.epoch as usize;

    // Scheduler floor of the wire, for the traced run's `serve.net.ping_us`.
    let t = Instant::now();
    let pings = (0..200).filter(|_| wclient.ping().is_ok()).count();
    let ping_us = t.elapsed().as_secs_f64() * 1e6 / pings.max(1) as f64;

    // ---- durable: crash RECOVER_REPLAY_WINDOWS windows after the *next*
    // checkpoint, so that what recovery loads and replays is the same kind of
    // state every run (a checkpoint taken here, then single-event windows),
    // however many windows the timed phase happened to flush.
    let mut crash = None;
    if spec.durable {
        let mut epoch = wclient.flush().expect("flush before the crash point");
        let crash_epoch =
            (epoch / sut::CHECKPOINT_EVERY + 1) * sut::CHECKPOINT_EVERY + RECOVER_REPLAY_WINDOWS;
        while epoch < crash_epoch {
            // One single-event window per iteration.
            wclient
                .submit_events(vec![gen.next_event()])
                .expect("submit towards the crash point");
            epoch = wclient.flush().expect("flush towards the crash point");
        }
        // The copy is what a crash at this instant leaves behind.
        let copy = dir.path().join("crashed");
        copy_dir(&store_dir, &copy);
        crash = Some((copy, serving.reader.snapshot()));
    }
    drop((wclient, rclient));

    // ---- stop serving; keep only what the gates need.
    let engine = serving.stop();
    let windows: Vec<Vec<EdgeEvent>> = engine.window_log().expect("window log is on").to_vec();
    let served = engine.embedding().clone();
    let served_epoch = engine.epoch();
    let g_final = engine.graph().clone();
    drop(engine);
    let peak_rss = peak_rss_mb();

    // ---- restart: crash recovery with a WAL, a cold rebuild without.
    let mut restarts = Vec::new();
    if let Some((copy, snap_at_crash)) = &crash {
        for k in 0..RECOVER_REPS {
            // Recovery truncates a torn tail in place: every repetition
            // gets what the crash left behind, not what the last one did.
            let dir = dir.path().join(format!("crashed-{k}"));
            copy_dir(copy, &dir);
            let (rec, secs, factor) = cal.during(|| sut::recover(&dir));
            restarts.push((secs, factor));
            if k == 0 {
                notes.push(format!(
                    "recover: checkpoint epoch {} + {} windows replayed",
                    rec.checkpoint_epoch, rec.windows_replayed
                ));
            }
            let recovered = rec.host.into_single_engine();
            if rec.windows_replayed != RECOVER_REPLAY_WINDOWS
                || recovered.epoch() != snap_at_crash.epoch()
                || !bits_equal(recovered.embedding(), snap_at_crash.tagged().embedding())
            {
                failures.push(format!(
                    "recovery {k} replayed {} windows (expected {RECOVER_REPLAY_WINDOWS}) or differs from the state served at the crash",
                    rec.windows_replayed
                ));
                break;
            }
            drop(recovered);
            let _ = std::fs::remove_dir_all(&dir);
        }
    } else {
        for _ in 0..RESTART_REPS {
            let (restarted, secs, factor) = cal.during(|| {
                let restarted = sut::start(sut::build_engine(&fx, &g_final, &fx.subset), None);
                restarted.client().ping().expect("round trip after restart");
                restarted
            });
            restarts.push((secs, factor));
            drop(restarted.stop());
        }
    }

    // ---- gate: windows are the FIFO chunks of what was submitted.
    let raw_counts: Vec<usize> = if wlog.window_sizes.is_empty() {
        windows.iter().map(Vec::len).collect()
    } else {
        wlog.window_sizes.clone()
    };
    let cover = covering_epochs(wlog.events.len(), &raw_counts);
    let mut at = 0usize;
    for (k, &n) in raw_counts.iter().enumerate().take(measured_epochs) {
        let end = (at + n).min(wlog.events.len());
        if windows.get(k) != Some(&coalesce(&wlog.events[at..end])) {
            failures.push(format!(
                "window {} is not the next FIFO chunk of the submitted events",
                k + 1
            ));
            break;
        }
        at = end;
    }
    if at != wlog.events.len() {
        failures.push(format!(
            "{} submitted events are in no flushed window",
            wlog.events.len() - at
        ));
    }
    if stats.events_submitted != stats.events_applied + stats.events_coalesced {
        failures.push(format!(
            "submitted {} != applied {} + coalesced {}",
            stats.events_submitted, stats.events_applied, stats.events_coalesced
        ));
    }
    if wlog.missed_publish {
        failures.push("a publish was not seen within 120 s".into());
    }
    if wlog.refused > 0 {
        notes.push(format!(
            "FAILED: {} submitted events were refused",
            wlog.refused
        ));
    }
    if rlog.requests_failed > 0 {
        notes.push(format!(
            "FAILED: {} read requests failed or returned a wrong reply, first: {}",
            rlog.requests_failed,
            rlog.first_failure.as_deref().unwrap_or("?")
        ));
    }

    // ---- gate: the offline pipeline replaying the logged windows equals
    // the served state bitwise, checked at the snapshot the watcher kept;
    // accuracy is read off the same state.
    let prefix_windows = match spec.writer {
        Writer::Windows => FIXED_PREFIX_WINDOWS.min(measured_epochs),
        Writer::Open { .. } => measured_epochs,
    };
    let checked_epoch = wlog.checked.epoch() as usize;
    let mut oracle = sut::oracle(&fx);
    let mut g = fx.g0.clone();
    for window in windows.iter().take(checked_epoch) {
        oracle.update(&mut g, window);
    }
    let m = oracle.proximity_csr();
    let resid_rel = oracle.embedding().projection_residual(&m) / m.frobenius_norm();
    if checked_epoch > windows.len()
        || served_epoch as usize != windows.len()
        || !bits_equal(oracle.embedding(), wlog.checked.tagged().embedding())
    {
        failures.push(format!(
            "offline replay of the first {checked_epoch} logged windows differs from the state served at that epoch"
        ));
    }
    drop((oracle, m));

    // ---- metrics.
    let seen_at = |epoch: u64| {
        wlog.seen
            .binary_search_by_key(&epoch, |&(e, _)| e)
            .ok()
            .map(|i| wlog.seen[i].1)
    };
    let mut publish_ms: Vec<f64> = cover
        .iter()
        .zip(&wlog.ref_secs)
        .filter_map(|(e, due)| Some((seen_at((*e)?)? - due) * 1e3))
        .collect();
    if publish_ms.len() != wlog.events.len() {
        failures.push(format!(
            "{} events have no observed publish time",
            wlog.events.len() - publish_ms.len()
        ));
    }
    stats::sort(&mut publish_ms);
    let mut get_rows = rlog.get_rows_us.clone();
    let mut top_k = rlog.top_k_us.clone();
    stats::sort(&mut get_rows);
    stats::sort(&mut top_k);
    for (what, sample) in [
        ("publish", &publish_ms),
        ("GetRows burst", &get_rows),
        ("TopK burst", &top_k),
    ] {
        if sample.is_empty() {
            failures.push(format!("no {what} sample was taken"));
        }
    }
    let pct = |sample: &[f64], p: f64| {
        if sample.is_empty() {
            0.0
        } else {
            stats::percentile(sample, p)
        }
    };
    // Durations are reported at nominal box speed: raw ÷ the factor over
    // the time they were measured in (the timed phase; each repetition of a
    // set-up or restart).
    let timed = wlog.speed_factor;
    let metric = |name, raw: f64, factor: f64, unit, samples| Metric {
        name,
        value: raw / factor,
        raw,
        factor,
        unit,
        samples,
    };
    let reps = |name, reps: &[(f64, f64)]| {
        let (value, raw) = median_of_reps(reps);
        metric(name, raw, raw / value, "s", reps.len())
    };
    let metrics = vec![
        reps("setup_s", &set_ups),
        metric(
            "publish_ms_p50",
            pct(&publish_ms, 0.5),
            timed,
            "ms",
            publish_ms.len(),
        ),
        metric(
            "get_rows_burst_us_p50",
            pct(&get_rows, 0.5),
            timed,
            "us",
            get_rows.len(),
        ),
        metric(
            "top_k_burst_us_p50",
            pct(&top_k, 0.5),
            timed,
            "us",
            top_k.len(),
        ),
        reps("recover_s", &restarts),
        metric("embed_resid_rel", resid_rel, 1.0, "ratio", checked_epoch),
        metric("peak_rss_mb", peak_rss, 1.0, "MiB", 1),
    ];
    // Rates are redundant with the latencies (closed loops) or equal to the
    // offered rate (open loops): printed, not bounded.
    notes.push(format!(
        "rates: {:.1} events/s published, {:.1} read requests/s completed",
        wlog.events.len() as f64 / wlog.elapsed,
        rlog.requests_ok as f64 / rlog.elapsed
    ));

    // The highest percentile each sample supports, for the reader of the
    // log; the bounded metrics are medians, which repeat.
    for (what, unit, sample) in [
        ("publish", "ms", &publish_ms),
        ("GetRows burst", "us", &get_rows),
        ("TopK burst", "us", &top_k),
    ] {
        match stats::supported_tail(sample.len()) {
            Some(p) => notes.push(format!(
                "{what}: mean {:.3} {unit}, p{} = {:.3} {unit} (highest percentile with >= 10 of {} samples beyond it), raw",
                stats::mean(sample),
                p * 100.0,
                stats::percentile(sample, p),
                sample.len()
            )),
            None => notes.push(format!(
                "{what}: mean {:.3} {unit}, {} samples, too few for a tail percentile (p90 needs 100), raw",
                stats::mean(sample),
                sample.len()
            )),
        }
    }
    let secs = |reps: &[(f64, f64)]| {
        let reps: Vec<String> = reps
            .iter()
            .map(|(secs, factor)| format!("{secs:.3}/{factor:.2}"))
            .collect();
        reps.join(" ")
    };
    notes.push(format!(
        "set-ups: {}; restarts: {} (raw seconds / box-speed factor)",
        secs(&set_ups),
        secs(&restarts)
    ));
    if !wlog.lateness.is_empty() {
        let mut late = wlog.lateness.clone();
        stats::sort(&mut late);
        notes.push(format!(
            "generator lateness: p99 {:.3} ms, max {:.3} ms over {} sends",
            stats::percentile(&late, 0.99) * 1e3,
            late[late.len() - 1] * 1e3,
            late.len()
        ));
    }
    notes.push(format!(
        "{} events in {} windows ({} coalesced), {} read requests, offline replay checked at epoch {}",
        wlog.events.len(),
        measured_epochs,
        stats.events_coalesced,
        rlog.requests_ok,
        checked_epoch
    ));

    // Failed operations against everything attempted: submitted events,
    // read requests, the restart, and each gate as one operation.
    let attempted = wlog.events.len() as u64 + rlog.requests_ok + rlog.requests_failed + 1 + GATES;
    let failed = wlog.refused + rlog.requests_failed + failures.len() as u64;
    RunOutput {
        spec,
        metrics,
        attempted,
        failed,
        failures,
        notes,
        fixture: fx,
        windows,
        prefix_windows,
        served,
        stats,
        timed_secs: wlog.elapsed,
        publish_ms_max: publish_ms.last().copied().unwrap_or(0.0),
        publish_ms_mean: stats::mean(&publish_ms),
        get_rows_burst_us_mean: stats::mean(&get_rows),
        ping_us,
        speed_factor: timed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The FIFO prefix rule, including windows whose raw count exceeds what
    /// they applied (coalesced events still belong to the window that
    /// consumed them) and events no window covers.
    #[test]
    fn events_map_to_the_window_that_consumed_them() {
        // Three windows consumed 2, 3 and 1 raw events (the second applied
        // only 2 of its 3: one was coalesced away).
        let cover = covering_epochs(7, &[2, 3, 1]);
        assert_eq!(
            cover,
            vec![Some(1), Some(1), Some(2), Some(2), Some(2), Some(3), None]
        );
        // More window capacity than events: later windows cover nothing.
        assert_eq!(covering_epochs(2, &[1, 4, 4]), vec![Some(1), Some(2)]);
        assert_eq!(covering_epochs(0, &[3]), Vec::<Option<u64>>::new());
        // Empty windows (a flush of no-ops is still an epoch) are skipped.
        assert_eq!(covering_epochs(2, &[1, 0, 1]), vec![Some(1), Some(3)]);
    }

    #[test]
    fn coalesced_window_matches_its_raw_chunk() {
        let raw = [
            EdgeEvent::insert(1, 2),
            EdgeEvent::delete(1, 2),
            EdgeEvent::insert(3, 4),
        ];
        // What the server logs for that window: last write wins.
        let logged = vec![EdgeEvent::delete(1, 2), EdgeEvent::insert(3, 4)];
        assert_eq!(coalesce(&raw), logged);
        assert_eq!(covering_epochs(3, &[3]), vec![Some(1); 3]);
    }

    #[test]
    fn every_workload_has_a_distinct_name_and_a_one_line_reason() {
        for (i, s) in SPECS.iter().enumerate() {
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
            assert!(SPECS[..i].iter().all(|o| o.name != s.name));
            assert_eq!(spec(s.name, false).unwrap().scale.name, s.scale.name);
            assert_eq!(spec(s.name, true).unwrap().scale.name, "toy");
        }
        assert!(spec("nope", false).is_none());
    }
}
