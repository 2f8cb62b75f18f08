//! Fault-injection battery for the WAL + checkpoint + recovery path.
//!
//! The WAL half — three properties, exercised end to end through
//! [`tsvd_store::recover`] (not just the frame decoder):
//!
//! 1. **Truncation = clean stop.** Cutting the log at *every* byte offset
//!    of the final frame recovers to the longest valid prefix, bitwise
//!    equal to an offline replay of that prefix — and physically truncates
//!    the tail so the store can append again.
//! 2. **Interior corruption = typed error.** Flipping any single byte of
//!    an interior frame yields [`StoreError::Corrupt`], never a panic and
//!    never a silently shortened log.
//! 3. **No panics, ever.** Arbitrary mutations (random flips + cuts) of
//!    the log *and of the checkpoint files* may recover or fail, but must
//!    always return.
//!
//! The checkpoint half — the newest binary checkpoint cut at **every**
//! byte offset, and **every** single byte of it flipped:
//!
//! 4. **With an older checkpoint behind it: clean fall-back.** Recovery
//!    starts from the older one, replays the longer tail, and lands on the
//!    same bits — never on the damaged file, never on a different host.
//! 5. **Alone: typed error.** [`StoreError::BadCheckpoint`], never a panic.
//! 6. **The decoder is total.** Payload bytes mutated *and the section
//!    re-sealed with a valid checksum* — so the damage reaches the decoder
//!    instead of being stopped in front of it — decode to some host or to
//!    an error, without a panic and without an allocation sized by a
//!    corrupt count (a count that the bytes cannot back is refused first).

use std::fs;
use std::path::{Path, PathBuf};

use tsvd_core::{Level1Method, PartitionStrategy, TreeSvdConfig, UpdatePolicy};
use tsvd_graph::{DynGraph, EdgeEvent};
use tsvd_ppr::PprConfig;
use tsvd_rt::bin::checksum;
use tsvd_rt::json::ToJson;
use tsvd_rt::rng::{Rng, SeedableRng, StdRng};
use tsvd_serve::{DurabilitySink, TenantHost};
use tsvd_store::checkpoint::{self, Format, CHECKPOINT_HEADER_LEN};
use tsvd_store::{recover, wal, StoreConfig, StoreError, WalStore};

/// Frames below carry exactly 2 events: 24-byte header + 4 + 2·9 payload.
const FRAME_LEN: usize = 46;
const WINDOWS: usize = 4;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "tsvd-fault-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

fn tree_cfg() -> TreeSvdConfig {
    TreeSvdConfig {
        dim: 6,
        branching: 2,
        num_blocks: 4,
        oversample: 4,
        power_iters: 1,
        level1: Level1Method::Randomized,
        policy: UpdatePolicy::Lazy { delta: 0.4 },
        partition: PartitionStrategy::EqualWidth,
        seed: 11,
    }
}

/// Deterministic fresh host — callable any number of times for offline
/// ground-truth replays.
fn fresh_host() -> TenantHost {
    let mut g = DynGraph::with_nodes(40);
    for i in 0..40u32 {
        g.insert_edge(i, (i + 1) % 40);
        g.insert_edge(i, (i + 9) % 40);
    }
    let mut h = TenantHost::new(&g);
    h.register(
        0,
        &(0..6).collect::<Vec<_>>(),
        PprConfig::default(),
        tree_cfg(),
    )
    .unwrap();
    h
}

fn window(k: u32) -> Vec<EdgeEvent> {
    vec![
        EdgeEvent::insert(k % 40, (k * 5 + 13) % 40),
        EdgeEvent::delete((k + 2) % 40, (k + 3) % 40),
    ]
}

/// Build a store with [`WINDOWS`] appended windows; `segment_bytes`
/// controls whether they share one segment or get one each.
fn seed_store(dir: &Path, segment_bytes: u64) {
    let host = fresh_host();
    let mut cfg = StoreConfig::new(dir);
    cfg.segment_bytes = segment_bytes;
    let mut store = WalStore::create(cfg, &host).unwrap();
    for k in 0..WINDOWS as u32 {
        store.append_window(k as u64 + 1, &window(k)).unwrap();
    }
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// The host ground truth after the first `n` windows, built offline.
fn offline_after(n: usize) -> TenantHost {
    let mut h = fresh_host();
    for k in 0..n as u32 {
        h.apply_batch(&window(k));
    }
    h
}

/// The host's whole readable export minus the wall-clock `timings` (the
/// only state two hosts fed the same windows do not share); `rt::json`
/// round-trips every `f64` bitwise, so equal strings are equal states.
fn state(host: &TenantHost) -> String {
    let mut j = host.to_json();
    j.remove_key("timings");
    j.to_string()
}

/// Same state, bit for bit — graph, PPR states, matrix, tree caches and
/// embedding (the embedding alone would compare equal wherever the lazy
/// rule never fired).
fn assert_bitwise(a: &TenantHost, b: &TenantHost, ctx: &str) {
    assert_eq!(a.batches_recorded(), b.batches_recorded(), "{ctx}");
    assert!(state(a) == state(b), "{ctx}: hosts diverged");
}

#[test]
fn truncating_the_final_frame_recovers_the_longest_valid_prefix() {
    let base = tmpdir("trunc-base");
    seed_store(&base, u64::MAX); // one segment holds all frames
    let (_, seg_path) = wal::list_segments(&base).unwrap().pop().unwrap();
    let full = fs::metadata(&seg_path).unwrap().len() as usize;
    assert_eq!(full, WINDOWS * FRAME_LEN, "frame size drifted; update test");
    let prefix = full - FRAME_LEN;
    let expected = offline_after(WINDOWS - 1);
    let expected_full = offline_after(WINDOWS);

    let case = tmpdir("trunc-case");
    for cut in prefix..full {
        copy_dir(&base, &case);
        let (_, seg) = wal::list_segments(&case).unwrap().pop().unwrap();
        let f = fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(cut as u64).unwrap();
        drop(f);

        let rec = recover(StoreConfig::new(&case))
            .unwrap_or_else(|e| panic!("cut at {cut}: recovery refused a torn tail: {e}"));
        assert_eq!(
            rec.host.batches_recorded(),
            (WINDOWS - 1) as u64,
            "cut at {cut}"
        );
        assert_bitwise(&rec.host, &expected, &format!("cut at {cut}"));
        // The torn tail was physically truncated to the valid prefix…
        assert_eq!(
            fs::metadata(&seg).unwrap().len(),
            prefix as u64,
            "cut at {cut}: tail not truncated"
        );
        // …and the store is ready to append the lost epoch again.
        let mut store = rec.store;
        assert_eq!(store.next_epoch(), WINDOWS as u64);
        store
            .append_window(WINDOWS as u64, &window(WINDOWS as u32 - 1))
            .unwrap();
        let rec2 = recover(StoreConfig::new(&case)).unwrap();
        assert_bitwise(
            &rec2.host,
            &expected_full,
            &format!("cut at {cut}: re-append"),
        );
    }
}

#[test]
fn truncating_the_final_frame_across_segment_rotation() {
    // One frame per segment: the torn tail lives in its own file and every
    // earlier segment is scanned with the stricter non-final rules.
    let base = tmpdir("trunc-rot-base");
    seed_store(&base, 1);
    let segments = wal::list_segments(&base).unwrap();
    assert_eq!(segments.len(), WINDOWS);
    let (_, last_seg) = segments.last().unwrap().clone();
    let expected = offline_after(WINDOWS - 1);

    let case = tmpdir("trunc-rot-case");
    for cut in 0..FRAME_LEN {
        copy_dir(&base, &case);
        let seg = case.join(last_seg.file_name().unwrap());
        let f = fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(cut as u64).unwrap();
        drop(f);
        let rec = recover(StoreConfig::new(&case)).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        assert_eq!(rec.host.batches_recorded(), (WINDOWS - 1) as u64);
        assert_bitwise(&rec.host, &expected, &format!("rotated cut at {cut}"));
    }
}

#[test]
fn flipping_any_single_byte_of_an_interior_frame_is_a_typed_error() {
    let base = tmpdir("flip-base");
    seed_store(&base, u64::MAX);
    let (_, seg_name) = wal::list_segments(&base).unwrap().pop().unwrap();
    let seg_name = seg_name.file_name().unwrap().to_owned();

    let case = tmpdir("flip-case");
    // Frame 2 of 4: strictly interior — every byte, two flip patterns.
    let frame_start = FRAME_LEN;
    for byte in frame_start..frame_start + FRAME_LEN {
        for flip in [0x01u8, 0x80] {
            copy_dir(&base, &case);
            let seg = case.join(&seg_name);
            let mut bytes = fs::read(&seg).unwrap();
            bytes[byte] ^= flip;
            fs::write(&seg, &bytes).unwrap();
            match recover(StoreConfig::new(&case)) {
                Err(StoreError::Corrupt { offset, .. }) => {
                    assert!(
                        (offset as usize) <= byte,
                        "flip {flip:#04x} at byte {byte}: corruption blamed on a later \
                         offset {offset}"
                    );
                }
                Err(other) => panic!("flip {flip:#04x} at byte {byte}: wrong error class: {other}"),
                Ok(rec) => panic!(
                    "flip {flip:#04x} at byte {byte}: silently recovered to epoch {}",
                    rec.host.batches_recorded()
                ),
            }
        }
    }
}

#[test]
fn arbitrary_mutations_never_panic() {
    let base = tmpdir("fuzz-base");
    seed_store(&base, u64::MAX);
    // A second, newer checkpoint, so that damage to either file has a
    // fall-back to be wrong about.
    checkpoint::write_checkpoint(&base, 2, &offline_after(2)).unwrap();
    let names: Vec<_> = fs::read_dir(&base)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(names.len(), 3, "one segment, two checkpoints");
    let case = tmpdir("fuzz-case");
    let mut rng = StdRng::seed_from_u64(0xFA17);
    let expected = offline_after(WINDOWS);
    let mut recovered = 0u32;
    for round in 0..90 {
        copy_dir(&base, &case);
        let victim = case.join(&names[round % names.len()]);
        let mut bytes = fs::read(&victim).unwrap();
        for _ in 0..rng.gen_range(1..5usize) {
            let i = rng.gen_range(0..bytes.len());
            bytes[i] ^= rng.gen_range(1..256usize) as u8;
        }
        if rng.gen_bool(0.3) {
            bytes.truncate(rng.gen_range(0..bytes.len() + 1));
        }
        fs::write(&victim, &bytes).unwrap();
        // Either outcome is legal; returning is the property. A recovery
        // that reaches the last window must have the right bits, whichever
        // checkpoint it started from.
        if let Ok(rec) = recover(StoreConfig::new(&case)) {
            recovered += 1;
            if rec.host.batches_recorded() == WINDOWS as u64 {
                assert_bitwise(&rec.host, &expected, &format!("round {round}"));
            }
        }
    }
    // Sanity: the harness isn't vacuous — some mutations must be caught,
    // and some (a damaged checkpoint with a whole one behind it) survived.
    assert!(recovered < 90, "every mutation recovered?");
    assert!(recovered > 0, "no mutation recovered?");
}

// ------------------------------------------------------ checkpoint half

/// The smallest host that still has every section: the exhaustive tests
/// below pay one recovery per byte of its checkpoint.
fn tiny_host() -> TenantHost {
    let mut g = DynGraph::with_nodes(10);
    for i in 0..10u32 {
        g.insert_edge(i, (i + 1) % 10);
        g.insert_edge(i, (i + 3) % 10);
    }
    let mut h = TenantHost::new(&g);
    let tree = TreeSvdConfig {
        dim: 2,
        num_blocks: 2,
        oversample: 2,
        ..tree_cfg()
    };
    let ppr = PprConfig {
        alpha: 0.2,
        r_max: 1e-2,
    };
    h.register(0, &[0, 5], ppr, tree).unwrap();
    h
}

fn tiny_window(k: u32) -> Vec<EdgeEvent> {
    vec![EdgeEvent::insert(k % 10, (k * 3 + 5) % 10)]
}

fn tiny_after(n: u32) -> TenantHost {
    let mut h = tiny_host();
    for k in 0..n {
        h.apply_batch(&tiny_window(k));
    }
    h
}

/// A store of [`tiny_host`] with three durable windows and its newest
/// checkpoint at epoch 2 — on top of the one at epoch 0 if `with_older`.
/// Returns the newest checkpoint's path and bytes.
fn seed_checkpoints(dir: &Path, with_older: bool) -> (PathBuf, Vec<u8>) {
    let mut store = WalStore::create(StoreConfig::new(dir), &tiny_host()).unwrap();
    for k in 0..3u32 {
        store.append_window(k as u64 + 1, &tiny_window(k)).unwrap();
    }
    // Not through the sink: its compaction would remove the older one.
    checkpoint::write_checkpoint(dir, 2, &tiny_after(2)).unwrap();
    if !with_older {
        fs::remove_file(checkpoint::checkpoint_path(dir, 0, Format::Bin)).unwrap();
    }
    let newest = checkpoint::checkpoint_path(dir, 2, Format::Bin);
    let bytes = fs::read(&newest).unwrap();
    // ≈ 2.5 KB today; the exhaustive tests are quadratic in this.
    assert!(
        bytes.len() < 8 << 10,
        "tiny_host grew: {} bytes",
        bytes.len()
    );
    (newest, bytes)
}

/// Every single-fault version of `bytes`: cut at each offset, and each
/// byte flipped two ways. `what` names the fault in failure messages.
fn for_every_single_fault(bytes: &[u8], mut case: impl FnMut(&[u8], &str)) {
    for cut in 0..bytes.len() {
        case(&bytes[..cut], &format!("cut at {cut}"));
    }
    let mut damaged = bytes.to_vec();
    for i in 0..bytes.len() {
        for flip in [0x01u8, 0x80] {
            damaged[i] ^= flip;
            case(&damaged, &format!("flip {flip:#04x} at byte {i}"));
            damaged[i] ^= flip;
        }
    }
}

#[test]
fn every_single_fault_in_the_newest_checkpoint_falls_back_to_the_older_one_bitwise() {
    let dir = tmpdir("ckpt-fallback");
    let (newest, bytes) = seed_checkpoints(&dir, true);
    // Intact: recovery starts at 2 and replays one window.
    let rec = recover(StoreConfig::new(&dir)).unwrap();
    assert_eq!((rec.checkpoint_epoch, rec.windows_replayed), (2, 1));
    let expected = tiny_after(3);
    assert_bitwise(&rec.host, &expected, "intact");
    for_every_single_fault(&bytes, |damaged, what| {
        fs::write(&newest, damaged).unwrap();
        let rec = recover(StoreConfig::new(&dir))
            .unwrap_or_else(|e| panic!("{what}: no fall-back to the older checkpoint: {e}"));
        assert_eq!(
            (rec.checkpoint_epoch, rec.windows_replayed),
            (0, 3),
            "{what}: the damaged checkpoint was used"
        );
        assert_bitwise(&rec.host, &expected, what);
    });
}

#[test]
fn every_single_fault_in_the_only_checkpoint_is_a_typed_error() {
    let dir = tmpdir("ckpt-alone");
    let (newest, bytes) = seed_checkpoints(&dir, false);
    assert!(recover(StoreConfig::new(&dir)).is_ok());
    for_every_single_fault(&bytes, |damaged, what| {
        fs::write(&newest, damaged).unwrap();
        match recover(StoreConfig::new(&dir)) {
            Err(StoreError::BadCheckpoint(_)) => {}
            Err(other) => panic!("{what}: wrong error class: {other}"),
            Ok(rec) => panic!(
                "{what}: silently recovered to epoch {}",
                rec.host.batches_recorded()
            ),
        }
    });
}

/// `(payload start, payload len)` of every section of a well-formed file.
fn section_payloads(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut at = CHECKPOINT_HEADER_LEN;
    while at < bytes.len() {
        let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
        out.push((at + 9, len));
        at += 9 + len + 8;
    }
    assert_eq!(at, bytes.len());
    out
}

#[test]
fn damage_sealed_under_a_valid_checksum_reaches_a_decoder_that_never_panics() {
    let (_, bytes) = seed_checkpoints(&tmpdir("ckpt-resealed"), false);
    let sections = section_payloads(&bytes);
    let mut rng = StdRng::seed_from_u64(0x5EA1);
    let (mut decoded, mut refused) = (0u32, 0u32);
    for round in 0..4000 {
        let mut damaged = bytes.clone();
        let (start, len) = sections[round % sections.len()];
        for _ in 0..rng.gen_range(1..4usize) {
            let i = start + rng.gen_range(0..len);
            // Half the time all ones: the value most likely to turn a
            // count or a length into something enormous.
            damaged[i] = if rng.gen_bool(0.5) {
                0xff
            } else {
                rng.gen_range(0..256usize) as u8
            };
        }
        let sum = checksum(&damaged[start..start + len]);
        damaged[start + len..start + len + 8].copy_from_slice(&sum.to_le_bytes());
        match checkpoint::read_host(&damaged[..]).map_err(StoreError::from) {
            Ok(_) => decoded += 1,
            Err(StoreError::BadCheckpoint(_)) => refused += 1,
            Err(other) => panic!("round {round}: wrong error class: {other}"),
        }
    }
    // Both outcomes occur: a flipped float still decodes, a flipped count
    // does not.
    assert!(
        decoded > 0 && refused > 0,
        "{decoded} decoded, {refused} refused"
    );
}
