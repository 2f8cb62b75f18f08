//! Box-speed calibration.
//!
//! The sandbox this benchmark runs in is a shared two-core VM whose speed
//! swings by ± 20 % for seconds to minutes at a time (a fixed CPU loop takes
//! 0.40–0.56 s from one iteration to the next). Ten runs spread over a
//! quarter of an hour then disagree by more than any useful regression
//! bound, whatever the SUT does. So every phase of a run also times a fixed
//! piece of CPU work every 10 ms, and durations are reported divided by how
//! much slower than nominal that work ran while they were measured. Over 40 runs this took
//! the quartile spread of `publish_ms_p50` from 10.0 % to 4.2 % (`trickle`)
//! and from 16.5 % to 6.6 % (`firehose`); the raw value and the factor are
//! printed beside every calibrated one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::stats;

/// Words in the working set (256 KiB: resident in L2, not in L1).
const WORDS: usize = 32 * 1024;
/// Dependent read-modify-write steps per sample.
const STEPS: usize = 40_000;
/// What one sample takes on the reference box when it is quiet,
/// microseconds. Only ratios between runs matter, so on another box this
/// constant rescales every duration alike.
const NOMINAL_US: f64 = 125.0;
/// Pause between two samples of a phase.
pub const SAMPLE_EVERY: Duration = Duration::from_millis(10);

pub struct Calibrator {
    buf: Vec<u64>,
    /// Duration of every sample since the last `take_factor`, microseconds.
    samples: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            buf: (0..WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            samples: Vec::new(),
        }
    }

    /// Run the kernel once (≈ 0.1 ms) and record how long it took.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut acc = 0.0f64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.buf[(x as usize) % WORDS];
            *slot = slot.wrapping_add(x);
            acc += (*slot >> 11) as f64 * 1e-9;
        }
        std::hint::black_box(acc);
        self.samples.push(t.elapsed().as_secs_f64() * 1e6);
    }

    /// Run `work` while a helper thread takes a sample every 10 ms (1 % of
    /// one core) — for work that has no loop of its own to sample from.
    /// Returns what `work` returned, how long it took in seconds, and the
    /// factor over exactly that time: the box's speed moves within seconds,
    /// so each repetition of a set-up is corrected by its own factor (over
    /// 12 runs per workload that halved the spread of `setup_s` against one
    /// factor for all repetitions).
    pub fn during<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64, f64) {
        self.samples.clear();
        let done = AtomicBool::new(false);
        let (out, secs) = std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    self.sample();
                    std::thread::sleep(SAMPLE_EVERY);
                }
            });
            let t = Instant::now();
            let out = work();
            let secs = t.elapsed().as_secs_f64();
            done.store(true, Ordering::Release);
            (out, secs)
        });
        (out, secs, self.take_factor())
    }

    /// How much slower than nominal the box ran over the samples taken
    /// since the last call (their median ÷ nominal); the samples are
    /// dropped. 1.0 if none was taken.
    pub fn take_factor(&mut self) -> f64 {
        let mut samples = std::mem::take(&mut self.samples);
        if samples.is_empty() {
            return 1.0;
        }
        stats::sort(&mut samples);
        stats::median(&samples) / NOMINAL_US
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_median_sample_over_nominal_and_resets() {
        let mut cal = Calibrator::new();
        assert_eq!(cal.take_factor(), 1.0);
        cal.samples = vec![250.0, 125.0, 500.0];
        assert_eq!(cal.take_factor(), 2.0);
        assert_eq!(cal.take_factor(), 1.0);
        cal.samples = vec![1e9];
        let (out, secs, factor) = cal.during(|| {
            std::thread::sleep(Duration::from_millis(35));
            7
        });
        assert_eq!(out, 7);
        assert!(secs >= 0.035, "{secs}");
        // Only the samples taken during the call count, and they are spent.
        assert!(factor > 0.0 && factor < 1e3, "{factor}");
        assert!(cal.samples.is_empty());
    }
}
