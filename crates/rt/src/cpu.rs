//! One pool participant per CPU while there is a free one.
//!
//! The pool leaves thread placement to the kernel, with one exception that
//! was measured, not assumed. A parked worker is woken by the thread that
//! dispatches a region, and the kernel may queue it on that thread's own
//! CPU. On the two-core KVM guest this workspace is benchmarked on it then
//! stays there: caller and worker take turns on one CPU while the other
//! idles, for ≈ 1.2–1.4 s, until the periodic balancer moves one of them
//! (sampled from `/proc/<pid>/task/*/stat`: both runnable on CPU 0, CPU 1
//! at 100 % idle, a 0.25 s engine build taking 0.45–0.55 s at unchanged CPU
//! time). Whether a region starts stacked depends on where the two threads
//! last ran, so after a quiet phase it is a coin flip: six of six process
//! starts after a 4 s pause ran their first three builds ≈ 1.8× slow
//! without this module, none of six with it, and the end-to-end
//! benchmark's cold rebuilds after a mostly idle serving phase went from
//! bimodal (0.29 / 0.41–0.51 s) to 0.29–0.35 s.
//!
//! So every participant of a region claims the CPU it is on in a bitmask on
//! the job, the caller first. A worker that finds its CPU already claimed
//! also claims the lowest CPU of its affinity mask that no participant has
//! and moves there before it runs the region: it pins itself to that CPU
//! (which migrates it at once) and restores the mask it had, so the kernel
//! stays free to move it again. With no unclaimed CPU left (more
//! participants than CPUs) it stays where it is. The common case — nobody
//! shares a CPU — costs one `sched_getcpu` and one atomic OR per participant
//! per region; a collision costs three system calls, and the next wake-up
//! is on the new CPU, because a sleeping thread is woken where it last ran.
//! (Moving after the region instead, to keep the system calls off the path
//! of a caller that waits for the worker to sign off, was tried: the first
//! region after every collision then runs stacked, and the rebuilds'
//! quartile distance over ten benchmark runs was 0.057 s against 0.019 s.)
//! Only CPUs 0–63 are considered; a thread on a higher one neither claims
//! nor moves. Off Linux all of this compiles to nothing.
//!
//! Placement cannot change results: which participant runs which chunk was
//! already unspecified, and outputs are placed by index.

use std::sync::atomic::{AtomicU64, Ordering};

/// A `cpu_set_t`: 1024 CPUs.
type Mask = [u64; 16];

#[cfg(target_os = "linux")]
mod sys {
    use super::Mask;

    // Three libc entry points `std` already links against.
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPU the calling thread is on, if it is one of the first 64.
    pub fn current() -> Option<u32> {
        // SAFETY: no arguments, no memory touched.
        let cpu = unsafe { sched_getcpu() };
        (0..64).contains(&cpu).then_some(cpu as u32)
    }

    /// The calling thread's affinity mask.
    pub fn allowed() -> Option<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Set the calling thread's affinity mask; the kernel migrates the
    /// thread before returning if its CPU is not in `mask`.
    pub fn set_allowed(mask: &Mask) -> bool {
        // SAFETY: `mask` is a readable buffer of exactly the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::Mask;

    pub fn current() -> Option<u32> {
        None
    }

    pub fn allowed() -> Option<Mask> {
        None
    }

    pub fn set_allowed(_: &Mask) -> bool {
        false
    }
}

/// The claim a region's caller starts the job's bitmask with: the bit of
/// the CPU it is on (0 where that is unknown, so that nobody ever collides).
pub(crate) fn caller_claim() -> u64 {
    sys::current().map_or(0, |cpu| 1 << cpu)
}

/// Claim the calling worker's CPU in `claimed`. If another participant of
/// the region already has it and an allowed CPU is unclaimed, claim that one
/// too and return it: the worker should [`move_to`] it.
pub(crate) fn claim(claimed: &AtomicU64) -> Option<u32> {
    let cpu = sys::current()?;
    let bit = 1u64 << cpu;
    if claimed.fetch_or(bit, Ordering::AcqRel) & bit == 0 {
        return None;
    }
    let low = sys::allowed()?[0];
    let mut seen = claimed.load(Ordering::Acquire);
    loop {
        let free = low & !seen;
        if free == 0 {
            return None;
        }
        let target = free.trailing_zeros();
        match claimed.compare_exchange(
            seen,
            seen | 1 << target,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => return Some(target),
            Err(now) => seen = now,
        }
    }
}

/// Migrate the calling thread to `cpu` and leave its affinity mask as it
/// was: pinned for the length of one system call, free to be moved after.
pub(crate) fn move_to(cpu: u32) {
    let Some(home) = sys::allowed() else { return };
    let mut only: Mask = [0; 16];
    only[0] = 1 << cpu;
    if sys::set_allowed(&only) {
        sys::set_allowed(&home);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CPUs 0–63 of the calling thread's mask, or 0 off Linux.
    fn low_allowed() -> u64 {
        sys::allowed().map_or(0, |m| m[0])
    }

    #[test]
    fn an_unclaimed_cpu_is_claimed_and_nothing_moves() {
        if sys::current().is_none() {
            return;
        }
        let claimed = AtomicU64::new(0);
        assert_eq!(claim(&claimed), None);
        assert_eq!(claimed.load(Ordering::Relaxed).count_ones(), 1);
    }

    #[test]
    fn a_claimed_cpu_yields_the_lowest_free_one_and_moving_keeps_the_mask() {
        let Some(home) = sys::allowed() else { return };
        // Pinned, "the CPU this thread is on" cannot change under the test.
        let first = low_allowed().trailing_zeros();
        let mut only: Mask = [0; 16];
        only[0] = 1 << first;
        assert!(sys::set_allowed(&only));
        let claimed = AtomicU64::new(1 << first);
        // Its own mask has no other CPU: it stays, the claim is unchanged.
        assert_eq!(claim(&claimed), None);
        assert_eq!(claimed.load(Ordering::Relaxed), 1 << first);
        assert!(sys::set_allowed(&home));

        let others = low_allowed() & !(1 << first);
        if others != 0 {
            let target = others.trailing_zeros();
            let got = claim(&claimed);
            // The kernel may have moved the thread since the mask was
            // widened; then its new CPU was free and nothing is returned.
            assert!(got == Some(target) || got.is_none(), "{got:?}");
            assert_eq!(claimed.load(Ordering::Relaxed).count_ones(), 2);
            move_to(target);
            assert_eq!(sys::allowed(), Some(home));
        }
    }

    #[test]
    fn with_every_cpu_claimed_the_worker_stays() {
        let claimed = AtomicU64::new(u64::MAX);
        assert_eq!(claim(&claimed), None);
        assert_eq!(claimed.load(Ordering::Relaxed), u64::MAX);
    }

    #[test]
    fn pinning_migrates_before_it_returns() {
        let Some(home) = sys::allowed() else { return };
        let mut low = home[0];
        while low != 0 {
            let cpu = low.trailing_zeros();
            low &= low - 1;
            let mut only: Mask = [0; 16];
            only[0] = 1 << cpu;
            assert!(sys::set_allowed(&only));
            assert_eq!(sys::current(), Some(cpu));
        }
        assert!(sys::set_allowed(&home));
        assert_eq!(sys::allowed(), Some(home));
    }
}
