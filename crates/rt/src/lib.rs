//! `tsvd-rt` — the runtime substrate every other crate in this workspace
//! stands on.
//!
//! DESIGN.md commits to building every substrate from scratch because there
//! is no usable crate stack in the offline build environment. This crate is
//! where that commitment lands for the *infrastructure* dependencies the
//! seed still declared: it replaces `rand` ([`rng`]), `serde`/`serde_json`
//! ([`json`], and [`bin`] for state that is saved more often than it is
//! read by a person), `proptest` ([`check`]), and `criterion` ([`mod@bench`]) with
//! in-tree implementations small enough to audit and deterministic by
//! construction. The workspace builds hermetically: `cargo build` touches no
//! registry, no network, no vendored sources.
//!
//! Determinism is the organising principle, not a nice-to-have: every
//! experiment in the Tree-SVD reproduction (and in the dynamic forward-push
//! line of work it follows) depends on seeded reproducibility. [`rng`] is a
//! counter-seeded xoshiro256++ whose stream is fixed forever by this file;
//! [`check`] derives every test case from an explicit seed and reports the
//! failing seed on error; [`mod@bench`] never samples timers for control flow;
//! [`pool`] — the persistent work-stealing pool every parallel region in
//! the workspace dispatches through — places results by index so outputs
//! are bitwise identical for every thread count (and keeps its participants
//! on separate CPUs, `cpu.rs`, so that timings do not depend on where the
//! kernel happened to wake a worker). There is no event loop here: the
//! serving layer's one reactor is a plain loop over its own
//! `std::sync::mpsc` channel, with its one flush deadline.

pub mod bench;
pub mod bin;
pub mod check;
mod cpu;
pub mod json;
pub mod pool;
pub mod rng;
