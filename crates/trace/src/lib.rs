//! # ampsched-trace
//!
//! Statistical workload models standing in for the paper's 37 benchmarks
//! (15 SPEC CPU2000, 14 MiBench, 1 MediaBench, 7 synthetic kernels).
//!
//! ## Why statistical models?
//!
//! The paper drives SESC with compiled benchmark binaries. We have neither
//! the binaries nor a functional ISA simulator, and the scheduling study
//! does not need them: every scheduler in the paper observes only
//! *committed-instruction composition* (%INT, %FP), *IPC*, and *stalls* —
//! all of which are produced by the timing model from the properties of the
//! instruction stream, not from computed values. A workload model therefore
//! only has to reproduce, per program phase:
//!
//! * the instruction mix (INT/FP ALU/MUL/DIV, loads, stores, branches),
//! * the dependency structure (how far apart producers and consumers are,
//!   which bounds exploitable ILP),
//! * branch predictability,
//! * data locality (working-set size, sequential vs random access),
//! * code footprint (I-cache behaviour), and
//! * the *phase schedule* — how these change over time, including phases
//!   shorter than the 2 ms OS epoch, which is precisely the behaviour the
//!   paper's fine-grained scheme exploits against HPE.
//!
//! Each benchmark in [`suite`] encodes these parameters from published
//! characterizations of the corresponding program (SPEC2000/MiBench
//! instruction-mix studies), and is generated deterministically from a seed.
//!
//! ## Entry points
//!
//! * [`suite::all`] — all 37 benchmark specs;
//! * [`suite::by_name`] — look one up;
//! * [`TraceGenerator`] — turn a spec into a deterministic [`Workload`]
//!   stream of [`ampsched_isa::MicroOp`]s;
//! * [`ReplaySource`] / [`TracePath`] — the memoized trace [`arena`]:
//!   materialize each stream once, replay it everywhere, bit-identical
//!   to live generation;
//! * [`persist`] — the arena's on-disk cache (checksummed chunk files),
//!   so the generate-once cost survives process exits.

#![warn(missing_docs)]

pub mod arena;
pub mod benchmark;
pub mod generator;
pub mod persist;
pub mod phase;
pub mod suite;
pub mod timing;
pub mod workload;

pub use arena::{ReplaySource, TracePath};
pub use benchmark::{BenchmarkSpec, Suite};
pub use generator::TraceGenerator;
pub use phase::PhaseSpec;
pub use workload::Workload;
