//! # ampsched-cpu
//!
//! Trace-driven, cycle-level out-of-order core timing model — the stand-in
//! for the paper's SESC simulator.
//!
//! The model executes [`ampsched_trace::Workload`] streams on a core whose
//! resources follow Tables I and II of the paper:
//!
//! * in-order frontend (fetch through dispatch) gated by the L1I, redirect
//!   stalls after branch mispredictions, and structural availability
//!   (ROB / issue-queue / LSQ entries, rename registers);
//! * split integer and floating-point issue queues with oldest-first
//!   wakeup/select;
//! * per-class functional-unit pools with real latencies and
//!   pipelined/non-pipelined initiation (Table II) — the source of the
//!   INT-core/FP-core asymmetry;
//! * a load/store queue with exact (trace-known) address disambiguation
//!   and store-to-load forwarding;
//! * in-order commit.
//!
//! Wrong-path execution is not modeled; a mispredicted branch stalls
//! dispatch until it resolves plus a redirect penalty — the standard
//! trace-driven approximation.
//!
//! Every microarchitectural event is tallied in [`ActivityCounters`],
//! which `ampsched-power` converts to energy.
//!
//! The core has two kernels that must stay bit-identical: the optimized
//! [`Core::tick`] with [`Core::fast_forward`] skip-ahead, and the frozen
//! [`Core::reference_tick`]. Runners advance a core through one API,
//! [`Core::step`], whose [`SimPath`] argument selects the kernel. On the
//! fast path `step` also owns the quiescence certificate: it scans for
//! the next event once a stall region begins, replays certified cycles
//! with `fast_forward`, and publishes the region's end as
//! [`Core::quiet_until`] so a runner can jump many cycles at once.
//! [`Core::flush_pipeline`] voids the certificate.

pub mod activity;
pub mod config;
pub mod core;
pub mod fu;
pub mod profile;
pub mod stats;

pub use crate::core::{Core, SimPath};
pub use activity::ActivityCounters;
pub use config::{CoreConfig, CoreFlavor, FuSpec};
pub use profile::{PipeSnapshot, StallCause, STALL_CAUSE_NAMES};
pub use stats::CoreStats;
