//! # ampsched-system
//!
//! The asymmetric multicore system of the paper, generalized: an
//! arbitrary [`Topology`] of heterogeneous cores with private L1s over a
//! shared L2, per-core Wattch-style energy accounting, and the hardware
//! scheduling loop over an N-core × M-thread assignment table.
//!
//! [`MulticoreSystem`] co-runs M [`ampsched_trace::Workload`]s, samples
//! the hardware counters at every monitoring window and OS epoch, hands
//! [`ampsched_core::TopoSnapshot`]s to an
//! [`ampsched_core::TopoScheduler`], and executes returned reassignments
//! with their full cost: pipeline flush + a configurable state-transfer
//! overhead (Section VI-C) on exactly the cores whose occupant changed,
//! and naturally cold L1s (the threads' address spaces are disjoint, so
//! a migrated-to core's caches hold another thread's lines).
//! [`MulticoreSystem::run_lanes`] runs several schedulers ([`Lane`]s)
//! from one cold machine at once, simulating their common prefix once
//! and forking the machine where their decisions differ.
//!
//! [`DualCoreSystem`] is the paper's fixed shape — one FP-flavored core
//! (core 0, Figure 1's "core A") and one INT-flavored core (core 1,
//! "core B"), two threads — as a constructor over [`MulticoreSystem`]
//! ([`Topology::duo`]). Every run, on any shape, returns one result type,
//! [`TopoRunResult`], whose [`TopoDecisionRecord`]s are the decision audit
//! trail; [`RunResult`] is its pair-era name.
//!
//! [`SingleCoreRunner`] runs one workload alone on one core type with
//! periodic interval sampling — the substrate for Figure 1 and the
//! offline profiling of Sections V/VI-A.

pub mod duo;
pub mod single;
pub mod topo;

pub use duo::{DualCoreSystem, RunResult, SimPath, SystemConfig};
pub use single::{run_alone, run_alone_with, IntervalSample, SingleCoreRunner, SingleRunResult};
pub use topo::{
    attribute_regret, derive_traits, DecisionKind, Lane, MulticoreSystem, Topology,
    TopoDecisionRecord, TopoDecisionThread, TopoRunResult,
};
