//! # ampsched-experiments
//!
//! Drivers that regenerate every table and figure of the paper (see the
//! experiment index in DESIGN.md) plus the ablations it motivates —
//! over the paper's two-thread/two-core duo and, since the topology
//! generalization, arbitrary N-core × M-thread systems (`scaling`, the
//! topology schedulers in `common::SchedKind`).
//!
//! Each `figN` module exposes a `run(&Params) -> ...Result` function that
//! returns structured data and a `render` path producing the ASCII table /
//! series the paper reports. Two front ends drive them through one
//! dispatch: the `ampsched` CLI binary and the [`serve`] daemon, which
//! answers experiment requests over HTTP from a content-addressed result
//! cache with byte-identical output. [`report`] computes every command's
//! sections ([`report::run`]) and assembles the report document
//! ([`report::assemble`]) for both, which is what makes that identity
//! hold.

#![warn(missing_docs)]

pub mod ablation;
pub mod common;
pub mod fig1;
pub mod fig6;
pub mod fig78;
pub mod morphing;
pub mod obs_summary;
pub mod overhead;
pub mod profiling;
pub mod regret;
pub mod report;
pub mod rr_interval;
pub mod rules_derivation;
pub mod runner;
pub mod scaling;
pub mod serve;
pub mod tables;
pub mod telemetry;
pub mod trace_cache;

pub use common::{Params, SchedKind};
