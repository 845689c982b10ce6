//! # ampsched
//!
//! A full reproduction of **"Dynamic Thread Scheduling in Asymmetric
//! Multicores to Maximize Performance-per-Watt"** (Annamalai, Rodrigues,
//! Koren, Kundu — IPPS 2012) as a Rust workspace: the paper's dual-core
//! INT/FP asymmetric multicore (generalized to N-core × M-thread
//! topologies), its out-of-order core timing model, cache hierarchy,
//! Wattch-style power model, 37 statistical workload models, the paper's
//! fine-grained hardware scheduler, and every reference scheme and
//! experiment it is evaluated against.
//!
//! This facade crate re-exports the workspace under stable paths:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`isa`] | `ampsched-isa` | micro-ops, registers, instruction mixes |
//! | [`workloads`] | `ampsched-trace` | the 37-benchmark suite + trace generators |
//! | [`mem`] | `ampsched-mem` | caches, shared L2, DRAM, prefetcher |
//! | [`cpu`] | `ampsched-cpu` | the out-of-order core model (Tables I/II) |
//! | [`power`] | `ampsched-power` | activity-based energy model |
//! | [`sched`] | `ampsched-core` | **the paper's contribution** + reference schedulers |
//! | [`system`] | `ampsched-system` | AMP topologies, systems, and run loops |
//! | [`metrics`] | `ampsched-metrics` | IPC/Watt, speedups, reporting |
//! | [`obs`] | `ampsched-obs` | logging, counters, spans, decision telemetry |
//! | [`experiments`] | `ampsched-experiments` | per-figure/table drivers |
//!
//! ## Quickstart
//!
//! ```
//! use ampsched::prelude::*;
//!
//! // Co-run equake (thread 0, starts on the FP core) with bitcount
//! // (thread 1, INT core) under the paper's proposed scheduler.
//! let workloads: [Box<dyn Workload>; 2] = [
//!     Box::new(TraceGenerator::for_thread(suite::by_name("equake").unwrap(), 42, 0)),
//!     Box::new(TraceGenerator::for_thread(suite::by_name("bitcount").unwrap(), 42, 1)),
//! ];
//! let mut system = DualCoreSystem::new(SystemConfig::default(), workloads);
//! let mut scheduler = TopoProposed::with_defaults(2);
//! let result = system.run(&mut scheduler, 200_000, 20_000_000);
//! let ppw = result.ipc_per_watt();
//! assert!(ppw[0] > 0.0 && ppw[1] > 0.0);
//! ```

pub use ampsched_core as sched;
pub use ampsched_cpu as cpu;
pub use ampsched_experiments as experiments;
pub use ampsched_isa as isa;
pub use ampsched_mem as mem;
pub use ampsched_metrics as metrics;
pub use ampsched_obs as obs;
pub use ampsched_power as power;
pub use ampsched_system as system;
pub use ampsched_trace as workloads;

/// The most commonly used items in one import.
pub mod prelude {
    pub use ampsched_core::{
        AssignmentMap, CampScheduler, CoreTraits, Decision, ExtendedConfig, ExtendedScheduler,
        HpePredictor, MatrixFineScheduler, ProposedConfig, RatioMatrix, RatioSurface,
        SamplingScheduler, Scheduler, SwapRules, ThreadWindow, TopoDecision, TopoHpe,
        TopoProposed, TopoRoundRobin, TopoScheduler, TopoSnapshot, TopoStatic, TpeScheduler,
        WindowSnapshot,
    };
    pub use ampsched_cpu::{Core, CoreConfig, CoreFlavor};
    pub use ampsched_mem::{MemConfig, MemSystem};
    pub use ampsched_metrics::{
        geometric_speedup, improvement_pct, weighted_speedup, ThreadMetrics,
    };
    pub use ampsched_power::{EnergyAccount, EnergyModel};
    pub use ampsched_system::{
        DualCoreSystem, IntervalSample, MulticoreSystem, RunResult, SingleCoreRunner, SystemConfig,
        Topology, TopoRunResult,
    };
    pub use ampsched_trace::{suite, BenchmarkSpec, PhaseSpec, Suite, TraceGenerator, Workload};
}
