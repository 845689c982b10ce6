//! # ampsched-core
//!
//! The paper's contribution: **fine-grained, hardware-level dynamic thread
//! scheduling for asymmetric multicores**, plus every reference scheme it
//! is evaluated against — on the paper's dual-core machine and on
//! generalized N-core × M-thread topologies (DESIGN.md §13).
//!
//! The crate is substrate-independent: schedulers observe only
//! [`TopoSnapshot`]s — the per-window hardware-counter values the
//! paper's "online monitor" exposes (committed-instruction composition,
//! IPC, energy) for every thread, plus the machine's [`CoreTraits`] —
//! and return [`TopoDecision`]s: stay, or adopt a new partial
//! thread→core [`AssignmentMap`] (parked threads allowed). The system
//! drivers in `ampsched-system` execute those decisions (pipeline flush,
//! state transfer, cache effects, per-thread migration cost).
//!
//! There is one scheduler interface, [`TopoScheduler`], and one
//! implementation of each scheme. The paper's dual-core machine (FP core
//! 0, INT core 1, two threads) is the 2×2 case: a pairwise scheme tests
//! every flavour-contrasted pair of occupied cores, and on the paper's
//! machine there is exactly one. The pair-era names [`Scheduler`],
//! [`Decision`] and [`WindowSnapshot`] are the same trait and types
//! under their old names. Placement has one type too: the paper's two
//! placements are [`AssignmentMap::pair`]`(false)` and `(true)`.
//!
//! ## Schedulers
//!
//! | type | scheme | decision cadence |
//! |---|---|---|
//! | [`TopoProposed`] | the paper's monitor + swap rules (Fig. 5) with history voting (Sec. VI-B) | every committed-instruction window (default 1000/thread) |
//! | [`TopoHpe`] | Srinivasan et al. \[8\] extended to flavored cores per Sec. V (ratio matrix Fig. 3 or regression surface Fig. 4) | every 2 ms OS epoch |
//! | [`TopoRoundRobin`] | unconditional rotation (the pair swap on 2×2) every k epochs | every k × 2 ms |
//! | [`TopoStatic`] | never move (baseline assignment) | — |
//! | [`MatrixFineScheduler`] | ablation: the HPE predictor evaluated at the proposed scheme's fine granularity | every window |
//! | [`ExtendedScheduler`] | the paper's Section VII future-work extension: proposed rules + IPC / memory-boundness vetoes | every window |
//! | [`SamplingScheduler`] | Becchi & Crowley-style forced-swap sampling \[10\] (Related Work) | probe every k epochs |
//! | [`TpeScheduler`] | Thread Progress Equalization (Turakhia et al.): laggards onto the strongest cores | every epoch |
//! | [`CampScheduler`] | CAMP-style affinity-ranked placement, one-shot or re-ranked | every epoch |
//! | [`OracleScheduler`] | replay of the offline DP oracle's schedule (regret baseline) | every window and epoch |

pub mod counters;
pub mod extended;
pub mod history;
pub mod hpe;
pub mod matrix_fine;
pub mod oracle;
pub mod paper;
pub mod profile;
pub mod regression;
pub mod rules;
pub mod sampling;
pub mod scheduler;
pub mod topo;
pub mod zoo;

pub use counters::ThreadWindow;
pub use extended::{ExtendedConfig, ExtendedScheduler};
pub use history::MajorityVote;
pub use hpe::{HpePredictor, RatioMatrix, RatioSurface};
pub use matrix_fine::MatrixFineScheduler;
pub use oracle::{
    enumerate_assignments, OracleConfig, OracleObservations, OracleScheduler, OracleSolution,
    ReplaySchedule,
};
pub use oracle::solve as solve_oracle;
pub use profile::ProfilePoint;
pub use rules::SwapRules;
pub use sampling::SamplingScheduler;
pub use scheduler::{DecisionExplain, PredictorSource};
pub use topo::{AssignmentMap, CoreTraits, TopoDecision, TopoScheduler, TopoSnapshot, TopoThreadObs};
pub use zoo::{
    CampScheduler, ProposedConfig, TopoHpe, TopoProposed, TopoRoundRobin, TopoStatic, TpeScheduler,
};

/// [`TopoScheduler`] under its pair-era name.
pub use topo::TopoScheduler as Scheduler;
/// [`TopoDecision`] under its pair-era name.
pub use topo::TopoDecision as Decision;
/// [`TopoSnapshot`] under its pair-era name.
pub use topo::TopoSnapshot as WindowSnapshot;
