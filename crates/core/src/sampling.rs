//! Sampling-based reference scheduler in the style of Becchi & Crowley
//! \[10\] (Related Work, Section II): periodically *force* a swap, measure
//! the realized IPC/Watt of both assignments, and keep the better one.
//!
//! The paper's critique of this family — "such a scheduler is not
//! scalable to an AMP with many different cores" and sampling itself
//! perturbs execution — is visible in the simulator: every probe costs
//! two swap overheads and runs one epoch in the possibly-worse
//! configuration.
//!
//! The challenger is the Round Robin rotation of the incumbent
//! assignment, which on the paper's machine is the pair swap.

use crate::topo::{AssignmentMap, TopoDecision, TopoScheduler, TopoSnapshot};
use crate::zoo::rotate_slots;

/// State machine phase of the sampler.
#[derive(Debug, Clone, PartialEq)]
enum SamplePhase {
    /// Running the incumbent assignment; counting epochs to next probe.
    Settled { epochs_left: u32 },
    /// Probe issued: the *previous* epoch's assignment and metric are
    /// stored, the challenger is being measured this epoch.
    Probing { incumbent: AssignmentMap, incumbent_metric: f64 },
}

/// Forceful-swap sampling scheduler.
#[derive(Debug, Clone)]
pub struct SamplingScheduler {
    /// Epochs between probes while settled.
    pub probe_interval_epochs: u32,
    /// Minimum relative improvement for the challenger to be kept
    /// (hysteresis; prevents ping-ponging on noise).
    pub keep_margin: f64,
    phase: SamplePhase,
    /// Probes performed.
    pub probes: u64,
    /// Probes that kept the swapped assignment.
    pub adoptions: u64,
}

impl SamplingScheduler {
    /// Probe every `probe_interval_epochs`, keep the challenger when it
    /// beats the incumbent by ≥ 2%.
    ///
    /// # Panics
    /// Panics if `probe_interval_epochs` is zero.
    pub fn new(probe_interval_epochs: u32) -> Self {
        assert!(probe_interval_epochs >= 1, "probe interval must be >= 1");
        SamplingScheduler {
            probe_interval_epochs,
            keep_margin: 0.02,
            phase: SamplePhase::Settled {
                epochs_left: probe_interval_epochs,
            },
            probes: 0,
            adoptions: 0,
        }
    }

    /// System IPC/Watt of one epoch snapshot: the sum of every thread's
    /// IPC/Watt (the sampler's figure of merit).
    fn metric(snap: &TopoSnapshot) -> f64 {
        snap.threads
            .iter()
            .map(|obs| &obs.window)
            .map(|t| {
                if t.joules <= 0.0 || t.cycles == 0 {
                    0.0
                } else {
                    // IPC / W with W = J / (cycles / f); the frequency
                    // cancels in comparisons, so use insts/(J * 1e9)-scale
                    // proxy: instructions per joule-cycle.
                    t.instructions as f64 / t.joules
                }
            })
            .sum()
    }
}

impl TopoScheduler for SamplingScheduler {
    fn name(&self) -> &'static str {
        "sampling"
    }

    fn on_epoch(&mut self, snap: &TopoSnapshot) -> TopoDecision {
        let settled = SamplePhase::Settled { epochs_left: self.probe_interval_epochs };
        match std::mem::replace(&mut self.phase, settled) {
            SamplePhase::Settled { epochs_left } if epochs_left > 1 => {
                self.phase = SamplePhase::Settled { epochs_left: epochs_left - 1 };
                TopoDecision::Stay
            }
            SamplePhase::Settled { .. } => {
                // Time to probe: remember the incumbent's showing and
                // force the challenger for one epoch.
                self.probes += 1;
                self.phase = SamplePhase::Probing {
                    incumbent: snap.assignment.clone(),
                    incumbent_metric: Self::metric(snap),
                };
                TopoDecision::Reassign(rotate_slots(&snap.assignment))
            }
            SamplePhase::Probing { incumbent, incumbent_metric } => {
                if Self::metric(snap) >= incumbent_metric * (1.0 + self.keep_margin) {
                    // Keep the challenger (current) assignment.
                    self.adoptions += 1;
                    TopoDecision::Stay
                } else {
                    // Revert to the incumbent.
                    TopoDecision::Reassign(incumbent)
                }
            }
        }
    }

    fn reset(&mut self) {
        self.phase = SamplePhase::Settled {
            epochs_left: self.probe_interval_epochs,
        };
        self.probes = 0;
        self.adoptions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::TopoThreadObs;
    use crate::ThreadWindow;

    fn snap(metric0: f64, metric1: f64) -> TopoSnapshot {
        let mk = |m: f64, core| TopoThreadObs {
            window: ThreadWindow {
                instructions: (m * 1000.0) as u64,
                joules: 1e-3,
                cycles: 1000,
                ..Default::default()
            },
            total_instructions: 0,
            core: Some(core),
        };
        TopoSnapshot {
            cycle: 0,
            assignment: AssignmentMap::pair(false),
            cores: Vec::new(),
            threads: vec![mk(metric0, 0), mk(metric1, 1)],
        }
    }

    fn swap() -> TopoDecision {
        TopoDecision::Reassign(AssignmentMap::pair(true))
    }

    fn back() -> TopoDecision {
        TopoDecision::Reassign(AssignmentMap::pair(false))
    }

    #[test]
    fn probes_on_schedule() {
        let mut s = SamplingScheduler::new(3);
        // Two settle epochs, then the probe swap on the third.
        assert_eq!(s.on_epoch(&snap(1.0, 1.0)), TopoDecision::Stay);
        assert_eq!(s.on_epoch(&snap(1.0, 1.0)), TopoDecision::Stay);
        assert_eq!(s.on_epoch(&snap(1.0, 1.0)), swap());
        assert_eq!(s.probes, 1);
    }

    #[test]
    fn keeps_better_challenger() {
        let mut s = SamplingScheduler::new(1);
        assert_eq!(s.on_epoch(&snap(1.0, 1.0)), swap(), "probe");
        // The probed assignment performs 50% better: keep it (Stay).
        assert_eq!(s.on_epoch(&snap(1.5, 1.5)), TopoDecision::Stay);
        assert_eq!(s.adoptions, 1);
    }

    #[test]
    fn reverts_worse_challenger() {
        let mut s = SamplingScheduler::new(1);
        assert_eq!(s.on_epoch(&snap(1.0, 1.0)), swap(), "probe");
        // The probed assignment is worse: revert to the incumbent.
        assert_eq!(s.on_epoch(&snap(0.6, 0.6)), back());
        assert_eq!(s.adoptions, 0);
    }

    #[test]
    fn hysteresis_blocks_marginal_challengers() {
        let mut s = SamplingScheduler::new(1);
        let _ = s.on_epoch(&snap(1.0, 1.0));
        // 1% better: below the 2% margin -> revert.
        assert_eq!(s.on_epoch(&snap(1.01, 1.01)), back());
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn zero_interval_panics() {
        SamplingScheduler::new(0);
    }
}
