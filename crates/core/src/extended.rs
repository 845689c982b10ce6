//! The paper's stated future-work extension (Section VII): "We plan to
//! improve upon these scenarios by including the performance (IPC) and
//! last-level cache miss rate information into our swapping conditions."
//!
//! The failure mode the authors describe: composition alone can
//! mispredict — a thread with a high %INT looks like it wants the INT
//! core, but if it is stalled on dependencies or memory, moving it does
//! not help and the swap costs both threads. [`ExtendedScheduler`] wraps
//! the proposed scheme with exactly the two vetoes the paper sketches:
//!
//! * **memory-boundness veto** — when a thread's window is dominated by
//!   memory operations, its datapath flavor is irrelevant; a swap
//!   nominally justified by that thread's composition is suppressed;
//! * **low-IPC veto** — when both threads' window IPC is under a floor,
//!   the system is stall-bound (dependences, misses) and swapping only
//!   adds overhead.

use crate::topo::{TopoDecision, TopoScheduler, TopoSnapshot};
use crate::zoo::{ProposedConfig, TopoProposed};

/// Veto thresholds for the extension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtendedConfig {
    /// Base proposed-scheme configuration.
    pub base: ProposedConfig,
    /// A thread with `mem_pct` at or above this is memory-bound; swaps
    /// motivated by its composition are vetoed.
    pub mem_bound_pct: f64,
    /// If both threads' window IPC is at or below this, veto all swaps.
    pub low_ipc_floor: f64,
}

impl Default for ExtendedConfig {
    fn default() -> Self {
        ExtendedConfig {
            base: ProposedConfig::default(),
            mem_bound_pct: 45.0,
            low_ipc_floor: 0.12,
        }
    }
}

/// Proposed scheme + IPC/memory-awareness vetoes on the swaps it issues.
#[derive(Debug, Clone)]
pub struct ExtendedScheduler {
    inner: TopoProposed,
    cfg: ExtendedConfig,
    /// Swaps vetoed by the memory-boundness rule.
    pub mem_vetoes: u64,
    /// Swaps vetoed by the low-IPC rule.
    pub ipc_vetoes: u64,
}

impl ExtendedScheduler {
    /// Build with explicit configuration for a topology with `threads`
    /// threads.
    pub fn new(cfg: ExtendedConfig, threads: usize) -> Self {
        ExtendedScheduler {
            inner: TopoProposed::new(cfg.base, threads),
            cfg,
            mem_vetoes: 0,
            ipc_vetoes: 0,
        }
    }

    /// Paper-default thresholds.
    pub fn with_defaults(threads: usize) -> Self {
        Self::new(ExtendedConfig::default(), threads)
    }
}

impl TopoScheduler for ExtendedScheduler {
    fn name(&self) -> &'static str {
        "proposed-extended"
    }

    fn window_insts(&self) -> Option<u64> {
        self.inner.window_insts()
    }

    fn on_window(&mut self, snap: &TopoSnapshot) -> TopoDecision {
        let decision = self.inner.on_window(snap);
        let TopoDecision::Reassign(next) = &decision else {
            return decision;
        };
        let swapped: Vec<_> = next
            .moved_threads(&snap.assignment)
            .into_iter()
            .map(|t| &snap.threads[t].window)
            .collect();
        // Low-IPC veto: both threads crawling => stall-bound system.
        if swapped.iter().all(|w| w.ipc() <= self.cfg.low_ipc_floor) {
            self.ipc_vetoes += 1;
            return TopoDecision::Stay;
        }
        // Memory-boundness veto: the thread whose surge motivated the
        // swap gains nothing from a different datapath if it mostly waits
        // on memory.
        if swapped.iter().any(|w| w.mem_pct >= self.cfg.mem_bound_pct) {
            self.mem_vetoes += 1;
            return TopoDecision::Stay;
        }
        decision
    }

    fn on_epoch(&mut self, snap: &TopoSnapshot) -> TopoDecision {
        self.inner.on_epoch(snap)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.mem_vetoes = 0;
        self.ipc_vetoes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::AssignmentMap;
    use crate::zoo::tests::duo;

    /// `(int_pct, fp_pct, mem_pct, instructions, cycles)` of the threads
    /// on the FP core (core 0) and the INT core (core 1).
    type Mix = (f64, f64, f64, u64, u64);

    fn snap(fp_mix: Mix, int_mix: Mix) -> TopoSnapshot {
        let mut snap = duo(0, (fp_mix.0, fp_mix.1), (int_mix.0, int_mix.1));
        let mixes = [fp_mix, int_mix];
        for (obs, (_, _, mem_pct, instructions, cycles)) in snap.threads.iter_mut().zip(mixes) {
            obs.window.mem_pct = mem_pct;
            obs.window.instructions = instructions;
            obs.window.cycles = cycles;
        }
        snap
    }

    #[test]
    fn healthy_misplacement_still_swaps() {
        let mut s = ExtendedScheduler::with_defaults(2);
        // INT-heavy on FP core, good IPC, low mem: no veto applies.
        let w = snap((60.0, 1.0, 20.0, 1000, 1200), (20.0, 1.0, 20.0, 1000, 1200));
        let last = (0..5).map(|_| s.on_window(&w)).last().unwrap();
        assert_eq!(last, TopoDecision::Reassign(AssignmentMap::pair(true)));
        assert_eq!(s.mem_vetoes + s.ipc_vetoes, 0);
    }

    #[test]
    fn memory_bound_thread_vetoes_the_swap() {
        let mut s = ExtendedScheduler::with_defaults(2);
        // Composition says swap, but the FP-core thread is 55% memory ops.
        let w = snap((60.0, 1.0, 55.0, 1000, 5000), (20.0, 1.0, 15.0, 1000, 1200));
        for _ in 0..10 {
            assert_eq!(s.on_window(&w), TopoDecision::Stay);
        }
        assert!(s.mem_vetoes > 0);
    }

    #[test]
    fn low_ipc_pair_vetoes_the_swap() {
        let mut s = ExtendedScheduler::with_defaults(2);
        // Both threads at IPC 0.05: stall-bound.
        let w = snap((60.0, 1.0, 30.0, 100, 2000), (20.0, 1.0, 30.0, 100, 2000));
        for _ in 0..10 {
            assert_eq!(s.on_window(&w), TopoDecision::Stay);
        }
        assert!(s.ipc_vetoes > 0);
    }

    #[test]
    fn reset_clears_veto_counters() {
        let mut s = ExtendedScheduler::with_defaults(2);
        let w = snap((60.0, 1.0, 55.0, 1000, 5000), (20.0, 1.0, 15.0, 1000, 1200));
        for _ in 0..10 {
            let _ = s.on_window(&w);
        }
        s.reset();
        assert_eq!(s.mem_vetoes, 0);
        assert_eq!(s.explain_last(), None);
    }
}
