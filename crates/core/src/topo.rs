//! Generalized N-core × M-thread scheduling substrate.
//!
//! The paper's machine is a fixed 2-core/2-thread pair; ROADMAP item 1
//! generalizes it to arbitrary big.LITTLE-style shapes. This module holds
//! the substrate-independent pieces: the thread→core [`AssignmentMap`],
//! the per-core capability descriptor [`CoreTraits`] schedulers rank
//! against, the decision-point view [`TopoSnapshot`], and the
//! [`TopoScheduler`] trait the system drives — on the paper's dual-core
//! machine too, which is the 2-core × 2-thread case.
//!
//! ## Contracts
//!
//! * An assignment is a partial bijection: every core holds at most one
//!   thread, every thread occupies at most one core, and it is
//!   work-conserving — no thread is parked while a core sits idle.
//! * Window decisions may only permute *running* threads; the parked set
//!   changes exclusively at epoch boundaries ("migrations respect epoch
//!   boundaries"). The system enforces this with
//!   [`AssignmentMap::same_parked_set`].
//! * Scheduler decisions are pure functions of the snapshot stream plus
//!   internal state seeded at construction, so decision streams are
//!   deterministic across reruns.

use crate::counters::ThreadWindow;
use crate::scheduler::DecisionExplain;

/// Substrate-independent description of one core's capabilities, derived
/// from the microarchitectural config by the system layer. Schedulers
/// rank threads against these traits instead of assuming the fixed
/// FP-core-0 / INT-core-1 shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreTraits {
    /// Core index in the topology.
    pub index: usize,
    /// Whether the core is FP-flavored (strong FP units, weak INT).
    pub fp_flavored: bool,
    /// Clock frequency in GHz.
    pub frequency_ghz: f64,
    /// Peak integer-ALU throughput (ops/cycle, summed over units).
    pub int_throughput: f64,
    /// Peak FP-ALU throughput (ops/cycle, summed over units).
    pub fp_throughput: f64,
    /// Front-end dispatch width (ops/cycle).
    pub dispatch_width: u8,
}

impl CoreTraits {
    /// Scalar "bigness" used by progress-equalizing placement: total
    /// arithmetic throughput scaled by clock.
    pub fn strength(&self) -> f64 {
        self.frequency_ghz * (self.int_throughput + self.fp_throughput)
    }

    /// Positive for INT-leaning cores, negative for FP-leaning ones.
    pub fn int_bias(&self) -> f64 {
        self.int_throughput - self.fp_throughput
    }

    /// CAMP-style speedup-factor estimate: expected relative throughput
    /// of a thread with the given committed-mix composition (percent
    /// scale) on this core. Pure arithmetic over the traits, so rankings
    /// are deterministic and cheap.
    pub fn affinity(&self, int_pct: f64, fp_pct: f64) -> f64 {
        let other_pct = (100.0 - int_pct - fp_pct).max(0.0);
        self.frequency_ghz
            * (int_pct * self.int_throughput
                + fp_pct * self.fp_throughput
                + other_pct * self.dispatch_width as f64)
            / 100.0
    }
}

/// General thread→core assignment table: a partial bijection between
/// `threads` thread ids and `cores` core slots, with the overflow
/// (`threads > cores`) parked off-core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssignmentMap {
    /// Core occupied by each thread (`None` = parked), indexed by thread.
    core_of: Vec<Option<usize>>,
    /// Thread held by each core (`None` = idle), indexed by core.
    thread_on: Vec<Option<usize>>,
}

impl AssignmentMap {
    /// The OS baseline: thread `t` starts on core `t`; threads beyond the
    /// core count start parked.
    pub fn baseline(cores: usize, threads: usize) -> Self {
        assert!(cores >= 1, "topology needs at least one core");
        assert!(threads >= 1, "topology needs at least one thread");
        let mut core_of = vec![None; threads];
        let mut thread_on = vec![None; cores];
        for t in 0..threads.min(cores) {
            core_of[t] = Some(t);
            thread_on[t] = Some(t);
        }
        AssignmentMap { core_of, thread_on }
    }

    /// The paper's dual-core shape: thread 0 on core 0 (FP) and thread 1
    /// on core 1 (INT), or exchanged when `swapped`.
    pub fn pair(swapped: bool) -> Self {
        let mut map = AssignmentMap::baseline(2, 2);
        if swapped {
            map.swap_threads(0, 1);
        }
        map
    }

    /// Number of core slots.
    pub fn cores(&self) -> usize {
        self.thread_on.len()
    }

    /// Number of threads.
    pub fn threads(&self) -> usize {
        self.core_of.len()
    }

    /// Core thread `t` currently occupies (`None` = parked).
    pub fn core_of(&self, t: usize) -> Option<usize> {
        self.core_of[t]
    }

    /// Thread currently on core `c` (`None` = idle core).
    pub fn thread_on(&self, c: usize) -> Option<usize> {
        self.thread_on[c]
    }

    /// Thread ids currently parked, ascending.
    pub fn parked(&self) -> Vec<usize> {
        (0..self.threads()).filter(|&t| self.core_of[t].is_none()).collect()
    }

    /// Exchange the placements of threads `a` and `b` (either may be
    /// parked).
    pub fn swap_threads(&mut self, a: usize, b: usize) {
        let (ca, cb) = (self.core_of[a], self.core_of[b]);
        self.core_of[a] = cb;
        self.core_of[b] = ca;
        if let Some(c) = ca {
            self.thread_on[c] = Some(b);
        }
        if let Some(c) = cb {
            self.thread_on[c] = Some(a);
        }
    }

    /// Rebuild from an explicit thread→core table (`None` = parked).
    ///
    /// # Panics
    /// Panics if the table is not a valid partial bijection for the
    /// given core count.
    pub fn from_core_of(cores: usize, core_of: Vec<Option<usize>>) -> Self {
        let mut thread_on = vec![None; cores];
        for (t, &slot) in core_of.iter().enumerate() {
            if let Some(c) = slot {
                assert!(c < cores, "core index {c} out of range");
                assert!(thread_on[c].is_none(), "core {c} double-booked");
                thread_on[c] = Some(t);
            }
        }
        let map = AssignmentMap { core_of, thread_on };
        map.validate().expect("assignment table must be valid");
        map
    }

    /// Full validity check: internal tables agree, every core holds at
    /// most one thread, and the map is work-conserving (no parked thread
    /// while a core idles).
    pub fn validate(&self) -> Result<(), String> {
        for (t, &slot) in self.core_of.iter().enumerate() {
            if let Some(c) = slot {
                if c >= self.cores() {
                    return Err(format!("thread {t} on out-of-range core {c}"));
                }
                if self.thread_on[c] != Some(t) {
                    return Err(format!("thread {t} and core {c} tables disagree"));
                }
            }
        }
        for (c, &occ) in self.thread_on.iter().enumerate() {
            if let Some(t) = occ {
                if t >= self.threads() || self.core_of[t] != Some(c) {
                    return Err(format!("core {c} and thread {t} tables disagree"));
                }
            }
        }
        let idle_cores = self.thread_on.iter().filter(|o| o.is_none()).count();
        let parked = self.core_of.iter().filter(|o| o.is_none()).count();
        if parked > 0 && idle_cores > 0 {
            return Err(format!(
                "not work-conserving: {parked} parked thread(s) with {idle_cores} idle core(s)"
            ));
        }
        Ok(())
    }

    /// Whether `other` parks exactly the same thread set (the invariant
    /// window decisions must preserve).
    pub fn same_parked_set(&self, other: &AssignmentMap) -> bool {
        self.parked() == other.parked()
    }

    /// Threads whose core changed (including park↔run transitions)
    /// relative to `other`, ascending.
    pub fn moved_threads(&self, other: &AssignmentMap) -> Vec<usize> {
        (0..self.threads().min(other.threads()))
            .filter(|&t| self.core_of[t] != other.core_of[t])
            .collect()
    }
}

/// Per-thread view at a decision point: the window counters since the
/// period base, cumulative progress, and where the thread sits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopoThreadObs {
    /// Counter window since the period base (all-zero mix for a thread
    /// that was parked the whole period).
    pub window: ThreadWindow,
    /// Committed instructions since the thread was created (the progress
    /// measure TPE equalizes).
    pub total_instructions: u64,
    /// Core the thread currently occupies (`None` = parked).
    pub core: Option<usize>,
}

/// A complete decision-point snapshot for the generalized machine.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoSnapshot {
    /// Current system cycle.
    pub cycle: u64,
    /// Current thread→core assignment.
    pub assignment: AssignmentMap,
    /// Capability descriptors, indexed by core.
    pub cores: Vec<CoreTraits>,
    /// Per-thread observations, indexed by thread id.
    pub threads: Vec<TopoThreadObs>,
}

impl TopoSnapshot {
    /// Observations of the thread on core `c`, if occupied.
    pub fn on_core(&self, c: usize) -> Option<&TopoThreadObs> {
        self.assignment.thread_on(c).map(|t| &self.threads[t])
    }
}

/// A generalized scheduling decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopoDecision {
    /// Keep the current assignment.
    Stay,
    /// Adopt the given assignment (same shape; must validate). Threads
    /// whose core changed pay the migration cost.
    Reassign(AssignmentMap),
}

impl TopoDecision {
    /// Whether adopting this decision would change `current`.
    pub fn changes(&self, current: &AssignmentMap) -> bool {
        match self {
            TopoDecision::Stay => false,
            TopoDecision::Reassign(next) => next != current,
        }
    }
}

/// A thread-scheduling policy for an arbitrary N-core × M-thread AMP.
///
/// The system driver invokes:
///
/// * [`TopoScheduler::on_window`] whenever `window_insts()` committed
///   instructions (summed over all threads) have retired since the last
///   window boundary — the fine-grained decision points of the proposed
///   scheme;
/// * [`TopoScheduler::on_epoch`] every OS context-switch epoch (2 ms),
///   the cadence of the HPE and Round Robin reference schemes.
///
/// A returned [`TopoDecision::Reassign`] is executed immediately by the
/// system (with its full overhead); schedulers may assume their
/// decisions take effect.
pub trait TopoScheduler {
    /// Human-readable scheme name (for reports).
    fn name(&self) -> &'static str;

    /// Combined committed-instruction window between `on_window`
    /// invocations. `None` disables window callbacks.
    fn window_insts(&self) -> Option<u64> {
        None
    }

    /// Fine-grained decision point. May only permute running threads
    /// (the parked set is an epoch-level decision). Default: stay.
    fn on_window(&mut self, _snap: &TopoSnapshot) -> TopoDecision {
        TopoDecision::Stay
    }

    /// Epoch decision point; may repark/unpark. Default: stay.
    fn on_epoch(&mut self, _snap: &TopoSnapshot) -> TopoDecision {
        TopoDecision::Stay
    }

    /// Predictor state behind the most recent decision.
    fn explain_last(&self) -> Option<DecisionExplain> {
        None
    }

    /// Reset internal state (new run).
    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traits(index: usize, fp: bool) -> CoreTraits {
        CoreTraits {
            index,
            fp_flavored: fp,
            frequency_ghz: 2.0,
            int_throughput: if fp { 2.0 } else { 5.0 },
            fp_throughput: if fp { 4.0 } else { 1.0 },
            dispatch_width: 2,
        }
    }

    #[test]
    fn baseline_is_valid_and_work_conserving() {
        for (cores, threads) in [(1, 1), (2, 2), (4, 2), (2, 5), (8, 16)] {
            let map = AssignmentMap::baseline(cores, threads);
            map.validate().expect("baseline must validate");
            assert_eq!(map.parked().len(), threads.saturating_sub(cores));
        }
    }

    #[test]
    fn swap_threads_keeps_tables_consistent() {
        let mut map = AssignmentMap::baseline(2, 4);
        map.swap_threads(0, 3); // running ↔ parked
        map.validate().expect("swap must stay valid");
        assert_eq!(map.core_of(3), Some(0));
        assert_eq!(map.core_of(0), None);
        assert_eq!(map.thread_on(0), Some(3));
        assert_eq!(map.parked(), vec![0, 2]);
    }

    #[test]
    fn pair_maps_place_thread_zero_by_the_swap_flag() {
        assert_eq!(AssignmentMap::pair(false), AssignmentMap::baseline(2, 2));
        let swapped = AssignmentMap::pair(true);
        swapped.validate().expect("swapped pair must validate");
        assert_eq!((swapped.core_of(0), swapped.core_of(1)), (Some(1), Some(0)));
        assert_eq!((swapped.thread_on(0), swapped.thread_on(1)), (Some(1), Some(0)));
    }

    #[test]
    fn work_conservation_violation_is_caught() {
        let mut map = AssignmentMap::baseline(2, 2);
        // Manually park thread 1 while core 1 idles.
        map.core_of[1] = None;
        map.thread_on[1] = None;
        assert!(map.validate().is_err());
    }

    #[test]
    fn moved_threads_and_parked_set() {
        let a = AssignmentMap::baseline(2, 3);
        let mut b = a.clone();
        b.swap_threads(0, 1);
        assert_eq!(b.moved_threads(&a), vec![0, 1]);
        assert!(b.same_parked_set(&a));
        let mut c = a.clone();
        c.swap_threads(0, 2);
        assert!(!c.same_parked_set(&a));
    }

    #[test]
    fn affinity_prefers_matching_flavor() {
        let fp = traits(0, true);
        let int = traits(1, false);
        assert!(fp.affinity(5.0, 40.0) > int.affinity(5.0, 40.0));
        assert!(int.affinity(70.0, 2.0) > fp.affinity(70.0, 2.0));
        assert!(int.int_bias() > 0.0 && fp.int_bias() < 0.0);
    }
}
