//! The scheduler zoo: the paper's policies on arbitrary N-core ×
//! M-thread topologies, plus the comparison policies from the related
//! work — Thread Progress Equalization (Turakhia et al.) and CAMP-style
//! speedup-factor-ranked placement (the AMP scheduling survey). The
//! paper's dual-core machine is the 2×2 case of the same code.
//!
//! All zoo members honor the [`TopoScheduler`] contracts: window
//! decisions only permute running threads, park/unpark changes happen at
//! epoch boundaries only, and every decision is a deterministic function
//! of the snapshot stream.

use crate::counters::ThreadWindow;
use crate::history::MajorityVote;
use crate::hpe::{HpePredictor, SwapEstimate};
use crate::rules::SwapRules;
use crate::scheduler::{DecisionExplain, PredictorSource};
use crate::topo::{AssignmentMap, CoreTraits, TopoDecision, TopoScheduler, TopoSnapshot};

/// A flavour-contrasted pair of occupied cores: core `fp` leans less
/// towards INT than core `int`, and both hold a thread whose window is
/// given. On the paper's machine the only such pair is (FP core, INT
/// core).
pub(crate) struct CorePair<'a> {
    /// Core in the FP role.
    pub fp: usize,
    /// Core in the INT role.
    pub int: usize,
    /// Window of the thread on the FP-role core.
    pub on_fp: &'a ThreadWindow,
    /// Window of the thread on the INT-role core.
    pub on_int: &'a ThreadWindow,
}

/// Every flavour-contrasted occupied core pair, in ascending
/// `(fp, int)` order.
pub(crate) fn contrasted_pairs(snap: &TopoSnapshot) -> impl Iterator<Item = CorePair<'_>> {
    let n = snap.cores.len();
    (0..n).flat_map(move |i| (0..n).map(move |j| (i, j))).filter_map(move |(i, j)| {
        if snap.cores[i].int_bias() >= snap.cores[j].int_bias() {
            return None;
        }
        Some(CorePair {
            fp: i,
            int: j,
            on_fp: &snap.on_core(i)?.window,
            on_int: &snap.on_core(j)?.window,
        })
    })
}

/// Exchange the threads on cores `a` and `b`.
pub(crate) fn swap_cores(snap: &TopoSnapshot, a: usize, b: usize) -> TopoDecision {
    let mut next = snap.assignment.clone();
    let (ta, tb) = (next.thread_on(a).unwrap(), next.thread_on(b).unwrap());
    next.swap_threads(ta, tb);
    TopoDecision::Reassign(next)
}

/// The history vote of Section VI-B over per-window tentative decisions,
/// each either a core pair to swap or "stay". The paper acts on "the
/// most frequent tentative decision" of the last n windows, so once a
/// majority says swap, the last pair voted for is swapped even when the
/// current window says stay — provided both its cores are still
/// occupied.
#[derive(Debug, Clone)]
pub(crate) struct PairVote {
    vote: MajorityVote,
    last: Option<(usize, usize)>,
}

impl PairVote {
    pub(crate) fn new(depth: usize) -> Self {
        PairVote { vote: MajorityVote::new(depth), last: None }
    }

    /// Record one window's tentative decision.
    pub(crate) fn push(&mut self, pair: Option<(usize, usize)>) {
        self.vote.push(pair.is_some());
        if pair.is_some() {
            self.last = pair;
        }
    }

    /// The pair to swap now, if the vote has a majority.
    pub(crate) fn majority_pair(&self, snap: &TopoSnapshot) -> Option<(usize, usize)> {
        let (a, b) = self.last.filter(|_| self.vote.majority())?;
        let occupied = |c| snap.assignment.thread_on(c).is_some();
        (occupied(a) && occupied(b)).then_some((a, b))
    }

    /// The vote tally for the audit trail.
    pub(crate) fn explain(&self, source: PredictorSource) -> DecisionExplain {
        DecisionExplain {
            votes_for: Some(self.vote.yes_votes() as u32),
            vote_depth: Some(self.vote.depth() as u32),
            ..DecisionExplain::from_source(source)
        }
    }

    /// Forget the history (after an executed swap the roles invert, so
    /// stale votes would swap straight back).
    pub(crate) fn clear(&mut self) {
        self.vote.clear();
        self.last = None;
    }
}

/// Rank cores by `key` descending, ties broken by ascending index so
/// rankings are deterministic for uniform topologies.
fn cores_ranked_by(cores: &[CoreTraits], key: impl Fn(&CoreTraits) -> f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cores.len()).collect();
    order.sort_by(|&a, &b| key(&cores[b]).total_cmp(&key(&cores[a])).then(a.cmp(&b)));
    order
}

/// Rank threads by `key` with the given direction, ties broken by
/// ascending thread id.
fn threads_ranked_by(
    count: usize,
    descending: bool,
    key: impl Fn(usize) -> f64,
) -> Vec<usize> {
    let mut order: Vec<usize> = (0..count).collect();
    order.sort_by(|&a, &b| {
        if descending {
            key(b).total_cmp(&key(a)).then(a.cmp(&b))
        } else {
            key(a).total_cmp(&key(b)).then(a.cmp(&b))
        }
    });
    order
}

/// Build the assignment that places `thread_order[i]` on `core_order[i]`
/// (leftover threads parked; leftover cores idle only when threads run
/// out).
fn place_ranked(cores: usize, threads: usize, thread_order: &[usize], core_order: &[usize]) -> AssignmentMap {
    let mut core_of = vec![None; threads];
    for (i, &t) in thread_order.iter().enumerate() {
        if i < core_order.len() {
            core_of[t] = Some(core_order[i]);
        }
    }
    AssignmentMap::from_core_of(cores, core_of)
}

/// Cyclic slot rotation: thread slots are cores `0..N` followed by park
/// slots; every thread advances one slot. On 2×2 this is the paper's
/// pair swap (pinned by `tests::rotation_cycles_all_threads_through_all_slots`).
pub(crate) fn rotate_slots(current: &AssignmentMap) -> AssignmentMap {
    let cores = current.cores();
    let threads = current.threads();
    let slots = cores.max(threads);
    // slot_of[s] = thread in slot s (park slots ranked by thread id).
    let mut slot_of: Vec<Option<usize>> = vec![None; slots];
    for t in 0..threads {
        match current.core_of(t) {
            Some(c) => slot_of[c] = Some(t),
            None => {
                // First free park slot (ascending thread id keeps this
                // deterministic).
                let s = (cores..slots).find(|&s| slot_of[s].is_none()).expect("park slot");
                slot_of[s] = Some(t);
            }
        }
    }
    let mut core_of = vec![None; threads];
    for (s, slot) in slot_of.iter().enumerate() {
        if let Some(t) = *slot {
            let next = (s + 1) % slots;
            if next < cores {
                core_of[t] = Some(next);
            }
        }
    }
    AssignmentMap::from_core_of(cores, core_of)
}

/// Static baseline: keep the OS's initial thread→core assignment forever.
#[derive(Debug, Clone, Copy, Default)]
pub struct TopoStatic;

impl TopoScheduler for TopoStatic {
    fn name(&self) -> &'static str {
        "static"
    }
}

/// Round Robin reference scheme: every `interval_epochs` OS epochs all
/// threads advance one slot through the cyclic core + park sequence,
/// giving each thread equal time on every core (and off-core when
/// oversubscribed). On the paper's machine this swaps the two threads;
/// Section VII evaluates intervals of 1 and 2 epochs and finds 1 better.
#[derive(Debug, Clone)]
pub struct TopoRoundRobin {
    interval_epochs: u32,
    epochs_seen: u32,
    decided: bool,
}

impl TopoRoundRobin {
    /// Rotate every `interval_epochs` OS epochs.
    ///
    /// # Panics
    /// Panics if `interval_epochs` is zero.
    pub fn new(interval_epochs: u32) -> Self {
        assert!(interval_epochs >= 1, "interval must be at least one epoch");
        TopoRoundRobin { interval_epochs, epochs_seen: 0, decided: false }
    }

    /// The paper's preferred cadence: rotate every epoch.
    pub fn every_epoch() -> Self {
        Self::new(1)
    }
}

impl TopoScheduler for TopoRoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn on_epoch(&mut self, snap: &TopoSnapshot) -> TopoDecision {
        self.epochs_seen += 1;
        self.decided = true;
        if self.epochs_seen.is_multiple_of(self.interval_epochs) {
            TopoDecision::Reassign(rotate_slots(&snap.assignment))
        } else {
            TopoDecision::Stay
        }
    }

    fn explain_last(&self) -> Option<DecisionExplain> {
        self.decided.then(|| DecisionExplain::from_source(PredictorSource::Interval))
    }

    fn reset(&mut self) {
        self.epochs_seen = 0;
        self.decided = false;
    }
}

/// Tunables of the proposed scheme (paper defaults: window 1000,
/// history 5 — the Figure 6 sensitivity optimum).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProposedConfig {
    /// Monitoring window in committed instructions *per thread*.
    pub window: u64,
    /// History depth n for the majority vote.
    pub history_depth: usize,
    /// Swap rule thresholds (Figure 5).
    pub rules: SwapRules,
    /// Fairness-swap interval in cycles (2 ms = 4,000,000 @ 2 GHz).
    pub fairness_interval_cycles: u64,
}

impl Default for ProposedConfig {
    fn default() -> Self {
        ProposedConfig {
            window: 1000,
            history_depth: 5,
            rules: SwapRules::default(),
            fairness_interval_cycles: 4_000_000,
        }
    }
}

/// The paper's proposed dynamic thread scheduling scheme (Section VI).
///
/// An online monitor samples the committed-instruction composition of
/// every thread each `window` instructions per thread. Per window, every
/// flavour-contrasted pair of occupied cores is tested against the
/// Figure 5 rules, and the first beneficial pair is the window's
/// tentative decision. A majority vote over the last `history_depth`
/// tentative decisions (Section VI-B) issues the actual swap. If no swap
/// has happened for a 2 ms epoch while a pair's threads have the same
/// flavor, a fairness swap is forced (step 3 of Figure 5).
/// Oversubscribed topologies rotate parked threads in at every epoch
/// (the step-3 fairness idea applied to the run queue).
#[derive(Debug, Clone)]
pub struct TopoProposed {
    cfg: ProposedConfig,
    threads: usize,
    vote: PairVote,
    last_swap_cycle: u64,
    last_explain: Option<DecisionExplain>,
}

impl TopoProposed {
    /// Build for a topology with `threads` threads.
    pub fn new(cfg: ProposedConfig, threads: usize) -> Self {
        TopoProposed {
            vote: PairVote::new(cfg.history_depth),
            cfg,
            threads,
            last_swap_cycle: 0,
            last_explain: None,
        }
    }

    /// Paper-default tunables.
    pub fn with_defaults(threads: usize) -> Self {
        Self::new(ProposedConfig::default(), threads)
    }

    /// First flavour-contrasted occupied core pair `(fp_role, int_role)`
    /// satisfying `test`.
    fn first_pair(
        snap: &TopoSnapshot,
        test: impl Fn(&ThreadWindow, &ThreadWindow) -> bool,
    ) -> Option<(usize, usize)> {
        contrasted_pairs(snap).find(|p| test(p.on_fp, p.on_int)).map(|p| (p.fp, p.int))
    }

    fn swap(&mut self, snap: &TopoSnapshot, (a, b): (usize, usize)) -> TopoDecision {
        self.vote.clear();
        self.last_swap_cycle = snap.cycle;
        swap_cores(snap, a, b)
    }
}

impl TopoScheduler for TopoProposed {
    fn name(&self) -> &'static str {
        "proposed"
    }

    fn window_insts(&self) -> Option<u64> {
        // `window` is per thread; the driver counts the sum.
        Some(self.cfg.window * self.threads as u64)
    }

    fn on_window(&mut self, snap: &TopoSnapshot) -> TopoDecision {
        // Step 2: tentative decision from the composition rules, filtered
        // through the history vote.
        let rules = self.cfg.rules;
        let beneficial = Self::first_pair(snap, |fp, int| rules.beneficial_swap(fp, int));
        ampsched_obs::counter!("sim.predictor.query.rules");
        self.vote.push(beneficial);
        // Capture the vote state at decision time (before a swap clears
        // the ring) for the audit trail.
        self.last_explain = Some(self.vote.explain(PredictorSource::Rules));
        if let Some(pair) = self.vote.majority_pair(snap) {
            return self.swap(snap, pair);
        }
        // Step 3: fairness swap for same-flavor pairs, at most once per
        // 2 ms without a swap.
        if snap.cycle.saturating_sub(self.last_swap_cycle) >= self.cfg.fairness_interval_cycles {
            if let Some(pair) = Self::first_pair(snap, |fp, int| rules.fairness_swap(fp, int)) {
                return self.swap(snap, pair);
            }
        }
        TopoDecision::Stay
    }

    fn on_epoch(&mut self, snap: &TopoSnapshot) -> TopoDecision {
        self.last_explain = Some(self.vote.explain(PredictorSource::Rules));
        if snap.assignment.parked().is_empty() {
            TopoDecision::Stay
        } else {
            // Run-queue fairness: rotate parked threads onto cores.
            TopoDecision::Reassign(rotate_slots(&snap.assignment))
        }
    }

    fn explain_last(&self) -> Option<DecisionExplain> {
        self.last_explain
    }

    fn reset(&mut self) {
        self.vote.clear();
        self.last_swap_cycle = 0;
        self.last_explain = None;
    }
}

/// The reference scheme: Hardware Monitoring and Prediction Engine (HPE)
/// of Srinivasan et al. \[8\], extended to flavored cores per Section V.
///
/// Every 2 ms OS epoch the scheme estimates, from each thread's observed
/// (%INT, %FP), the IPC/Watt it *would* achieve on the other core of a
/// flavour-contrasted pair, using either the binned ratio **matrix**
/// (Figure 3) or the fitted **regression surface** (Figure 4). The first
/// pair whose estimated weighted speedup exceeds 1.05 (a 5% predicted
/// gain) and whose swap is stable ([`TopoHpe::swap_is_stable`]) is
/// swapped. When no pair swaps and threads are parked, the parked
/// threads rotate in, as under [`TopoProposed`].
#[derive(Debug, Clone)]
pub struct TopoHpe {
    predictor: HpePredictor,
    /// Minimum estimated weighted speedup of the swapped configuration
    /// for a swap to be issued (paper: 1.05).
    pub threshold: f64,
    last_explain: Option<DecisionExplain>,
}

impl TopoHpe {
    /// Build with the paper's 1.05 threshold.
    pub fn new(predictor: HpePredictor) -> Self {
        TopoHpe { predictor, threshold: 1.05, last_explain: None }
    }

    /// Oscillation guard: is the swapped configuration *stable*?
    ///
    /// `(r + 1/r)/2 > 1` holds for any `r ≠ 1`, so for two threads of the
    /// *same* flavor the naive weighted estimate says "swap" in both
    /// directions forever — an artifact of extending the big/small-core
    /// HPE formula to flavored cores. Srinivasan et al.'s scheme assigns
    /// each thread to the core it is predicted to run best on (a
    /// ranking), so equal threads never oscillate. We keep the paper's
    /// weighted-speedup threshold but additionally require that, after
    /// the swap, swapping *back* would not also look beneficial. The
    /// guard queries the predictor afresh, so each swap-worthy estimate
    /// counts four predictor queries.
    pub fn swap_is_stable(&self, on_fp: &ThreadWindow, on_int: &ThreadWindow) -> bool {
        self.predictor.swap_estimate(on_fp, on_int).is_stable()
    }
}

impl TopoScheduler for TopoHpe {
    fn name(&self) -> &'static str {
        match self.predictor {
            HpePredictor::Matrix(_) => "hpe-matrix",
            HpePredictor::Surface(_) => "hpe-surface",
        }
    }

    fn on_epoch(&mut self, snap: &TopoSnapshot) -> TopoDecision {
        let (chosen, explain) = first_hpe_swap(&self.predictor, snap, self.threshold, |p, _| {
            self.swap_is_stable(p.on_fp, p.on_int)
        });
        self.last_explain =
            Some(explain.unwrap_or(DecisionExplain::from_source(self.predictor.source())));
        match chosen {
            Some((a, b)) => swap_cores(snap, a, b),
            None if !snap.assignment.parked().is_empty() => {
                TopoDecision::Reassign(rotate_slots(&snap.assignment))
            }
            None => TopoDecision::Stay,
        }
    }

    fn explain_last(&self) -> Option<DecisionExplain> {
        self.last_explain
    }

    fn reset(&mut self) {
        self.last_explain = None;
    }
}

/// HPE's pair test: the first flavour-contrasted core pair whose swap
/// estimate clears `threshold` and passes `stable`, with the explanation
/// of that estimate — or of the first pair tested when none does.
pub(crate) fn first_hpe_swap(
    predictor: &HpePredictor,
    snap: &TopoSnapshot,
    threshold: f64,
    stable: impl Fn(&CorePair, &SwapEstimate) -> bool,
) -> (Option<(usize, usize)>, Option<DecisionExplain>) {
    let source = predictor.source();
    let mut explain = None;
    for p in contrasted_pairs(snap) {
        let estimate = predictor.swap_estimate(p.on_fp, p.on_int);
        explain.get_or_insert(estimate.explain(source));
        if estimate.speedup > threshold && stable(&p, &estimate) {
            return (Some((p.fp, p.int)), Some(estimate.explain(source)));
        }
    }
    (None, explain)
}

/// Thread Progress Equalization (Turakhia et al.): at every epoch the
/// least-progressed threads get the strongest cores, equalizing progress
/// across the thread set; the most-progressed threads are the ones that
/// wait when the topology is oversubscribed.
#[derive(Debug, Clone, Default)]
pub struct TpeScheduler {
    decided: bool,
}

impl TpeScheduler {
    /// Build the progress equalizer.
    pub fn new() -> Self {
        TpeScheduler::default()
    }
}

impl TopoScheduler for TpeScheduler {
    fn name(&self) -> &'static str {
        "tpe"
    }

    fn on_epoch(&mut self, snap: &TopoSnapshot) -> TopoDecision {
        self.decided = true;
        // Ascending progress → descending core strength.
        let thread_order =
            threads_ranked_by(snap.threads.len(), false, |t| snap.threads[t].total_instructions as f64);
        let core_order = cores_ranked_by(&snap.cores, |c| c.strength());
        let next = place_ranked(snap.cores.len(), snap.threads.len(), &thread_order, &core_order);
        if next == snap.assignment {
            TopoDecision::Stay
        } else {
            TopoDecision::Reassign(next)
        }
    }

    fn explain_last(&self) -> Option<DecisionExplain> {
        self.decided.then(|| DecisionExplain::from_source(PredictorSource::Progress))
    }

    fn reset(&mut self) {
        self.decided = false;
    }
}

/// CAMP-style speedup-factor-ranked placement (AMP scheduling survey):
/// each thread's composition yields an affinity estimate per core
/// ([`CoreTraits::affinity`]); a greedy highest-affinity matching places
/// threads. `Static` computes the matching once from the first epoch's
/// observations and freezes it; `Dynamic` re-ranks every epoch.
#[derive(Debug, Clone)]
pub struct CampScheduler {
    dynamic: bool,
    /// Last observed composition per thread.
    last_mix: Vec<(f64, f64)>,
    frozen: Option<AssignmentMap>,
    last_explain: Option<DecisionExplain>,
}

impl CampScheduler {
    /// One-shot placement from the first epoch's observations.
    pub fn camp_static(threads: usize) -> Self {
        CampScheduler {
            dynamic: false,
            last_mix: vec![(0.0, 0.0); threads],
            frozen: None,
            last_explain: None,
        }
    }

    /// Re-ranked placement at every epoch.
    pub fn camp_dynamic(threads: usize) -> Self {
        CampScheduler {
            dynamic: true,
            last_mix: vec![(0.0, 0.0); threads],
            frozen: None,
            last_explain: None,
        }
    }

    /// Greedy highest-affinity matching: all `(thread, core)` pairs
    /// sorted by affinity descending (ties: thread id, then core index),
    /// taken while both sides are free.
    fn matching(&self, snap: &TopoSnapshot) -> AssignmentMap {
        let cores = snap.cores.len();
        let threads = self.last_mix.len();
        let mut pairs: Vec<(usize, usize)> = (0..threads)
            .flat_map(|t| (0..cores).map(move |c| (t, c)))
            .collect();
        let aff = |&(t, c): &(usize, usize)| {
            let (int_pct, fp_pct) = self.last_mix[t];
            snap.cores[c].affinity(int_pct, fp_pct)
        };
        pairs.sort_by(|a, b| aff(b).total_cmp(&aff(a)).then(a.cmp(b)));
        let mut core_of = vec![None; threads];
        let mut taken = vec![false; cores];
        let mut placed = 0usize;
        for (t, c) in pairs {
            if placed == threads.min(cores) {
                break;
            }
            if core_of[t].is_none() && !taken[c] {
                core_of[t] = Some(c);
                taken[c] = true;
                placed += 1;
            }
        }
        AssignmentMap::from_core_of(cores, core_of)
    }
}

impl TopoScheduler for CampScheduler {
    fn name(&self) -> &'static str {
        if self.dynamic {
            "camp-dynamic"
        } else {
            "camp-static"
        }
    }

    fn on_epoch(&mut self, snap: &TopoSnapshot) -> TopoDecision {
        for (t, obs) in snap.threads.iter().enumerate() {
            if obs.window.instructions > 0 {
                self.last_mix[t] = (obs.window.int_pct, obs.window.fp_pct);
            }
        }
        self.last_explain = Some(DecisionExplain::from_source(PredictorSource::Affinity));
        let target = if self.dynamic {
            self.matching(snap)
        } else {
            match &self.frozen {
                Some(map) => map.clone(),
                None => {
                    let map = self.matching(snap);
                    self.frozen = Some(map.clone());
                    map
                }
            }
        };
        if target == snap.assignment {
            TopoDecision::Stay
        } else {
            TopoDecision::Reassign(target)
        }
    }

    fn explain_last(&self) -> Option<DecisionExplain> {
        self.last_explain
    }

    fn reset(&mut self) {
        for m in &mut self.last_mix {
            *m = (0.0, 0.0);
        }
        self.frozen = None;
        self.last_explain = None;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hpe::tests::synthetic_points;
    use crate::hpe::RatioMatrix;
    use crate::topo::TopoThreadObs;

    fn traits(index: usize, fp: bool) -> CoreTraits {
        // The INT core is both INT-leaning and (slightly) stronger
        // overall, so strength- and bias-rankings are unambiguous.
        CoreTraits {
            index,
            fp_flavored: fp,
            frequency_ghz: 2.0,
            int_throughput: if fp { 2.0 } else { 6.0 },
            fp_throughput: if fp { 4.0 } else { 1.0 },
            dispatch_width: 2,
        }
    }

    fn obs(int_pct: f64, fp_pct: f64, insts: u64, total: u64, core: Option<usize>) -> TopoThreadObs {
        TopoThreadObs {
            window: ThreadWindow {
                int_pct,
                fp_pct,
                instructions: insts,
                cycles: 1000,
                joules: 1e-6,
                ..Default::default()
            },
            total_instructions: total,
            core,
        }
    }

    fn snapshot(cores: Vec<CoreTraits>, threads: Vec<TopoThreadObs>) -> TopoSnapshot {
        let map = AssignmentMap::baseline(cores.len(), threads.len());
        let threads = threads
            .into_iter()
            .enumerate()
            .map(|(t, mut o)| {
                o.core = map.core_of(t);
                o
            })
            .collect();
        TopoSnapshot { cycle: 50_000, assignment: map, cores, threads }
    }

    /// The paper's machine (core 0 FP, core 1 INT) in the baseline
    /// assignment, with the compositions of the threads on each core.
    pub(crate) fn duo(cycle: u64, fp_core_mix: (f64, f64), int_core_mix: (f64, f64)) -> TopoSnapshot {
        let cores = vec![traits(0, true), traits(1, false)];
        let threads = vec![
            obs(fp_core_mix.0, fp_core_mix.1, 1000, 0, None),
            obs(int_core_mix.0, int_core_mix.1, 1000, 0, None),
        ];
        TopoSnapshot { cycle, ..snapshot(cores, threads) }
    }

    fn hpe_matrix() -> TopoHpe {
        TopoHpe::new(HpePredictor::Matrix(RatioMatrix::from_points(&synthetic_points())))
    }

    fn swaps(d: &TopoDecision) -> bool {
        *d == TopoDecision::Reassign(AssignmentMap::pair(true))
    }

    #[test]
    fn proposed_needs_history_depth_consistent_windows_to_swap() {
        let mut s = TopoProposed::with_defaults(2);
        // INT-heavy thread stuck on FP core, idle INT core: swap-worthy.
        for i in 0..4 {
            assert_eq!(
                s.on_window(&duo(i * 1000, (60.0, 1.0), (20.0, 1.0))),
                TopoDecision::Stay,
                "vote must not fire before the ring fills"
            );
        }
        assert!(swaps(&s.on_window(&duo(5000, (60.0, 1.0), (20.0, 1.0)))));
    }

    #[test]
    fn proposed_acts_on_the_most_frequent_tentative_decision() {
        // Ring y,y,y,n,n: the current window says stay, but three of the
        // last five said swap, so the scheme swaps (Section VI-B).
        let mut s = TopoProposed::with_defaults(2);
        let want = (60.0, 1.0);
        let neutral = (30.0, 10.0);
        for (i, mix) in [want, want, want, neutral].into_iter().enumerate() {
            assert_eq!(s.on_window(&duo(i as u64 * 1000, mix, (20.0, 1.0))), TopoDecision::Stay);
        }
        assert!(swaps(&s.on_window(&duo(4000, neutral, (20.0, 1.0)))));
        assert_eq!(s.explain_last().and_then(|e| e.votes_for), Some(3));
    }

    #[test]
    fn proposed_rechecks_the_remembered_pair_before_swapping() {
        // FP core 0, INT cores 1 and 2, two threads. Three windows vote
        // to swap cores (0, 1); then thread 1 sits on core 2 and core 1
        // is idle, so the remembered pair can no longer swap.
        let cores = vec![traits(0, true), traits(1, false), traits(2, false)];
        let mut s = TopoProposed::with_defaults(2);
        let voting = TopoSnapshot {
            cycle: 0,
            ..snapshot(cores.clone(), vec![obs(60.0, 1.0, 1000, 0, None), obs(20.0, 1.0, 1000, 0, None)])
        };
        for _ in 0..3 {
            assert_eq!(s.on_window(&voting), TopoDecision::Stay);
        }
        let mut moved = snapshot(cores, vec![obs(30.0, 10.0, 1000, 0, None), obs(30.0, 10.0, 1000, 0, None)]);
        moved.cycle = 0;
        moved.assignment = AssignmentMap::from_core_of(3, vec![Some(0), Some(2)]);
        assert_eq!(s.on_window(&moved), TopoDecision::Stay);
        assert_eq!(s.on_window(&moved), TopoDecision::Stay);
        assert_eq!(s.explain_last().and_then(|e| e.votes_for), Some(3), "the majority stands");
    }

    #[test]
    fn proposed_filters_transient_phase_blips() {
        let mut s = TopoProposed::with_defaults(2);
        // Mostly neutral windows with occasional swap-worthy blips:
        // a 2-in-5 pattern must never reach a majority.
        for i in 0..50u64 {
            let mix = if i % 5 < 2 { (60.0, 1.0) } else { (30.0, 10.0) };
            assert_eq!(s.on_window(&duo(i * 1000, mix, (20.0, 1.0))), TopoDecision::Stay);
        }
    }

    #[test]
    fn proposed_fairness_swap_waits_out_the_interval() {
        let mut s = TopoProposed::with_defaults(2);
        // Both threads INT-heavy: the beneficial rule can never fire.
        let fired_at = (0..6000u64)
            .map(|i| i * 1000)
            .find(|&cycle| swaps(&s.on_window(&duo(cycle, (60.0, 1.0), (65.0, 1.0)))))
            .expect("fairness swap must eventually fire");
        assert!(fired_at >= 4_000_000, "fairness must respect the 2 ms interval, fired at {fired_at}");
    }

    #[test]
    fn proposed_leaves_well_placed_complementary_pairs_alone() {
        let mut s = TopoProposed::with_defaults(2);
        for i in 0..10_000u64 {
            let d = s.on_window(&duo(i * 1000, (10.0, 30.0), (60.0, 1.0)));
            assert_eq!(d, TopoDecision::Stay);
        }
    }

    #[test]
    fn proposed_follows_the_swapped_assignment() {
        let mut s = TopoProposed::with_defaults(2);
        // Thread 1 is INT-heavy and now on the FP core; thread 0 on the
        // INT core is idle: swap-worthy.
        let mut snap = duo(0, (20.0, 1.0), (60.0, 1.0));
        snap.assignment = AssignmentMap::pair(true);
        let mut decision = TopoDecision::Stay;
        for i in 0..5 {
            snap.cycle = i * 1000;
            decision = s.on_window(&snap);
        }
        assert_eq!(decision, TopoDecision::Reassign(AssignmentMap::pair(false)));
    }

    #[test]
    fn proposed_explains_the_vote_at_decision_time() {
        let mut s = TopoProposed::with_defaults(2);
        assert!(s.explain_last().is_none());
        let _ = s.on_window(&duo(0, (60.0, 1.0), (20.0, 1.0)));
        let e = s.explain_last().expect("explained after a decision");
        assert_eq!(e.source, PredictorSource::Rules);
        assert_eq!((e.votes_for, e.vote_depth), (Some(1), Some(5)));
        // The swap clears the vote ring, but the explanation keeps the
        // pre-clear tally.
        for i in 1..5 {
            let _ = s.on_window(&duo(i * 1000, (60.0, 1.0), (20.0, 1.0)));
        }
        assert_eq!(s.explain_last().and_then(|e| e.votes_for), Some(5));
        s.reset();
        assert!(s.explain_last().is_none());
    }

    #[test]
    fn hpe_swaps_misplaced_complementary_pair() {
        let mut hpe = hpe_matrix();
        // INT-heavy thread on FP core, FP-heavy thread on INT core.
        assert!(swaps(&hpe.on_epoch(&duo(0, (80.0, 2.0), (5.0, 60.0)))));
        let e = hpe.explain_last().expect("explained after a decision");
        assert_eq!(e.source, PredictorSource::Matrix);
        assert!(e.predicted_speedup.unwrap() > 1.05);
        assert!(e.ratio_on_fp.unwrap() > 1.0 && e.ratio_on_int.unwrap() < 1.0);
        hpe.reset();
        assert!(hpe.explain_last().is_none());
    }

    #[test]
    fn hpe_keeps_well_placed_pair_and_blocks_marginal_swaps() {
        let mut hpe = hpe_matrix();
        assert_eq!(hpe.on_epoch(&duo(0, (5.0, 60.0), (80.0, 2.0))), TopoDecision::Stay);
        // Neutral compositions: predicted speedup ≈ (r + 1/r)/2 ≈ 1.
        let mut surface = TopoHpe::new(HpePredictor::Surface(crate::RatioSurface::from_points(
            &synthetic_points(),
        )));
        assert_eq!(surface.on_epoch(&duo(0, (40.0, 10.0), (40.0, 10.0))), TopoDecision::Stay);
    }

    #[test]
    fn hpe_same_flavor_pairs_do_not_oscillate() {
        // Two INT-heavy threads: the naive weighted estimate is > 1.05 in
        // both directions; the stability guard must block the swap.
        let mut hpe = hpe_matrix();
        let same_flavor = duo(0, (75.0, 1.0), (70.0, 2.0));
        for _ in 0..10 {
            assert_eq!(hpe.on_epoch(&same_flavor), TopoDecision::Stay);
        }
        assert!(hpe.explain_last().unwrap().predicted_speedup.unwrap() > 1.05);
    }

    #[test]
    fn hpe_swaps_the_first_misplaced_pair_of_a_larger_machine() {
        // FP, INT, FP, INT cores: threads 2 (INT-heavy, on FP core 2)
        // and 3 (FP-heavy, on INT core 3) are misplaced; 0 and 1 are not.
        let cores = vec![traits(0, true), traits(1, false), traits(2, true), traits(3, false)];
        let snap = snapshot(
            cores,
            vec![
                obs(5.0, 60.0, 1000, 0, None),
                obs(80.0, 2.0, 1000, 0, None),
                obs(80.0, 2.0, 1000, 0, None),
                obs(5.0, 60.0, 1000, 0, None),
            ],
        );
        let mut hpe = hpe_matrix();
        let TopoDecision::Reassign(next) = hpe.on_epoch(&snap) else {
            panic!("a misplaced pair must swap")
        };
        assert_eq!(next.moved_threads(&snap.assignment), vec![2, 3]);
    }

    #[test]
    fn rotation_cycles_all_threads_through_all_slots() {
        // 2 cores × 3 threads: every thread must visit both cores and the
        // park slot over 3 rotations, returning to start.
        let start = AssignmentMap::baseline(2, 3);
        let mut cur = start.clone();
        for _ in 0..3 {
            cur = rotate_slots(&cur);
            cur.validate().expect("rotation must stay valid");
        }
        assert_eq!(cur, start);
        // 2×2 degenerates to the pair swap.
        assert_eq!(rotate_slots(&AssignmentMap::pair(false)), AssignmentMap::pair(true));
    }

    #[test]
    fn tpe_gives_strongest_core_to_laggard() {
        let cores = vec![traits(0, true), traits(1, false)];
        // Thread 0 lags far behind thread 1 but sits on the weaker
        // (FP) core; TPE must move it to the stronger INT core.
        let snap = snapshot(
            cores,
            vec![obs(50.0, 5.0, 1000, 100_000, None), obs(50.0, 5.0, 1000, 900_000, None)],
        );
        let mut tpe = TpeScheduler::new();
        match tpe.on_epoch(&snap) {
            TopoDecision::Reassign(next) => {
                // INT core (index 1) is the stronger core here.
                assert_eq!(next.core_of(0), Some(1), "laggard gets the strongest core");
            }
            TopoDecision::Stay => panic!("laggard placement must change"),
        }
        assert_eq!(
            tpe.explain_last().map(|e| e.source),
            Some(PredictorSource::Progress)
        );
    }

    #[test]
    fn tpe_parks_most_progressed_when_oversubscribed() {
        let cores = vec![traits(0, true), traits(1, false)];
        let snap = snapshot(
            cores,
            vec![
                obs(50.0, 5.0, 1000, 900_000, None),
                obs(50.0, 5.0, 1000, 100_000, None),
                obs(50.0, 5.0, 1000, 500_000, None),
            ],
        );
        let mut tpe = TpeScheduler::new();
        match tpe.on_epoch(&snap) {
            TopoDecision::Reassign(next) => {
                assert_eq!(next.parked(), vec![0], "most-progressed thread waits");
                assert_eq!(next.core_of(1), Some(1), "laggard gets the strongest core");
            }
            TopoDecision::Stay => panic!("placement must change"),
        }
    }

    #[test]
    fn camp_dynamic_separates_flavors() {
        let cores = vec![traits(0, true), traits(1, false)];
        // Thread 0 (INT-heavy) starts on the FP core and vice versa.
        let snap = snapshot(cores, vec![obs(80.0, 1.0, 1000, 0, None), obs(5.0, 60.0, 1000, 0, None)]);
        let mut camp = CampScheduler::camp_dynamic(2);
        match camp.on_epoch(&snap) {
            TopoDecision::Reassign(next) => {
                assert_eq!(next.core_of(0), Some(1), "INT-heavy thread → INT core");
                assert_eq!(next.core_of(1), Some(0), "FP-heavy thread → FP core");
            }
            TopoDecision::Stay => panic!("misplaced flavors must be corrected"),
        }
    }

    #[test]
    fn camp_static_freezes_its_first_matching() {
        let cores = vec![traits(0, true), traits(1, false)];
        let first = snapshot(cores.clone(), vec![obs(80.0, 1.0, 1000, 0, None), obs(5.0, 60.0, 1000, 0, None)]);
        let mut camp = CampScheduler::camp_static(2);
        let TopoDecision::Reassign(placed) = camp.on_epoch(&first) else {
            panic!("first epoch must place")
        };
        // Later epochs see inverted compositions, but the matching stays.
        let mut second = snapshot(cores, vec![obs(5.0, 60.0, 1000, 0, None), obs(80.0, 1.0, 1000, 0, None)]);
        second.assignment = placed.clone();
        for (t, o) in second.threads.iter_mut().enumerate() {
            o.core = placed.core_of(t);
        }
        assert_eq!(camp.on_epoch(&second), TopoDecision::Stay);
    }

    #[test]
    fn topo_proposed_swaps_misplaced_pair_after_vote_fills() {
        let cores = vec![traits(0, true), traits(1, false)];
        let mut sched = TopoProposed::with_defaults(2);
        assert_eq!(sched.window_insts(), Some(2000));
        // INT-heavy on the FP core, FP-heavy on the INT core.
        let snap = snapshot(cores, vec![obs(80.0, 1.0, 1000, 0, None), obs(5.0, 60.0, 1000, 0, None)]);
        let mut swapped = None;
        for _ in 0..5 {
            if let TopoDecision::Reassign(next) = sched.on_window(&snap) {
                swapped = Some(next);
                break;
            }
        }
        let next = swapped.expect("vote must fill and trigger the swap");
        assert_eq!(next.core_of(0), Some(1));
        assert_eq!(next.core_of(1), Some(0));
        assert!(next.same_parked_set(&snap.assignment), "window decisions must not repark");
    }

    #[test]
    fn topo_round_robin_rotates_every_epoch() {
        let cores = vec![traits(0, true), traits(1, false)];
        let snap = snapshot(cores, vec![obs(50.0, 5.0, 1000, 0, None), obs(50.0, 5.0, 1000, 0, None)]);
        let mut rr = TopoRoundRobin::every_epoch();
        match rr.on_epoch(&snap) {
            TopoDecision::Reassign(next) => assert_eq!(next, AssignmentMap::pair(true)),
            TopoDecision::Stay => panic!("RR must rotate"),
        }
        let mut rr2 = TopoRoundRobin::new(2);
        assert_eq!(rr2.on_epoch(&snap), TopoDecision::Stay);
        assert!(matches!(rr2.on_epoch(&snap), TopoDecision::Reassign(_)));
        // Reset restarts the period.
        let _ = rr2.on_epoch(&snap);
        rr2.reset();
        assert_eq!(rr2.on_epoch(&snap), TopoDecision::Stay);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn topo_round_robin_rejects_a_zero_interval() {
        TopoRoundRobin::new(0);
    }

    #[test]
    fn static_never_moves() {
        let cores = vec![traits(0, true), traits(1, false)];
        let snap = snapshot(cores, vec![obs(80.0, 1.0, 1000, 0, None), obs(5.0, 60.0, 1000, 0, None)]);
        let mut s = TopoStatic;
        assert_eq!(s.window_insts(), None);
        assert_eq!(s.on_window(&snap), TopoDecision::Stay);
        assert_eq!(s.on_epoch(&snap), TopoDecision::Stay);
        assert_eq!(s.explain_last(), None);
    }
}
