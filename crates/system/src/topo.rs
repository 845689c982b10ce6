//! The generalized N-core × M-thread asymmetric multicore.
//!
//! [`Topology`] describes an arbitrary machine shape — any mix of
//! [`CoreConfig`]s sharing one L2, co-running any number of threads —
//! and [`MulticoreSystem`] is the scheduling loop over it: a joint
//! skip over the cycles every occupied core has certified quiescent
//! ([`Core::quiet_until`]), committed-instruction monitoring windows, OS
//! epochs, and per-assignment migration costs (each reassignment
//! flushes + stalls exactly the cores whose occupant changed).
//!
//! One loop runs one or several schedulers ("lanes") from the same cold
//! machine ([`MulticoreSystem::run_lanes`]; [`MulticoreSystem::run`] is
//! the one-lane case). Lanes share the machine while their decisions
//! agree and fork onto a clone of it where they differ, keeping their
//! own energy books and decision records, so each lane's result is
//! bit-identical to its isolated run.
//!
//! The paper's fixed shapes are thin constructors over this machine:
//! [`DualCoreSystem`](crate::DualCoreSystem) is `Topology::duo()` driven
//! by the same schedulers, and its byte-for-byte behavior is locked
//! by the compatibility and differential suites: arithmetic order,
//! counter cadence, and profiler cadence of the loop below are pinned
//! by the golden reports and telemetry streams.

use ampsched_core::{
    AssignmentMap, CoreTraits, DecisionExplain, TopoDecision, TopoScheduler, TopoSnapshot,
    TopoThreadObs, ThreadWindow,
};
use ampsched_cpu::{ActivityCounters, Core, CoreConfig, CoreFlavor};
use ampsched_isa::{MixCounts, OpClass};
use ampsched_mem::MemSystem;
use ampsched_metrics::ThreadMetrics;
use ampsched_power::{EnergyAccount, EnergyModel};
use ampsched_trace::Workload;

use crate::duo::SystemConfig;

/// An arbitrary machine shape: heterogeneous cores over a shared L2,
/// co-running `threads` software threads.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Per-core microarchitectural configurations, by core index.
    pub cores: Vec<CoreConfig>,
    /// Number of software threads (may exceed the core count; the
    /// overflow is parked and scheduled in by epoch decisions).
    pub threads: usize,
}

impl Topology {
    /// Build and validate an explicit shape.
    pub fn new(cores: Vec<CoreConfig>, threads: usize) -> Self {
        let topo = Topology { cores, threads };
        topo.validate();
        topo
    }

    /// The paper's dual-core AMP: FP core 0, INT core 1, two threads.
    pub fn duo() -> Self {
        Topology::new(vec![CoreConfig::fp_core(), CoreConfig::int_core()], 2)
    }

    /// One core, one thread (the Figure 1 substrate).
    pub fn single(core: CoreConfig) -> Self {
        Topology::new(vec![core], 1)
    }

    /// big.LITTLE-style shape: `fp` FP-flavored cores then `int`
    /// INT-flavored cores, co-running `threads` threads.
    pub fn big_little(fp: usize, int: usize, threads: usize) -> Self {
        let mut cores = Vec::with_capacity(fp + int);
        cores.extend(std::iter::repeat_n(CoreConfig::fp_core(), fp));
        cores.extend(std::iter::repeat_n(CoreConfig::int_core(), int));
        Topology::new(cores, threads)
    }

    /// Sanity-check the shape (panics on a nonsensical topology, matching
    /// [`CoreConfig::validate`]'s contract).
    pub fn validate(&self) {
        assert!(!self.cores.is_empty(), "topology needs at least one core");
        assert!(self.cores.len() <= 64, "at most 64 cores supported");
        assert!(self.threads >= 1, "topology needs at least one thread");
        assert!(self.threads <= 1024, "at most 1024 threads supported");
        for c in &self.cores {
            c.validate();
        }
    }

    /// Short label for reports, e.g. `2fp+2int-4t`.
    pub fn label(&self) -> String {
        let fp = self.cores.iter().filter(|c| c.flavor == CoreFlavor::Fp).count();
        let int = self.cores.len() - fp;
        format!("{fp}fp+{int}int-{}t", self.threads)
    }

    /// Capability descriptors the scheduler zoo ranks against.
    pub fn traits(&self) -> Vec<CoreTraits> {
        self.cores.iter().enumerate().map(|(i, c)| derive_traits(i, c)).collect()
    }
}

/// Derive the scheduler-visible capability descriptor of one core from
/// its microarchitectural configuration.
pub fn derive_traits(index: usize, cfg: &CoreConfig) -> CoreTraits {
    CoreTraits {
        index,
        fp_flavored: cfg.flavor == CoreFlavor::Fp,
        frequency_ghz: cfg.frequency_ghz,
        int_throughput: cfg.fu_for(OpClass::IntAlu).peak_throughput()
            + cfg.fu_for(OpClass::IntMul).peak_throughput(),
        fp_throughput: cfg.fu_for(OpClass::FpAlu).peak_throughput()
            + cfg.fu_for(OpClass::FpMul).peak_throughput(),
        dispatch_width: cfg.dispatch_width,
    }
}

/// Which kind of decision point produced a [`TopoDecisionRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Fine-grained monitoring-window callback.
    Window,
    /// OS context-switch epoch callback.
    Epoch,
}

/// Observed per-thread counters over the period a decision was based on
/// (the scheduler's inputs, indexed by thread id).
///
/// Ratios are guarded: a zero-cycle or zero-energy period reports `0.0`
/// rather than NaN so records stay `PartialEq`-comparable in the
/// differential suites.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TopoDecisionThread {
    /// Percentage of committed instructions that were INT ops.
    pub int_pct: f64,
    /// Percentage of committed instructions that were FP ops.
    pub fp_pct: f64,
    /// Instructions the thread committed in the period.
    pub instructions: u64,
    /// Observed IPC over the period.
    pub ipc: f64,
    /// Observed IPC/Watt over the period.
    pub ipc_per_watt: f64,
    /// Core the thread occupied when the decision fired (`None` =
    /// parked) — the decision audit trail's assignment dimension.
    pub core: Option<usize>,
}

/// One scheduler decision point: when it fired, what it chose, and the
/// full audit trail of why — the predictor's inputs
/// ([`TopoDecisionThread`]), its outputs ([`DecisionExplain`]), where
/// every thread sat after the decision and which threads migrated, the
/// cost charged, and the post-hoc attribution filled in at end of run.
///
/// The differential harness compares whole records with `PartialEq`, so
/// the fast and reference kernels must agree on every individual choice
/// and every predictor output, not just on totals.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoDecisionRecord {
    /// Cycle at which the decision point fired.
    pub cycle: u64,
    /// Window or epoch boundary.
    pub kind: DecisionKind,
    /// Whether the scheduler changed the assignment.
    pub changed: bool,
    /// Threads whose core changed (including park↔run), ascending.
    pub migrated: Vec<usize>,
    /// Thread→core table after the decision (`None` = parked).
    pub assignment: Vec<Option<usize>>,
    /// Observed per-thread counters over the decision period.
    pub threads: Vec<TopoDecisionThread>,
    /// Predictor state behind the decision.
    pub explain: Option<DecisionExplain>,
    /// Cycles charged per migrated core (0 when nothing moved).
    pub swap_cost_cycles: u64,
    /// Post-hoc: mean per-thread IPC/Watt ratio of the following period
    /// over this one (`None` where undefined).
    pub realized_speedup: Option<f64>,
    /// Post-hoc: predicted minus realized speedup for reassignments
    /// whose scheme published a prediction.
    pub mispredict: Option<f64>,
    /// Post-hoc: the oracle's post-decision thread→core table at the
    /// same epoch decision point (`None` outside regret attribution and
    /// on window records; see [`attribute_regret`]).
    pub oracle_action: Option<Vec<Option<usize>>>,
    /// Post-hoc: the oracle's epoch IPC/Watt value minus this run's —
    /// how much the scheduler left on the table at this decision
    /// (`None` where unattributed; never NaN).
    pub regret: Option<f64>,
}

/// Outcome of one generalized multiprogrammed run.
#[derive(Debug, Clone)]
pub struct TopoRunResult {
    /// Scheduler name the run used.
    pub scheduler: String,
    /// Total cycles simulated by this call.
    pub cycles: u64,
    /// Per-thread metrics, by thread id.
    pub threads: Vec<ThreadMetrics>,
    /// Reassignment events performed in this call.
    pub swaps: u64,
    /// Individual thread migrations in this call (one reassignment can
    /// move several threads).
    pub migrations: u64,
    /// Window decision points evaluated in this call.
    pub window_decisions: u64,
    /// Epoch decision points evaluated in this call.
    pub epoch_decisions: u64,
    /// Every decision point in order.
    pub decisions: Vec<TopoDecisionRecord>,
}

impl TopoRunResult {
    /// Per-thread IPC/Watt values, by thread id.
    pub fn ipc_per_watt(&self) -> Vec<f64> {
        self.threads.iter().map(|t| t.ipc_per_watt()).collect()
    }

    /// Sum of per-thread IPC values (system throughput).
    pub fn total_ipc(&self) -> f64 {
        self.threads.iter().map(|t| t.ipc()).sum()
    }

    /// Fraction of all decision points, window and epoch, that
    /// reassigned threads.
    pub fn swap_rate(&self) -> f64 {
        let points = self.window_decisions + self.epoch_decisions;
        if points == 0 {
            0.0
        } else {
            self.swaps as f64 / points as f64
        }
    }
}

/// Baseline of one accounting period (window or epoch).
#[derive(Debug, Clone)]
struct PeriodBase {
    cycle: u64,
    /// Per-thread committed instructions at period start.
    insts: Vec<u64>,
    /// Per-thread attributed joules at period start.
    joules: Vec<f64>,
    /// Per-core cumulative committed mixes at period start.
    mix: Vec<MixCounts>,
}

/// What every lane over one shape reads but never changes.
struct Spec {
    cfg: SystemConfig,
    traits: Vec<CoreTraits>,
    /// Unit conversions use core 0's clock (the whole topology runs one
    /// clock domain, as in the paper).
    frequency_hz: f64,
    /// The topology's label: the machine pipeline samples are filed
    /// under.
    label: String,
}

impl Spec {
    fn new(cfg: SystemConfig, topology: &Topology) -> Self {
        topology.validate();
        Spec {
            cfg,
            traits: topology.traits(),
            frequency_hz: topology.cores[0].frequency_ghz * 1e9,
            label: topology.label(),
        }
    }
}

/// The state lanes share while their decisions agree: cores, memory,
/// assignment, clock and every thread's progress. A clone is the fork
/// point of lanes that diverge.
#[derive(Clone)]
struct Machine {
    cores: Vec<Core>,
    mem: MemSystem,
    assignment: AssignmentMap,
    cycle: u64,
    thread_insts: Vec<u64>,
    /// Ops each thread's workload has handed out: the stream position a
    /// forked lane moves its own workloads to.
    pulled: Vec<u64>,
}

impl Machine {
    /// A cold machine of `topology` on the OS baseline assignment.
    fn new(cfg: &SystemConfig, topology: &Topology) -> Self {
        Machine {
            cores: topology
                .cores
                .iter()
                .enumerate()
                .map(|(i, c)| Core::new(c.clone(), i))
                .collect(),
            mem: MemSystem::new(cfg.mem, topology.cores.len()),
            assignment: AssignmentMap::baseline(topology.cores.len(), topology.threads),
            cycle: 0,
            thread_insts: vec![0; topology.threads],
            pulled: vec![0; topology.threads],
        }
    }

    fn period_base(&self, books: &Books) -> PeriodBase {
        PeriodBase {
            cycle: self.cycle,
            insts: self.thread_insts.clone(),
            joules: books.thread_joules.clone(),
            mix: self.cores.iter().map(|c| c.stats.committed).collect(),
        }
    }

    /// Build a lane's decision-point snapshot for the period since
    /// `base`. The lane's energy must be settled first. The assignment is
    /// constant within a period (every reassignment re-bases both
    /// periods), so each running thread's mix window reads the core it
    /// currently occupies.
    fn snapshot(&self, spec: &Spec, books: &Books, base: &PeriodBase) -> TopoSnapshot {
        let threads = (0..self.thread_insts.len())
            .map(|t| {
                let window = match self.assignment.core_of(t) {
                    Some(c) => {
                        let mix = self.cores[c].stats.committed.since(&base.mix[c]);
                        ThreadWindow {
                            int_pct: mix.int_pct(),
                            fp_pct: mix.fp_pct(),
                            mem_pct: mix.mem_pct(),
                            branch_pct: mix.branch_pct(),
                            instructions: self.thread_insts[t] - base.insts[t],
                            cycles: self.cycle - base.cycle,
                            joules: books.thread_joules[t] - base.joules[t],
                        }
                    }
                    // Parked the whole period: no committed mix, no core
                    // energy; the window spans the period regardless.
                    None => ThreadWindow {
                        cycles: self.cycle - base.cycle,
                        ..ThreadWindow::default()
                    },
                };
                TopoThreadObs {
                    window,
                    total_instructions: self.thread_insts[t],
                    core: self.assignment.core_of(t),
                }
            })
            .collect();
        TopoSnapshot {
            cycle: self.cycle,
            assignment: self.assignment.clone(),
            cores: spec.traits.clone(),
            threads,
        }
    }

    /// The audit-trail record of one decision point that kept the
    /// assignment; [`Run::commit`] fills in a reassignment.
    fn decision_record(
        &self,
        spec: &Spec,
        kind: DecisionKind,
        snap: &TopoSnapshot,
        explain: Option<DecisionExplain>,
    ) -> TopoDecisionRecord {
        let threads = snap
            .threads
            .iter()
            .map(|obs| {
                let w = &obs.window;
                let ipc = if w.cycles > 0 {
                    w.instructions as f64 / w.cycles as f64
                } else {
                    0.0
                };
                // Same formula as ThreadMetrics::ipc_per_watt —
                // (insts/cycles) / (joules·f/cycles) = insts / (f·joules).
                let denom = spec.frequency_hz * w.joules;
                let ipc_per_watt = if w.cycles > 0 && denom > 0.0 {
                    w.instructions as f64 / denom
                } else {
                    0.0
                };
                TopoDecisionThread {
                    int_pct: w.int_pct,
                    fp_pct: w.fp_pct,
                    instructions: w.instructions,
                    ipc,
                    ipc_per_watt,
                    core: obs.core,
                }
            })
            .collect();
        TopoDecisionRecord {
            cycle: self.cycle,
            kind,
            changed: false,
            migrated: Vec::new(),
            assignment: self.table(),
            threads,
            explain,
            swap_cost_cycles: 0,
            realized_speedup: None,
            mispredict: None,
            oracle_action: None,
            regret: None,
        }
    }

    /// Thread→core table of the current assignment (`None` = parked).
    fn table(&self) -> Vec<Option<usize>> {
        (0..self.thread_insts.len()).map(|t| self.assignment.core_of(t)).collect()
    }

    /// Adopt `next`, charging the per-assignment migration cost: every
    /// core whose occupant changed is flushed and stalled for the swap
    /// overhead (and optionally loses its L1). Cores untouched by the
    /// reassignment keep running undisturbed.
    fn reassign(&mut self, next: AssignmentMap, cfg: &SystemConfig) {
        let mut affected: Vec<usize> = next
            .moved_threads(&self.assignment)
            .iter()
            .flat_map(|&t| [self.assignment.core_of(t), next.core_of(t)])
            .flatten()
            .collect();
        affected.sort_unstable();
        affected.dedup();
        for &c in &affected {
            self.cores[c].flush_pipeline();
            self.cores[c].stall_until(self.cycle + cfg.swap_overhead_cycles);
        }
        if cfg.flush_l1_on_swap {
            for &c in &affected {
                self.mem.flush_core_l1s(c);
            }
        }
        self.assignment = next;
    }
}

/// One scheduler's energy and reassignment books.
struct Books {
    energy: Vec<EnergyAccount>,
    /// Per-core activity not yet settled into this lane's joules. Lanes
    /// sharing a machine each receive all of its activity; the counts
    /// are integers, so a lane settles exactly what its core would have
    /// accumulated in an isolated run.
    activity: Vec<ActivityCounters>,
    thread_joules: Vec<f64>,
    /// Joules accounted on cores with no occupant (always 0 with the
    /// current energy model — idle cores are never ticked — but kept so
    /// conservation checks would catch a model change).
    unattributed_joules: f64,
    swaps: u64,
    migrations: u64,
}

impl Books {
    fn new(cfg: &SystemConfig, topology: &Topology) -> Self {
        Books {
            energy: topology
                .cores
                .iter()
                .map(|c| EnergyAccount::new(EnergyModel::new(c, &cfg.mem)))
                .collect(),
            activity: vec![ActivityCounters::default(); topology.cores.len()],
            thread_joules: vec![0.0; topology.threads],
            unattributed_joules: 0.0,
            swaps: 0,
            migrations: 0,
        }
    }

    /// Convert outstanding activity into joules attributed under
    /// `assignment`. Must precede reading `thread_joules` or migrating.
    fn settle(&mut self, assignment: &AssignmentMap) {
        for (c, (act, energy)) in self.activity.iter_mut().zip(&mut self.energy).enumerate() {
            let j = energy.account(&act.take());
            match assignment.thread_on(c) {
                Some(t) => self.thread_joules[t] += j,
                None => self.unattributed_joules += j,
            }
        }
    }
}

/// One scheduler of a run and its per-run bookkeeping.
struct LaneRun<'a> {
    sched: &'a mut dyn TopoScheduler,
    books: &'a mut Books,
    window: Option<u64>,
    window_base: PeriodBase,
    epoch_base: PeriodBase,
    decisions: Vec<TopoDecisionRecord>,
    start_joules: Vec<f64>,
    start_swaps: u64,
    start_migrations: u64,
    /// The record of the decision point being resolved, when this lane
    /// decided at it.
    open: Option<TopoDecisionRecord>,
    /// The assignment that decision moves to (`None`: it keeps the
    /// current one).
    to: Option<AssignmentMap>,
}

impl LaneRun<'_> {
    /// Whether the lane's monitoring window has filled: committed
    /// instructions summed over all threads since its window base.
    fn window_due(&self, m: &Machine) -> bool {
        self.window.is_some_and(|w| {
            let committed: u64 = m
                .thread_insts
                .iter()
                .zip(&self.window_base.insts)
                .map(|(now, base)| now - base)
                .sum();
            committed >= w
        })
    }

    /// Settle energy, snapshot the period since the `kind` base and ask
    /// the scheduler. The record stays open, and the assignment chosen
    /// waits in `to`, until the group resolves the decision point.
    fn decide(&mut self, kind: DecisionKind, spec: &Spec, m: &Machine) {
        self.books.settle(&m.assignment);
        let base = match kind {
            DecisionKind::Window => &self.window_base,
            DecisionKind::Epoch => &self.epoch_base,
        };
        let snap = m.snapshot(spec, self.books, base);
        let decision = match kind {
            DecisionKind::Window => {
                ampsched_obs::counter!("sim.decision.window");
                self.sched.on_window(&snap)
            }
            DecisionKind::Epoch => {
                ampsched_obs::counter!("sim.decision.epoch");
                self.sched.on_epoch(&snap)
            }
        };
        self.to = match decision {
            TopoDecision::Reassign(next) if next != m.assignment => {
                assert_eq!(next.cores(), m.cores.len(), "reassignment changes the core count");
                assert_eq!(
                    next.threads(),
                    m.thread_insts.len(),
                    "reassignment changes the thread count"
                );
                next.validate().expect("scheduler produced an invalid assignment");
                if kind == DecisionKind::Window {
                    assert!(
                        next.same_parked_set(&m.assignment),
                        "window decisions must not change the parked set (epoch-boundary contract)"
                    );
                }
                Some(next)
            }
            _ => None,
        };
        self.open = Some(m.decision_record(spec, kind, &snap, self.sched.explain_last()));
    }

    /// Close the run on `m`: settle, attribute, and total up.
    fn finish(
        &mut self,
        spec: &Spec,
        m: &Machine,
        start_cycle: u64,
        start_insts: &[u64],
    ) -> TopoRunResult {
        self.books.settle(&m.assignment);
        let mut decisions = std::mem::take(&mut self.decisions);
        attribute_mispredictions(&mut decisions);
        ampsched_obs::counter!("sim.run");
        ampsched_obs::hist!("sim.run.cycles", m.cycle - start_cycle);
        let cycles = m.cycle - start_cycle;
        let count = |kind| decisions.iter().filter(|d| d.kind == kind).count() as u64;
        let threads = (0..m.thread_insts.len())
            .map(|t| ThreadMetrics {
                instructions: m.thread_insts[t] - start_insts[t],
                cycles,
                joules: self.books.thread_joules[t] - self.start_joules[t],
                frequency_hz: spec.frequency_hz,
            })
            .collect();
        TopoRunResult {
            scheduler: self.sched.name().to_string(),
            cycles,
            threads,
            swaps: self.books.swaps - self.start_swaps,
            migrations: self.books.migrations - self.start_migrations,
            window_decisions: count(DecisionKind::Window),
            epoch_decisions: count(DecisionKind::Epoch),
            decisions,
        }
    }
}

/// Move the machine's outstanding core activity onto the books of every
/// lane sharing it.
fn drain(m: &mut Machine, members: &[usize], lanes: &mut [LaneRun]) {
    for (c, core) in m.cores.iter_mut().enumerate() {
        let act = core.activity.take();
        for &l in members {
            lanes[l].books.activity[c].merge(&act);
        }
    }
}

/// The lanes running together on one machine, and where their loop
/// resumes.
struct Group {
    /// Lane indices, ascending; the first leads the group and keeps its
    /// machine at every fork.
    members: Vec<usize>,
    next_epoch: u64,
    /// The group forked at a window decision point and resumes at that
    /// loop iteration's epoch check.
    at_epoch: bool,
    /// The run's pipeline sampler: a fork copies it, so each forked
    /// group continues its parent's run.
    sampler: PipeSampler,
}

/// One call's lanes and the limits every group of it shares.
struct Run<'a> {
    spec: &'a Spec,
    start_cycle: u64,
    start_insts: Vec<u64>,
    target_insts: u64,
    max_cycles: u64,
    lanes: Vec<LaneRun<'a>>,
    /// Groups that forked off and wait for a run of their own.
    forks: Vec<(Machine, Group)>,
    results: Vec<Option<TopoRunResult>>,
}

impl<'a> Run<'a> {
    /// Start `lanes` together on `m`. Window/epoch bookkeeping restarts
    /// per call while core, memory, and counter state persist.
    fn new(
        spec: &'a Spec,
        m: &mut Machine,
        lanes: Vec<(&'a mut dyn TopoScheduler, &'a mut Books)>,
        target_insts: u64,
        max_cycles: u64,
    ) -> (Self, Group) {
        let mut lanes: Vec<LaneRun<'a>> = lanes
            .into_iter()
            .map(|(sched, books)| LaneRun {
                window: sched.window_insts(),
                window_base: m.period_base(books),
                epoch_base: m.period_base(books),
                decisions: Vec::new(),
                start_joules: Vec::new(),
                start_swaps: books.swaps,
                start_migrations: books.migrations,
                open: None,
                to: None,
                sched,
                books,
            })
            .collect();
        let members: Vec<usize> = (0..lanes.len()).collect();
        drain(m, &members, &mut lanes);
        for lane in &mut lanes {
            lane.books.settle(&m.assignment);
            lane.start_joules = lane.books.thread_joules.clone();
        }
        let run = Run {
            spec,
            start_cycle: m.cycle,
            start_insts: m.thread_insts.clone(),
            target_insts,
            max_cycles,
            results: (0..lanes.len()).map(|_| None).collect(),
            lanes,
            forks: Vec::new(),
        };
        let group = Group {
            members,
            next_epoch: m.cycle + spec.cfg.epoch_cycles,
            at_epoch: false,
            sampler: PipeSampler::new(m.cycle, &m.cores, &spec.label),
        };
        (run, group)
    }

    /// The scheduling loop: run group `g` on `m`, driving thread `t` with
    /// `workloads[t]`, until one thread commits `target_insts`
    /// instructions or `max_cycles` elapse. Lanes that diverge fork off
    /// into `forks`; the lanes still in `g` at the end get their results.
    fn run_group(&mut self, m: &mut Machine, g: &mut Group, workloads: &mut [Box<dyn Workload>]) {
        let _span = ampsched_obs::span!("system.run");
        let spec = self.spec;
        // Sampling off keeps the per-cycle check a compare against a
        // local: `next` is then `u64::MAX`.
        let mut next_sample = g.sampler.next;
        let mut at_epoch = std::mem::take(&mut g.at_epoch);
        loop {
            if !at_epoch {
                if !(m
                    .thread_insts
                    .iter()
                    .zip(&self.start_insts)
                    .all(|(now, start)| now - start < self.target_insts)
                    && m.cycle - self.start_cycle < self.max_cycles)
                {
                    break;
                }

                // Joint skip: every occupied core certified quiescent. A
                // core with no occupant is never stepped (its pipeline is
                // empty after the migration flush), so it never bounds
                // the jump.
                let q = (0..m.cores.len())
                    .filter(|&c| m.assignment.thread_on(c).is_some())
                    .map(|c| m.cores[c].quiet_until())
                    .min()
                    .unwrap_or(u64::MAX);
                if q > m.cycle {
                    let target = q
                        .min(g.next_epoch - 1)
                        .min(self.start_cycle + self.max_cycles - 1);
                    if target > m.cycle {
                        let n = target - m.cycle;
                        for (c, core) in m.cores.iter_mut().enumerate() {
                            if m.assignment.thread_on(c).is_some() {
                                core.fast_forward(m.cycle, n);
                            }
                        }
                        m.cycle = target;
                        // Every lane sharing the skip counts it, as its
                        // own run would have.
                        ampsched_obs::counter!("sim.skip.joint", g.members.len());
                        for _ in &g.members {
                            ampsched_obs::hist!("sim.skip.joint_cycles", n);
                        }
                        if m.cycle >= next_sample {
                            next_sample = g.sampler.catch_up(m.cycle, &m.cores, g.members.len());
                        }
                    }
                }

                // One cycle on every occupied core.
                for c in 0..m.cores.len() {
                    let Some(t) = m.assignment.thread_on(c) else {
                        continue;
                    };
                    let core = &mut m.cores[c];
                    let pulled = core.ops_pulled();
                    let n = core.step(m.cycle, spec.cfg.sim_path, &mut *workloads[t], &mut m.mem);
                    m.pulled[t] += core.ops_pulled() - pulled;
                    m.thread_insts[t] += n as u64;
                }
                m.cycle += 1;
                if m.cycle >= next_sample {
                    next_sample = g.sampler.catch_up(m.cycle, &m.cores, g.members.len());
                }

                // Fine-grained window boundaries, each lane on its own
                // window (committed instructions summed over all threads).
                let mut decided = false;
                for &l in &g.members {
                    if self.lanes[l].window_due(m) {
                        if !decided {
                            drain(m, &g.members, &mut self.lanes);
                            decided = true;
                        }
                        self.lanes[l].decide(DecisionKind::Window, spec, m);
                    }
                }
                if decided {
                    self.resolve(DecisionKind::Window, m, g);
                }
            }
            at_epoch = false;

            // OS epoch boundary: every lane decides.
            if m.cycle >= g.next_epoch {
                drain(m, &g.members, &mut self.lanes);
                for &l in &g.members {
                    self.lanes[l].decide(DecisionKind::Epoch, spec, m);
                }
                g.next_epoch += spec.cfg.epoch_cycles;
                self.resolve(DecisionKind::Epoch, m, g);
            }
        }

        drain(m, &g.members, &mut self.lanes);
        for &l in &g.members {
            let result = self.lanes[l].finish(spec, m, self.start_cycle, &self.start_insts);
            self.results[l] = Some(result);
        }
    }

    /// Resolve a decision point of group `g`. Lanes that keep the
    /// assignment, or move to the same one, stay together. Every other
    /// set of agreeing lanes forks onto a clone of `m` taken before
    /// anyone moved; the set holding the group's leader keeps `m`.
    fn resolve(&mut self, kind: DecisionKind, m: &mut Machine, g: &mut Group) {
        let mut split: Vec<(Option<AssignmentMap>, Vec<usize>)> = Vec::new();
        for &l in &g.members {
            let to = self.lanes[l].to.take();
            match split.iter_mut().find(|(t, _)| *t == to) {
                Some((_, members)) => members.push(l),
                None => split.push((to, vec![l])),
            }
        }
        let mut split = split.into_iter();
        let (to, members) = split.next().expect("a group has a lane");
        for (fork_to, fork_members) in split {
            let mut fork = m.clone();
            self.commit(kind, &mut fork, fork_to, &fork_members);
            let group = Group {
                members: fork_members,
                next_epoch: g.next_epoch,
                at_epoch: kind == DecisionKind::Window,
                sampler: g.sampler.clone(),
            };
            self.forks.push((fork, group));
        }
        g.members = members;
        self.commit(kind, m, to, &g.members);
    }

    /// Apply one agreed decision to `m` for `members`, and close the
    /// records of those that decided: a reassignment settles their
    /// energy under the old assignment, moves the threads, counts a swap
    /// per lane and re-bases the other period; every record re-bases its
    /// own period.
    fn commit(
        &mut self,
        kind: DecisionKind,
        m: &mut Machine,
        to: Option<AssignmentMap>,
        members: &[usize],
    ) {
        let migrated = to.as_ref().map(|next| next.moved_threads(&m.assignment));
        if let Some(next) = to {
            // Energy up to the migration belongs to the old assignment.
            drain(m, members, &mut self.lanes);
            for &l in members {
                self.lanes[l].books.settle(&m.assignment);
            }
            m.reassign(next, &self.spec.cfg);
        }
        for &l in members {
            let lane = &mut self.lanes[l];
            let Some(mut record) = lane.open.take() else {
                continue;
            };
            let (base, other) = match kind {
                DecisionKind::Window => (&mut lane.window_base, &mut lane.epoch_base),
                DecisionKind::Epoch => (&mut lane.epoch_base, &mut lane.window_base),
            };
            if let Some(moved) = &migrated {
                lane.books.swaps += 1;
                lane.books.migrations += moved.len() as u64;
                ampsched_obs::counter!("sim.swap");
                *other = m.period_base(lane.books);
                record.changed = true;
                record.migrated = moved.clone();
                record.assignment = m.table();
                record.swap_cost_cycles = self.spec.cfg.swap_overhead_cycles;
            }
            *base = m.period_base(lane.books);
            lane.decisions.push(record);
        }
    }
}

/// One scheduler of a [`MulticoreSystem::run_lanes`] call, with its own
/// copy of the threads' workloads (`workloads[t]` runs as thread `t`).
pub struct Lane {
    /// The lane's scheduler.
    pub scheduler: Box<dyn TopoScheduler>,
    /// The lane's workloads, read only once the lane leaves the machine
    /// it shares with the first lane.
    pub workloads: Vec<Box<dyn Workload>>,
}

/// The generalized asymmetric multicore and its scheduling loop.
pub struct MulticoreSystem {
    spec: Spec,
    machine: Machine,
    /// Workloads indexed by *thread id*.
    workloads: Vec<Box<dyn Workload>>,
    books: Books,
}

impl MulticoreSystem {
    /// Build a system over `topology`, running `workloads[t]` as thread
    /// `t`. Threads start on the OS baseline assignment (thread `t` on
    /// core `t`, overflow parked).
    pub fn new(cfg: SystemConfig, topology: &Topology, workloads: Vec<Box<dyn Workload>>) -> Self {
        let spec = Spec::new(cfg, topology);
        assert_eq!(
            workloads.len(),
            topology.threads,
            "one workload per thread required"
        );
        MulticoreSystem {
            machine: Machine::new(&cfg, topology),
            books: Books::new(&cfg, topology),
            workloads,
            spec,
        }
    }

    /// Build a system like [`MulticoreSystem::new`] but starting from an
    /// explicit assignment instead of the OS baseline — the replay hook
    /// the offline oracle uses to measure each pinned placement from
    /// cycle 0 without paying a migration to reach it. Thread `t` still
    /// runs `workloads[t]`, so per-thread trace streams are unaffected.
    pub fn with_assignment(
        cfg: SystemConfig,
        topology: &Topology,
        workloads: Vec<Box<dyn Workload>>,
        initial: AssignmentMap,
    ) -> Self {
        assert_eq!(initial.cores(), topology.cores.len(), "assignment core count mismatch");
        assert_eq!(initial.threads(), topology.threads, "assignment thread count mismatch");
        initial.validate().expect("initial assignment must be valid");
        let mut sys = MulticoreSystem::new(cfg, topology, workloads);
        sys.machine.assignment = initial;
        sys
    }

    /// Current thread→core assignment.
    pub fn assignment(&self) -> &AssignmentMap {
        &self.machine.assignment
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.machine.cycle
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.machine.cores.len()
    }

    /// Per-thread committed instructions so far.
    pub fn thread_instructions(&self) -> &[u64] {
        &self.machine.thread_insts
    }

    /// Reassignment events so far.
    pub fn swaps(&self) -> u64 {
        self.books.swaps
    }

    /// Individual thread migrations so far.
    pub fn migrations(&self) -> u64 {
        self.books.migrations
    }

    /// Per-core microarchitectural state digests (differential-testing
    /// hook).
    pub fn core_digests(&self) -> Vec<u64> {
        self.machine.cores.iter().map(|c| c.state_digest()).collect()
    }

    /// Total joules accounted across all cores (conservation checks:
    /// equals the sum of thread-attributed joules plus
    /// [`unattributed`](Self::unattributed_joules)).
    pub fn accounted_joules(&self) -> f64 {
        self.books.energy.iter().map(|e| e.total_joules()).sum()
    }

    /// Joules accounted on occupant-less cores (0 with the current
    /// model).
    pub fn unattributed_joules(&self) -> f64 {
        self.books.unattributed_joules
    }

    /// Run under `scheduler` until one thread commits `target_insts`
    /// instructions or `max_cycles` elapses: the one-lane case of
    /// [`MulticoreSystem::run_lanes`]. Re-entrant: window/epoch
    /// bookkeeping restarts per call while core, memory, and counter
    /// state persist (the lockstep soak drives this in chunks).
    pub fn run(
        &mut self,
        scheduler: &mut dyn TopoScheduler,
        target_insts: u64,
        max_cycles: u64,
    ) -> TopoRunResult {
        let lanes: Vec<(&mut dyn TopoScheduler, &mut Books)> = vec![(scheduler, &mut self.books)];
        let (mut run, mut group) =
            Run::new(&self.spec, &mut self.machine, lanes, target_insts, max_cycles);
        run.run_group(&mut self.machine, &mut group, &mut self.workloads);
        assert!(run.forks.is_empty(), "one lane never forks");
        run.results.pop().flatten().expect("the lane finished")
    }

    /// Run every lane from one cold machine over `topology`, as if each
    /// ran alone in a system of its own, and return their results in
    /// lane order. Each result is bit-identical to the lane's isolated
    /// [`MulticoreSystem::run`].
    ///
    /// Lanes share the machine while every decision leaves the assignment
    /// alone or moves it to the same next assignment; where they
    /// disagree, each set of agreeing lanes forks onto a clone of the
    /// machine, so a common prefix is simulated once. The first lane's
    /// workloads drive the shared machine; a forked group first reads its
    /// leader's own workloads up to the fork point.
    ///
    /// `lane_span` is called when a group starts, for its leader, and the
    /// value it returns is dropped when the group ends; then once for
    /// each other lane finishing in the group, dropped at once. With
    /// tracing spans, each lane gets one span and the spans never
    /// overlap: the shared prefix falls in the first lane's. Pipeline
    /// samples, when the profiler samples, are recorded once per machine
    /// and weighted by the lanes sharing it, so their summaries equal
    /// those of the isolated runs.
    ///
    /// Each call adds its lane accounting to four counters:
    /// `kernel.lanes.lane_cycles` (the lanes' run cycles summed: what
    /// isolated runs would simulate), `kernel.lanes.sim_cycles` (the
    /// cycles its machines simulated), `kernel.lanes.forks` (machine
    /// clones made) and `kernel.lanes.peak_machines` (the most machines
    /// alive at once in the call).
    pub fn run_lanes<G>(
        cfg: SystemConfig,
        topology: &Topology,
        lanes: Vec<Lane>,
        target_insts: u64,
        max_cycles: u64,
        lane_span: impl Fn() -> G,
    ) -> Vec<TopoRunResult> {
        let spec = Spec::new(cfg, topology);
        let mut root = Machine::new(&cfg, topology);
        let mut scheds = Vec::with_capacity(lanes.len());
        let mut own = Vec::with_capacity(lanes.len());
        for lane in lanes {
            assert_eq!(
                lane.workloads.len(),
                topology.threads,
                "one workload per thread required"
            );
            scheds.push(lane.scheduler);
            own.push(Some(lane.workloads));
        }
        let mut books: Vec<Books> = scheds.iter().map(|_| Books::new(&cfg, topology)).collect();
        let lanes = scheds
            .iter_mut()
            .map(|s| &mut **s as &mut dyn TopoScheduler)
            .zip(books.iter_mut())
            .collect();
        let (mut run, group) = Run::new(&spec, &mut root, lanes, target_insts, max_cycles);
        let mut todo = vec![(root, group)];
        let (mut simulated, mut forks, mut peak) = (0u64, 0usize, 1usize);
        while let Some((mut m, mut g)) = todo.pop() {
            let span = lane_span();
            let mut workloads = own[g.members[0]].take().expect("a lane leads one group");
            for (w, &n) in workloads.iter_mut().zip(&m.pulled) {
                for _ in 0..n {
                    w.next_op();
                }
            }
            let from = m.cycle;
            run.run_group(&mut m, &mut g, &mut workloads);
            drop(span);
            for _ in 1..g.members.len() {
                drop(lane_span());
            }
            simulated += m.cycle - from;
            forks += run.forks.len();
            // Machines fork only while a group runs, so the count alive
            // peaks at a group's end: its own, the waiting ones and its
            // new forks.
            peak = peak.max(1 + todo.len() + run.forks.len());
            todo.append(&mut run.forks);
        }
        let results: Vec<TopoRunResult> = run
            .results
            .into_iter()
            .map(|r| r.expect("every lane finishes"))
            .collect();
        // Lane accounting stays outside `sim.*`: it describes how the
        // runs were simulated, not what they computed.
        let lane_cycles: u64 = results.iter().map(|r| r.cycles).sum();
        ampsched_obs::counter!("kernel.lanes.lane_cycles", lane_cycles);
        ampsched_obs::counter!("kernel.lanes.sim_cycles", simulated);
        ampsched_obs::counter!("kernel.lanes.forks", forks);
        ampsched_obs::counter!("kernel.lanes.peak_machines", peak);
        results
    }
}

/// The sampled pipeline profiler's cadence and one run's place in it,
/// shared by both run loops: a sample at cycle X is every core's state at
/// the *start* of X (after step X−1), re-emitted at each boundary a
/// quiescent skip crosses (state is frozen there).
#[derive(Clone)]
pub(crate) struct PipeSampler {
    interval: u64,
    /// The next boundary to sample; `u64::MAX` when sampling is off.
    pub(crate) next: u64,
    /// Interned label of the machine the run simulates.
    machine: u16,
    /// Cycle of the run's previous sample (its start before the first).
    prev_cycle: u64,
    /// Each core's committed count at the previous sample.
    prev_committed: Vec<u64>,
}

impl PipeSampler {
    /// Cadence for a run on `cores` of machine `label` starting at cycle
    /// `start` (first sample at the next multiple of the profiler
    /// interval; never when sampling is off).
    pub(crate) fn new(start: u64, cores: &[Core], label: &str) -> Self {
        let interval = ampsched_obs::profiler::interval();
        let on = interval > 0;
        PipeSampler {
            interval,
            next: if on { (start / interval + 1) * interval } else { u64::MAX },
            machine: if on { ampsched_obs::profiler::machine_id(label) } else { 0 },
            prev_cycle: start,
            prev_committed: cores.iter().map(|c| c.stats.committed.total()).collect(),
        }
    }

    /// Record one sample per core, standing for `weight` runs, for every
    /// boundary at or before `cycle`; returns the next boundary.
    pub(crate) fn catch_up(&mut self, cycle: u64, cores: &[Core], weight: usize) -> u64 {
        while self.next <= cycle {
            for ((c, core), prev) in cores.iter().enumerate().zip(&mut self.prev_committed) {
                let s = core.pipe_snapshot(self.next);
                ampsched_obs::profiler::record(ampsched_obs::profiler::PipeSample {
                    cycle: self.next,
                    machine: self.machine,
                    core: c as u8,
                    weight: weight as u32,
                    stall: s.stall.code(),
                    rob: s.rob,
                    isq_int: s.isq_int,
                    isq_fp: s.isq_fp,
                    lq: s.lq,
                    sq: s.sq,
                    commits: s.committed - *prev,
                    cycles: self.next - self.prev_cycle,
                    issue_slots: s.issue_slots,
                });
                *prev = s.committed;
            }
            self.prev_cycle = self.next;
            self.next += self.interval;
        }
        self.next
    }
}

/// Post-hoc misprediction attribution over generalized records: the mean
/// per-thread IPC/Watt ratio of period `i+1` over period `i`, defined
/// only when every thread observed energy in both periods (for N=2 this
/// reduces bit-exactly to the dual-core formula).
fn attribute_mispredictions(decisions: &mut [TopoDecisionRecord]) {
    for i in 0..decisions.len() {
        let realized = match decisions.get(i + 1) {
            Some(next)
                if decisions[i].threads.iter().all(|t| t.ipc_per_watt > 0.0)
                    && next.threads.iter().all(|t| t.ipc_per_watt > 0.0) =>
            {
                let mut sum = 0.0;
                for (n, c) in next.threads.iter().zip(decisions[i].threads.iter()) {
                    sum += n.ipc_per_watt / c.ipc_per_watt;
                }
                Some(sum / decisions[i].threads.len() as f64)
            }
            _ => None,
        };
        let rec = &mut decisions[i];
        rec.realized_speedup = realized;
        rec.mispredict = match (
            rec.changed,
            rec.explain.and_then(|e| e.predicted_speedup),
            realized,
        ) {
            (true, Some(predicted), Some(realized)) => Some(predicted - realized),
            _ => None,
        };
    }
}

/// Post-hoc regret attribution: pair each *epoch* record of a
/// scheduler's run with the same-index epoch record of the oracle's run
/// over the same workloads, and charge the scheduler the difference in
/// total per-thread IPC/Watt over that epoch. Window records (and epoch
/// records past the shorter run) stay `None`, matching the
/// `realized_speedup` convention — `Option`, never NaN.
///
/// The fields are filled in place so the enriched records flow through
/// the existing `--telemetry` JSONL path unchanged.
pub fn attribute_regret(decisions: &mut [TopoDecisionRecord], oracle: &[TopoDecisionRecord]) {
    let oracle_epochs: Vec<&TopoDecisionRecord> =
        oracle.iter().filter(|d| d.kind == DecisionKind::Epoch).collect();
    let mut k = 0usize;
    for rec in decisions.iter_mut() {
        if rec.kind != DecisionKind::Epoch {
            continue;
        }
        if let Some(orc) = oracle_epochs.get(k) {
            let mine: f64 = rec.threads.iter().map(|t| t.ipc_per_watt).sum();
            let theirs: f64 = orc.threads.iter().map(|t| t.ipc_per_watt).sum();
            rec.oracle_action = Some(orc.assignment.clone());
            rec.regret = Some(theirs - mine);
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampsched_core::{TopoRoundRobin, TopoStatic, TpeScheduler};
    use ampsched_trace::{suite, TraceGenerator};

    fn workloads(names: &[&str]) -> Vec<Box<dyn Workload>> {
        names
            .iter()
            .enumerate()
            .map(|(t, name)| {
                Box::new(TraceGenerator::for_thread(
                    suite::by_name(name).expect("benchmark exists"),
                    42,
                    t,
                )) as Box<dyn Workload>
            })
            .collect()
    }

    fn quick_cfg() -> SystemConfig {
        SystemConfig {
            epoch_cycles: 100_000,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn topology_labels_and_traits() {
        let t = Topology::big_little(2, 2, 4);
        assert_eq!(t.label(), "2fp+2int-4t");
        let traits = t.traits();
        assert_eq!(traits.len(), 4);
        assert!(traits[0].fp_flavored && !traits[3].fp_flavored);
        assert!(traits[0].int_bias() < 0.0 && traits[3].int_bias() > 0.0);
        assert!(traits.iter().all(|c| c.strength() > 0.0));
    }

    #[test]
    fn four_core_static_run_commits_on_all_threads() {
        let topo = Topology::big_little(2, 2, 4);
        let mut sys = MulticoreSystem::new(
            quick_cfg(),
            &topo,
            workloads(&["intstress", "fpstress", "gcc", "equake"]),
        );
        let mut sched = TopoStatic;
        let r = sys.run(&mut sched, 50_000, 5_000_000);
        assert_eq!(r.threads.len(), 4);
        assert!(r.threads.iter().all(|t| t.instructions > 0));
        assert!(r.threads.iter().all(|t| t.joules > 0.0));
        assert_eq!(r.swaps, 0);
        assert_eq!(sys.core_digests().len(), 4);
    }

    #[test]
    fn oversubscribed_round_robin_runs_every_thread() {
        // 2 cores × 4 threads: rotation must get all four threads time.
        let topo = Topology::big_little(1, 1, 4);
        let mut sys = MulticoreSystem::new(
            quick_cfg(),
            &topo,
            workloads(&["gcc", "mcf", "swim", "gsm"]),
        );
        let mut sched = TopoRoundRobin::every_epoch();
        let r = sys.run(&mut sched, 1_000_000, 900_000);
        assert!(r.epoch_decisions >= 8);
        assert!(r.swaps >= 8, "rotation every epoch, got {}", r.swaps);
        assert!(
            r.threads.iter().all(|t| t.instructions > 0),
            "every thread must make progress: {:?}",
            r.threads.iter().map(|t| t.instructions).collect::<Vec<_>>()
        );
        // Two run, two wait at any instant.
        assert_eq!(sys.assignment().parked().len(), 2);
    }

    #[test]
    fn energy_is_conserved_across_attribution() {
        let topo = Topology::big_little(2, 1, 3);
        let mut sys = MulticoreSystem::new(
            quick_cfg(),
            &topo,
            workloads(&["pi", "sha", "equake"]),
        );
        let mut sched = TopoRoundRobin::every_epoch();
        let r = sys.run(&mut sched, 100_000, 1_000_000);
        let attributed: f64 = r.threads.iter().map(|t| t.joules).sum();
        let accounted = sys.accounted_joules();
        assert!(
            (attributed + sys.unattributed_joules() - accounted).abs() < 1e-9,
            "thread-attributed + unattributed energy must equal core-accounted energy"
        );
        assert_eq!(sys.unattributed_joules(), 0.0, "idle cores burn nothing");
    }

    #[test]
    fn tpe_equalizes_progress_against_static() {
        // A fast thread and a slow thread on asymmetric cores: TPE must
        // end with a smaller progress gap than static placement.
        let spread = |r: &TopoRunResult| {
            let insts: Vec<u64> = r.threads.iter().map(|t| t.instructions).collect();
            *insts.iter().max().unwrap() as f64 / (*insts.iter().min().unwrap()).max(1) as f64
        };
        let run = |tpe: bool| {
            let topo = Topology::big_little(1, 1, 2);
            let mut sys = MulticoreSystem::new(
                quick_cfg(),
                &topo,
                workloads(&["intstress", "intstress"]),
            );
            if tpe {
                sys.run(&mut TpeScheduler::new(), 2_000_000, 1_000_000)
            } else {
                sys.run(&mut TopoStatic, 2_000_000, 1_000_000)
            }
        };
        let equalized = spread(&run(true));
        let fixed = spread(&run(false));
        assert!(
            equalized <= fixed,
            "TPE should not widen the progress gap: {equalized} vs {fixed}"
        );
    }

    #[test]
    fn migration_cost_is_charged_per_affected_core() {
        let topo = Topology::big_little(2, 2, 4);
        let mut sys = MulticoreSystem::new(
            quick_cfg(),
            &topo,
            workloads(&["gcc", "mcf", "swim", "gsm"]),
        );
        let mut sched = TopoRoundRobin::every_epoch();
        let r = sys.run(&mut sched, 500_000, 500_000);
        assert!(r.swaps >= 1);
        // A full 4-thread rotation moves every thread.
        assert_eq!(r.migrations, 4 * r.swaps);
        for d in r.decisions.iter().filter(|d| d.changed) {
            assert_eq!(d.swap_cost_cycles, sys.spec.cfg.swap_overhead_cycles);
            assert!(!d.migrated.is_empty());
            assert_eq!(d.assignment.len(), 4);
        }
    }

    #[test]
    fn deterministic_across_reruns() {
        let run = || {
            let topo = Topology::big_little(2, 2, 6);
            let mut sys = MulticoreSystem::new(
                quick_cfg(),
                &topo,
                workloads(&["gcc", "mcf", "swim", "gsm", "intstress", "fpstress"]),
            );
            let mut sched = TpeScheduler::new();
            sys.run(&mut sched, 200_000, 600_000)
        };
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.swaps, b.swaps);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(
            a.threads.iter().map(|t| t.instructions).collect::<Vec<_>>(),
            b.threads.iter().map(|t| t.instructions).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "one workload per thread")]
    fn workload_count_must_match_threads() {
        let topo = Topology::big_little(1, 1, 3);
        MulticoreSystem::new(quick_cfg(), &topo, workloads(&["gcc"]));
    }

    #[test]
    fn with_assignment_starts_in_the_given_state() {
        let topo = Topology::big_little(1, 1, 2);
        let swapped = AssignmentMap::pair(true);
        let mut sys = MulticoreSystem::with_assignment(
            quick_cfg(),
            &topo,
            workloads(&["gcc", "mcf"]),
            swapped.clone(),
        );
        assert_eq!(sys.assignment(), &swapped);
        assert_eq!(sys.swaps(), 0, "adopting the start state is not a migration");
        let r = sys.run(&mut TopoStatic, 50_000, 500_000);
        assert_eq!(r.swaps, 0);
        assert_eq!(sys.assignment(), &swapped, "static keeps the pinned placement");
    }

    #[test]
    #[should_panic(expected = "core count mismatch")]
    fn with_assignment_rejects_shape_mismatch() {
        let topo = Topology::big_little(1, 1, 2);
        MulticoreSystem::with_assignment(
            quick_cfg(),
            &topo,
            workloads(&["gcc", "mcf"]),
            AssignmentMap::baseline(3, 2),
        );
    }

    /// Synthetic decision record with uniform per-thread IPC/Watt.
    fn record(kind: DecisionKind, ppw: f64) -> TopoDecisionRecord {
        TopoDecisionRecord {
            cycle: 0,
            kind,
            changed: false,
            migrated: Vec::new(),
            assignment: vec![Some(0), Some(1)],
            threads: (0..2)
                .map(|_| TopoDecisionThread { ipc_per_watt: ppw, ..Default::default() })
                .collect(),
            explain: None,
            swap_cost_cycles: 0,
            realized_speedup: None,
            mispredict: None,
            oracle_action: None,
            regret: None,
        }
    }

    #[test]
    fn final_decision_has_no_realized_followup() {
        // The last decision of a run has no follow-up window, so its
        // realized_speedup (and hence mispredict) must stay None — not
        // zero, not a stale value (ISSUE 9 satellite audit).
        let mut decisions = vec![
            record(DecisionKind::Epoch, 2.0),
            record(DecisionKind::Epoch, 3.0),
            record(DecisionKind::Epoch, 1.5),
        ];
        attribute_mispredictions(&mut decisions);
        assert_eq!(decisions[0].realized_speedup, Some(1.5));
        assert_eq!(decisions[1].realized_speedup, Some(0.5));
        assert_eq!(decisions[2].realized_speedup, None, "no follow-up period");
        assert_eq!(decisions[2].mispredict, None);
        // Attribution is also refused when either side saw no energy
        // (zero IPC/Watt) — never a division by zero.
        let mut degenerate = vec![record(DecisionKind::Epoch, 0.0), record(DecisionKind::Epoch, 2.0)];
        attribute_mispredictions(&mut degenerate);
        assert_eq!(degenerate[0].realized_speedup, None);
        assert!(degenerate.iter().all(|d| d.realized_speedup.is_none_or(f64::is_finite)));
    }

    #[test]
    fn regret_attribution_pairs_epochs_and_skips_windows() {
        let mut sched = vec![
            record(DecisionKind::Window, 1.0),
            record(DecisionKind::Epoch, 2.0),
            record(DecisionKind::Epoch, 3.0),
            record(DecisionKind::Epoch, 4.0),
        ];
        let mut oracle_run = vec![
            record(DecisionKind::Epoch, 2.5),
            record(DecisionKind::Epoch, 3.0),
        ];
        oracle_run[0].assignment = vec![Some(1), Some(0)];
        attribute_regret(&mut sched, &oracle_run);
        // Window records untouched.
        assert_eq!(sched[0].regret, None);
        assert_eq!(sched[0].oracle_action, None);
        // Epoch k pairs with oracle epoch k: 2 threads × Δppw.
        assert_eq!(sched[1].regret, Some(1.0));
        assert_eq!(sched[1].oracle_action, Some(vec![Some(1), Some(0)]));
        assert_eq!(sched[2].regret, Some(0.0));
        // Past the shorter oracle run: unattributed.
        assert_eq!(sched[3].regret, None);
        assert_eq!(sched[3].oracle_action, None);
        assert!(sched.iter().all(|d| d.regret.is_none_or(f64::is_finite)));
    }
}
