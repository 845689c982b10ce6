//! The dual-core AMP: the paper's fixed 2-core × 2-thread shape, as a
//! constructor over the generalized [`MulticoreSystem`].
//!
//! The scheduling loop itself lives in [`crate::topo`]; this module pins
//! the paper's shape ([`Topology::duo`]: FP core 0, INT core 1, two
//! threads) and hands the [`Scheduler`] straight to that loop. A run
//! returns the loop's own [`TopoRunResult`]; code that inspects the
//! system between runs builds `MulticoreSystem::new(cfg, &Topology::duo(),
//! ..)` directly.

use ampsched_core::Scheduler;
use ampsched_mem::MemConfig;
use ampsched_trace::Workload;

use crate::topo::{MulticoreSystem, Topology, TopoRunResult};

pub use ampsched_cpu::SimPath;

/// System-level parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Cache hierarchy geometry and latencies.
    pub mem: MemConfig,
    /// OS context-switch epoch in cycles (2 ms = 4,000,000 @ 2 GHz).
    pub epoch_cycles: u64,
    /// Thread-swap overhead in cycles: pipeline drain + architectural
    /// state exchange (Section VI-C; paper default 1000, swept 100–1M).
    pub swap_overhead_cycles: u64,
    /// Ablation: additionally flush the migrating cores' L1s on a swap,
    /// modeling a destructive state transfer instead of
    /// transfer-through-shared-L2.
    pub flush_l1_on_swap: bool,
    /// Simulation kernel selection (fast path vs frozen reference).
    pub sim_path: SimPath,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            mem: MemConfig::default(),
            epoch_cycles: 4_000_000,
            swap_overhead_cycles: 1000,
            flush_l1_on_swap: false,
            sim_path: SimPath::Fast,
        }
    }
}

/// The pair-era name of [`TopoRunResult`]: a dual-core run's result is
/// the 2×2 case of the generalized one.
pub type RunResult = TopoRunResult;

/// The dual-core asymmetric system (core 0 = FP, core 1 = INT).
pub struct DualCoreSystem {
    inner: MulticoreSystem,
}

impl DualCoreSystem {
    /// Build the paper's system: FP core + INT core over a shared L2,
    /// running `workloads[0]` as thread 0 and `workloads[1]` as thread 1
    /// in the baseline assignment (thread 0 → FP core).
    pub fn new(cfg: SystemConfig, workloads: [Box<dyn Workload>; 2]) -> Self {
        let [w0, w1] = workloads;
        DualCoreSystem {
            inner: MulticoreSystem::new(cfg, &Topology::duo(), vec![w0, w1]),
        }
    }

    /// Run under `scheduler` until one thread commits `target_insts`
    /// instructions (the paper's stop condition) or `max_cycles` elapses.
    pub fn run(
        &mut self,
        scheduler: &mut dyn Scheduler,
        target_insts: u64,
        max_cycles: u64,
    ) -> TopoRunResult {
        self.inner.run(scheduler, target_insts, max_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampsched_core::{TopoProposed, TopoRoundRobin, TopoStatic};
    use ampsched_trace::{suite, TraceGenerator};

    fn workload(name: &str, thread: usize) -> Box<dyn Workload> {
        Box::new(TraceGenerator::for_thread(
            suite::by_name(name).expect("benchmark exists"),
            42,
            thread,
        ))
    }

    fn quick_cfg() -> SystemConfig {
        SystemConfig {
            epoch_cycles: 100_000, // scaled-down epoch for fast tests
            ..SystemConfig::default()
        }
    }

    #[test]
    fn static_run_commits_and_burns_energy() {
        let mut sys = DualCoreSystem::new(
            quick_cfg(),
            [workload("intstress", 0), workload("fpstress", 1)],
        );
        let mut sched = TopoStatic;
        let r = sys.run(&mut sched, 50_000, 10_000_000);
        assert!(r.threads[0].instructions >= 50_000 || r.threads[1].instructions >= 50_000);
        assert!(r.threads[0].joules > 0.0 && r.threads[1].joules > 0.0);
        assert_eq!(r.swaps, 0);
        assert!(r.cycles > 0);
        let ppw = r.ipc_per_watt();
        assert!(ppw[0] > 0.0 && ppw[1] > 0.0);
    }

    #[test]
    fn misplaced_pair_gets_swapped_by_proposed() {
        // intstress starts on the FP core (thread 0), fpstress on the INT
        // core: the proposed scheduler must correct this quickly.
        let mut sys = MulticoreSystem::new(
            quick_cfg(),
            &Topology::duo(),
            vec![workload("intstress", 0), workload("fpstress", 1)],
        );
        let mut sched = TopoProposed::with_defaults(2);
        let r = sys.run(&mut sched, 100_000, 10_000_000);
        assert!(r.swaps >= 1, "misplacement must trigger a swap");
        assert_eq!(
            sys.assignment().core_of(0),
            Some(1),
            "intstress must end on the INT core"
        );
        assert!(r.window_decisions > 10);
    }

    #[test]
    fn proposed_beats_static_on_misplaced_pair() {
        let run = |swap: bool| {
            let mut sys = DualCoreSystem::new(
                quick_cfg(),
                [workload("intstress", 0), workload("fpstress", 1)],
            );
            if swap {
                let mut s = TopoProposed::with_defaults(2);
                sys.run(&mut s, 200_000, 20_000_000)
            } else {
                let mut s = TopoStatic;
                sys.run(&mut s, 200_000, 20_000_000)
            }
        };
        let dynamic = run(true);
        let stat = run(false);
        let d = dynamic.ipc_per_watt();
        let s = stat.ipc_per_watt();
        let weighted =
            ampsched_metrics::weighted_speedup(&[d[0], d[1]], &[s[0], s[1]]);
        assert!(
            weighted > 1.2,
            "fixing a misplaced complementary pair should win big, got {weighted}"
        );
    }

    #[test]
    fn round_robin_swaps_every_epoch() {
        let mut sys = DualCoreSystem::new(
            quick_cfg(),
            [workload("gcc", 0), workload("mcf", 1)],
        );
        let mut sched = TopoRoundRobin::every_epoch();
        let r = sys.run(&mut sched, 300_000, 1_050_000);
        // ~10 epochs in 1.05M cycles at 100k epoch.
        assert!(r.swaps >= 8, "RR must swap nearly every epoch, got {}", r.swaps);
        assert_eq!(r.swaps, r.epoch_decisions);
    }

    #[test]
    fn swap_overhead_costs_cycles() {
        let run_with_overhead = |ovh: u64| {
            let cfg = SystemConfig {
                epoch_cycles: 50_000,
                swap_overhead_cycles: ovh,
                ..SystemConfig::default()
            };
            let mut sys = DualCoreSystem::new(
                cfg,
                [workload("gcc", 0), workload("mcf", 1)],
            );
            let mut sched = TopoRoundRobin::every_epoch();
            sys.run(&mut sched, 150_000, 3_000_000)
        };
        let cheap = run_with_overhead(100);
        let costly = run_with_overhead(20_000);
        let ipc_cheap = cheap.threads[0].ipc() + cheap.threads[1].ipc();
        let ipc_costly = costly.threads[0].ipc() + costly.threads[1].ipc();
        assert!(
            ipc_costly < ipc_cheap,
            "40% of each epoch stalled must reduce throughput: {ipc_costly} vs {ipc_cheap}"
        );
    }

    #[test]
    fn energy_is_conserved_across_attribution() {
        let mut sys = MulticoreSystem::new(
            quick_cfg(),
            &Topology::duo(),
            vec![workload("pi", 0), workload("sha", 1)],
        );
        let mut sched = TopoRoundRobin::every_epoch();
        let r = sys.run(&mut sched, 100_000, 2_000_000);
        let attributed: f64 = r.threads.iter().map(|t| t.joules).sum();
        let accounted = sys.accounted_joules();
        assert!(
            (attributed - accounted).abs() < 1e-9,
            "thread-attributed energy must equal core-accounted energy"
        );
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut sys = DualCoreSystem::new(
                quick_cfg(),
                [workload("equake", 0), workload("bitcount", 1)],
            );
            let mut sched = TopoProposed::with_defaults(2);
            sys.run(&mut sched, 100_000, 5_000_000)
        };
        let a = run();
        let b = run();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.swaps, b.swaps);
        assert_eq!(a.threads[0].instructions, b.threads[0].instructions);
        assert!((a.threads[0].joules - b.threads[0].joules).abs() < 1e-12);
    }

    #[test]
    fn decision_records_carry_audit_trail() {
        let mut sys = DualCoreSystem::new(
            quick_cfg(),
            [workload("intstress", 0), workload("fpstress", 1)],
        );
        let mut sched = TopoProposed::with_defaults(2);
        let r = sys.run(&mut sched, 100_000, 10_000_000);
        assert!(!r.decisions.is_empty());
        for d in &r.decisions {
            // The proposed scheme explains every window decision.
            if d.kind == crate::topo::DecisionKind::Window {
                let e = d.explain.expect("proposed implements explain_last");
                assert_eq!(e.source, ampsched_core::PredictorSource::Rules);
                assert!(e.vote_depth == Some(5));
            }
            assert_eq!(d.swap_cost_cycles, if d.changed { 1000 } else { 0 });
            for t in &d.threads {
                assert!(t.ipc.is_finite() && t.ipc_per_watt.is_finite());
                assert!(t.int_pct >= 0.0 && t.fp_pct >= 0.0);
            }
        }
        // The observed compositions reflect the workloads.
        assert!(r.decisions.iter().any(|d| d.threads[0].int_pct > 40.0));
        // Post-hoc attribution fills realized speedups for interior
        // records with observable energy; the last record has none.
        assert!(r.decisions.iter().any(|d| d.realized_speedup.is_some()));
        assert!(r.decisions.last().unwrap().realized_speedup.is_none());
        // Rule-based decisions publish no speedup prediction, so no
        // misprediction is attributed.
        assert!(r.decisions.iter().all(|d| d.mispredict.is_none()));
    }

    #[test]
    fn well_placed_pair_is_left_alone_by_proposed() {
        // fpstress as thread 0 starts on the FP core: correct placement.
        let mut sys = DualCoreSystem::new(
            quick_cfg(),
            [workload("fpstress", 0), workload("intstress", 1)],
        );
        let mut sched = TopoProposed::with_defaults(2);
        let r = sys.run(&mut sched, 100_000, 10_000_000);
        assert_eq!(r.swaps, 0, "no reason to disturb a well-placed pair");
    }
}
