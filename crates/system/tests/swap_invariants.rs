//! System-level invariants of the swap machinery and the extension
//! schedulers, exercised end-to-end.

use ampsched_core::{
    AssignmentMap, ExtendedScheduler, SamplingScheduler, TopoProposed, TopoRoundRobin,
};
use ampsched_system::{DualCoreSystem, MulticoreSystem, SystemConfig, Topology};
use ampsched_trace::{suite, TraceGenerator, Workload};

fn pair(a: &str, b: &str, seed: u64) -> [Box<dyn Workload>; 2] {
    [
        Box::new(TraceGenerator::for_thread(
            suite::by_name(a).expect("bench"),
            seed,
            0,
        )),
        Box::new(TraceGenerator::for_thread(
            suite::by_name(b).expect("bench"),
            seed,
            1,
        )),
    ]
}

/// The paper's dual-core machine, built directly so the test can read its
/// state between and after runs.
fn duo(cfg: SystemConfig, workloads: [Box<dyn Workload>; 2]) -> MulticoreSystem {
    MulticoreSystem::new(cfg, &Topology::duo(), workloads.into())
}

fn cfg(epoch: u64) -> SystemConfig {
    SystemConfig {
        epoch_cycles: epoch,
        ..SystemConfig::default()
    }
}

#[test]
fn assignment_parity_tracks_swap_count() {
    let mut sys = duo(cfg(80_000), pair("gzip", "apsi", 3));
    let mut sched = TopoRoundRobin::every_epoch();
    let r = sys.run(&mut sched, 400_000, 30_000_000);
    assert!(r.swaps > 0);
    assert_eq!(
        sys.assignment(),
        &AssignmentMap::pair(r.swaps % 2 == 1),
        "assignment must equal swap-count parity"
    );
}

#[test]
fn chunked_runs_report_per_call_swaps() {
    let mut sys = duo(cfg(50_000), pair("gzip", "apsi", 3));
    let mut sched = TopoRoundRobin::every_epoch();
    let first = sys.run(&mut sched, u64::MAX / 2, 400_000);
    assert_eq!(first.swaps, sys.swaps());
    assert_eq!(first.migrations, sys.migrations());
    let (swaps_before, migrations_before) = (sys.swaps(), sys.migrations());
    let second = sys.run(&mut sched, u64::MAX / 2, 400_000);
    assert!(second.swaps > 0, "round robin must swap in the second chunk");
    assert_eq!(second.swaps, sys.swaps() - swaps_before);
    assert_eq!(second.migrations, sys.migrations() - migrations_before);
    assert!(second.swaps <= second.window_decisions + second.epoch_decisions);
    assert!(second.swap_rate() <= 1.0);
}

#[test]
fn sampling_scheduler_probes_and_completes() {
    let mut sys = DualCoreSystem::new(cfg(60_000), pair("sha", "ammp", 5));
    let mut sched = SamplingScheduler::new(2);
    let r = sys.run(&mut sched, 400_000, 40_000_000);
    assert!(sched.probes >= 2, "sampler must probe, got {}", sched.probes);
    // Every probe costs a swap; adoption keeps it, rejection swaps back.
    assert!(r.swaps >= sched.probes);
    assert!(r.threads.iter().all(|t| t.ipc_per_watt() > 0.0));
}

#[test]
fn sampling_settles_on_the_good_assignment_for_complementary_pairs() {
    // sha (INT) starts on the FP core — misplaced. After a probe, the
    // sampler should adopt the swapped (correct) assignment.
    let mut sys = duo(cfg(60_000), pair("sha", "ammp", 5));
    let mut sched = SamplingScheduler::new(2);
    let _ = sys.run(&mut sched, 600_000, 60_000_000);
    assert!(
        sched.adoptions >= 1,
        "the swapped assignment is better and must be adopted at least once"
    );
    assert_eq!(
        sys.assignment().core_of(0),
        Some(1),
        "sha should settle on the INT core"
    );
}

#[test]
fn extended_scheduler_swaps_healthy_pairs_like_proposed() {
    let run = |extended: bool| {
        let mut sys = DualCoreSystem::new(cfg(100_000), pair("intstress", "fpstress", 8));
        if extended {
            let mut s = ExtendedScheduler::with_defaults(2);
            sys.run(&mut s, 300_000, 30_000_000)
        } else {
            let mut s = TopoProposed::with_defaults(2);
            sys.run(&mut s, 300_000, 30_000_000)
        }
    };
    let ext = run(true);
    let base = run(false);
    assert!(ext.swaps >= 1, "healthy misplacement must still be fixed");
    assert_eq!(
        ext.swaps, base.swaps,
        "no veto applies to compute-bound threads, so behaviour matches proposed"
    );
}

#[test]
fn extended_scheduler_vetoes_swaps_for_memory_bound_pairs() {
    // memstress is >60% memory ops: composition-driven swaps get vetoed.
    let run_ext = || {
        let mut sys = DualCoreSystem::new(cfg(100_000), pair("memstress", "fpstress", 9));
        let mut s = ExtendedScheduler::with_defaults(2);
        let r = sys.run(&mut s, 300_000, 60_000_000);
        (r, s.mem_vetoes + s.ipc_vetoes)
    };
    let run_prop = || {
        let mut sys = DualCoreSystem::new(cfg(100_000), pair("memstress", "fpstress", 9));
        let mut s = TopoProposed::with_defaults(2);
        sys.run(&mut s, 300_000, 60_000_000)
    };
    let (ext, _vetoes) = run_ext();
    let prop = run_prop();
    assert!(
        ext.swaps <= prop.swaps,
        "vetoes can only reduce swap count: {} vs {}",
        ext.swaps,
        prop.swaps
    );
}

#[test]
fn destructive_l1_flush_costs_performance() {
    let run = |flush: bool| {
        let mut sys = DualCoreSystem::new(
            SystemConfig {
                epoch_cycles: 60_000,
                flush_l1_on_swap: flush,
                ..SystemConfig::default()
            },
            pair("gzip", "susan", 11),
        );
        let mut sched = TopoRoundRobin::every_epoch();
        sys.run(&mut sched, 300_000, 60_000_000)
    };
    let keep = run(false);
    let flush = run(true);
    assert!(flush.swaps > 3 && keep.swaps > 3);
    let ipc = |r: &ampsched_system::TopoRunResult| r.threads[0].ipc() + r.threads[1].ipc();
    assert!(
        ipc(&flush) <= ipc(&keep) * 1.001,
        "flushing L1s on every swap must not help: {} vs {}",
        ipc(&flush),
        ipc(&keep)
    );
}

#[test]
fn swaps_preserve_total_progress_accounting() {
    let mut sys = duo(cfg(50_000), pair("mixstress", "ffti", 13));
    let mut sched = TopoRoundRobin::every_epoch();
    let r = sys.run(&mut sched, 500_000, 50_000_000);
    // The run-result instruction counts must match the system's view.
    let sys_insts = sys.thread_instructions();
    assert_eq!(r.threads[0].instructions, sys_insts[0]);
    assert_eq!(r.threads[1].instructions, sys_insts[1]);
    // Stop condition: exactly one thread reached the target first (or
    // both are below the cycle cap).
    assert!(sys_insts[0] >= 500_000 || sys_insts[1] >= 500_000);
}
