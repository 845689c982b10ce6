//! Single-thread, single-core runs with interval sampling — the substrate
//! for Figure 1 and the offline profiling of Sections V and VI-A.

use crate::topo::PipeSampler;
use ampsched_cpu::{Core, CoreConfig, SimPath};
use ampsched_isa::MixCounts;
use ampsched_mem::{MemConfig, MemSystem};
use ampsched_metrics::ThreadMetrics;
use ampsched_power::{EnergyAccount, EnergyModel};
use ampsched_trace::Workload;

/// One profiling interval: composition + performance + energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalSample {
    /// %INT of the interval's committed instructions.
    pub int_pct: f64,
    /// %FP of the interval's committed instructions.
    pub fp_pct: f64,
    /// %mem of the interval.
    pub mem_pct: f64,
    /// %branch of the interval.
    pub branch_pct: f64,
    /// Instructions committed in the interval.
    pub instructions: u64,
    /// Interval length in cycles.
    pub cycles: u64,
    /// Core energy over the interval, joules.
    pub joules: f64,
    /// Frequency for unit conversions, Hz.
    pub frequency_hz: f64,
}

impl IntervalSample {
    /// IPC of the interval.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// IPC/Watt of the interval.
    pub fn ipc_per_watt(&self) -> f64 {
        if self.joules <= 0.0 {
            0.0
        } else {
            self.instructions as f64 / (self.frequency_hz * self.joules)
        }
    }
}

/// Whole-run totals of a single-core run.
#[derive(Debug, Clone)]
pub struct SingleRunResult {
    /// Core the run used (`"FP"` / `"INT"`).
    pub core: &'static str,
    /// Workload name.
    pub workload: String,
    /// Aggregate metrics.
    pub totals: ThreadMetrics,
    /// Per-interval samples.
    pub samples: Vec<IntervalSample>,
}

/// Runs one workload alone on one core type.
///
/// The runner keeps its own interval loop instead of delegating to a
/// 1×1 [`MulticoreSystem`](crate::MulticoreSystem): its samples carry
/// *raw* per-interval joules straight from each energy settlement, and
/// reconstructing them from cumulative totals would change the last bits
/// of each sample ((a+j)−a ≠ j in f64). The counter namespace
/// (`sim.skip.single`) and the `system.run_single` span are likewise part
/// of the frozen telemetry surface.
pub struct SingleCoreRunner {
    core: Core,
    mem: MemSystem,
    energy: EnergyAccount,
    frequency_hz: f64,
    core_name: &'static str,
    sim_path: SimPath,
}

impl SingleCoreRunner {
    /// Build a runner for the given core configuration.
    pub fn new(core_cfg: CoreConfig, mem_cfg: MemConfig) -> Self {
        let frequency_hz = core_cfg.frequency_ghz * 1e9;
        let energy = EnergyAccount::new(EnergyModel::new(&core_cfg, &mem_cfg));
        SingleCoreRunner {
            core_name: core_cfg.name,
            core: Core::new(core_cfg, 0),
            mem: MemSystem::new(mem_cfg, 1),
            energy,
            frequency_hz,
            sim_path: SimPath::Fast,
        }
    }

    /// Select the simulation kernel (fast path vs frozen reference).
    pub fn with_sim_path(mut self, path: SimPath) -> Self {
        self.sim_path = path;
        self
    }

    /// Run `workload` until `target_insts` commit (or `max_cycles`),
    /// emitting a sample every `interval_cycles`.
    pub fn run(
        &mut self,
        workload: &mut dyn Workload,
        target_insts: u64,
        interval_cycles: u64,
        max_cycles: u64,
    ) -> SingleRunResult {
        assert!(interval_cycles > 0, "interval must be positive");
        let _span = ampsched_obs::span!("system.run_single");
        let mut cycle = 0u64;
        let mut committed = 0u64;
        let mut samples = Vec::new();
        let mut iv_start_cycle = 0u64;
        let mut iv_start_insts = 0u64;
        let mut iv_start_mix = MixCounts::new();
        let mut total_joules = 0.0;
        let mut sampler = PipeSampler::new(0);
        loop {
            // Close the interval at its boundary or at the end of the run.
            let done = committed >= target_insts || cycle >= max_cycles;
            if done || cycle - iv_start_cycle >= interval_cycles {
                let j = self.energy.account(&self.core.activity.take());
                total_joules += j;
                if cycle > iv_start_cycle {
                    let mix = self.core.stats.committed.since(&iv_start_mix);
                    samples.push(IntervalSample {
                        int_pct: mix.int_pct(),
                        fp_pct: mix.fp_pct(),
                        mem_pct: mix.mem_pct(),
                        branch_pct: mix.branch_pct(),
                        instructions: committed - iv_start_insts,
                        cycles: cycle - iv_start_cycle,
                        joules: j,
                        frequency_hz: self.frequency_hz,
                    });
                    iv_start_cycle = cycle;
                    iv_start_insts = committed;
                    iv_start_mix = self.core.stats.committed;
                }
                if done {
                    break;
                }
            }
            let quiet_until = self.core.quiet_until();
            if quiet_until > cycle {
                // Skip the certified quiescent stretch in O(1). Nothing
                // commits in a skipped cycle, so the instruction target
                // cannot be crossed inside the region; interval sampling
                // and the cycle cap are time-based, so clamp the jump to
                // land the next step on the last cycle before either
                // fires.
                let target = quiet_until
                    .min(iv_start_cycle + interval_cycles - 1)
                    .min(max_cycles - 1);
                if target > cycle {
                    self.core.fast_forward(cycle, target - cycle);
                    ampsched_obs::counter!("sim.skip.single");
                    ampsched_obs::hist!("sim.skip.single_cycles", target - cycle);
                    cycle = target;
                    sampler.catch_up(cycle, std::slice::from_ref(&self.core));
                }
            }
            let n = self.core.step(cycle, self.sim_path, workload, &mut self.mem);
            committed += n as u64;
            cycle += 1;
            sampler.catch_up(cycle, std::slice::from_ref(&self.core));
        }

        SingleRunResult {
            core: self.core_name,
            workload: workload.name().to_string(),
            totals: ThreadMetrics {
                instructions: committed,
                cycles: cycle,
                joules: total_joules,
                frequency_hz: self.frequency_hz,
            },
            samples,
        }
    }
}

/// Convenience: run `workload` for `target_insts` on a core type and
/// return the aggregate result (Figure 1 style).
pub fn run_alone(
    core_cfg: CoreConfig,
    mem_cfg: MemConfig,
    workload: &mut dyn Workload,
    target_insts: u64,
    interval_cycles: u64,
) -> SingleRunResult {
    run_alone_with(
        core_cfg,
        mem_cfg,
        SimPath::Fast,
        workload,
        target_insts,
        interval_cycles,
    )
}

/// [`run_alone`] with an explicit simulation-kernel selection.
pub fn run_alone_with(
    core_cfg: CoreConfig,
    mem_cfg: MemConfig,
    sim_path: SimPath,
    workload: &mut dyn Workload,
    target_insts: u64,
    interval_cycles: u64,
) -> SingleRunResult {
    SingleCoreRunner::new(core_cfg, mem_cfg)
        .with_sim_path(sim_path)
        .run(
            workload,
            target_insts,
            interval_cycles,
            target_insts * 50, // generous cycle cap
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampsched_trace::{suite, TraceGenerator};

    fn gen(name: &str) -> TraceGenerator {
        TraceGenerator::for_thread(suite::by_name(name).unwrap(), 7, 0)
    }

    #[test]
    fn intstress_prefers_int_core() {
        let mut w = gen("intstress");
        let fp = run_alone(CoreConfig::fp_core(), MemConfig::default(), &mut w, 100_000, 50_000);
        let mut w = gen("intstress");
        let int = run_alone(CoreConfig::int_core(), MemConfig::default(), &mut w, 100_000, 50_000);
        assert!(
            int.totals.ipc_per_watt() > 1.3 * fp.totals.ipc_per_watt(),
            "intstress IPC/W: INT {} vs FP {}",
            int.totals.ipc_per_watt(),
            fp.totals.ipc_per_watt()
        );
    }

    #[test]
    fn fpstress_prefers_fp_core() {
        let mut w = gen("fpstress");
        let fp = run_alone(CoreConfig::fp_core(), MemConfig::default(), &mut w, 100_000, 50_000);
        let mut w = gen("fpstress");
        let int = run_alone(CoreConfig::int_core(), MemConfig::default(), &mut w, 100_000, 50_000);
        assert!(
            fp.totals.ipc_per_watt() > 1.3 * int.totals.ipc_per_watt(),
            "fpstress IPC/W: FP {} vs INT {}",
            fp.totals.ipc_per_watt(),
            int.totals.ipc_per_watt()
        );
    }

    #[test]
    fn mcf_is_near_neutral() {
        let mut w = gen("mcf");
        let fp = run_alone(CoreConfig::fp_core(), MemConfig::default(), &mut w, 60_000, 50_000);
        let mut w = gen("mcf");
        let int = run_alone(CoreConfig::int_core(), MemConfig::default(), &mut w, 60_000, 50_000);
        let ratio = int.totals.ipc_per_watt() / fp.totals.ipc_per_watt();
        assert!(
            (0.7..1.45).contains(&ratio),
            "memory-bound mcf should not strongly prefer a core: ratio {ratio}"
        );
    }

    #[test]
    fn samples_cover_the_run() {
        let mut w = gen("pi");
        let r = run_alone(CoreConfig::fp_core(), MemConfig::default(), &mut w, 50_000, 10_000);
        assert!(r.samples.len() >= 2);
        let insts: u64 = r.samples.iter().map(|s| s.instructions).sum();
        assert_eq!(insts, r.totals.instructions);
        let joules: f64 = r.samples.iter().map(|s| s.joules).sum();
        assert!((joules - r.totals.joules).abs() < 1e-12);
        for s in &r.samples {
            assert!(s.int_pct >= 0.0 && s.int_pct <= 100.0);
            assert!(s.ipc() > 0.0);
            assert!(s.ipc_per_watt() > 0.0);
        }
    }

    #[test]
    fn mixstress_phases_show_up_in_samples() {
        // mixstress alternates INT-heavy and FP-heavy bursts of 600k
        // instructions; with ~600k-cycle-scale intervals, consecutive
        // samples should differ strongly in composition.
        let mut w = gen("mixstress");
        let r = run_alone(CoreConfig::fp_core(), MemConfig::default(), &mut w, 2_000_000, 200_000);
        let int_range = r
            .samples
            .iter()
            .map(|s| s.int_pct)
            .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
        assert!(
            int_range.1 - int_range.0 > 25.0,
            "phase swing should be visible: {int_range:?}"
        );
    }
}
