//! Shared experiment infrastructure: parameters, pair sampling, and
//! scheduler construction.

use ampsched_core::{
    CampScheduler, ExtendedConfig, ExtendedScheduler, HpePredictor, MatrixFineScheduler,
    OracleScheduler, ProposedConfig, ReplaySchedule, SamplingScheduler, Scheduler, TopoHpe,
    TopoProposed, TopoRoundRobin, TopoScheduler, TopoStatic, TpeScheduler,
};
use ampsched_system::{Lane, MulticoreSystem, SimPath, SystemConfig, TopoRunResult, Topology};
use ampsched_trace::{suite, BenchmarkSpec, TracePath, Workload};
use ampsched_util::rng::StdRng;
use ampsched_util::Json;
use std::sync::atomic::{AtomicBool, Ordering};

/// Global experiment parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Stop each multiprogrammed run when one thread commits this many
    /// instructions (paper: 5,000,000).
    pub run_insts: u64,
    /// Hard cycle cap per run (safety net for memory-bound pairs).
    pub max_cycles: u64,
    /// Number of random two-benchmark combinations (paper: 80).
    pub num_pairs: usize,
    /// Instructions per benchmark per core for offline profiling.
    pub profile_insts: u64,
    /// Profiling sample interval in cycles (paper: 2 ms = 4,000,000).
    pub profile_interval_cycles: u64,
    /// Master seed for pair sampling and workload generation.
    pub seed: u64,
    /// System parameters (epoch length, swap overhead, caches).
    pub system: SystemConfig,
    /// How instruction streams are provisioned: replayed from the shared
    /// trace arena (default) or generated live (`--trace-path stream`).
    pub trace_path: TracePath,
    /// Directory for the persistent on-disk trace cache
    /// (`--trace-cache`). `None` keeps the arena in-memory only.
    pub trace_cache: Option<std::path::PathBuf>,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            run_insts: 5_000_000,
            max_cycles: 400_000_000,
            num_pairs: 80,
            profile_insts: 10_000_000,
            profile_interval_cycles: 4_000_000,
            seed: 2012,
            system: SystemConfig::default(),
            trace_path: TracePath::default(),
            trace_cache: None,
        }
    }
}

impl Params {
    /// Reduced-scale parameters (`--quick`) for tests and benchmarks on
    /// a single-CPU host: ~10× shorter runs, 8 pairs, finer profiling
    /// intervals so the profile still collects multiple samples.
    pub fn quick() -> Self {
        Params {
            run_insts: 400_000,
            max_cycles: 40_000_000,
            num_pairs: 8,
            profile_insts: 1_500_000,
            profile_interval_cycles: 400_000,
            system: SystemConfig {
                epoch_cycles: 400_000,
                ..SystemConfig::default()
            },
            ..Params::default()
        }
    }

    /// Mid-scale parameters: paper workload shapes at ~1/5 duration.
    pub fn medium() -> Self {
        Params {
            run_insts: 2_000_000,
            max_cycles: 150_000_000,
            num_pairs: 40,
            profile_insts: 4_000_000,
            profile_interval_cycles: 1_000_000,
            system: SystemConfig {
                epoch_cycles: 1_000_000,
                ..SystemConfig::default()
            },
            ..Params::default()
        }
    }

    /// Resolve a run's parameters from `overrides`: the members of a
    /// `/run` request's `params` object, or the CLI's run-parameter
    /// flags spelled as those members. The `scale` preset, given at most
    /// once, applies first wherever it appears, then `base.trace_cache`
    /// is inherited, then every other member applies in order. This is
    /// the one place that knows the settable keys, their types and their
    /// error messages.
    pub fn resolve(overrides: &[(String, Json)], base: &Params) -> Result<Params, String> {
        let mut scales = overrides.iter().filter(|(k, _)| k == "scale");
        let scale = scales.next();
        if scales.next().is_some() {
            return Err("\"scale\" given more than once".into());
        }
        let mut params = match scale {
            None => Params::default(),
            Some((_, v)) => match v.as_str() {
                Some("default") => Params::default(),
                Some("quick") => Params::quick(),
                Some("medium") => Params::medium(),
                _ => return Err("\"scale\" must be \"default\", \"quick\", or \"medium\"".into()),
            },
        };
        params.trace_cache = base.trace_cache.clone();

        let want_u64 = |k: &str, v: &Json| {
            v.as_u64().ok_or_else(|| format!("{k:?} must be a non-negative integer"))
        };
        for (key, value) in overrides {
            match key.as_str() {
                "scale" => {} // applied above
                "pairs" => params.num_pairs = want_u64("pairs", value)? as usize,
                "insts" => params.run_insts = want_u64("insts", value)?,
                "profile_insts" => params.profile_insts = want_u64("profile_insts", value)?,
                "seed" => params.seed = want_u64("seed", value)?,
                "sim_path" => {
                    params.system.sim_path = value
                        .as_str()
                        .and_then(SimPath::from_flag)
                        .ok_or("\"sim_path\" must be \"fast\" or \"reference\"")?
                }
                "trace_path" => {
                    params.trace_path = value
                        .as_str()
                        .and_then(TracePath::from_flag)
                        .ok_or("\"trace_path\" must be \"arena\" or \"stream\"")?
                }
                "trace_cache" => {
                    params.trace_cache = match value {
                        Json::Null => None,
                        Json::Str(dir) => Some(std::path::PathBuf::from(dir)),
                        _ => return Err("\"trace_cache\" must be a string or null".into()),
                    }
                }
                other => return Err(format!("unknown params field {other:?}")),
            }
        }
        Ok(params)
    }

    /// Provision one thread's workload per this configuration's trace
    /// path *and* persistent cache directory. Every experiment module
    /// that builds workloads goes through here (or [`Pair::workloads`])
    /// so `--trace-cache` uniformly covers profiling, fig1, morphing,
    /// and the pair sweeps.
    pub fn workload_for_thread(
        &self,
        spec: BenchmarkSpec,
        seed: u64,
        thread: usize,
    ) -> Box<dyn Workload> {
        self.trace_path
            .workload_for_thread_cached(spec, seed, thread, self.trace_cache.as_deref())
    }
}

/// Scheduling scheme selector.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedKind {
    /// The paper's proposed scheme with explicit window/history.
    Proposed(ProposedConfig),
    /// HPE with the binned ratio matrix (Figure 3).
    HpeMatrix,
    /// HPE with the fitted regression surface (Figure 4).
    HpeSurface,
    /// Round Robin every `k` epochs.
    RoundRobin(u32),
    /// Never swap.
    Static,
    /// Ablation: HPE matrix predictor at fine granularity.
    MatrixFine,
    /// The paper's Section VII future-work extension (IPC + memory
    /// vetoes on top of the proposed rules).
    Extended(ExtendedConfig),
    /// Becchi-style forced-swap sampling every `k` epochs.
    Sampling(u32),
    /// Thread Progress Equalization (Turakhia et al.): laggards onto the
    /// strongest cores at every epoch.
    Tpe,
    /// CAMP-style one-shot affinity placement from the first epoch's
    /// observed compositions.
    CampStatic,
    /// CAMP-style affinity placement re-ranked at every epoch.
    CampDynamic,
    /// Clairvoyant oracle: replays the precomputed optimal schedule (see
    /// `ampsched_core::oracle` and the `regret` experiment).
    Oracle(ReplaySchedule),
}

impl SchedKind {
    /// The paper-default proposed configuration, with the fairness
    /// interval matched to the system epoch.
    pub fn proposed_default(params: &Params) -> SchedKind {
        SchedKind::Proposed(ProposedConfig {
            fairness_interval_cycles: params.system.epoch_cycles,
            ..ProposedConfig::default()
        })
    }

    /// The Section VII extension with the fairness interval matched to
    /// the system epoch.
    pub fn extended_default(params: &Params) -> SchedKind {
        SchedKind::Extended(ExtendedConfig {
            base: ProposedConfig {
                fairness_interval_cycles: params.system.epoch_cycles,
                ..ProposedConfig::default()
            },
            ..ExtendedConfig::default()
        })
    }

    /// Instantiate the scheduler for the paper's dual-core machine.
    /// `predictors` supplies the profiled matrix and surface for the
    /// HPE-derived kinds.
    pub fn build(&self, predictors: &Predictors) -> Box<dyn Scheduler> {
        self.build_topo(2, Some(predictors))
    }

    /// Instantiate this scheme for a topology running `threads` threads.
    ///
    /// `predictors` is only consulted by the HPE-derived kinds; pass
    /// `None` for the predictor-free zoo (everything the `scaling`
    /// experiment sweeps).
    pub fn build_topo(
        &self,
        threads: usize,
        predictors: Option<&Predictors>,
    ) -> Box<dyn TopoScheduler> {
        let preds = || predictors.expect("this scheduler kind needs profiled predictors");
        match self {
            SchedKind::Proposed(cfg) => Box::new(TopoProposed::new(*cfg, threads)),
            SchedKind::HpeMatrix => {
                Box::new(TopoHpe::new(HpePredictor::Matrix(preds().matrix.clone())))
            }
            SchedKind::HpeSurface => {
                Box::new(TopoHpe::new(HpePredictor::Surface(preds().surface.clone())))
            }
            SchedKind::RoundRobin(k) => Box::new(TopoRoundRobin::new(*k)),
            SchedKind::Static => Box::new(TopoStatic),
            SchedKind::MatrixFine => Box::new(MatrixFineScheduler::new(
                HpePredictor::Matrix(preds().matrix.clone()),
                threads,
            )),
            SchedKind::Extended(cfg) => Box::new(ExtendedScheduler::new(*cfg, threads)),
            SchedKind::Sampling(k) => Box::new(SamplingScheduler::new(*k)),
            SchedKind::Tpe => Box::new(TpeScheduler::new()),
            SchedKind::CampStatic => Box::new(CampScheduler::camp_static(threads)),
            SchedKind::CampDynamic => Box::new(CampScheduler::camp_dynamic(threads)),
            SchedKind::Oracle(schedule) => Box::new(OracleScheduler::new(schedule.clone())),
        }
    }
}

/// The offline-profiled predictors shared by HPE variants.
#[derive(Debug, Clone)]
pub struct Predictors {
    /// Figure 3 ratio matrix.
    pub matrix: ampsched_core::RatioMatrix,
    /// Figure 4 regression surface.
    pub surface: ampsched_core::RatioSurface,
}

/// A two-benchmark combination.
#[derive(Debug, Clone)]
pub struct Pair {
    /// Benchmark for thread 0 (starts on the FP core).
    pub a: BenchmarkSpec,
    /// Benchmark for thread 1 (starts on the INT core).
    pub b: BenchmarkSpec,
    /// Per-pair seed for workload generation.
    pub seed: u64,
}

impl Pair {
    /// `"a+b"` label used in the figures.
    pub fn label(&self) -> String {
        format!("{}+{}", self.a.name, self.b.name)
    }

    /// Fresh workloads for this pair (deterministic in the pair seed),
    /// provisioned through the arena or generated live — and through the
    /// persistent cache, when configured — per `params`.
    pub fn workloads(&self, params: &Params) -> [Box<dyn Workload>; 2] {
        [
            params.workload_for_thread(self.a.clone(), self.seed, 0),
            params.workload_for_thread(self.b.clone(), self.seed, 1),
        ]
    }
}

/// Sample `n` distinct random two-benchmark combinations from the
/// 37-workload pool (order within a pair matters for the initial
/// assignment, mirroring the paper's random initial placement).
pub fn sample_pairs(n: usize, seed: u64) -> Vec<Pair> {
    let pool = suite::all();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut pairs = Vec::with_capacity(n);
    while pairs.len() < n {
        let i = rng.gen_range(0..pool.len());
        let j = rng.gen_range(0..pool.len());
        if i == j || !seen.insert((i, j)) {
            continue;
        }
        pairs.push(Pair {
            a: pool[i].clone(),
            b: pool[j].clone(),
            seed: seed ^ ((i as u64) << 32 | j as u64),
        });
    }
    pairs
}

/// Run one pair under one scheduler, from a cold system: the one-kind
/// case of [`run_pairs`].
pub fn run_pair(pair: &Pair, kind: &SchedKind, predictors: &Predictors, params: &Params) -> TopoRunResult {
    run_pairs(pair, std::slice::from_ref(kind), predictors, params)
        .pop()
        .expect("one run per kind")
}

/// Whether [`run_lanes`] runs every lane alone instead of as lanes.
static SOLO_RUNS: AtomicBool = AtomicBool::new(false);

/// Make [`run_lanes`] run every lane alone (`--profile-sample`), so each
/// run's pipeline samples are its own; results are the same either way.
pub fn set_solo_runs(on: bool) {
    SOLO_RUNS.store(on, Ordering::Relaxed);
}

/// Run `lanes` from one cold `system` over `topology` with the run
/// limits of `params`, as [`MulticoreSystem::run_lanes`] does, and
/// return their results in lane order. After [`set_solo_runs`]`(true)`
/// every lane runs alone, so each run's pipeline samples stay its own.
/// The one switch between the two for every caller.
pub fn run_lanes<G>(
    system: SystemConfig,
    topology: &Topology,
    lanes: Vec<Lane>,
    params: &Params,
    lane_span: impl Fn() -> G,
) -> Vec<TopoRunResult> {
    let run = |lanes: Vec<Lane>| {
        MulticoreSystem::run_lanes(
            system,
            topology,
            lanes,
            params.run_insts,
            params.max_cycles,
            &lane_span,
        )
    };
    if SOLO_RUNS.load(Ordering::Relaxed) {
        lanes.into_iter().flat_map(|lane| run(vec![lane])).collect()
    } else {
        run(lanes)
    }
}

/// Run one pair under each of `kinds`, every run from the same cold
/// system, and return the runs in `kinds` order. The runs are lanes of
/// one simulation ([`run_lanes`]): their common prefix is simulated
/// once, and each result is bit-identical to the kind's isolated run.
/// Each kind builds its own workloads up front, so the pair's
/// instruction streams come from the shared trace arena (or live
/// generators) per `params.trace_path` exactly as separate runs would
/// take them.
///
/// Each kind gets one `experiments.run_pair <pair>` span; the spans never
/// overlap and add up to the pair's simulation time (see
/// `MulticoreSystem::run_lanes`). Pipeline-profiler samples of a shared
/// prefix are recorded once, like its simulation, unless [`run_lanes`]
/// runs every kind alone.
pub fn run_pairs(
    pair: &Pair,
    kinds: &[SchedKind],
    predictors: &Predictors,
    params: &Params,
) -> Vec<TopoRunResult> {
    let label = pair.label();
    let lanes = kinds
        .iter()
        .map(|kind| Lane {
            scheduler: kind.build(predictors),
            workloads: pair.workloads(params).into(),
        })
        .collect();
    let results = run_lanes(params.system, &Topology::duo(), lanes, params, || {
        ampsched_obs::span!("experiments.run_pair", label.as_str())
    });
    // Observation only: the stream never feeds back into the run, so
    // reports stay byte-identical with or without a sink installed.
    for result in &results {
        crate::telemetry::emit_run(&label, pair.seed, result);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_distinct_and_deterministic() {
        let a = sample_pairs(20, 7);
        let b = sample_pairs(20, 7);
        assert_eq!(a.len(), 20);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label(), y.label());
            assert_eq!(x.seed, y.seed);
        }
        let labels: std::collections::HashSet<_> = a.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), 20, "pairs must be distinct");
        for p in &a {
            assert_ne!(p.a.name, p.b.name, "no self-pairs");
        }
    }

    #[test]
    fn different_seed_different_pairs() {
        let a = sample_pairs(30, 1);
        let b = sample_pairs(30, 2);
        let same = a
            .iter()
            .zip(&b)
            .filter(|(x, y)| x.label() == y.label())
            .count();
        assert!(same < 30);
    }

    #[test]
    fn a_repeated_scale_is_rejected() {
        let scale = |v: &str| ("scale".to_string(), Json::from(v));
        let insts = ("insts".to_string(), Json::from(20_000u64));
        let overrides = [scale("quick"), insts.clone(), scale("nope")];
        let err = Params::resolve(&overrides, &Params::default());
        assert_eq!(err.unwrap_err(), "\"scale\" given more than once");
        // Even when both name the same valid preset.
        assert!(Params::resolve(&[scale("medium"), scale("medium")], &Params::default()).is_err());
        let one = Params::resolve(&[insts, scale("quick")], &Params::default()).expect("valid");
        assert_eq!((one.run_insts, one.num_pairs), (20_000, Params::quick().num_pairs));
    }

    #[test]
    fn quick_params_are_smaller() {
        let q = Params::quick();
        let d = Params::default();
        assert!(q.run_insts < d.run_insts);
        assert!(q.num_pairs < d.num_pairs);
        assert!(q.system.epoch_cycles < d.system.epoch_cycles);
    }
}
