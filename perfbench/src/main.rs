//! `perfbench`: the ampsched benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig7_quick|scaling_quick|serve_mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! One invocation measures one workload and prints, as the last line of
//! its standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. The lines before
//! it carry the host context and the details behind the figures (the
//! tail's percentile and sample count, the deterministic work counts,
//! each layer's share of busy time, the error rate).
//!
//! Every repetition starts cold: a batch repetition is a fresh process
//! (this binary re-executed as `rep`), a serve session a fresh daemon
//! (this binary re-executed as `daemon`, which runs the same
//! `serve::Server` as `ampsched serve`). A traced run alternates untraced
//! and traced repetitions so the tracing overhead is measured in the
//! same run.

mod batch;
mod check;
mod host;
mod probe;
mod serve;
mod stats;

use ampsched_util::Json;

const USAGE: &str = "usage: perfbench --workload fig7_quick|scaling_quick|serve_mixed \
                     --seed N --seconds S --trace 0|1";

/// The end-to-end metrics, printed with `--trace 0`: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cold_p50_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("warm_tail_ms", "ms"),
];

/// The per-layer metrics, printed with `--trace 1`: name and unit. The
/// name's prefix is the layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.busy_s", "s"),
    ("trace.chunks_materialized", "count"),
    ("trace.ops_pulled", "count"),
    ("trace.useful_ratio", "ratio"),
    ("trace.arena_hit_ratio", "ratio"),
    ("profiling.busy_s", "s"),
    ("profiling.sim_cycles", "cycles"),
    ("profiling.host_ns_per_cycle", "ns"),
    ("profiling.skip_ratio", "ratio"),
    ("system.busy_s", "s"),
    ("system.sim_cycles", "cycles"),
    ("system.sim_insts", "count"),
    ("system.host_ns_per_cycle", "ns"),
    ("system.skip_ratio", "ratio"),
    ("system.swaps", "count"),
    ("system.migrations", "count"),
    ("sched.busy_s", "s"),
    ("sched.calls", "count"),
    ("sched.ns_per_call", "ns"),
    ("sched.predictor_queries", "count"),
    ("report.busy_s", "s"),
    ("serve.accept_wait_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.cache_claim_us", "us"),
    ("serve.write_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.threads_peak", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.sim_ms", "ms"),
    ("serve.serialize_us", "us"),
    ("traced.overhead_pct", "%"),
];

/// The layers whose busy times are compared as shares.
pub const LAYERS: &[&str] = &["trace", "profiling", "system", "sched", "report", "serve"];

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ampsched --quick fig7`: profiling, then the pair sweep.
    Fig7Quick,
    /// `ampsched --quick scaling`: the N-core scheduler-zoo sweep.
    ScalingQuick,
    /// A fresh `ampsched serve` daemon under a closed-loop client.
    ServeMixed,
}

impl Workload {
    pub(crate) fn parse(name: &str) -> Option<Workload> {
        match name {
            "fig7_quick" => Some(Workload::Fig7Quick),
            "scaling_quick" => Some(Workload::ScalingQuick),
            "serve_mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7Quick => "fig7_quick",
            Workload::ScalingQuick => "scaling_quick",
            Workload::ServeMixed => "serve_mixed",
        }
    }
}

/// Parsed command line of a measuring run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload to measure.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Nominal measuring time.
    pub seconds: u64,
    /// Print per-layer metrics (traced run) instead of end-to-end ones.
    pub trace: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                },
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Opts {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What one repetition measured, as every workload records it.
pub struct Rep {
    /// Whether it ran with the tracing wrappers.
    pub traced: bool,
    /// Set-up time, when the repetition timed one (scaling repetitions
    /// do not; their set-up is timed on separate start-ups).
    pub setup_s: Option<f64>,
    /// Host seconds of the measured operation.
    pub wall_s: f64,
    /// Peak resident set of the process that ran the work.
    pub rss_mb: f64,
    /// Latencies of cold operations.
    pub cold_ms: Vec<f64>,
    /// Latencies of warm operations.
    pub warm_ms: Vec<f64>,
    /// Per-layer values (traced repetitions only).
    pub layers: Vec<(String, f64)>,
    /// Deterministic work counts, which every repetition must repeat.
    pub counts: Json,
}

/// What a workload measured: checked operations, metric values by name,
/// and the details printed before the result line.
pub struct Outcome {
    /// Checked operations and failures.
    pub tally: check::Tally,
    /// Whether every deterministic count and cache outcome repeated
    /// exactly across repetitions.
    pub consistent: bool,
    /// Metric values by name (end-to-end and per-layer alike).
    pub metrics: Vec<(String, f64)>,
    /// Extra detail fields.
    pub details: Vec<(String, Json)>,
    /// Per-layer metrics of layers the workload enters but the benchmark
    /// cannot observe there; printed as 0 and listed as `unmeasured`.
    pub unmeasured: &'static [&'static str],
}

impl Outcome {
    /// Aggregate a run's repetitions: end-to-end figures from the
    /// untraced ones (set-up from them plus `extra_setups`), per-layer
    /// medians and the tracing overhead from the traced ones. `scripted`
    /// says whether every operation behaved as the workload expects;
    /// `details` are workload-specific detail fields.
    pub fn from_reps(
        reps: &[Rep],
        extra_setups: &[f64],
        tally: check::Tally,
        scripted: bool,
        mut details: Vec<(String, Json)>,
    ) -> Outcome {
        let consistent = scripted && reps.windows(2).all(|w| w[0].counts == w[1].counts);
        let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
        let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
        let median_of = |set: &[&Rep], f: fn(&Rep) -> f64| {
            stats::median(&set.iter().map(|r| f(r)).collect::<Vec<_>>())
        };
        let pooled = |f: fn(&Rep) -> &[f64]| -> Vec<f64> {
            untraced.iter().flat_map(|r| f(r).iter().copied()).collect()
        };
        let (cold, warm) = (pooled(|r| &r.cold_ms), pooled(|r| &r.warm_ms));
        let tail = stats::tail(&warm);
        let setups: Vec<f64> = untraced
            .iter()
            .filter_map(|r| r.setup_s)
            .chain(extra_setups.iter().copied())
            .collect();
        let mut metrics: Vec<(String, f64)> = Vec::new();
        let mut put = |name: &str, v: Option<f64>| {
            if let Some(v) = v {
                metrics.push((name.to_string(), v));
            }
        };
        put("setup_s", stats::median(&setups));
        put("wall_s", median_of(&untraced, |r| r.wall_s));
        put("peak_rss_mb", median_of(&untraced, |r| r.rss_mb));
        put("cold_p50_ms", stats::median(&cold));
        put("warm_p50_ms", stats::median(&warm));
        put("warm_tail_ms", tail.map(|t| t.value));
        if let Some(first) = traced.first() {
            for (name, _) in &first.layers {
                let values: Vec<f64> = traced
                    .iter()
                    .filter_map(|r| r.layers.iter().find(|(n, _)| n == name).map(|&(_, v)| v))
                    .collect();
                put(name, stats::median(&values));
            }
            let overhead = median_of(&traced, |r| r.wall_s)
                .zip(median_of(&untraced, |r| r.wall_s))
                .map(|(t, u)| 100.0 * (t / u - 1.0));
            put("traced.overhead_pct", overhead);
        }
        let tail = match tail {
            Some(t) => Json::obj([
                ("percentile", Json::from(t.percentile)),
                ("n", Json::from(t.n)),
                ("beyond", Json::from(t.beyond)),
            ]),
            None => Json::Null,
        };
        details.extend([
            ("repetitions".to_string(), Json::from(reps.len())),
            (
                "walls_s".to_string(),
                Json::arr(reps.iter().map(|r| Json::from(r.wall_s))),
            ),
            (
                "setups_s".to_string(),
                Json::arr(setups.iter().map(|&s| Json::from(s))),
            ),
            ("cold_n".to_string(), Json::from(cold.len())),
            ("warm_tail".to_string(), tail),
            (
                "deterministic_counts".to_string(),
                reps.first().map_or(Json::Null, |r| r.counts.clone()),
            ),
            ("counts_consistent".to_string(), Json::from(consistent)),
            ("layer_shares".to_string(), layer_shares(&metrics)),
        ]);
        Outcome {
            tally,
            consistent,
            metrics,
            details,
            unmeasured: &[],
        }
    }

    fn print(mut self, trace: bool) {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let (mut absent, mut unmeasured) = (Vec::new(), Vec::new());
        let mut metrics = Vec::new();
        for &(name, unit) in table {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v);
            match value {
                Some(v) if v.is_finite() => metrics.push((name, v, unit)),
                // A layer this workload never enters measures zero work.
                _ if trace => {
                    if self.unmeasured.contains(&name) {
                        unmeasured.push(Json::from(name));
                    } else {
                        absent.push(Json::from(name));
                    }
                    metrics.push((name, 0.0, unit));
                }
                _ => absent.push(Json::from(name)),
            }
        }
        self.details.push((
            if trace { "not_applicable" } else { "missing" }.to_string(),
            Json::Arr(absent.clone()),
        ));
        if trace {
            self.details
                .push(("unmeasured".to_string(), Json::Arr(unmeasured)));
        }
        self.details.push((
            "error_rate".to_string(),
            Json::from(self.tally.error_rate()),
        ));
        println!(
            "{}",
            Json::obj([("details", Json::Obj(self.details))]).render()
        );
        let correct = self.tally.failed == 0 && self.consistent && (trace || absent.is_empty());
        let result = Json::obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(self.tally.attempted)),
            ("failed", Json::from(self.tally.failed)),
            (
                "metrics",
                Json::Obj(
                    metrics
                        .into_iter()
                        .map(|(name, value, unit)| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("value", Json::from(value)),
                                    ("unit", Json::from(unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        println!("{}", result.render());
    }
}

/// The untraced/traced pattern of `n` repetitions: all untraced for an
/// end-to-end run; alternating, untraced first, for a traced run.
pub fn rep_plan(n: usize, trace: bool) -> Vec<bool> {
    if trace {
        (0..n.max(2).next_multiple_of(2))
            .map(|i| i % 2 == 1)
            .collect()
    } else {
        vec![false; n.max(1)]
    }
}

/// Whether a run should start no further repetition: after the first
/// two, once it has taken 1.4 × `--seconds`, so a slow host cannot push a
/// run far past its nominal length.
pub fn over_budget(started: std::time::Instant, seconds: u64, done: usize) -> bool {
    done >= 2 && started.elapsed().as_secs_f64() > 1.4 * seconds as f64
}

/// Each layer's busy time as a share of all layers' busy time.
pub fn layer_shares(metrics: &[(String, f64)]) -> Json {
    let busy: Vec<(&str, f64)> = LAYERS
        .iter()
        .map(|&layer| {
            let key = format!("{layer}.busy_s");
            let v = metrics
                .iter()
                .find(|(n, _)| *n == key)
                .map_or(0.0, |&(_, v)| v);
            (layer, v)
        })
        .collect();
    let total: f64 = busy.iter().map(|&(_, v)| v).sum();
    Json::Obj(
        busy.into_iter()
            .map(|(layer, v)| {
                let share = if total > 0.0 { v / total } else { 0.0 };
                (layer.to_string(), Json::from(share))
            })
            .collect(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("rep") => batch::rep_main(&args[1..]),
        Some("daemon") => serve::daemon_main(&args[1..]),
        Some("cli") => serve::cli_main(&args[1..]),
        _ => {}
    }
    host::refuse_debug_build();
    let opts = Opts::parse(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    println!("{}", host::context(&opts).render());
    let outcome = match opts.workload {
        Workload::Fig7Quick | Workload::ScalingQuick => batch::measure(&opts),
        Workload::ServeMixed => serve::measure(&opts),
    };
    outcome.print(opts.trace);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_plans_alternate_and_start_untraced() {
        assert_eq!(rep_plan(3, false), vec![false; 3]);
        assert_eq!(rep_plan(3, true), vec![false, true, false, true]);
        assert_eq!(rep_plan(1, true), vec![false, true]);
    }

    #[test]
    fn options_require_every_flag() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let o = Opts::parse(&args(
            "--workload serve_mixed --seed 3 --seconds 10 --trace 1",
        ))
        .expect("complete command line");
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.trace),
            (Workload::ServeMixed, 3, 10, true)
        );
        assert!(Opts::parse(&args("--workload serve_mixed --seed 3 --seconds 10")).is_err());
        assert!(Opts::parse(&args("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(Opts::parse(&args(
            "--workload fig7_quick --seed x --seconds 10 --trace 0"
        ))
        .is_err());
    }
}
