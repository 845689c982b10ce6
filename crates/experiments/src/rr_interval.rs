//! Section VII (text): Round Robin with decision intervals of 1 vs 2
//! context-switch periods. The paper found the 1-epoch variant better and
//! used it as the Figure 8 baseline.

use ampsched_metrics::{mean, weighted_improvement_pct, Table};

use crate::common::{run_pairs, sample_pairs, Params, Predictors, SchedKind};
use crate::runner::parallel_map;

/// Result of the interval comparison.
#[derive(Debug, Clone)]
pub struct RrIntervalResult {
    /// Mean weighted IPC/Watt improvement of RR@1-epoch over RR@2-epochs
    /// across pairs, %.
    pub rr1_vs_rr2_weighted_pct: f64,
    /// Per-pair improvements.
    pub per_pair: Vec<(String, f64)>,
}

/// Run the comparison.
pub fn run(params: &Params, predictors: &Predictors) -> RrIntervalResult {
    let pairs = sample_pairs(params.num_pairs, params.seed);
    let kinds = [SchedKind::RoundRobin(1), SchedKind::RoundRobin(2)];
    let per_pair: Vec<(String, f64)> = parallel_map(&pairs, |pair| {
        let runs = run_pairs(pair, &kinds, predictors, params);
        let (rr1, rr2) = (runs[0].ipc_per_watt(), runs[1].ipc_per_watt());
        (pair.label(), weighted_improvement_pct(&rr1, &rr2))
    });
    RrIntervalResult {
        rr1_vs_rr2_weighted_pct: mean(&per_pair.iter().map(|p| p.1).collect::<Vec<_>>()),
        per_pair,
    }
}

/// Serialize the comparison for the `--json` report path.
pub fn to_json(r: &RrIntervalResult) -> ampsched_util::Json {
    use ampsched_util::Json;
    Json::obj([
        (
            "rr1_vs_rr2_weighted_pct",
            Json::from(r.rr1_vs_rr2_weighted_pct),
        ),
        (
            "per_pair",
            Json::arr(r.per_pair.iter().map(|(label, v)| {
                Json::obj([
                    ("pair", Json::from(label.as_str())),
                    ("weighted_pct", Json::from(*v)),
                ])
            })),
        ),
    ])
}

/// Render the comparison.
pub fn render(r: &RrIntervalResult) -> String {
    let mut t = Table::new(&["pair", "RR@2ms vs RR@4ms weighted IPC/W (%)"]);
    for (label, v) in &r.per_pair {
        t.row(&[label.clone(), format!("{v:+.1}")]);
    }
    let mut s = t.render();
    s.push_str(&format!(
        "\naverage: {:+.1}% (paper: RR with 1x2ms interval performs better)\n",
        r.rr1_vs_rr2_weighted_pct
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiling;

    #[test]
    fn comparison_runs_and_renders() {
        let mut params = Params::quick();
        params.num_pairs = 4;
        let r = run(&params, profiling::quick_predictors());
        assert_eq!(r.per_pair.len(), 4);
        assert!(r.rr1_vs_rr2_weighted_pct.is_finite());
        assert!(render(&r).contains("average"));
    }

    /// Regression: the per-pair score is symmetric in the thread slots —
    /// a bug that scored only slot 0 (the old hard-coded pair indexing)
    /// would break this relabeling invariance.
    #[test]
    fn score_is_invariant_under_thread_relabeling() {
        let a = weighted_improvement_pct(&[2.0, 0.5], &[1.0, 1.0]);
        let b = weighted_improvement_pct(&[0.5, 2.0], &[1.0, 1.0]);
        assert_eq!(a, b);
        assert!((a - 25.0).abs() < 1e-12, "mean of ratios 2.0 and 0.5");
    }
}
