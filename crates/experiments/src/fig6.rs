//! Figure 6: sensitivity of the proposed scheme's IPC/Watt gain (over
//! HPE) to monitoring window size and history depth.

use ampsched_core::ProposedConfig;
use ampsched_metrics::{improvement_pct, mean, weighted_speedup, Table};

use crate::common::{run_pairs, sample_pairs, Params, Predictors, SchedKind};
use crate::runner::parallel_map;

/// One sensitivity point.
#[derive(Debug, Clone)]
pub struct Fig6Point {
    /// Monitoring window (instructions/thread).
    pub window: u64,
    /// History depth.
    pub history: usize,
    /// Mean weighted IPC/Watt improvement over HPE across pairs, %.
    pub weighted_improvement_pct: f64,
}

/// The window sizes the paper sweeps.
pub const WINDOWS: [u64; 3] = [500, 1000, 2000];
/// The history depths the paper sweeps.
pub const HISTORIES: [usize; 2] = [5, 10];

/// Run the Figure 6 sweep.
pub fn run(params: &Params, predictors: &Predictors) -> Vec<Fig6Point> {
    let pairs = sample_pairs(params.num_pairs, params.seed);
    let mut grid = Vec::new();
    for &window in &WINDOWS {
        for &history in &HISTORIES {
            grid.push((window, history));
        }
    }
    // Per pair, one call runs the HPE baseline every configuration shares
    // and then the configurations, in grid order.
    let mut kinds = vec![SchedKind::HpeMatrix];
    kinds.extend(grid.iter().map(|&(window, history)| {
        SchedKind::Proposed(ProposedConfig {
            window,
            history_depth: history,
            fairness_interval_cycles: params.system.epoch_cycles,
            ..ProposedConfig::default()
        })
    }));
    let runs: Vec<Vec<Vec<f64>>> = parallel_map(&pairs, |p| {
        run_pairs(p, &kinds, predictors, params)
            .iter()
            .map(|r| r.ipc_per_watt())
            .collect()
    });
    grid.iter()
        .enumerate()
        .map(|(i, &(window, history))| {
            let imps: Vec<f64> = runs
                .iter()
                .map(|ppw| improvement_pct(weighted_speedup(&ppw[i + 1], &ppw[0])))
                .collect();
            Fig6Point {
                window,
                history,
                weighted_improvement_pct: mean(&imps),
            }
        })
        .collect()
}

/// Serialize the sensitivity grid for the `--json` report path.
pub fn to_json(points: &[Fig6Point]) -> ampsched_util::Json {
    use ampsched_util::Json;
    Json::arr(points.iter().map(|p| {
        Json::obj([
            ("window", Json::from(p.window)),
            ("history", Json::from(p.history)),
            (
                "weighted_improvement_pct",
                Json::from(p.weighted_improvement_pct),
            ),
        ])
    }))
}

/// Render the Figure 6 series (`window_history` on the x axis).
pub fn render(points: &[Fig6Point]) -> String {
    let mut t = Table::new(&["window_history", "weighted IPC/W improvement vs HPE (%)"]);
    for p in points {
        t.row(&[
            format!("{}_{}", p.window, p.history),
            format!("{:+.1}", p.weighted_improvement_pct),
        ]);
    }
    let best = points
        .iter()
        .max_by(|a, b| {
            a.weighted_improvement_pct
                .partial_cmp(&b.weighted_improvement_pct)
                .expect("no NaN")
        })
        .expect("non-empty sweep");
    let mut s = t.render();
    s.push_str(&format!(
        "\nbest configuration: window {} x history {} ({:+.1}%)\n",
        best.window, best.history, best.weighted_improvement_pct
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiling;

    #[test]
    fn sweep_covers_the_grid_and_renders() {
        let mut params = Params::quick();
        params.num_pairs = 4;
        let pts = run(&params, profiling::quick_predictors());
        assert_eq!(pts.len(), WINDOWS.len() * HISTORIES.len());
        for p in &pts {
            assert!(p.weighted_improvement_pct.is_finite());
        }
        let s = render(&pts);
        assert!(s.contains("1000_5"));
        assert!(s.contains("best configuration"));
    }
}
