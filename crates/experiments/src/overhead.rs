//! Section VI-C: sensitivity of the proposed scheme's gain to the
//! reconfiguration (thread-swap) overhead, swept from 100 cycles to one
//! million cycles.

use ampsched_metrics::{improvement_pct, mean, weighted_speedup, Table};

use crate::common::{run_pairs, sample_pairs, Params, Predictors, SchedKind};
use crate::runner::parallel_map;

/// One overhead sweep point.
#[derive(Debug, Clone)]
pub struct OverheadPoint {
    /// Swap overhead in cycles.
    pub overhead_cycles: u64,
    /// Mean weighted IPC/Watt improvement over HPE, %.
    pub weighted_improvement_pct: f64,
}

/// The swept overheads (paper: 100 cycles … 1M cycles).
pub const OVERHEADS: [u64; 5] = [100, 1_000, 10_000, 100_000, 1_000_000];

/// Run the sweep. The HPE baseline uses the same overhead as the
/// proposed scheme at each point (both schemes pay to swap).
pub fn run(params: &Params, predictors: &Predictors) -> Vec<OverheadPoint> {
    let pairs = sample_pairs(params.num_pairs, params.seed);
    OVERHEADS
        .iter()
        .map(|&overhead_cycles| {
            let mut p = params.clone();
            p.system.swap_overhead_cycles = overhead_cycles;
            let kinds = [SchedKind::proposed_default(&p), SchedKind::HpeMatrix];
            let imps: Vec<f64> = parallel_map(&pairs, |pair| {
                let runs = run_pairs(pair, &kinds, predictors, &p);
                let (new, base) = (runs[0].ipc_per_watt(), runs[1].ipc_per_watt());
                improvement_pct(weighted_speedup(&new, &base))
            });
            OverheadPoint {
                overhead_cycles,
                weighted_improvement_pct: mean(&imps),
            }
        })
        .collect()
}

/// Serialize the overhead sweep for the `--json` report path.
pub fn to_json(points: &[OverheadPoint]) -> ampsched_util::Json {
    use ampsched_util::Json;
    Json::arr(points.iter().map(|p| {
        Json::obj([
            ("overhead_cycles", Json::from(p.overhead_cycles)),
            (
                "weighted_improvement_pct",
                Json::from(p.weighted_improvement_pct),
            ),
        ])
    }))
}

/// Render the overhead series and the 100-cycle vs 1M-cycle drop the
/// paper quotes (≈ 0.9%).
pub fn render(points: &[OverheadPoint]) -> String {
    let mut t = Table::new(&["swap overhead (cycles)", "weighted IPC/W impr vs HPE (%)"]);
    for p in points {
        t.row(&[
            p.overhead_cycles.to_string(),
            format!("{:+.1}", p.weighted_improvement_pct),
        ]);
    }
    let mut s = t.render();
    if let (Some(lo), Some(hi)) = (
        points.iter().find(|p| p.overhead_cycles == 100),
        points.iter().find(|p| p.overhead_cycles == 1_000_000),
    ) {
        s.push_str(&format!(
            "\ndrop from 100-cycle to 1M-cycle overhead: {:.1} percentage points \
             (paper: ~0.9)\n",
            lo.weighted_improvement_pct - hi.weighted_improvement_pct
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiling;

    #[test]
    fn gain_degrades_gracefully_with_overhead() {
        let mut params = Params::quick();
        params.num_pairs = 4;
        let pts = run(&params, profiling::quick_predictors());
        assert_eq!(pts.len(), OVERHEADS.len());
        // The cheap end must not be worse than the expensive end by more
        // than noise; usually it is strictly better.
        let cheap = pts.first().expect("points").weighted_improvement_pct;
        let costly = pts.last().expect("points").weighted_improvement_pct;
        // At this tiny scale (4 pairs, 400k-instruction runs) swap-timing
        // shifts create several points of noise; the paper-scale trend is
        // asserted in EXPERIMENTS.md. Here we only require the sweep not
        // to invert wildly.
        assert!(
            cheap >= costly - 8.0,
            "100-cycle ({cheap}) should not trail 1M-cycle ({costly}) badly"
        );
        for p in &pts {
            assert!(p.weighted_improvement_pct.is_finite());
        }
        assert!(render(&pts).contains("1000000"));
    }
}
