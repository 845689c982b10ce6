//! Ablation benches for the design choices DESIGN.md calls out:
//! history depth, the fairness swap, predictor form, decision granularity,
//! and the swap-cost model. Every variant is scored as the mean weighted
//! IPC/Watt improvement over the static (never-swap) baseline on the same
//! pair set, so variants are directly comparable.

use ampsched_core::ProposedConfig;
use ampsched_metrics::{mean, weighted_improvement_pct, Table};

use crate::common::{run_pair, sample_pairs, Params, Predictors, SchedKind};
use crate::runner::parallel_map;

/// One ablation variant's score.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Mean weighted IPC/Watt improvement over static, %.
    pub weighted_vs_static_pct: f64,
    /// Mean swaps per run.
    pub swaps_per_run: f64,
}

fn proposed_cfg(params: &Params) -> ProposedConfig {
    ProposedConfig {
        fairness_interval_cycles: params.system.epoch_cycles,
        ..ProposedConfig::default()
    }
}

/// Run the ablation battery.
pub fn run(params: &Params, predictors: &Predictors) -> Vec<AblationRow> {
    let pairs = sample_pairs(params.num_pairs, params.seed);
    // Common baseline: static assignment.
    let base: Vec<Vec<f64>> = parallel_map(&pairs, |p| {
        run_pair(p, &SchedKind::Static, predictors, params).ipc_per_watt()
    });

    let mut variants: Vec<(String, SchedKind, Params)> = Vec::new();
    let def = proposed_cfg(params);
    variants.push(("proposed (window 1000, history 5)".into(), SchedKind::Proposed(def), params.clone()));
    variants.push((
        "proposed, history 1 (no phase filter)".into(),
        SchedKind::Proposed(ProposedConfig { history_depth: 1, ..def }),
        params.clone(),
    ));
    variants.push((
        "proposed, history 10".into(),
        SchedKind::Proposed(ProposedConfig { history_depth: 10, ..def }),
        params.clone(),
    ));
    variants.push((
        "proposed, no fairness swap".into(),
        SchedKind::Proposed(ProposedConfig {
            fairness_interval_cycles: u64::MAX,
            ..def
        }),
        params.clone(),
    ));
    {
        let mut p = params.clone();
        p.system.flush_l1_on_swap = true;
        variants.push((
            "proposed, destructive L1 flush on swap".into(),
            SchedKind::Proposed(def),
            p,
        ));
    }
    variants.push(("hpe-matrix (2 ms)".into(), SchedKind::HpeMatrix, params.clone()));
    variants.push(("hpe-surface (2 ms)".into(), SchedKind::HpeSurface, params.clone()));
    variants.push(("matrix predictor, fine-grained".into(), SchedKind::MatrixFine, params.clone()));
    variants.push(("round-robin (1 epoch)".into(), SchedKind::RoundRobin(1), params.clone()));
    variants.push((
        "proposed + IPC/memory vetoes (Sec. VII extension)".into(),
        SchedKind::extended_default(params),
        params.clone(),
    ));
    variants.push((
        "forced-swap sampling, probe every 4 epochs [10]".into(),
        SchedKind::Sampling(4),
        params.clone(),
    ));

    variants
        .into_iter()
        .map(|(label, kind, p)| {
            let results = parallel_map(&pairs, |pair| run_pair(pair, &kind, predictors, &p));
            let imps: Vec<f64> = results
                .iter()
                .zip(&base)
                .map(|(r, b)| weighted_improvement_pct(&r.ipc_per_watt(), b))
                .collect();
            let swaps: Vec<f64> = results.iter().map(|r| r.swaps as f64).collect();
            AblationRow {
                variant: label,
                weighted_vs_static_pct: mean(&imps),
                swaps_per_run: mean(&swaps),
            }
        })
        .collect()
}

/// Serialize the ablation battery for the `--json` report path.
pub fn to_json(rows: &[AblationRow]) -> ampsched_util::Json {
    use ampsched_util::Json;
    Json::arr(rows.iter().map(|r| {
        Json::obj([
            ("variant", Json::from(r.variant.as_str())),
            (
                "weighted_vs_static_pct",
                Json::from(r.weighted_vs_static_pct),
            ),
            ("swaps_per_run", Json::from(r.swaps_per_run)),
        ])
    }))
}

/// Render the ablation table.
pub fn render(rows: &[AblationRow]) -> String {
    let mut t = Table::new(&["variant", "weighted IPC/W vs static (%)", "swaps/run"]);
    for r in rows {
        t.row(&[
            r.variant.clone(),
            format!("{:+.1}", r.weighted_vs_static_pct),
            format!("{:.1}", r.swaps_per_run),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiling;

    #[test]
    fn ablation_runs_all_variants() {
        let mut params = Params::quick();
        params.num_pairs = 3;
        let rows = run(&params, profiling::quick_predictors());
        assert_eq!(rows.len(), 11);
        for r in &rows {
            assert!(r.weighted_vs_static_pct.is_finite(), "{}", r.variant);
        }
        let s = render(&rows);
        assert!(s.contains("no fairness swap"));
        assert!(s.contains("round-robin"));
    }
}
