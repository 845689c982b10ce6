//! Figures 7, 8, and 9: the headline evaluation. Random two-benchmark
//! combinations run under the proposed scheme, HPE, and Round Robin;
//! per-pair weighted and geometric IPC/Watt improvements; and the
//! worst/average/best summary.

use ampsched_metrics::{
    geometric_speedup, improvement_pct, k_largest_indices, k_smallest_indices, mean,
    weighted_improvement_pct, Table,
};
use ampsched_system::TopoRunResult;

use crate::common::{run_pairs, sample_pairs, Params, Predictors, SchedKind};
use crate::runner::parallel_map;

/// All three schemes' results for one pair.
#[derive(Debug, Clone)]
pub struct PairOutcome {
    /// `"a+b"` pair label.
    pub label: String,
    /// Proposed scheme result.
    pub proposed: TopoRunResult,
    /// HPE (matrix) result.
    pub hpe: TopoRunResult,
    /// Round Robin (1 epoch) result.
    pub rr: TopoRunResult,
}

/// Improvement of the proposed scheme over a reference, for one pair.
#[derive(Debug, Clone)]
pub struct Improvement {
    /// Pair label.
    pub label: String,
    /// Weighted (arithmetic-mean-of-ratios) IPC/Watt improvement, %.
    pub weighted_pct: f64,
    /// Geometric IPC/Watt improvement, %.
    pub geometric_pct: f64,
}

/// The full sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Per-pair outcomes in sampling order.
    pub outcomes: Vec<PairOutcome>,
}

/// Reference scheme selector for improvement computations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// Against HPE (Figure 7).
    Hpe,
    /// Against Round Robin (Figure 8).
    RoundRobin,
}

impl SweepResult {
    /// Per-pair improvements of the proposed scheme over `reference`.
    pub fn improvements(&self, reference: Reference) -> Vec<Improvement> {
        self.outcomes
            .iter()
            .map(|o| {
                let new = o.proposed.ipc_per_watt();
                let base = match reference {
                    Reference::Hpe => o.hpe.ipc_per_watt(),
                    Reference::RoundRobin => o.rr.ipc_per_watt(),
                };
                Improvement {
                    label: o.label.clone(),
                    weighted_pct: weighted_improvement_pct(&new, &base),
                    geometric_pct: improvement_pct(geometric_speedup(&new, &base)),
                }
            })
            .collect()
    }

    /// Mean weighted / geometric improvement over all pairs.
    pub fn average(&self, reference: Reference) -> (f64, f64) {
        let imps = self.improvements(reference);
        (
            mean(&imps.iter().map(|i| i.weighted_pct).collect::<Vec<_>>()),
            mean(&imps.iter().map(|i| i.geometric_pct).collect::<Vec<_>>()),
        )
    }

    /// Fraction of pairs where the proposed scheme loses (weighted).
    pub fn loss_fraction(&self, reference: Reference) -> f64 {
        let imps = self.improvements(reference);
        imps.iter().filter(|i| i.weighted_pct < 0.0).count() as f64 / imps.len().max(1) as f64
    }

    /// Figure 9 bars: (mean of k worst, mean of all, mean of k best)
    /// weighted improvements.
    pub fn fig9_bars(&self, reference: Reference, k: usize) -> (f64, f64, f64) {
        let imps = self.improvements(reference);
        let w: Vec<f64> = imps.iter().map(|i| i.weighted_pct).collect();
        let worst: Vec<f64> = k_smallest_indices(&w, k).into_iter().map(|i| w[i]).collect();
        let best: Vec<f64> = k_largest_indices(&w, k).into_iter().map(|i| w[i]).collect();
        (mean(&worst), mean(&w), mean(&best))
    }

    /// The paper's swap-rate observation: fraction of the proposed
    /// scheme's decision points that actually swapped, averaged over pairs.
    pub fn proposed_swap_rate(&self) -> f64 {
        mean(
            &self
                .outcomes
                .iter()
                .map(|o| o.proposed.swap_rate())
                .collect::<Vec<_>>(),
        )
    }
}

/// Serialize the whole sweep (per-pair, per-scheme thread metrics plus
/// the derived improvement summaries) for the `--json` report path.
pub fn to_json(sweep: &SweepResult) -> ampsched_util::Json {
    use ampsched_util::Json;
    // Cap the per-run decision audit trail at the first and last
    // `DECISIONS_CAP` records: enough to see the initial placement
    // settle and the final behavior without ballooning the report (a
    // full-scale run has thousands of decision points). The complete
    // stream is available via `--telemetry`.
    const DECISIONS_CAP: usize = 10;
    let decisions = |r: &TopoRunResult| {
        let n = r.decisions.len();
        let shown: Vec<&_> = if n <= 2 * DECISIONS_CAP {
            r.decisions.iter().collect()
        } else {
            r.decisions[..DECISIONS_CAP]
                .iter()
                .chain(r.decisions[n - DECISIONS_CAP..].iter())
                .collect()
        };
        Json::obj([
            ("total", Json::from(n as u64)),
            ("truncated", Json::from(n > 2 * DECISIONS_CAP)),
            (
                "records",
                Json::arr(shown.into_iter().map(crate::telemetry::decision_to_json)),
            ),
        ])
    };
    let run = |r: &TopoRunResult| {
        Json::obj([
            ("scheduler", Json::from(r.scheduler.as_str())),
            ("cycles", Json::from(r.cycles)),
            ("swaps", Json::from(r.swaps)),
            ("window_decisions", Json::from(r.window_decisions)),
            ("epoch_decisions", Json::from(r.epoch_decisions)),
            (
                "threads",
                Json::arr(r.threads.iter().map(|t| t.to_json())),
            ),
            ("decisions", decisions(r)),
        ])
    };
    let summary = |reference: Reference| {
        let (w, g) = sweep.average(reference);
        Json::obj([
            ("weighted_avg_pct", Json::from(w)),
            ("geometric_avg_pct", Json::from(g)),
            ("loss_fraction", Json::from(sweep.loss_fraction(reference))),
        ])
    };
    Json::obj([
        (
            "pairs",
            Json::arr(sweep.outcomes.iter().map(|o| {
                Json::obj([
                    ("label", Json::from(o.label.as_str())),
                    ("proposed", run(&o.proposed)),
                    ("hpe", run(&o.hpe)),
                    ("rr", run(&o.rr)),
                ])
            })),
        ),
        ("vs_hpe", summary(Reference::Hpe)),
        ("vs_round_robin", summary(Reference::RoundRobin)),
        (
            "proposed_swap_rate",
            Json::from(sweep.proposed_swap_rate()),
        ),
    ])
}

/// Run the full three-scheme sweep over `params.num_pairs` combinations.
pub fn run_sweep(params: &Params, predictors: &Predictors) -> SweepResult {
    let pairs = sample_pairs(params.num_pairs, params.seed);
    // One selector per scheme for the whole sweep: `run_pairs` rebuilds
    // the scheduler state per run, so the kinds (and the predictors they
    // borrow) are shared, not reconstructed per pair. Proposed comes
    // first: its run carries the prefix the three runs share.
    let kinds = [
        SchedKind::proposed_default(params),
        SchedKind::HpeMatrix,
        SchedKind::RoundRobin(1),
    ];
    let outcomes = parallel_map(&pairs, |pair| {
        let [proposed, hpe, rr]: [TopoRunResult; 3] = run_pairs(pair, &kinds, predictors, params)
            .try_into()
            .expect("one run per kind");
        PairOutcome {
            label: pair.label(),
            proposed,
            hpe,
            rr,
        }
    });
    SweepResult { outcomes }
}

/// Render a Figure 7/8-style table: the 10 worst, 10 middle, and 10 best
/// pairs by weighted improvement (the paper shows 30 of its 80), plus the
/// overall averages.
pub fn render_fig(sweep: &SweepResult, reference: Reference) -> String {
    let name = match reference {
        Reference::Hpe => "HPE",
        Reference::RoundRobin => "Round Robin",
    };
    let mut imps = sweep.improvements(reference);
    imps.sort_by(|a, b| a.weighted_pct.partial_cmp(&b.weighted_pct).expect("no NaN"));
    let n = imps.len();
    let shown: Vec<&Improvement> = if n <= 30 {
        imps.iter().collect()
    } else {
        let mid_start = (n - 10) / 2;
        imps[..10]
            .iter()
            .chain(imps[mid_start..mid_start + 10].iter())
            .chain(imps[n - 10..].iter())
            .collect()
    };
    let mut t = Table::new(&[
        "pair",
        &format!("weighted IPC/W impr vs {name} (%)"),
        "geometric (%)",
    ]);
    for i in shown {
        t.row(&[
            i.label.clone(),
            format!("{:+.1}", i.weighted_pct),
            format!("{:+.1}", i.geometric_pct),
        ]);
    }
    let (w, g) = sweep.average(reference);
    let mut s = t.render();
    s.push_str(&format!(
        "\naverage over all {} pairs: weighted {:+.1}%, geometric {:+.1}%; \
         pairs that lose: {:.1}%\n",
        n,
        w,
        g,
        100.0 * sweep.loss_fraction(reference)
    ));
    s
}

/// Write the full per-pair sweep as CSV (one row per pair: every
/// scheme's per-thread IPC/Watt plus the derived improvements).
///
/// The per-thread columns are derived from the runs' actual thread count
/// (`ppw_<scheme>_t<i>` per thread), not hard-coded to the paper's two
/// slots — for the dual-core sweep this reproduces the legacy 14-column
/// layout byte for byte.
pub fn write_sweep_csv<W: std::io::Write>(
    sweep: &SweepResult,
    w: &mut W,
) -> std::io::Result<()> {
    let threads = sweep
        .outcomes
        .first()
        .map(|o| o.proposed.ipc_per_watt().len())
        .unwrap_or(2);
    let imps_hpe = sweep.improvements(Reference::Hpe);
    let imps_rr = sweep.improvements(Reference::RoundRobin);
    let rows: Vec<Vec<String>> = sweep
        .outcomes
        .iter()
        .zip(imps_hpe.iter().zip(&imps_rr))
        .map(|(o, (ih, ir))| {
            let mut row = vec![o.label.clone()];
            for result in [&o.proposed, &o.hpe, &o.rr] {
                let ppw = result.ipc_per_watt();
                assert_eq!(ppw.len(), threads, "uneven thread counts across the sweep");
                row.extend(ppw.iter().map(|v| format!("{v:.6}")));
            }
            row.extend([
                format!("{:.3}", ih.weighted_pct),
                format!("{:.3}", ih.geometric_pct),
                format!("{:.3}", ir.weighted_pct),
                format!("{:.3}", ir.geometric_pct),
                o.proposed.swaps.to_string(),
                o.hpe.swaps.to_string(),
                o.rr.swaps.to_string(),
            ]);
            row
        })
        .collect();
    let mut headers = vec!["pair".to_string()];
    for scheme in ["proposed", "hpe", "rr"] {
        headers.extend((0..threads).map(|t| format!("ppw_{scheme}_t{t}")));
    }
    headers.extend(
        [
            "weighted_vs_hpe_pct",
            "geometric_vs_hpe_pct",
            "weighted_vs_rr_pct",
            "geometric_vs_rr_pct",
            "swaps_proposed",
            "swaps_hpe",
            "swaps_rr",
        ]
        .map(String::from),
    );
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    ampsched_metrics::write_csv(w, &header_refs, &rows)
}

/// Render Figure 9 (worst/average/best bars for both references).
pub fn render_fig9(sweep: &SweepResult) -> String {
    let k = 5.min(sweep.outcomes.len());
    let mut t = Table::new(&["comparison", "5 worst (%)", "average (%)", "5 best (%)"]);
    for (label, r) in [("vs HPE", Reference::Hpe), ("vs Round Robin", Reference::RoundRobin)] {
        let (worst, avg, best) = sweep.fig9_bars(r, k);
        t.row(&[
            label.into(),
            format!("{worst:+.1}"),
            format!("{avg:+.1}"),
            format!("{best:+.1}"),
        ]);
    }
    let mut s = t.render();
    let (worst, avg, best) = sweep.fig9_bars(Reference::Hpe, k);
    s.push('\n');
    s.push_str(&ampsched_metrics::hbar_chart(
        &[
            (format!("{k} worst vs HPE"), worst),
            ("average vs HPE".into(), avg),
            (format!("{k} best vs HPE"), best),
        ],
        48,
        "%",
    ));
    s.push_str(&format!(
        "\nproposed-scheme swap rate: {:.3}% of decision points\n",
        100.0 * sweep.proposed_swap_rate()
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiling;

    fn small_sweep() -> SweepResult {
        let mut params = Params::quick();
        params.num_pairs = 6;
        run_sweep(&params, profiling::quick_predictors())
    }

    #[test]
    fn sweep_produces_all_outcomes_and_renders() {
        let sweep = small_sweep();
        assert_eq!(sweep.outcomes.len(), 6);
        for o in &sweep.outcomes {
            assert!(o.proposed.threads[0].instructions > 0);
            assert!(o.hpe.threads[0].instructions > 0);
            assert!(o.rr.threads[0].instructions > 0);
        }
        let s7 = render_fig(&sweep, Reference::Hpe);
        let s8 = render_fig(&sweep, Reference::RoundRobin);
        let s9 = render_fig9(&sweep);
        assert!(s7.contains("average over all 6 pairs"));
        assert!(s8.contains("Round Robin"));
        assert!(s9.contains("vs HPE"));
        let imps = sweep.improvements(Reference::Hpe);
        assert_eq!(imps.len(), 6);
        // Weighted >= geometric - tolerance is not guaranteed per pair,
        // but both must be finite.
        for i in &imps {
            assert!(i.weighted_pct.is_finite() && i.geometric_pct.is_finite());
        }
    }

    #[test]
    fn fig9_bars_are_ordered() {
        let sweep = small_sweep();
        let (worst, avg, best) = sweep.fig9_bars(Reference::Hpe, 2);
        assert!(worst <= avg && avg <= best);
    }

    #[test]
    fn sweep_csv_is_well_formed() {
        let sweep = small_sweep();
        let mut buf = Vec::new();
        write_sweep_csv(&sweep, &mut buf).expect("csv write");
        let s = String::from_utf8(buf).expect("utf8");
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 1 + sweep.outcomes.len(), "header + one row per pair");
        let cols = lines[0].split(',').count();
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), cols, "ragged row: {l}");
        }
        assert!(lines[0].contains("weighted_vs_hpe_pct"));
    }

    /// A synthetic run whose decision stream has `n` records with
    /// distinct cycle stamps `0..n`, so a test can tell exactly which
    /// records the report kept.
    fn synthetic_run(n: usize) -> TopoRunResult {
        use ampsched_metrics::ThreadMetrics;
        use ampsched_system::{DecisionKind, TopoDecisionRecord, TopoDecisionThread};
        let thread = ThreadMetrics {
            instructions: 1000,
            cycles: 2000,
            joules: 1e-6,
            frequency_hz: 2.1e9,
        };
        TopoRunResult {
            scheduler: "synthetic".into(),
            cycles: 2000,
            threads: vec![thread; 2],
            swaps: 0,
            migrations: 0,
            window_decisions: n as u64,
            epoch_decisions: 0,
            decisions: (0..n)
                .map(|i| TopoDecisionRecord {
                    cycle: i as u64,
                    kind: DecisionKind::Window,
                    changed: false,
                    migrated: Vec::new(),
                    assignment: vec![Some(0), Some(1)],
                    threads: vec![TopoDecisionThread::default(); 2],
                    explain: None,
                    swap_cost_cycles: 0,
                    realized_speedup: None,
                    mispredict: None,
                    oracle_action: None,
                    regret: None,
                })
                .collect(),
        }
    }

    /// The kept records' cycle stamps from one scheme's `decisions`
    /// block of the report, plus its `total` and `truncated` marker.
    fn decisions_block(n: usize) -> (u64, bool, Vec<u64>) {
        use ampsched_util::Json;
        let sweep = SweepResult {
            outcomes: vec![PairOutcome {
                label: "synt+hetic".into(),
                proposed: synthetic_run(n),
                hpe: synthetic_run(0),
                rr: synthetic_run(0),
            }],
        };
        let j = to_json(&sweep);
        let block = j
            .get("pairs")
            .and_then(Json::as_arr)
            .and_then(|p| p[0].get("proposed"))
            .and_then(|p| p.get("decisions"))
            .expect("decisions block");
        let total = block.get("total").and_then(Json::as_u64).expect("total");
        let truncated = block.get("truncated").and_then(Json::as_bool).expect("truncated");
        let cycles = block
            .get("records")
            .and_then(Json::as_arr)
            .expect("records")
            .iter()
            .map(|r| r.get("cycle").and_then(Json::as_u64).expect("cycle"))
            .collect();
        (total, truncated, cycles)
    }

    /// Boundary lockdown for the capped decision audit trail: exactly 20
    /// records ship whole with no truncation marker and no overlap;
    /// record 21 flips the marker and drops only the middle.
    #[test]
    fn decisions_truncation_boundaries() {
        // At the cap: every record present, in order, marker off.
        let (total, truncated, cycles) = decisions_block(20);
        assert_eq!(total, 20);
        assert!(!truncated, "len == 2*cap must not set the truncated marker");
        assert_eq!(cycles, (0..20).collect::<Vec<u64>>(), "no duplicate head/tail overlap");
        // One past the cap: marker on, first 10 + last 10, middle dropped.
        let (total, truncated, cycles) = decisions_block(21);
        assert_eq!(total, 21);
        assert!(truncated, "len == 2*cap + 1 must set the truncated marker");
        let expected: Vec<u64> = (0..10).chain(11..21).collect();
        assert_eq!(cycles, expected, "keep exactly the first and last 10, drop record 10");
        // Well below the cap nothing is marked or dropped.
        let (total, truncated, cycles) = decisions_block(3);
        assert_eq!((total, truncated), (3, false));
        assert_eq!(cycles, vec![0, 1, 2]);
    }

    /// Regression: the per-thread columns are derived from the runs'
    /// thread count, and for the dual-core sweep that derivation must
    /// reproduce the legacy hard-coded header layout exactly.
    #[test]
    fn sweep_csv_headers_are_topology_derived_and_legacy_compatible() {
        let sweep = small_sweep();
        let mut buf = Vec::new();
        write_sweep_csv(&sweep, &mut buf).expect("csv write");
        let s = String::from_utf8(buf).expect("utf8");
        assert_eq!(
            s.lines().next().expect("header line"),
            "pair,ppw_proposed_t0,ppw_proposed_t1,ppw_hpe_t0,ppw_hpe_t1,\
             ppw_rr_t0,ppw_rr_t1,weighted_vs_hpe_pct,geometric_vs_hpe_pct,\
             weighted_vs_rr_pct,geometric_vs_rr_pct,swaps_proposed,swaps_hpe,swaps_rr"
        );
    }
}
