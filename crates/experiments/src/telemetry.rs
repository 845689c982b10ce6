//! JSONL decision-telemetry emission (`--telemetry FILE`).
//!
//! When a telemetry sink is installed (see `ampsched_obs::telemetry`),
//! every simulated run streams its scheduler audit trail as one JSON
//! object per line: a decision record per decision point carrying the
//! predictor's inputs, outputs, and post-hoc misprediction attribution,
//! then one run record with the run totals. Dual-core runs write the
//! `"decision"`/`"run"` dialect, N-core runs `"topo_decision"`/
//! `"topo_run"`; both come from the same [`TopoRunResult`]. The stream
//! is an *observation* of the run, never an input to it — the
//! simulation consumes nothing from this module, which is what keeps
//! `--json` reports byte-identical with telemetry on or off (enforced
//! by `tests/differential_telemetry.rs`).
//!
//! The JSONL schema is documented in EXPERIMENTS.md; `ampsched
//! obs-summary FILE` (see [`crate::obs_summary`]) aggregates a file
//! back into a per-scheduler table.

use ampsched_core::DecisionExplain;
use ampsched_system::{DecisionKind, TopoDecisionRecord, TopoDecisionThread, TopoRunResult};
use ampsched_util::Json;

/// The two record shapes of the stream. `Topo` writes a
/// [`TopoDecisionRecord`] whole. `Pair` is its 2×2 view, the dual-core
/// schema the fig7/8/9 reports pin: `changed` is written as `swap`, the
/// assignment dimension (`migrated`, `assignment`, each thread's `core`)
/// is left out, and `oracle_action` is reduced to "thread 0 on core 1".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dialect {
    Pair,
    Topo,
}

fn opt_f64(v: Option<f64>) -> Json {
    v.map(Json::from).unwrap_or(Json::Null)
}

fn opt_u64(v: Option<impl Into<u64>>) -> Json {
    v.map(|v| Json::from(v.into())).unwrap_or(Json::Null)
}

fn opt_core(c: Option<usize>) -> Json {
    opt_u64(c.map(|c| c as u64))
}

fn cores_json(table: &[Option<usize>]) -> Json {
    Json::arr(table.iter().map(|&c| opt_core(c)))
}

fn explain_json(e: &Option<DecisionExplain>) -> Json {
    match e {
        Some(e) => Json::obj([
            ("source", Json::from(e.source.name())),
            ("ratio_on_fp", opt_f64(e.ratio_on_fp)),
            ("ratio_on_int", opt_f64(e.ratio_on_int)),
            ("predicted_speedup", opt_f64(e.predicted_speedup)),
            ("votes_for", opt_u64(e.votes_for)),
            ("vote_depth", opt_u64(e.vote_depth)),
        ]),
        None => Json::Null,
    }
}

fn thread_json(t: &TopoDecisionThread, dialect: Dialect) -> Json {
    let mut fields = vec![
        ("int_pct", Json::from(t.int_pct)),
        ("fp_pct", Json::from(t.fp_pct)),
        ("instructions", Json::from(t.instructions)),
        ("ipc", Json::from(t.ipc)),
        ("ipc_per_watt", Json::from(t.ipc_per_watt)),
    ];
    if dialect == Dialect::Topo {
        fields.push(("core", opt_core(t.core)));
    }
    Json::obj(fields)
}

fn decision_json(d: &TopoDecisionRecord, dialect: Dialect) -> Json {
    let kind = match d.kind {
        DecisionKind::Window => "window",
        DecisionKind::Epoch => "epoch",
    };
    let mut fields = vec![("cycle", Json::from(d.cycle)), ("kind", Json::from(kind))];
    match dialect {
        Dialect::Pair => fields.push(("swap", Json::from(d.changed))),
        Dialect::Topo => fields.extend([
            ("changed", Json::from(d.changed)),
            ("migrated", Json::arr(d.migrated.iter().map(|&t| Json::from(t as u64)))),
            ("assignment", cores_json(&d.assignment)),
        ]),
    }
    let oracle_action = match (&d.oracle_action, dialect) {
        (None, _) => Json::Null,
        (Some(table), Dialect::Pair) => Json::from(table.first() == Some(&Some(1))),
        (Some(table), Dialect::Topo) => cores_json(table),
    };
    fields.extend([
        ("swap_cost_cycles", Json::from(d.swap_cost_cycles)),
        ("threads", Json::arr(d.threads.iter().map(|t| thread_json(t, dialect)))),
        ("explain", explain_json(&d.explain)),
        ("realized_speedup", opt_f64(d.realized_speedup)),
        ("mispredict", opt_f64(d.mispredict)),
        ("oracle_action", oracle_action),
        ("regret", opt_f64(d.regret)),
    ]);
    Json::obj(fields)
}

/// One dual-core decision record in the pair dialect (shared by the JSONL
/// stream and the capped `decisions` arrays in the fig7/8/9 `--json`
/// report).
pub fn decision_to_json(d: &TopoDecisionRecord) -> Json {
    decision_json(d, Dialect::Pair)
}

/// One generalized (N-core × M-thread) decision record, carrying the
/// assignment dimension on top of the pair schema: the post-decision
/// thread→core table (`assignment`, `null` = parked), the set of
/// migrated threads, and each thread's occupied core at decision time.
pub fn topo_decision_to_json(d: &TopoDecisionRecord) -> Json {
    decision_json(d, Dialect::Topo)
}

/// Stream one run's audit trail to the installed telemetry sink: one
/// decision line per decision point, then one run line with the totals.
/// Every line opens with its `type`, then `labels`, the scheduler and
/// the seed. A no-op (one relaxed atomic load) when no sink is installed.
fn emit(dialect: Dialect, labels: &[(&str, &str)], seed: u64, result: &TopoRunResult) {
    if !ampsched_obs::telemetry::active() {
        return;
    }
    let (decision_type, run_type) = match dialect {
        Dialect::Pair => ("decision", "run"),
        Dialect::Topo => ("topo_decision", "topo_run"),
    };
    let line = |ty: &str, body: Json| {
        let mut fields = vec![("type".to_string(), Json::from(ty))];
        fields.extend(labels.iter().map(|&(k, v)| (k.to_string(), Json::from(v))));
        fields.push(("scheduler".to_string(), Json::from(result.scheduler.as_str())));
        fields.push(("seed".to_string(), Json::from(seed)));
        if let Json::Obj(members) = body {
            fields.extend(members);
        }
        ampsched_obs::telemetry::emit(&Json::Obj(fields));
    };
    for d in &result.decisions {
        line(decision_type, decision_json(d, dialect));
    }
    let mut totals = vec![
        ("cycles", Json::from(result.cycles)),
        ("swaps", Json::from(result.swaps)),
    ];
    if dialect == Dialect::Topo {
        totals.push(("migrations", Json::from(result.migrations)));
    }
    totals.extend([
        ("window_decisions", Json::from(result.window_decisions)),
        ("epoch_decisions", Json::from(result.epoch_decisions)),
        ("ipc_per_watt", Json::arr(result.ipc_per_watt().into_iter().map(Json::from))),
    ]);
    line(run_type, Json::obj(totals));
}

/// Stream one dual-core run in the pair dialect: `"decision"` lines and a
/// `"run"` line, labelled with the pair.
pub fn emit_run(pair: &str, seed: u64, result: &TopoRunResult) {
    emit(Dialect::Pair, &[("pair", pair)], seed, result);
}

/// Stream one generalized run in the topo dialect: `"topo_decision"`
/// lines and a `"topo_run"` line (adding the migration count), labelled
/// with the topology and experiment group.
pub fn emit_topo_run(topology: &str, group: &str, seed: u64, result: &TopoRunResult) {
    emit(Dialect::Topo, &[("topology", topology), ("group", group)], seed, result);
}

/// The `telemetry` block of the `--json` report: a snapshot of the
/// `sim.*` instrument namespace only.
///
/// `sim.*` instruments are pure functions of the simulation inputs, so
/// including them keeps the report byte-identical across trace
/// provisioning modes, cache temperature, and telemetry flags; `trace.*`
/// and `obs.*` instruments vary with all three and are deliberately
/// excluded (run `ampsched obs-summary` or read `--trace-events` output
/// for those).
pub fn summary_json() -> Json {
    ampsched_obs::metrics::snapshot().filtered("sim.").to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(oracle_action: Option<Vec<Option<usize>>>) -> TopoDecisionRecord {
        TopoDecisionRecord {
            cycle: 4000,
            kind: DecisionKind::Window,
            changed: true,
            migrated: vec![0, 1],
            assignment: vec![Some(1), Some(0)],
            threads: vec![
                TopoDecisionThread { core: Some(0), ..Default::default() },
                TopoDecisionThread { core: Some(1), ..Default::default() },
            ],
            explain: None,
            swap_cost_cycles: 1000,
            realized_speedup: Some(1.25),
            mispredict: None,
            oracle_action,
            regret: None,
        }
    }

    fn keys(j: &Json) -> Vec<&str> {
        j.as_obj().expect("object").iter().map(|(k, _)| k.as_str()).collect()
    }

    #[test]
    fn one_record_renders_in_both_dialects() {
        let d = record(None);
        let (pair, topo) = (decision_to_json(&d), topo_decision_to_json(&d));
        assert_eq!(pair.get("swap"), topo.get("changed"));
        assert_eq!(pair.get("swap").and_then(Json::as_bool), Some(true));
        for key in ["cycle", "kind", "swap_cost_cycles", "explain", "realized_speedup"] {
            assert_eq!(pair.get(key), topo.get(key), "{key}");
        }
        assert_eq!(pair.get("realized_speedup").and_then(Json::as_f64), Some(1.25));
        // The pair form is the 2×2 view: no assignment dimension.
        for key in ["changed", "migrated", "assignment", "core"] {
            assert!(pair.get(key).is_none(), "pair form has {key}");
        }
        let pair_threads = pair.get("threads").and_then(Json::as_arr).expect("threads");
        let topo_threads = topo.get("threads").and_then(Json::as_arr).expect("threads");
        assert_eq!((pair_threads.len(), topo_threads.len()), (2, 2));
        assert!(pair_threads.iter().all(|t| !keys(t).contains(&"core")));
        assert_eq!(topo_threads[1].get("core").and_then(Json::as_u64), Some(1));
        assert_eq!(
            keys(&pair),
            [
                "cycle", "kind", "swap", "swap_cost_cycles", "threads", "explain",
                "realized_speedup", "mispredict", "oracle_action", "regret",
            ]
        );

        // The oracle's table reduces to "thread 0 on core 1".
        for (table, want) in [
            (Some(vec![Some(1), Some(0)]), Json::Bool(true)),
            (Some(vec![Some(0), Some(1)]), Json::Bool(false)),
            (None, Json::Null),
        ] {
            let d = record(table.clone());
            assert_eq!(decision_to_json(&d).get("oracle_action"), Some(&want));
            let whole = table.as_deref().map_or(Json::Null, cores_json);
            assert_eq!(topo_decision_to_json(&d).get("oracle_action"), Some(&whole));
        }

        // Single line: JSONL consumers split on newlines.
        assert!(!pair.render().contains('\n'));
        assert!(!topo.render().contains('\n'));
    }

    #[test]
    fn summary_contains_only_sim_namespace() {
        ampsched_obs::counter!("sim.test.telemetry_mod");
        let j = summary_json();
        let counters = j.get("counters").and_then(Json::as_obj).expect("counters obj");
        assert!(counters.iter().any(|(n, _)| n == "sim.test.telemetry_mod"));
        assert!(counters.iter().all(|(n, _)| n.starts_with("sim.")));
    }
}
