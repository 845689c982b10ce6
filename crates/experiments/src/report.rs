//! One command dispatch for the CLI and the `ampsched serve` daemon.
//!
//! [`run`] is the only code that knows what each of the [`COMMANDS`]
//! computes, prints and reports. Each [`Section`] carries the text the
//! CLI prints, the report section (if any) and, for the fig7/8/9 sweep,
//! the `--csv` bytes. The CLI prints and writes them; the server keeps
//! only the report sections, through [`compute_sections`]. Both build
//! the `--json` document with [`assemble`].
//!
//! A report document has a fixed section order — `command`, `params`,
//! the per-experiment sections, then `telemetry` — and the *bytes* of
//! that document are a contract: `golden_compat` pins them per command,
//! and a served response must be byte-identical to what the CLI would
//! have written for the same resolved [`Params`] (DESIGN.md §14).

use crate::common::{Params, Predictors};
use crate::fig78::Reference;
use crate::{
    ablation, fig1, fig6, fig78, morphing, overhead, profiling, regret, rr_interval,
    rules_derivation, scaling, tables,
};
use ampsched_util::Json;

/// Every command [`run`] knows, in the CLI's usage order.
pub const COMMANDS: &[&str] = &[
    "tables", "workloads", "fig1", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "figs789",
    "overhead", "rr-interval", "derive-rules", "ablation", "morphing", "scaling", "regret",
];

/// One block of a command's output.
#[derive(Debug)]
pub struct Section {
    /// Exactly what the CLI prints for this block, heading included.
    pub text: String,
    /// The report section, keyed by name; `None` for text-only blocks.
    pub json: Option<(String, Json)>,
    /// The per-pair CSV (`--csv`); set only on the fig7/8/9 sweep.
    pub csv: Option<Vec<u8>>,
}

impl Section {
    /// A text-only block: the heading, a blank line, then the body.
    fn new(heading: &str, body: String) -> Section {
        Section {
            text: format!("{heading}\n\n{body}\n"),
            json: None,
            csv: None,
        }
    }
}

/// Whether `command` requires the offline-profiled predictors (the
/// ratio matrix and regression surface). The CLI and [`compute_sections`]
/// skip the profiling phase for predictor-free commands, which also
/// keeps their `sim.*` telemetry block free of profiling counters.
pub fn needs_predictors(command: &str) -> bool {
    !matches!(
        command,
        "tables" | "workloads" | "fig1" | "derive-rules" | "morphing" | "scaling"
    )
}

/// The commands [`compute_sections`] can run headlessly (every command
/// with a committed `golden_compat` report).
pub const SERVABLE_COMMANDS: &[&str] = &[
    "fig1", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "figs789", "overhead",
    "rr-interval", "ablation", "morphing", "scaling", "regret",
];

/// The `params` block of a report, exactly as the CLI emits it.
pub fn params_json(params: &Params) -> Json {
    Json::obj([
        ("run_insts", Json::from(params.run_insts)),
        ("num_pairs", Json::from(params.num_pairs)),
        ("seed", Json::from(params.seed)),
        ("sim_path", Json::from(params.system.sim_path.name())),
        ("trace_path", Json::from(params.trace_path.name())),
        (
            "trace_cache",
            match &params.trace_cache {
                Some(dir) => Json::from(dir.display().to_string()),
                None => Json::Null,
            },
        ),
    ])
}

/// Assemble the full report document: `command`, `params`, the given
/// sections in order, then the `telemetry` block. The CLI passes the
/// process-global `sim.*` snapshot; the server passes the `sim.*` events
/// of the job's own [`compute_sections`] call, tallied by
/// `ampsched_obs::metrics::scoped` (identical for a deterministic
/// command).
pub fn assemble(
    command: &str,
    params: &Params,
    sections: Vec<(String, Json)>,
    telemetry: Json,
) -> Json {
    let mut all = vec![
        ("command".to_string(), Json::from(command)),
        ("params".to_string(), params_json(params)),
    ];
    all.extend(sections);
    all.push(("telemetry".to_string(), telemetry));
    Json::Obj(all)
}

/// Compute `command` and return its output blocks in print order.
/// `preds` must be `Some` when [`needs_predictors`] says so. Prints
/// nothing: the CLI prints each [`Section::text`], the server uses only
/// the report sections.
pub fn run(
    command: &str,
    params: &Params,
    preds: Option<&Predictors>,
) -> Result<Vec<Section>, String> {
    let preds = || preds.ok_or_else(|| format!("command '{command}' needs predictors"));
    // Commands with one block report one section, keyed by the command
    // name with `-` spelled `_`; the others return early.
    let (heading, body, json) = match command {
        "tables" => {
            return Ok(vec![
                Section::new("Table I — core structure sizes", tables::render_table_i()),
                Section::new("Table II — execution units", tables::render_table_ii()),
            ])
        }
        "workloads" => {
            let body = tables::render_workloads();
            return Ok(vec![Section::new("Workload inventory (37 models, Section IV)", body)]);
        }
        "derive-rules" => {
            let body = rules_derivation::render(&rules_derivation::derive(params, 50));
            return Ok(vec![Section::new("Section VI-A — swap-rule threshold derivation", body)]);
        }
        "fig7" | "fig8" | "fig9" | "figs789" => {
            return Ok(sweep_sections(command, &fig78::run_sweep(params, preds()?)))
        }
        "fig1" => {
            let r = fig1::run(params);
            let heading = "Figure 1 — IPC/Watt per workload per core";
            (heading, fig1::render(&r), fig1::to_json(&r))
        }
        "fig3" => {
            let m = &preds()?.matrix;
            let heading = "Figure 3 — IPC/Watt ratio matrix (INT core / FP core)";
            (heading, profiling::render_matrix(m), profiling::matrix_to_json(m))
        }
        "fig4" => {
            let su = &preds()?.surface;
            let heading = "Figure 4 — fitted ratio surface";
            (heading, profiling::render_surface(su), profiling::surface_to_json(su))
        }
        "fig6" => {
            let r = fig6::run(params, preds()?);
            let heading = "Figure 6 — window/history sensitivity";
            (heading, fig6::render(&r), fig6::to_json(&r))
        }
        "overhead" => {
            let r = overhead::run(params, preds()?);
            let heading = "Section VI-C — swap-overhead sensitivity";
            (heading, overhead::render(&r), overhead::to_json(&r))
        }
        "rr-interval" => {
            let r = rr_interval::run(params, preds()?);
            let heading = "Section VII — Round Robin decision-interval comparison";
            (heading, rr_interval::render(&r), rr_interval::to_json(&r))
        }
        "ablation" => {
            let r = ablation::run(params, preds()?);
            let heading = "Ablation battery (all variants vs static baseline)";
            (heading, ablation::render(&r), ablation::to_json(&r))
        }
        "morphing" => {
            let r = morphing::run(params);
            let heading = "Extension — core morphing sequential comparison (cf. [5])";
            (heading, morphing::render(&r), morphing::to_json(&r))
        }
        "scaling" => {
            let r = scaling::run(params);
            let heading = "Scaling — N-core x M-thread scheduler-zoo sweep";
            (heading, scaling::render(&r), scaling::to_json(&r))
        }
        "regret" => {
            let r = regret::run(params, preds()?);
            let heading = "Regret — every scheduler vs the clairvoyant oracle";
            (heading, regret::render(&r), regret::to_json(&r))
        }
        other => return Err(format!("unknown command '{other}'")),
    };
    Ok(vec![Section {
        json: Some((command.replace('-', "_"), json)),
        ..Section::new(heading, body)
    }])
}

/// The fig7/8/9 blocks `command` prints from one sweep. The first block
/// carries the `sweep` report section and the `--csv` bytes.
fn sweep_sections(command: &str, sweep: &fig78::SweepResult) -> Vec<Section> {
    let fig7 = || {
        let body = fig78::render_fig(sweep, Reference::Hpe);
        Section::new("Figure 7 — proposed vs HPE", body)
    };
    let fig8 = || {
        let body = fig78::render_fig(sweep, Reference::RoundRobin);
        Section::new("Figure 8 — proposed vs Round Robin", body)
    };
    let fig9 = || {
        let body = fig78::render_fig9(sweep);
        Section::new("Figure 9 — worst/average/best IPC/Watt improvements", body)
    };
    let mut sections = match command {
        "fig7" => vec![fig7()],
        "fig8" => vec![fig8()],
        "fig9" => vec![fig9()],
        _ => vec![fig7(), fig8(), fig9()],
    };
    let mut csv = Vec::new();
    fig78::write_sweep_csv(sweep, &mut csv).expect("write to a Vec");
    sections[0].json = Some(("sweep".to_string(), fig78::to_json(sweep)));
    sections[0].csv = Some(csv);
    sections
}

/// Run `command` headlessly and return its report sections, running the
/// offline profiling phase first when the command needs predictors —
/// exactly what the CLI contributes to the document between `params`
/// and `telemetry`. Returns `Err` for commands outside
/// [`SERVABLE_COMMANDS`].
pub fn compute_sections(command: &str, params: &Params) -> Result<Vec<(String, Json)>, String> {
    if !SERVABLE_COMMANDS.contains(&command) {
        return Err(format!("command '{command}' has no headless report form"));
    }
    let preds = needs_predictors(command).then(|| profiling::predictors(params));
    let sections = run(command, params, preds.as_ref())?;
    Ok(sections.into_iter().filter_map(|s| s.json).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_block_matches_cli_shape() {
        let p = Params::quick();
        let j = params_json(&p);
        assert_eq!(j.get("run_insts").and_then(Json::as_u64), Some(p.run_insts));
        assert_eq!(j.get("sim_path").and_then(Json::as_str), Some("fast"));
        assert_eq!(j.get("trace_path").and_then(Json::as_str), Some("arena"));
        assert_eq!(j.get("trace_cache"), Some(&Json::Null));
        // Field order is part of the byte contract.
        let keys: Vec<&str> = j.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["run_insts", "num_pairs", "seed", "sim_path", "trace_path", "trace_cache"]
        );
    }

    #[test]
    fn assemble_orders_sections() {
        let doc = assemble(
            "fig1",
            &Params::quick(),
            vec![("fig1".to_string(), Json::arr([]))],
            Json::obj([("counters", Json::Obj(vec![]))]),
        );
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["command", "params", "fig1", "telemetry"]);
    }

    #[test]
    fn predictor_gating_matches_cli() {
        for c in ["tables", "workloads", "fig1", "derive-rules", "morphing", "scaling"] {
            assert!(!needs_predictors(c), "{c}");
        }
        for c in ["fig3", "fig6", "fig7", "overhead", "rr-interval", "ablation", "regret"] {
            assert!(needs_predictors(c), "{c}");
        }
    }

    #[test]
    fn unknown_command_is_rejected() {
        assert!(compute_sections("nope", &Params::quick()).is_err());
        assert!(run("nope", &Params::quick(), None).is_err());
    }

    #[test]
    fn text_only_commands_have_no_headless_form() {
        for c in ["tables", "workloads", "derive-rules"] {
            assert!(COMMANDS.contains(&c), "{c}");
            assert!(compute_sections(c, &Params::quick()).is_err(), "{c}");
        }
    }

    #[test]
    fn servable_commands_are_known_commands() {
        for c in SERVABLE_COMMANDS {
            assert!(COMMANDS.contains(c), "{c}");
        }
    }

    #[test]
    fn predictor_commands_need_predictors() {
        assert!(run("fig3", &Params::quick(), None).is_err());
    }
}
