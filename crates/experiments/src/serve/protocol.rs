//! The `ampsched serve` request protocol and the canonical-params hash.
//!
//! A job request is one JSON object naming an experiment and overriding
//! parameters:
//!
//! ```json
//! {"experiment": "fig1",
//!  "params": {"scale": "quick", "pairs": 2, "insts": 20000,
//!             "profile_insts": 200000}}
//! ```
//!
//! `params` mirrors the CLI flags one-for-one (`scale` ↔
//! `--quick`/`--medium`, `pairs` ↔ `--pairs`, ...), and both resolve
//! through [`Params::resolve`], so any CLI `--json` invocation can be
//! reproduced as a request — and the served response is byte-identical
//! to the file that invocation would have written (enforced by
//! `serve_e2e` and the CI serve leg). Unknown fields are *rejected*, not
//! ignored: a typo'd override must not silently resolve to a different
//! cache cell.
//!
//! The cache key is [`canonical_hash`]: an FNV-64 over the canonical
//! string of the *resolved* [`Params`] — every request-settable field
//! in one fixed order. Resolution makes the key independent of JSON
//! field order by construction, and two requests that resolve to the
//! same parameters are the same cell no matter how they were spelled.
//! DESIGN.md §14 specifies what is and is not part of the key.

use crate::common::Params;
use crate::report::SERVABLE_COMMANDS;
use ampsched_util::hash::fnv64;
use ampsched_util::Json;

/// One validated job: the experiment to run and the fully resolved
/// parameters (preset applied, overrides folded in).
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Experiment command (one of [`SERVABLE_COMMANDS`]).
    pub experiment: String,
    /// Resolved run parameters.
    pub params: Params,
}

/// Parse and validate a `/run` request body against `base`: the
/// server's default parameters for fields the request leaves unset
/// (in practice the trace-cache directory inherited from the server's
/// own flags). Returns a resolved [`JobSpec`] or a client-facing error
/// message (the server answers it as a 400).
pub fn parse_request(body: &[u8], base: &Params) -> Result<JobSpec, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| format!("body is not valid JSON: {e:?}"))?;
    let obj = doc.as_obj().ok_or("body must be a JSON object")?;

    let mut experiment: Option<String> = None;
    let mut params_obj: Option<&[(String, Json)]> = None;
    for (key, value) in obj {
        match key.as_str() {
            "experiment" => {
                experiment = Some(
                    value
                        .as_str()
                        .ok_or("\"experiment\" must be a string")?
                        .to_string(),
                )
            }
            "params" => {
                params_obj = Some(value.as_obj().ok_or("\"params\" must be an object")?)
            }
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    let experiment = experiment.ok_or("missing \"experiment\"")?;
    if !SERVABLE_COMMANDS.contains(&experiment.as_str()) {
        return Err(format!(
            "unknown experiment {experiment:?} (expected one of {})",
            SERVABLE_COMMANDS.join(", ")
        ));
    }

    let params = Params::resolve(params_obj.unwrap_or(&[]), base)?;
    Ok(JobSpec { experiment, params })
}

/// The canonical string of a resolved job: every request-settable field
/// (plus the preset-fixed system knobs that shape the simulation) in
/// one fixed order. This string — not the request JSON — is what gets
/// hashed, which is why the key is invariant under request field
/// reordering and sensitive to every value change.
pub fn canonical_key(spec: &JobSpec) -> String {
    let p = &spec.params;
    format!(
        "experiment={};epoch_cycles={};flush_l1_on_swap={};max_cycles={};num_pairs={};\
         profile_insts={};profile_interval_cycles={};run_insts={};seed={};sim_path={};\
         swap_overhead_cycles={};trace_cache={};trace_path={}",
        spec.experiment,
        p.system.epoch_cycles,
        p.system.flush_l1_on_swap,
        p.max_cycles,
        p.num_pairs,
        p.profile_insts,
        p.profile_interval_cycles,
        p.run_insts,
        p.seed,
        p.system.sim_path.name(),
        p.system.swap_overhead_cycles,
        p.trace_cache
            .as_deref()
            .map(|d| d.display().to_string())
            .unwrap_or_default(),
        p.trace_path.name(),
    )
}

/// The content-addressed cache key of a job: FNV-64 of
/// [`canonical_key`].
///
/// ```
/// use ampsched_experiments::common::Params;
/// use ampsched_experiments::serve::protocol::{canonical_hash, parse_request};
///
/// let base = Params::default();
/// // Same cell, two spellings: field order never reaches the hash.
/// let a = parse_request(
///     br#"{"experiment":"fig1","params":{"scale":"quick","seed":7}}"#, &base).unwrap();
/// let b = parse_request(
///     br#"{"params":{"seed":7,"scale":"quick"},"experiment":"fig1"}"#, &base).unwrap();
/// assert_eq!(canonical_hash(&a), canonical_hash(&b));
/// // A value change is a different cell.
/// let c = parse_request(
///     br#"{"experiment":"fig1","params":{"scale":"quick","seed":8}}"#, &base).unwrap();
/// assert_ne!(canonical_hash(&a), canonical_hash(&c));
/// ```
pub fn canonical_hash(spec: &JobSpec) -> u64 {
    fnv64(canonical_key(spec).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Params {
        Params::default()
    }

    #[test]
    fn resolves_presets_and_overrides() {
        let spec = parse_request(
            br#"{"experiment":"fig1","params":{"scale":"quick","pairs":2,"insts":20000,"profile_insts":200000}}"#,
            &base(),
        )
        .unwrap();
        assert_eq!(spec.experiment, "fig1");
        assert_eq!(spec.params.num_pairs, 2);
        assert_eq!(spec.params.run_insts, 20000);
        assert_eq!(spec.params.profile_insts, 200000);
        // Preset fields not overridden stay at the preset value.
        assert_eq!(spec.params.system.epoch_cycles, Params::quick().system.epoch_cycles);
    }

    #[test]
    fn scale_applies_before_overrides_regardless_of_order() {
        let a = parse_request(
            br#"{"experiment":"fig1","params":{"insts":123,"scale":"quick"}}"#,
            &base(),
        )
        .unwrap();
        let b = parse_request(
            br#"{"experiment":"fig1","params":{"scale":"quick","insts":123}}"#,
            &base(),
        )
        .unwrap();
        assert_eq!(a.params.run_insts, 123);
        assert_eq!(b.params.run_insts, 123);
        assert_eq!(canonical_hash(&a), canonical_hash(&b));
    }

    #[test]
    fn unknown_fields_are_rejected() {
        assert!(parse_request(br#"{"experiment":"fig1","nope":1}"#, &base()).is_err());
        assert!(
            parse_request(br#"{"experiment":"fig1","params":{"insst":5}}"#, &base()).is_err()
        );
        assert!(parse_request(br#"{"experiment":"rm -rf"}"#, &base()).is_err());
        assert!(parse_request(b"not json", &base()).is_err());
        assert!(parse_request(b"[1,2]", &base()).is_err());
    }

    #[test]
    fn a_repeated_scale_is_rejected() {
        let err = parse_request(
            br#"{"experiment":"fig1","params":{"scale":"quick","insts":20000,"scale":"nope"}}"#,
            &base(),
        )
        .unwrap_err();
        assert_eq!(err, "\"scale\" given more than once");
    }

    #[test]
    fn trace_cache_inherits_from_base_but_can_be_cleared() {
        let mut b = base();
        b.trace_cache = Some("/tmp/tc".into());
        let inherit = parse_request(br#"{"experiment":"fig1"}"#, &b).unwrap();
        assert_eq!(inherit.params.trace_cache.as_deref(), Some(std::path::Path::new("/tmp/tc")));
        let cleared = parse_request(
            br#"{"experiment":"fig1","params":{"trace_cache":null}}"#,
            &b,
        )
        .unwrap();
        assert!(cleared.params.trace_cache.is_none());
        // The inherited directory is part of the key: the rendered
        // params block differs, so the cached bytes must too.
        assert_ne!(canonical_hash(&inherit), canonical_hash(&cleared));
    }

    #[test]
    fn every_settable_field_reaches_the_key() {
        let baseline = parse_request(br#"{"experiment":"fig1"}"#, &base()).unwrap();
        let variants: &[&[u8]] = &[
            br#"{"experiment":"morphing"}"#,
            br#"{"experiment":"fig1","params":{"scale":"quick"}}"#,
            br#"{"experiment":"fig1","params":{"pairs":3}}"#,
            br#"{"experiment":"fig1","params":{"insts":1}}"#,
            br#"{"experiment":"fig1","params":{"profile_insts":1}}"#,
            br#"{"experiment":"fig1","params":{"seed":1}}"#,
            br#"{"experiment":"fig1","params":{"sim_path":"reference"}}"#,
            br#"{"experiment":"fig1","params":{"trace_path":"stream"}}"#,
            br#"{"experiment":"fig1","params":{"trace_cache":"/tmp/tc"}}"#,
        ];
        let mut hashes = vec![canonical_hash(&baseline)];
        for v in variants {
            hashes.push(canonical_hash(&parse_request(v, &base()).unwrap()));
        }
        let distinct: std::collections::HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(distinct.len(), hashes.len(), "all variants must key distinct cells");
    }
}
