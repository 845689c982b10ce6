//! Decision provenance: the audit-trail record every scheduler can
//! publish alongside its decisions.

/// Which estimator produced a decision — the audit trail's provenance
/// tag (see [`DecisionExplain`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorSource {
    /// The proposed scheme's Figure 5 swap rules over observed INT/FP mix.
    Rules,
    /// The HPE ratio matrix (profiled 5×5 INT/FP bins).
    Matrix,
    /// The HPE fitted ratio surface (quadratic in log-ratio space).
    Surface,
    /// A fixed swap interval (Round Robin); no performance estimate.
    Interval,
    /// Cumulative committed-instruction progress (Thread Progress
    /// Equalization).
    Progress,
    /// Composition→core affinity ranking (CAMP-style placement).
    Affinity,
    /// Clairvoyant replay of a precomputed optimal schedule (the offline
    /// oracle; no online estimate is involved).
    Oracle,
}

impl PredictorSource {
    /// Lowercase identifier used in telemetry records.
    pub fn name(self) -> &'static str {
        match self {
            PredictorSource::Rules => "rules",
            PredictorSource::Matrix => "matrix",
            PredictorSource::Surface => "surface",
            PredictorSource::Interval => "interval",
            PredictorSource::Progress => "progress",
            PredictorSource::Affinity => "affinity",
            PredictorSource::Oracle => "oracle",
        }
    }
}

/// Predictor inputs and outputs behind the most recent decision, exposed
/// by [`crate::TopoScheduler::explain_last`] for the decision audit trail.
///
/// Every field is a value the scheduler already computed while deciding;
/// capturing it is read-only and cannot perturb the decision itself.
/// Optional fields are `None` where a scheme has no such concept (the
/// ratio fields for rule-based schemes, the vote fields for epoch-based
/// schemes). `Option<f64>` is used instead of NaN sentinels so records
/// stay `PartialEq`-comparable in the differential suites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionExplain {
    /// Which estimator drove the decision.
    pub source: PredictorSource,
    /// Predicted INT-core/FP-core IPC/Watt ratio for the thread
    /// currently on the FP core (HPE-style predictors).
    pub ratio_on_fp: Option<f64>,
    /// Predicted ratio for the thread currently on the INT core.
    pub ratio_on_int: Option<f64>,
    /// Predicted weighted IPC/Watt speedup if the threads swap.
    pub predicted_speedup: Option<f64>,
    /// Swap votes currently in the history window (vote-based schemes).
    pub votes_for: Option<u32>,
    /// Size of the history vote window.
    pub vote_depth: Option<u32>,
}

impl DecisionExplain {
    /// An explanation carrying only the provenance tag.
    pub fn from_source(source: PredictorSource) -> DecisionExplain {
        DecisionExplain {
            source,
            ratio_on_fp: None,
            ratio_on_int: None,
            predicted_speedup: None,
            votes_for: None,
            vote_depth: None,
        }
    }
}
