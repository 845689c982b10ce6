//! Ablation scheduler: the HPE predictor evaluated at the proposed
//! scheme's fine window granularity.
//!
//! Separates the two axes the paper's comparison conflates — *predictor
//! quality* (composition rules vs. profiled ratio model) and *decision
//! granularity* (1000-instruction windows vs. 2 ms epochs). Comparing
//! `MatrixFineScheduler` against both [`crate::TopoHpe`] (same
//! predictor, coarse) and [`crate::TopoProposed`] (same granularity,
//! rule-based predictor) isolates each effect; DESIGN.md lists this as
//! ablation 3/5.

use crate::hpe::HpePredictor;
use crate::scheduler::DecisionExplain;
use crate::topo::{TopoDecision, TopoScheduler, TopoSnapshot};
use crate::zoo::{first_hpe_swap, swap_cores, PairVote};

/// Fine-grained matrix/surface-predictor scheduler: per window, the
/// first flavour-contrasted core pair whose HPE estimate clears the
/// threshold and is stable is the tentative decision, filtered through
/// the proposed scheme's history vote.
#[derive(Debug, Clone)]
pub struct MatrixFineScheduler {
    predictor: HpePredictor,
    window: u64,
    threads: usize,
    vote: PairVote,
    /// Minimum estimated weighted speedup to tentatively vote "swap".
    pub threshold: f64,
    last_explain: Option<DecisionExplain>,
}

impl MatrixFineScheduler {
    /// Build with the proposed scheme's default window (1000/thread) and
    /// history depth (5) for a topology with `threads` threads.
    pub fn new(predictor: HpePredictor, threads: usize) -> Self {
        Self::with_params(predictor, 1000, 5, threads)
    }

    /// Fully parameterized constructor.
    pub fn with_params(
        predictor: HpePredictor,
        window: u64,
        history_depth: usize,
        threads: usize,
    ) -> Self {
        MatrixFineScheduler {
            predictor,
            window,
            threads,
            vote: PairVote::new(history_depth),
            threshold: 1.05,
            last_explain: None,
        }
    }
}

impl TopoScheduler for MatrixFineScheduler {
    fn name(&self) -> &'static str {
        "matrix-fine"
    }

    fn window_insts(&self) -> Option<u64> {
        Some(self.window * self.threads as u64)
    }

    fn on_window(&mut self, snap: &TopoSnapshot) -> TopoDecision {
        // Same oscillation guard as `TopoHpe`, from the estimate's own
        // ratios.
        let (tentative, explain) =
            first_hpe_swap(&self.predictor, snap, self.threshold, |_, e| e.is_stable());
        self.vote.push(tentative);
        let votes = self.vote.explain(self.predictor.source());
        self.last_explain = Some(DecisionExplain {
            votes_for: votes.votes_for,
            vote_depth: votes.vote_depth,
            ..explain.unwrap_or(votes)
        });
        match self.vote.majority_pair(snap) {
            Some((a, b)) => {
                self.vote.clear();
                swap_cores(snap, a, b)
            }
            None => TopoDecision::Stay,
        }
    }

    fn explain_last(&self) -> Option<DecisionExplain> {
        self.last_explain
    }

    fn reset(&mut self) {
        self.vote.clear();
        self.last_explain = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpe::tests::synthetic_points;
    use crate::hpe::RatioSurface;
    use crate::topo::AssignmentMap;
    use crate::zoo::tests::duo;

    fn scheduler() -> MatrixFineScheduler {
        MatrixFineScheduler::new(
            HpePredictor::Surface(RatioSurface::from_points(&synthetic_points())),
            2,
        )
    }

    #[test]
    fn swaps_after_vote_fills_on_misplacement() {
        let mut s = scheduler();
        let misplaced = duo(0, (80.0, 2.0), (5.0, 60.0));
        let decisions: Vec<TopoDecision> = (0..5).map(|_| s.on_window(&misplaced)).collect();
        assert!(decisions[..4].iter().all(|d| *d == TopoDecision::Stay));
        assert_eq!(decisions[4], TopoDecision::Reassign(AssignmentMap::pair(true)));
        let e = s.explain_last().expect("explained");
        assert_eq!((e.votes_for, e.vote_depth), (Some(5), Some(5)));
        assert!(e.predicted_speedup.unwrap() > 1.05);
    }

    #[test]
    fn stays_on_good_placement() {
        let mut s = scheduler();
        let placed = duo(0, (5.0, 60.0), (80.0, 2.0));
        for _ in 0..20 {
            assert_eq!(s.on_window(&placed), TopoDecision::Stay);
        }
    }

    #[test]
    fn window_cadence_matches_proposed_default() {
        assert_eq!(scheduler().window_insts(), Some(2000));
    }
}
