//! The predictors of the HPE reference scheme (Srinivasan et al. \[8\],
//! extended to flavored cores per Section V): from a thread's observed
//! (%INT, %FP), the IPC/Watt it *would* achieve on the other core, read
//! off either the binned ratio **matrix** (Figure 3) or the fitted
//! **regression surface** (Figure 4). The scheduler built on them is
//! [`crate::TopoHpe`]; the fine-grained ablation is
//! [`crate::MatrixFineScheduler`].

use crate::counters::ThreadWindow;
use crate::profile::ProfilePoint;
use crate::regression::quad_basis;
use crate::scheduler::{DecisionExplain, PredictorSource};

/// Number of 20-percentage-point bins per axis (0–100%).
pub const MATRIX_BINS: usize = 5;

/// The Figure 3 ratio matrix: cell (i, j) holds the statistical mode of
/// the IPC/Watt ratio (INT core ÷ FP core) observed for intervals whose
/// %INT fell in bin i and %FP in bin j.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioMatrix {
    cells: [[f64; MATRIX_BINS]; MATRIX_BINS],
    filled: [[bool; MATRIX_BINS]; MATRIX_BINS],
}

fn bin_of(pct: f64) -> usize {
    ((pct.clamp(0.0, 100.0) / 20.0) as usize).min(MATRIX_BINS - 1)
}

impl RatioMatrix {
    /// Build from profiling data: per-cell binned statistical mode
    /// (bin width 0.05, as the paper collapses multiple observations),
    /// with empty cells filled from the nearest populated cell so lookups
    /// never fall into a hole.
    ///
    /// # Panics
    /// Panics if `points` is empty.
    pub fn from_points(points: &[ProfilePoint]) -> Self {
        assert!(!points.is_empty(), "ratio matrix needs profiling data");
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); MATRIX_BINS * MATRIX_BINS];
        for p in points {
            buckets[bin_of(p.int_pct) * MATRIX_BINS + bin_of(p.fp_pct)].push(p.ratio());
        }
        let mut cells = [[1.0; MATRIX_BINS]; MATRIX_BINS];
        let mut filled = [[false; MATRIX_BINS]; MATRIX_BINS];
        for i in 0..MATRIX_BINS {
            for j in 0..MATRIX_BINS {
                if let Some(mode) =
                    crate::hpe::binned_mode_local(&buckets[i * MATRIX_BINS + j], 0.05)
                {
                    cells[i][j] = mode;
                    filled[i][j] = true;
                }
            }
        }
        // Fill holes from the nearest (Manhattan) populated cell.
        let snapshot = cells;
        let populated = filled;
        for i in 0..MATRIX_BINS {
            for j in 0..MATRIX_BINS {
                if !populated[i][j] {
                    let mut best = (usize::MAX, 1.0);
                    for a in 0..MATRIX_BINS {
                        for b in 0..MATRIX_BINS {
                            if populated[a][b] {
                                let d = a.abs_diff(i) + b.abs_diff(j);
                                if d < best.0 {
                                    best = (d, snapshot[a][b]);
                                }
                            }
                        }
                    }
                    cells[i][j] = best.1;
                }
            }
        }
        RatioMatrix { cells, filled }
    }

    /// Predicted ratio for a thread with the given composition.
    pub fn lookup(&self, int_pct: f64, fp_pct: f64) -> f64 {
        self.cells[bin_of(int_pct)][bin_of(fp_pct)]
    }

    /// Whether the cell covering the composition was directly profiled.
    pub fn cell_was_profiled(&self, int_pct: f64, fp_pct: f64) -> bool {
        self.filled[bin_of(int_pct)][bin_of(fp_pct)]
    }

    /// Raw cell values (Figure 3 rendering).
    pub fn cells(&self) -> &[[f64; MATRIX_BINS]; MATRIX_BINS] {
        &self.cells
    }
}

/// Binned statistical mode (local copy to keep this crate free of a
/// metrics dependency): center of the most populated `width`-wide bin.
pub(crate) fn binned_mode_local(xs: &[f64], width: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<i64, usize> = BTreeMap::new();
    for x in xs {
        *counts.entry((x / width).floor() as i64).or_insert(0) += 1;
    }
    let (&bin, _) = counts.iter().max_by_key(|e| *e.1)?;
    Some((bin as f64 + 0.5) * width)
}

/// The Figure 4 alternative: a surface fitted to the same profiling data
/// by non-linear regression.
///
/// The fit is quadratic in (%INT, %FP) on the *logarithm* of the ratio,
/// with a light ridge penalty: ratios are multiplicative (a workload that
/// is 2× better on the INT core mirrors one that is 2× better on the FP
/// core), and real benchmarks only populate the `%INT + %FP ≤ 100`
/// manifold, so an unregularized raw-ratio polynomial extrapolates
/// wildly at the corners.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioSurface {
    /// Log-ratio coefficients over the basis
    /// `[1, x1, x2, x1², x2², x1·x2]` with x1 = %INT, x2 = %FP.
    pub beta: [f64; 6],
}

impl RatioSurface {
    /// Fit from profiling data.
    ///
    /// # Panics
    /// Panics if the data are degenerate (fit is singular) or empty.
    pub fn from_points(points: &[ProfilePoint]) -> Self {
        assert!(!points.is_empty(), "ratio surface needs profiling data");
        // Percentages are scaled to [0,1] so every basis feature has
        // comparable magnitude and the ridge penalty is meaningful.
        let xs: Vec<Vec<f64>> = points
            .iter()
            .map(|p| quad_basis(p.int_pct / 100.0, p.fp_pct / 100.0).to_vec())
            .collect();
        let ys: Vec<f64> = points.iter().map(|p| p.ratio().max(1e-6).ln()).collect();
        let beta = crate::regression::least_squares_ridge(&xs, &ys, 0.05)
            .expect("profiling data must span the composition space");
        let mut b = [0.0; 6];
        b.copy_from_slice(&beta);
        RatioSurface { beta: b }
    }

    /// Predicted ratio; clamped to a sane positive range so far-from-data
    /// extrapolation cannot produce nonsense.
    pub fn predict(&self, int_pct: f64, fp_pct: f64) -> f64 {
        let b = quad_basis(
            int_pct.clamp(0.0, 100.0) / 100.0,
            fp_pct.clamp(0.0, 100.0) / 100.0,
        );
        let log_y: f64 = b.iter().zip(&self.beta).map(|(x, c)| x * c).sum();
        log_y.exp().clamp(0.05, 20.0)
    }
}

/// Which predictor form the HPE scheduler uses.
#[derive(Debug, Clone, PartialEq)]
pub enum HpePredictor {
    /// Binned ratio matrix (Figure 3).
    Matrix(RatioMatrix),
    /// Fitted regression surface (Figure 4).
    Surface(RatioSurface),
}

impl HpePredictor {
    /// Predicted IPC/Watt ratio (INT core ÷ FP core) for a composition.
    pub fn predict_ratio(&self, int_pct: f64, fp_pct: f64) -> f64 {
        match self {
            HpePredictor::Matrix(m) => {
                ampsched_obs::counter!("sim.predictor.query.matrix");
                m.lookup(int_pct, fp_pct)
            }
            HpePredictor::Surface(s) => {
                ampsched_obs::counter!("sim.predictor.query.surface");
                s.predict(int_pct, fp_pct)
            }
        }
    }

    /// The audit-trail provenance tag for this predictor form.
    pub fn source(&self) -> PredictorSource {
        match self {
            HpePredictor::Matrix(_) => PredictorSource::Matrix,
            HpePredictor::Surface(_) => PredictorSource::Surface,
        }
    }
}

/// HPE's estimate for swapping the threads of one flavour-contrasted
/// core pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SwapEstimate {
    /// Predicted ratio for the thread on the FP-role core (it would move
    /// to the INT-role core and gain this ratio).
    pub ratio_on_fp: f64,
    /// Predicted ratio for the thread on the INT-role core (it would move
    /// to the FP-role core and gain the inverse).
    pub ratio_on_int: f64,
    /// Estimated weighted speedup of the swapped configuration,
    /// `(r_fp + 1/r_int) / 2`.
    pub speedup: f64,
}

impl SwapEstimate {
    /// Whether swapping *back* after this swap would look harmful — the
    /// estimate of un-swapping, evaluated with the roles exchanged, is
    /// below 1 (see [`crate::TopoHpe::swap_is_stable`]).
    pub(crate) fn is_stable(&self) -> bool {
        (self.ratio_on_int + 1.0 / self.ratio_on_fp.max(1e-6)) / 2.0 < 1.0
    }

    /// The estimate as an audit-trail explanation.
    pub(crate) fn explain(&self, source: PredictorSource) -> DecisionExplain {
        DecisionExplain {
            ratio_on_fp: Some(self.ratio_on_fp),
            ratio_on_int: Some(self.ratio_on_int),
            predicted_speedup: Some(self.speedup),
            ..DecisionExplain::from_source(source)
        }
    }
}

impl HpePredictor {
    /// Estimate swapping the thread observed as `on_fp` (on the FP-role
    /// core) with the one observed as `on_int` (on the INT-role core).
    pub(crate) fn swap_estimate(
        &self,
        on_fp: &ThreadWindow,
        on_int: &ThreadWindow,
    ) -> SwapEstimate {
        let ratio_on_fp = self.predict_ratio(on_fp.int_pct, on_fp.fp_pct);
        let ratio_on_int = self.predict_ratio(on_int.int_pct, on_int.fp_pct);
        SwapEstimate {
            ratio_on_fp,
            ratio_on_int,
            speedup: (ratio_on_fp + 1.0 / ratio_on_int.max(1e-6)) / 2.0,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Synthetic profile with the qualitative truth of the substrate:
    /// INT-heavy compositions favor the INT core (ratio > 1), FP-heavy
    /// favor the FP core (ratio < 1).
    pub(crate) fn synthetic_points() -> Vec<ProfilePoint> {
        let mut pts = Vec::new();
        for i in 0..=10 {
            for f in 0..=(10 - i) {
                let int_pct = i as f64 * 10.0;
                let fp_pct = f as f64 * 10.0;
                // Ground truth: ratio rises with %INT, falls with %FP.
                let ratio = (1.0 + 0.012 * int_pct - 0.02 * fp_pct).max(0.2);
                pts.push(ProfilePoint {
                    int_pct,
                    fp_pct,
                    ppw_int_core: ratio * 0.3,
                    ppw_fp_core: 0.3,
                });
            }
        }
        pts
    }

    fn mix(int_pct: f64, fp_pct: f64) -> ThreadWindow {
        ThreadWindow { int_pct, fp_pct, ..Default::default() }
    }

    #[test]
    fn matrix_bins_cover_the_plane() {
        assert_eq!(bin_of(0.0), 0);
        assert_eq!(bin_of(19.9), 0);
        assert_eq!(bin_of(20.0), 1);
        assert_eq!(bin_of(99.9), 4);
        assert_eq!(bin_of(100.0), 4);
        assert_eq!(bin_of(150.0), 4, "clamped");
        assert_eq!(bin_of(-5.0), 0, "clamped");
    }

    #[test]
    fn matrix_learns_flavor_affinity() {
        let m = RatioMatrix::from_points(&synthetic_points());
        assert!(m.lookup(80.0, 2.0) > 1.2, "INT-heavy favors INT core");
        assert!(m.lookup(5.0, 60.0) < 0.8, "FP-heavy favors FP core");
        assert!(m.cell_was_profiled(80.0, 2.0));
    }

    #[test]
    fn matrix_fills_holes_from_neighbors() {
        // Only INT-heavy data: FP-heavy cells must be filled by fallback.
        let pts: Vec<ProfilePoint> = synthetic_points()
            .into_iter()
            .filter(|p| p.int_pct >= 60.0)
            .collect();
        let m = RatioMatrix::from_points(&pts);
        assert!(!m.cell_was_profiled(5.0, 90.0));
        // Value exists and is positive (inherited from nearest profiled).
        assert!(m.lookup(5.0, 90.0) > 0.0);
    }

    #[test]
    fn surface_learns_flavor_affinity() {
        let s = RatioSurface::from_points(&synthetic_points());
        assert!(s.predict(80.0, 2.0) > 1.2);
        assert!(s.predict(5.0, 60.0) < 0.8);
        // Surface must agree with matrix inside the data region.
        let m = RatioMatrix::from_points(&synthetic_points());
        let diff = (s.predict(50.0, 10.0) - m.lookup(50.0, 10.0)).abs();
        assert!(diff < 0.35, "matrix and surface should roughly agree: {diff}");
    }

    #[test]
    fn surface_extrapolation_is_clamped() {
        let s = RatioSurface::from_points(&synthetic_points());
        let y = s.predict(500.0, -100.0);
        assert!((0.05..=20.0).contains(&y));
    }

    #[test]
    fn estimated_speedup_is_symmetric_around_unity() {
        let p = HpePredictor::Surface(RatioSurface::from_points(&synthetic_points()));
        let good = p.swap_estimate(&mix(80.0, 2.0), &mix(5.0, 60.0));
        let bad = p.swap_estimate(&mix(5.0, 60.0), &mix(80.0, 2.0));
        assert!(good.speedup > 1.05 && good.is_stable());
        assert!(bad.speedup < 1.0);
        let e = good.explain(p.source());
        assert_eq!(e.source, PredictorSource::Surface);
        assert_eq!(e.predicted_speedup, Some(good.speedup));
        assert!(e.ratio_on_fp.unwrap() > 1.0, "INT-heavy thread on FP core");
        assert!(e.ratio_on_int.unwrap() < 1.0, "FP-heavy thread on INT core");
    }

    #[test]
    fn same_flavor_estimates_are_unstable() {
        // Two INT-heavy threads: the naive weighted estimate is > 1.05 in
        // both directions, which the stability guard catches.
        let p = HpePredictor::Matrix(RatioMatrix::from_points(&synthetic_points()));
        let e = p.swap_estimate(&mix(75.0, 1.0), &mix(70.0, 2.0));
        assert!(e.speedup > 1.05, "the naive estimate is indeed above threshold");
        assert!(!e.is_stable());
    }
}
