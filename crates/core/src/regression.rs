//! Small dense least-squares solver used to fit the paper's non-linear
//! performance/watt-ratio expression (Figure 4).
//!
//! The fit is ordinary least squares over a quadratic 2-D polynomial
//! basis, solved via normal equations and Gaussian elimination with
//! partial pivoting — sizes here are 6×6, so numerical sophistication is
//! unnecessary.

/// Quadratic 2-D basis: `[1, x1, x2, x1², x2², x1·x2]`.
pub fn quad_basis(x1: f64, x2: f64) -> [f64; 6] {
    [1.0, x1, x2, x1 * x1, x2 * x2, x1 * x2]
}

/// Solve `A·x = b` in place (Gaussian elimination, partial pivoting).
///
/// Returns `None` when the system is (near-)singular.
pub fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    assert!(a.len() == n && a.iter().all(|r| r.len() == n), "A must be n×n");
    for col in 0..n {
        // Pivot.
        let pivot = (col..n).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .expect("no NaNs")
        })?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate. (Split-borrow the pivot row so the inner update can
        // iterate the target row by element.)
        for row in col + 1..n {
            let f = a[row][col] / a[col][col];
            let (pivot_rows, rest) = a.split_at_mut(col + 1);
            let pivot_row = &pivot_rows[col];
            let target = &mut rest[row - col - 1];
            for (t, p) in target[col..].iter_mut().zip(&pivot_row[col..]) {
                *t -= f * p;
            }
            b[row] -= f * b[col];
        }
    }
    // Back-substitute.
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut s = b[col];
        for k in col + 1..n {
            s -= a[col][k] * x[k];
        }
        x[col] = s / a[col][col];
    }
    Some(x)
}

/// Ridge-regularized least squares: find `beta` minimizing
/// `‖X·beta − y‖² + lambda·‖beta[1..]‖²`, where each row of `xs` is one
/// observation's basis vector (the intercept — column 0 — is not
/// penalized; `lambda = 0` is ordinary least squares).
///
/// Regularization keeps the fit well-behaved when the profiling data
/// covers only a manifold of the composition space, which is exactly the
/// situation with real benchmarks (high %INT implies low %FP and vice
/// versa). Returns `None` when the normal equations are singular (e.g.
/// fewer independent observations than basis functions at `lambda = 0`).
///
/// # Panics
/// Panics if `xs` and `y` lengths differ, rows are ragged, or `lambda`
/// is negative.
pub fn least_squares_ridge(xs: &[Vec<f64>], y: &[f64], lambda: f64) -> Option<Vec<f64>> {
    assert_eq!(xs.len(), y.len(), "observations must align");
    assert!(lambda >= 0.0, "ridge penalty must be non-negative");
    let m = xs.first().map_or(0, |r| r.len());
    assert!(m > 0 && xs.iter().all(|r| r.len() == m), "ragged design matrix");
    // Normal equations: (XᵀX + lambda·I') beta = Xᵀy.
    let mut xtx = vec![vec![0.0; m]; m];
    let mut xty = vec![0.0; m];
    for (row, &yi) in xs.iter().zip(y) {
        for i in 0..m {
            xty[i] += row[i] * yi;
            for j in 0..m {
                xtx[i][j] += row[i] * row[j];
            }
        }
    }
    for (i, row) in xtx.iter_mut().enumerate().skip(1) {
        row[i] += lambda;
    }
    solve(xtx, xty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let x = solve(a, vec![3.0, 4.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn solves_with_pivoting() {
        // First pivot is zero: requires row exchange.
        let a = vec![vec![0.0, 1.0], vec![2.0, 1.0]];
        let x = solve(a, vec![1.0, 4.0]).unwrap();
        assert!((x[0] - 1.5).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_returns_none() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve(a, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn recovers_known_quadratic() {
        // y = 2 + 0.5 x1 - 0.3 x2 + 0.01 x1^2 - 0.02 x2^2 + 0.005 x1 x2
        let truth = [2.0, 0.5, -0.3, 0.01, -0.02, 0.005];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                let (x1, x2) = (i as f64 * 10.0, j as f64 * 10.0);
                let b = quad_basis(x1, x2);
                xs.push(b.to_vec());
                ys.push(b.iter().zip(&truth).map(|(a, c)| a * c).sum());
            }
        }
        let beta = least_squares_ridge(&xs, &ys, 0.0).unwrap();
        for (est, want) in beta.iter().zip(&truth) {
            assert!((est - want).abs() < 1e-8, "est {est} want {want}");
        }
    }

    #[test]
    fn underdetermined_is_singular() {
        // 2 observations, 6 basis functions.
        let xs = vec![quad_basis(1.0, 2.0).to_vec(), quad_basis(3.0, 4.0).to_vec()];
        assert!(least_squares_ridge(&xs, &[1.0, 2.0], 0.0).is_none());
    }
}
