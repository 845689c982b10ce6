//! Summary statistics used across the experiment drivers.

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Indices of the `k` smallest values (ascending by value).
pub fn k_smallest_indices(xs: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("no NaNs"));
    idx.truncate(k);
    idx
}

/// Indices of the `k` largest values (descending by value).
pub fn k_largest_indices(xs: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[b].partial_cmp(&xs[a]).expect("no NaNs"));
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_slices() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn k_extremes() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(k_smallest_indices(&xs, 2), vec![1, 3]);
        assert_eq!(k_largest_indices(&xs, 2), vec![0, 4]);
        assert_eq!(k_smallest_indices(&xs, 99).len(), 5);
    }
}
