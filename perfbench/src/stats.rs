//! Exact order statistics over raw samples.
//!
//! Every latency the benchmark reports is read off the sorted samples
//! themselves, never off power-of-two histogram buckets: at n = 3 the
//! bucket estimator reports p95 = p99 = 16 777 215 ns, the top edge of
//! the 2^24 bucket, whatever the samples were.

/// A tail needs at least this many samples strictly above its rank.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of raw samples (mean of the two middle samples for even n);
/// `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The highest percentile of a sample that still has at least
/// [`TAIL_MIN_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile of the tail's rank, e.g. `99.0` for rank 990 of 1000.
    pub percentile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples the tail was read from.
    pub n: usize,
    /// Samples strictly above the tail's rank.
    pub beyond: usize,
}

/// The tail of `samples`: the sample at 1-based rank n − 10, the highest
/// rank with ten samples above it. `None` when that rank falls below the
/// median (n < 20), so no tail is printed for a small sample.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len();
    let rank = n.checked_sub(TAIL_MIN_BEYOND)?;
    (rank >= 1 && 2 * rank >= n).then(|| Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: s[rank - 1],
        n,
        beyond: n - rank,
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The three warm fig1 latencies behind the old `BENCH_serve.json`
    /// entry whose bucket-estimated p95 and p99 both read 16 777 215 ns.
    const N3_NS: [f64; 3] = [9_116_436.0, 10_578_729.0, 10_483_428.0];

    #[test]
    fn n3_median_is_the_middle_sample_and_has_no_tail() {
        assert_eq!(median(&N3_NS), Some(10_483_428.0));
        assert_eq!(tail(&N3_NS), None, "3 samples cannot support any tail");
    }

    #[test]
    fn even_median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_the_sample_with_ten_above_it() {
        let ms: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&ms).expect("1000 samples have a tail");
        assert_eq!(
            (t.percentile, t.value, t.n, t.beyond),
            (99.0, 990.0, 1000, 10)
        );
        let t = tail(&ms[..64]).expect("64 samples have a tail");
        assert_eq!((t.percentile, t.value, t.beyond), (84.375, 54.0, 10));
    }

    #[test]
    fn tail_boundary_at_twenty_samples() {
        let ms: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&ms).expect("20 samples support the median as tail");
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        assert_eq!(tail(&ms[..19]), None);
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let mut ms: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = tail(&ms);
        ms.reverse();
        assert_eq!(tail(&ms), a);
        assert_eq!(median(&ms), Some(99.5));
    }
}
