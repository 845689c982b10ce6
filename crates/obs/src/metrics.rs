//! Process-global counters and fixed-bucket histograms.
//!
//! Instruments register themselves by name on first use and live for the
//! life of the process (the registry leaks one allocation per unique
//! name, giving out `&'static` handles that increment with a single
//! relaxed atomic op — no locking after the first touch). The
//! [`counter!`](crate::counter) and [`hist!`](crate::hist) macros cache
//! the handle per call site, so steady-state cost is one atomic
//! fetch-add.
//!
//! Histograms use power-of-two buckets: bucket 0 holds exactly `0`,
//! bucket `i >= 1` holds `[2^(i-1), 2^i - 1]`. Bucket boundaries are
//! total and contiguous over `u64` (see the `prop_obs` property suite).
//!
//! Counter names are dot-separated, lowest-frequency component last
//! (`trace.arena.hit`). The `sim.*` namespace is reserved for values that
//! are a pure function of simulation inputs — those are the only
//! instruments the experiment `--json` telemetry block may include, so
//! the report stays byte-identical across trace provisioning modes and
//! cache temperature.

use ampsched_util::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of histogram buckets: `{0}` plus one per power of two.
pub const BUCKETS: usize = 65;

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    const fn new() -> Counter {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket power-of-two histogram of `u64` samples.
#[derive(Debug)]
pub struct Hist {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Hist {
    fn new() -> Hist {
        Hist {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }
}

/// The bucket a sample lands in: 0 for `v == 0`, else `64 - clz(v)`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Estimate the `q`-quantile (`0.0 ..= 1.0`) of a histogram from its
/// non-empty `(lo, hi, count)` buckets, `None` when the histogram holds
/// no samples.
///
/// The estimator walks the cumulative counts to the bucket containing
/// the rank-`ceil(q·n)` sample and interpolates linearly inside that
/// bucket's inclusive `[lo, hi]` range. The true sample provably lies in
/// the same bucket, so the absolute error is bounded by the bucket width
/// — for the power-of-two buckets used here that is a worst-case
/// relative error of 2× (`hi < 2·lo`), and *exact* for buckets 0 and 1
/// (values `0` and `1`). Good enough to tell a 100 µs p99 from a 10 ms
/// one, which is what the daemon's `/metrics` uses it for; it is not a
/// substitute for raw samples when single-percent precision matters
/// (`serve-bench`, which keeps its samples, reports exact nearest-rank
/// percentiles instead).
pub fn quantile(buckets: &[(u64, u64, u64)], q: f64) -> Option<u64> {
    let total: u64 = buckets.iter().map(|&(_, _, c)| c).sum();
    if total == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    // Rank of the sample we are after, 1-based; q = 0 means the minimum.
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for &(lo, hi, count) in buckets {
        if count == 0 {
            continue;
        }
        if seen + count >= rank {
            // The rank-th sample is one of this bucket's `count` samples;
            // interpolate its position across the bucket's value range.
            let into = (rank - seen) as f64 / count as f64;
            let width = (hi - lo) as f64;
            return Some(lo + (width * into) as u64);
        }
        seen += count;
    }
    // Unreachable when bucket counts sum to `total`; be conservative.
    buckets.iter().rev().find(|&&(_, _, c)| c > 0).map(|&(_, hi, _)| hi)
}

/// Inclusive `[lo, hi]` range of values stored in bucket `i`.
///
/// # Panics
/// If `i >= BUCKETS`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    if i == 0 {
        (0, 0)
    } else if i == BUCKETS - 1 {
        (1 << (i - 1), u64::MAX)
    } else {
        (1 << (i - 1), (1 << i) - 1)
    }
}

struct Registry {
    counters: Vec<(&'static str, &'static Counter)>,
    hists: Vec<(&'static str, &'static Hist)>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        Mutex::new(Registry {
            counters: Vec::new(),
            hists: Vec::new(),
        })
    })
}

/// Look up (or register) the counter named `name`. The handle is
/// `&'static`: cache it (the [`counter!`](crate::counter) macro does)
/// rather than calling this per event.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = registry().lock().expect("metrics registry lock");
    if let Some((_, c)) = reg.counters.iter().find(|(n, _)| *n == name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::new(Counter::new()));
    reg.counters.push((name, c));
    c
}

/// Look up (or register) the histogram named `name`.
pub fn hist(name: &'static str) -> &'static Hist {
    let mut reg = registry().lock().expect("metrics registry lock");
    if let Some((_, h)) = reg.hists.iter().find(|(n, _)| *n == name) {
        return h;
    }
    let h: &'static Hist = Box::leak(Box::new(Hist::new()));
    reg.hists.push((name, h));
    h
}

/// Point-in-time copy of every registered instrument, sorted by name.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// One entry per histogram.
    pub hists: Vec<HistSnapshot>,
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    /// Registered name.
    pub name: String,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow).
    pub sum: u64,
    /// Non-empty buckets as `(lo, hi, count)` with inclusive bounds.
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistSnapshot {
    /// Estimate the `q`-quantile of this histogram (see [`quantile`] for
    /// the bucket-resolution error bound). `None` for an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        quantile(&self.buckets, q)
    }
}

/// Snapshot every registered counter and histogram, sorted by name.
pub fn snapshot() -> Snapshot {
    let reg = registry().lock().expect("metrics registry lock");
    let mut counters: Vec<(String, u64)> = reg
        .counters
        .iter()
        .map(|(n, c)| (n.to_string(), c.get()))
        .collect();
    counters.sort();
    let mut hists: Vec<HistSnapshot> = reg
        .hists
        .iter()
        .map(|(n, h)| HistSnapshot {
            name: n.to_string(),
            count: h.count.load(Ordering::Relaxed),
            sum: h.sum.load(Ordering::Relaxed),
            buckets: (0..BUCKETS)
                .filter_map(|i| {
                    let c = h.buckets[i].load(Ordering::Relaxed);
                    (c > 0).then(|| {
                        let (lo, hi) = bucket_bounds(i);
                        (lo, hi, c)
                    })
                })
                .collect(),
        })
        .collect();
    hists.sort_by(|a, b| a.name.cmp(&b.name));
    Snapshot { counters, hists }
}

/// Zero every registered instrument (registrations persist). For tests.
pub fn reset() {
    let reg = registry().lock().expect("metrics registry lock");
    for (_, c) in &reg.counters {
        c.value.store(0, Ordering::Relaxed);
    }
    for (_, h) in &reg.hists {
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

impl Snapshot {
    /// What happened *between* two snapshots: per-counter and per-bucket
    /// differences of `self` (the later snapshot) against `earlier`.
    ///
    /// Instruments whose value did not change are dropped entirely, so a
    /// delta taken around a region of work is indistinguishable from a
    /// fresh process that only ran that region — the property the
    /// `ampsched serve` workers rely on to reproduce the CLI's
    /// `telemetry` report block byte-for-byte from a long-running
    /// process (instruments registered by *earlier* requests would
    /// otherwise leak in as zero-valued entries a fresh CLI run never
    /// emits).
    ///
    /// Counters are monotone, so a name missing from `earlier` is
    /// treated as previously 0; per-bucket histogram counts subtract the
    /// same way.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(name, now)| {
                let before = earlier
                    .counters
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap_or(0);
                let d = now.saturating_sub(before);
                (d > 0).then(|| (name.clone(), d))
            })
            .collect();
        let hists = self
            .hists
            .iter()
            .filter_map(|now| {
                let before = earlier.hists.iter().find(|h| h.name == now.name);
                let (b_count, b_sum) = before.map(|h| (h.count, h.sum)).unwrap_or((0, 0));
                let d_count = now.count.saturating_sub(b_count);
                if d_count == 0 {
                    return None;
                }
                let buckets = now
                    .buckets
                    .iter()
                    .filter_map(|&(lo, hi, c)| {
                        let b = before
                            .and_then(|h| {
                                h.buckets.iter().find(|&&(l, h2, _)| l == lo && h2 == hi)
                            })
                            .map(|&(_, _, c)| c)
                            .unwrap_or(0);
                        let d = c.saturating_sub(b);
                        (d > 0).then_some((lo, hi, d))
                    })
                    .collect();
                Some(HistSnapshot {
                    name: now.name.clone(),
                    count: d_count,
                    sum: now.sum.wrapping_sub(b_sum),
                    buckets,
                })
            })
            .collect();
        Snapshot { counters, hists }
    }

    /// Keep only instruments whose name starts with `prefix`.
    pub fn filtered(&self, prefix: &str) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .filter(|(n, _)| n.starts_with(prefix))
                .cloned()
                .collect(),
            hists: self
                .hists
                .iter()
                .filter(|h| h.name.starts_with(prefix))
                .cloned()
                .collect(),
        }
    }

    /// Render as `{"counters": {...}, "hists": {...}}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::from(*v)))
                        .collect(),
                ),
            ),
            (
                "hists",
                Json::Obj(
                    self.hists
                        .iter()
                        .map(|h| {
                            (
                                h.name.clone(),
                                Json::obj([
                                    ("count", Json::from(h.count)),
                                    ("sum", Json::from(h.sum)),
                                    (
                                        "buckets",
                                        Json::arr(h.buckets.iter().map(|&(lo, hi, c)| {
                                            Json::obj([
                                                ("lo", Json::from(lo)),
                                                ("hi", Json::from(hi)),
                                                ("count", Json::from(c)),
                                            ])
                                        })),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Increment a named counter: `counter!("sim.swap")` adds 1,
/// `counter!("trace.cache.load_chunks", n)` adds `n`. The instrument
/// handle is resolved once per call site.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {
        $crate::counter!($name, 1u64)
    };
    ($name:literal, $n:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        SITE.get_or_init(|| $crate::metrics::counter($name)).add($n as u64);
    }};
}

/// Record a sample in a named histogram: `hist!("sim.run.cycles", c)`.
/// The instrument handle is resolved once per call site.
#[macro_export]
macro_rules! hist {
    ($name:literal, $v:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::metrics::Hist> =
            ::std::sync::OnceLock::new();
        SITE.get_or_init(|| $crate::metrics::hist($name)).record($v as u64);
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_registry_dedups() {
        let a = counter("test.metrics.dedup");
        let b = counter("test.metrics.dedup");
        assert!(std::ptr::eq(a, b));
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(64), (1 << 63, u64::MAX));
    }

    #[test]
    fn delta_drops_untouched_instruments_and_subtracts_buckets() {
        let c = counter("test.metrics.delta_counter");
        let idle = counter("test.metrics.delta_idle");
        let h = hist("test.metrics.delta_hist");
        idle.add(7); // registered + nonzero *before* the region
        c.add(1);
        h.record(2);
        let before = snapshot();
        c.add(4);
        h.record(2);
        h.record(100);
        let after = snapshot();
        let d = after.delta(&before);
        // The idle counter didn't move inside the region: absent.
        assert!(d.counters.iter().all(|(n, _)| n != "test.metrics.delta_idle"));
        let dc = d
            .counters
            .iter()
            .find(|(n, _)| n == "test.metrics.delta_counter")
            .expect("changed counter present");
        assert_eq!(dc.1, 4);
        let dh = d
            .hists
            .iter()
            .find(|h| h.name == "test.metrics.delta_hist")
            .expect("changed hist present");
        assert_eq!(dh.count, 2);
        assert_eq!(dh.sum, 102);
        // Bucket for value 2 held one sample before, two after: delta 1.
        assert!(dh.buckets.contains(&(2, 3, 1)));
        assert!(dh.buckets.contains(&(64, 127, 1)));
    }

    #[test]
    fn delta_of_identical_snapshots_is_empty() {
        counter("test.metrics.delta_noop").add(3);
        let s = snapshot();
        let d = s.delta(&s.clone());
        assert!(d.counters.is_empty(), "{:?}", d.counters);
        assert!(d.hists.is_empty());
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[(4, 7, 0)], 0.99), None);
    }

    #[test]
    fn quantile_single_bucket_interpolates_within_bounds() {
        // All samples in bucket [4, 7]: every quantile estimate must stay
        // inside the bucket, with the extremes pinned by interpolation.
        let b = [(4u64, 7u64, 4u64)];
        assert_eq!(quantile(&b, 0.0), Some(4)); // rank 1 of 4 → 4 + 3·(1/4) = 4
        assert_eq!(quantile(&b, 0.25), Some(4));
        assert_eq!(quantile(&b, 0.5), Some(5)); // rank 2 → 4 + 3·(2/4)
        assert_eq!(quantile(&b, 1.0), Some(7)); // rank 4 → 4 + 3·(4/4)
        // The degenerate buckets are exact for any q.
        assert_eq!(quantile(&[(0, 0, 10)], 0.99), Some(0));
        assert_eq!(quantile(&[(1, 1, 10)], 0.01), Some(1));
    }

    #[test]
    fn quantile_exact_power_of_two_counts_cross_buckets() {
        // 8 samples split 4/4 across buckets [2,3] and [8,15]: the median
        // (rank 4) is the last sample of the low bucket, p75 (rank 6) the
        // middle of the high one, and q just past 0.5 jumps buckets.
        let b = [(2u64, 3u64, 4u64), (8u64, 15u64, 4u64)];
        assert_eq!(quantile(&b, 0.5), Some(3)); // rank 4 → 2 + 1·(4/4)
        assert_eq!(quantile(&b, 0.5001), Some(9)); // rank 5 → 8 + 7·(1/4)
        assert_eq!(quantile(&b, 0.75), Some(11)); // rank 6 → 8 + 7·(2/4)
        assert_eq!(quantile(&b, 1.0), Some(15));
        // End-to-end through a live histogram snapshot.
        let h = hist("test.metrics.quantile_hist");
        for v in [0u64, 1, 2, 100, 100, 100, 100, 100] {
            h.record(v);
        }
        let snap = snapshot();
        let hs = snap
            .hists
            .iter()
            .find(|h| h.name == "test.metrics.quantile_hist")
            .expect("registered");
        assert_eq!(hs.quantile(0.0), Some(0));
        // p99 of 8 samples is rank 8, which lives in bucket [64, 127].
        let p99 = hs.quantile(0.99).unwrap();
        assert!((64..=127).contains(&p99), "p99 {p99} outside its bucket");
    }

    #[test]
    fn hist_snapshot_places_samples() {
        let h = hist("test.metrics.hist");
        h.record(0);
        h.record(5);
        h.record(5);
        let snap = snapshot();
        let hs = snap
            .hists
            .iter()
            .find(|h| h.name == "test.metrics.hist")
            .expect("registered");
        assert_eq!(hs.count, 3);
        assert_eq!(hs.sum, 10);
        assert!(hs.buckets.contains(&(0, 0, 1)));
        assert!(hs.buckets.contains(&(4, 7, 2)));
    }
}
