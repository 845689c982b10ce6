//! Process-global counters and fixed-bucket histograms, plus
//! [`scoped`] tallies of the events one region of work records.
//!
//! Instruments register themselves by name on first use and live for the
//! life of the process (the registry leaks one allocation per unique
//! name, giving out `&'static` handles that increment with a single
//! relaxed atomic op — no locking after the first touch). The
//! [`counter!`](crate::counter) and [`hist!`](crate::hist) macros cache
//! the handle per call site, so steady-state cost is one atomic
//! fetch-add plus one thread-local add.
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
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Number of histogram buckets: `{0}` plus one per power of two.
pub const BUCKETS: usize = 65;

/// A monotonically increasing event count.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
    /// This counter's index in a [`scoped`] tally.
    slot: usize,
}

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        tally(self.slot, n);
    }
}

/// A fixed-bucket power-of-two histogram of `u64` samples.
#[derive(Debug)]
pub struct Hist {
    /// Per-bucket sample counts, then the (wrapping) sample sum; the
    /// sample count is the sum of the buckets.
    cells: [AtomicU64; BUCKETS + 1],
    /// Index of `cells[0]` in a [`scoped`] tally; the other cells follow.
    slot: usize,
}

impl Hist {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let bucket = bucket_index(v);
        self.cells[bucket].fetch_add(1, Ordering::Relaxed);
        self.cells[BUCKETS].fetch_add(v, Ordering::Relaxed);
        // The sum's slot is the highest, so the tally grows at most once.
        tally(self.slot + BUCKETS, v);
        tally(self.slot + bucket, 1);
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

#[derive(Default)]
struct Registry {
    counters: Vec<(&'static str, &'static Counter)>,
    hists: Vec<(&'static str, &'static Hist)>,
    /// Tally slots handed out so far: one per counter, `BUCKETS + 1` per
    /// histogram.
    slots: usize,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(Mutex::default)
}

/// Look up (or register) the counter named `name`. The handle is
/// `&'static`: cache it (the [`counter!`](crate::counter) macro does)
/// rather than calling this per event.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = registry().lock().expect("metrics registry lock");
    if let Some((_, c)) = reg.counters.iter().find(|(n, _)| *n == name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::new(Counter {
        value: AtomicU64::new(0),
        slot: reg.slots,
    }));
    reg.slots += 1;
    reg.counters.push((name, c));
    c
}

/// Look up (or register) the histogram named `name`.
pub fn hist(name: &'static str) -> &'static Hist {
    let mut reg = registry().lock().expect("metrics registry lock");
    if let Some((_, h)) = reg.hists.iter().find(|(n, _)| *n == name) {
        return h;
    }
    let h: &'static Hist = Box::leak(Box::new(Hist {
        cells: std::array::from_fn(|_| AtomicU64::new(0)),
        slot: reg.slots,
    }));
    reg.slots += BUCKETS + 1;
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

/// Every registered instrument sorted by name, each value read as
/// `read(global cell, tally slot)`.
fn read_registry(read: impl Fn(&AtomicU64, usize) -> u64) -> Snapshot {
    let reg = registry().lock().expect("metrics registry lock");
    let mut counters: Vec<(String, u64)> = reg
        .counters
        .iter()
        .map(|(n, c)| (n.to_string(), read(&c.value, c.slot)))
        .collect();
    counters.sort();
    let mut hists: Vec<HistSnapshot> = reg
        .hists
        .iter()
        .map(|(n, h)| {
            let cell = |i: usize| read(&h.cells[i], h.slot + i);
            let buckets: Vec<(u64, u64, u64)> = (0..BUCKETS)
                .filter_map(|i| {
                    let c = cell(i);
                    (c > 0).then(|| {
                        let (lo, hi) = bucket_bounds(i);
                        (lo, hi, c)
                    })
                })
                .collect();
            HistSnapshot {
                name: n.to_string(),
                count: buckets.iter().map(|&(_, _, c)| c).sum(),
                sum: cell(BUCKETS),
                buckets,
            }
        })
        .collect();
    hists.sort_by(|a, b| a.name.cmp(&b.name));
    Snapshot { counters, hists }
}

/// Snapshot every registered counter and histogram, sorted by name.
pub fn snapshot() -> Snapshot {
    read_registry(|cell, _| cell.load(Ordering::Relaxed))
}

/// A [`scoped`] call's shared tally, indexed by instrument slot.
type Sink = Arc<Mutex<Vec<u64>>>;

thread_local! {
    /// The scope this thread is in: its sink and this thread's private
    /// tally, merged into the sink when the thread leaves the scope.
    static LOCAL: RefCell<Option<(Sink, Vec<u64>)>> = const { RefCell::new(None) };
}

/// Add `n` to `slot` of this thread's tally, if it is in a scope.
#[inline]
fn tally(slot: usize, n: u64) {
    // `try_with`: an event from a thread-local destructor is still
    // counted globally.
    let _ = LOCAL.try_with(|local| {
        if let Some((_, t)) = local.borrow_mut().as_mut() {
            add(t, slot, n);
        }
    });
}

/// Add `n` to `t[slot]`, growing `t` as needed.
fn add(t: &mut Vec<u64>, slot: usize, n: u64) {
    if t.len() <= slot {
        t.resize(slot + 1, 0);
    }
    t[slot] = t[slot].wrapping_add(n);
}

/// A handle on the [`scoped`] call the current thread is in, for the
/// threads it spawns to [`enter`](Scope::enter); a no-op outside one.
pub struct Scope(Option<Sink>);

/// The [`Scope`] the calling thread is in.
pub fn current_scope() -> Scope {
    Scope(LOCAL.with_borrow(|l| l.as_ref().map(|(sink, _)| Arc::clone(sink))))
}

impl Scope {
    /// Run `f` on this thread with its events also tallied into this
    /// scope. The tally is merged when `f` returns or unwinds; an
    /// enclosing scope on this thread sees the events too.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        let Some(sink) = &self.0 else { return f() };
        if LOCAL.with_borrow(|l| l.as_ref().is_some_and(|(s, _)| Arc::ptr_eq(s, sink))) {
            return f();
        }
        let _leave = Leave(LOCAL.replace(Some((Arc::clone(sink), Vec::new()))));
        f()
    }
}

/// Restores the enclosing scope on drop, after merging the inner tally
/// into its sink and into the enclosing tally.
struct Leave(Option<(Sink, Vec<u64>)>);

impl Drop for Leave {
    fn drop(&mut self) {
        let Some((sink, t)) = LOCAL.replace(self.0.take()) else { return };
        // Merging only adds, so a sink poisoned by another thread's panic
        // is still a valid tally.
        let mut sink = sink.lock().unwrap_or_else(PoisonError::into_inner);
        LOCAL.with_borrow_mut(|outer| {
            for (slot, &n) in t.iter().enumerate() {
                add(&mut sink, slot, n);
                if let Some((_, outer)) = outer {
                    add(outer, slot, n);
                }
            }
        });
    }
}

/// Run `f` and return, next to its result, exactly the counter and
/// histogram events recorded while it ran: on this thread, and on any
/// thread that entered its [`current_scope`] (as `parallel_map`'s
/// workers do) and left it before `f` returned. Instruments `f` left at
/// zero are absent, so for instruments that never add 0 (every `sim.*`
/// one) the snapshot equals the global one of a fresh process that ran
/// only `f`. The events still reach the global registry as well.
pub fn scoped<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    let sink = Sink::default();
    let r = Scope(Some(Arc::clone(&sink))).enter(f);
    let t = std::mem::take(&mut *sink.lock().unwrap_or_else(PoisonError::into_inner));
    let mut snap = read_registry(|_, slot| t.get(slot).copied().unwrap_or(0));
    snap.counters.retain(|&(_, v)| v > 0);
    snap.hists.retain(|h| h.count > 0);
    (r, snap)
}

impl Snapshot {
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
        assert_eq!(counter_in(&snapshot(), "test.metrics.dedup"), Some(5));
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

    fn counter_in(s: &Snapshot, name: &str) -> Option<u64> {
        s.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    fn hist_in<'a>(s: &'a Snapshot, name: &str) -> Option<&'a HistSnapshot> {
        s.hists.iter().find(|h| h.name == name)
    }

    #[test]
    fn concurrent_scopes_see_only_their_own_events() {
        let c = counter("sim.test.scoped");
        let h = hist("sim.test.scoped_cycles");
        let only_a = counter("sim.test.scoped_only_a");
        let before = snapshot();
        // The barrier holds both scopes open while both threads record.
        let barrier = std::sync::Barrier::new(2);
        let run = |events: u64, sample: u64, touch_only_a: bool| {
            scoped(|| {
                barrier.wait();
                for _ in 0..events {
                    c.add(1);
                    h.record(sample);
                }
                if touch_only_a {
                    only_a.add(5);
                }
                barrier.wait();
            })
            .1
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| run(3, 2, true));
            let b = s.spawn(|| run(7, 100, false));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(counter_in(&a, "sim.test.scoped"), Some(3));
        assert_eq!(counter_in(&b, "sim.test.scoped"), Some(7));
        assert_eq!(counter_in(&a, "sim.test.scoped_only_a"), Some(5));
        let ha = hist_in(&a, "sim.test.scoped_cycles").unwrap();
        let hb = hist_in(&b, "sim.test.scoped_cycles").unwrap();
        assert_eq!((ha.count, ha.sum, ha.buckets.clone()), (3, 6, vec![(2, 3, 3)]));
        assert_eq!((hb.count, hb.sum, hb.buckets.clone()), (7, 700, vec![(64, 127, 7)]));
        // Nothing a scope did not touch shows up in it, not even
        // instruments other tests are bumping meanwhile.
        assert_eq!((a.counters.len(), a.hists.len()), (2, 1), "{a:?}");
        assert_eq!((b.counters.len(), b.hists.len()), (1, 1), "{b:?}");
        // The global registry holds the sum of both scopes.
        let after = snapshot();
        let moved = |name| counter_in(&after, name).unwrap() - counter_in(&before, name).unwrap();
        assert_eq!(moved("sim.test.scoped"), 10);
        let (h0, h1) = (
            hist_in(&before, "sim.test.scoped_cycles").unwrap(),
            hist_in(&after, "sim.test.scoped_cycles").unwrap(),
        );
        assert_eq!((h1.count - h0.count, h1.sum - h0.sum), (10, 706));
    }

    #[test]
    fn entered_threads_and_nested_scopes_count_into_the_enclosing_scope() {
        let c = counter("sim.test.enter");
        let (inner, outer) = scoped(|| {
            let scope = current_scope();
            std::thread::scope(|s| {
                s.spawn(|| scope.enter(|| c.add(2)));
            });
            // Entering the scope this thread is already in counts once.
            scope.enter(|| c.add(1));
            scoped(|| c.add(4)).1
        });
        assert_eq!(counter_in(&inner, "sim.test.enter"), Some(4));
        assert_eq!(counter_in(&outer, "sim.test.enter"), Some(7));
        // Outside any scope the handle is a no-op.
        assert_eq!(current_scope().enter(|| 5), 5);
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
