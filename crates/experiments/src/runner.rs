//! Parallel experiment execution over a fixed thread pool.
//!
//! The host may have few cores (the reference machine has one), but the
//! runner keeps experiments embarrassingly parallel so multi-core hosts
//! scale. Work items are claimed from an atomic counter by scoped worker
//! threads; results return in input order.

use ampsched_obs::metrics;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `f` over `items` using up to `available_parallelism` threads,
/// preserving input order in the output. The workers join the caller's
/// [`metrics::scoped`] tally, so it counts every item's events once.
///
/// ```
/// use ampsched_experiments::runner::parallel_map;
///
/// let squares = parallel_map(&[1u64, 2, 3, 4], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len().max(1));
    if n_threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    // One slot per item: workers claim indices from the atomic counter
    // and only ever write their own slot, so a plain Mutex per slot
    // (never contended) keeps the write safe without aggregate locking.
    let results: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
    let tally = metrics::current_scope();
    std::thread::scope(|scope| {
        for _ in 0..n_threads {
            scope.spawn(|| {
                tally.enter(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = f(&items[i]);
                    *results[i].lock().expect("slot lock") = Some(r);
                })
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("all items processed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = parallel_map(&[] as &[u64], |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(&[41u64], |x| x + 1), vec![42]);
    }

    #[test]
    fn scoped_counts_every_item_once() {
        let items: Vec<u64> = (1..=64).collect();
        let ((), snap) = metrics::scoped(|| {
            parallel_map(&items, |&x| {
                ampsched_obs::counter!("sim.test.runner.item");
                ampsched_obs::hist!("sim.test.runner.value", x);
            });
        });
        assert_eq!(snap.counters, [("sim.test.runner.item".to_string(), 64)]);
        let h = &snap.hists[0];
        assert_eq!(
            (h.name.as_str(), h.count, h.sum),
            ("sim.test.runner.value", 64, 2080)
        );
    }
}
