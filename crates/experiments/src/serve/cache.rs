//! The content-addressed result cache behind `ampsched serve`.
//!
//! Each cell is keyed by the canonical parameter hash
//! ([`super::protocol::canonical_hash`]) and holds the *exact bytes* of
//! the rendered report — responses are served from here without
//! re-rendering, which is half of the byte-identity guarantee (the
//! other half is `report`'s shared assembly path).
//!
//! Three properties the tests pin down:
//!
//! - **Coalescing.** The first requester of a missing cell becomes its
//!   *owner* and computes it; concurrent requesters for the same cell
//!   block on a [`PendingSlot`] condvar and all wake with the owner's
//!   bytes. N identical requests in flight cost one simulation run.
//! - **Bounded memory.** Ready cells are evicted least-recently-used
//!   once the cell count exceeds the configured capacity. Pending cells
//!   (a computation in flight) are never evicted — evicting one would
//!   strand its waiters.
//! - **Optional persistence.** With a cache directory configured, ready
//!   cells are spilled to `<dir>/<hash>.cell` in the [`FORMAT`] below,
//!   written atomically by [`ampsched_util::cellfile`]. A cold process
//!   re-serves earlier results from disk; a corrupt, truncated, stale
//!   (older format) or misnamed cell is deleted and recomputed, never
//!   served.

use ampsched_util::cellfile::{self, Format, Record};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// The on-disk cell format: one record holding the rendered report,
/// echoing the cell's `u64` key. Version 2: earlier builds wrote
/// `AMPCELL\x01` cells with no key echo, which fail the magic check.
pub const FORMAT: Format = Format {
    magic: *b"AMPCELL\0",
    version: 2,
    ext: "cell",
    key_of: |path| {
        let stem = path.file_stem()?.to_str()?;
        u64::from_str_radix(stem, 16).ok().map(|k| k.to_le_bytes().to_vec())
    },
    check: |_| Ok(()),
};

/// A computed result: the rendered report bytes, shared between the
/// cache, in-flight waiters, and response writers without copying.
pub type CellBytes = Arc<Vec<u8>>;

/// Outcome of a cache claim: what the caller must do next.
pub enum Claim {
    /// The cell is ready; serve these bytes.
    Hit(CellBytes),
    /// Same, but the bytes were found on disk rather than in memory
    /// (reported separately in `/metrics`).
    DiskHit(CellBytes),
    /// The caller owns the computation: run the job, then call
    /// [`ResultCache::fulfill`] (or [`ResultCache::fail`]) with the key.
    Owner,
    /// Another request owns the computation; wait on the slot.
    Wait(Arc<PendingSlot>),
}

/// Where a pending computation's waiters rendezvous with its owner.
pub struct PendingSlot {
    /// `None` until the owner fulfills or fails the cell.
    result: Mutex<Option<Result<CellBytes, String>>>,
    cond: Condvar,
}

/// What a waiter observed when its wait ended.
pub enum WaitOutcome {
    /// The owner delivered the bytes.
    Ready(CellBytes),
    /// The owner's job failed with this message.
    Failed(String),
    /// The deadline elapsed before the owner finished (the job keeps
    /// running and will still populate the cache).
    TimedOut,
}

impl PendingSlot {
    fn new() -> Arc<PendingSlot> {
        Arc::new(PendingSlot {
            result: Mutex::new(None),
            cond: Condvar::new(),
        })
    }

    /// Block until the owner resolves the cell or `deadline` elapses.
    pub fn wait(&self, deadline: Duration) -> WaitOutcome {
        let mut guard = self.result.lock().unwrap();
        let mut remaining = deadline;
        let start = std::time::Instant::now();
        loop {
            match &*guard {
                Some(Ok(bytes)) => return WaitOutcome::Ready(Arc::clone(bytes)),
                Some(Err(msg)) => return WaitOutcome::Failed(msg.clone()),
                None => {}
            }
            let (next, timeout) = self.cond.wait_timeout(guard, remaining).unwrap();
            guard = next;
            if timeout.timed_out() {
                // One last look: the owner may have resolved between the
                // timeout firing and us reacquiring the lock.
                match &*guard {
                    Some(Ok(bytes)) => return WaitOutcome::Ready(Arc::clone(bytes)),
                    Some(Err(msg)) => return WaitOutcome::Failed(msg.clone()),
                    None => return WaitOutcome::TimedOut,
                }
            }
            remaining = deadline.saturating_sub(start.elapsed());
        }
    }

    fn resolve(&self, outcome: Result<CellBytes, String>) {
        *self.result.lock().unwrap() = Some(outcome);
        self.cond.notify_all();
    }
}

/// One in-memory cell.
enum Cell {
    /// Computation in flight; waiters park on the slot.
    Pending(Arc<PendingSlot>),
    /// Bytes available; `stamp` is the LRU clock value of the last use.
    Ready { bytes: CellBytes, stamp: u64 },
}

struct Inner {
    cells: HashMap<u64, Cell>,
    /// Monotonic LRU clock; bumped on every hit and insert.
    clock: u64,
}

/// The bounded, coalescing, optionally disk-backed result cache.
pub struct ResultCache {
    inner: Mutex<Inner>,
    /// Maximum number of cells held in memory (pending cells count).
    capacity: usize,
    /// Spill directory; `None` disables persistence.
    dir: Option<PathBuf>,
}

impl ResultCache {
    /// A cache holding at most `capacity` cells (minimum 1), spilling
    /// ready cells to `dir` when given.
    pub fn new(capacity: usize, dir: Option<PathBuf>) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Inner {
                cells: HashMap::new(),
                clock: 0,
            }),
            capacity: capacity.max(1),
            dir,
        }
    }

    /// Look up `key`, claiming ownership of the computation if the cell
    /// is absent everywhere. Exactly one concurrent caller per key gets
    /// [`Claim::Owner`]; the rest get [`Claim::Wait`] on the same slot.
    pub fn claim(&self, key: u64) -> Claim {
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(cell) = inner.cells.get_mut(&key) {
            match cell {
                Cell::Pending(slot) => return Claim::Wait(Arc::clone(slot)),
                Cell::Ready { bytes, stamp } => {
                    *stamp = clock;
                    return Claim::Hit(Arc::clone(bytes));
                }
            }
        }
        // Miss in memory: try disk before claiming ownership, still
        // under the lock so two threads cannot both load + insert.
        if let Some(dir) = &self.dir {
            if let Some(bytes) = read_cell(dir, key) {
                let bytes = Arc::new(bytes);
                inner.cells.insert(
                    key,
                    Cell::Ready {
                        bytes: Arc::clone(&bytes),
                        stamp: clock,
                    },
                );
                Self::evict(&mut inner, self.capacity);
                return Claim::DiskHit(bytes);
            }
        }
        inner.cells.insert(key, Cell::Pending(PendingSlot::new()));
        Self::evict(&mut inner, self.capacity);
        Claim::Owner
    }

    /// Deliver the owner's bytes: wake all waiters, convert the cell to
    /// ready, and spill it to disk if persistence is on.
    pub fn fulfill(&self, key: u64, bytes: CellBytes) {
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(Cell::Pending(slot)) = inner.cells.get(&key) {
            slot.resolve(Ok(Arc::clone(&bytes)));
        }
        inner.cells.insert(
            key,
            Cell::Ready {
                bytes: Arc::clone(&bytes),
                stamp,
            },
        );
        Self::evict(&mut inner, self.capacity);
        drop(inner);
        if let Some(dir) = &self.dir {
            // Best effort: a failed spill only costs a future disk hit.
            let _ = write_cell(dir, key, &bytes);
        }
    }

    /// Report the owner's failure: wake all waiters with the error and
    /// drop the cell so a later request retries. Failures are never
    /// cached.
    pub fn fail(&self, key: u64, message: String) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(Cell::Pending(slot)) = inner.cells.remove(&key) {
            slot.resolve(Err(message));
        }
    }

    /// Number of cells currently in memory (ready + pending).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().cells.len()
    }

    /// Capacity-pressure gauges for `/healthz` and `/metrics`: byte
    /// totals, not just entry counts, so an operator sees memory and
    /// disk pressure building before an eviction storm. The disk totals
    /// come from a directory scan (cheap at cache scale: one `stat` per
    /// cell) and count only `.cell` files.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        let mut bytes = 0usize;
        let mut pending = 0usize;
        for cell in inner.cells.values() {
            match cell {
                Cell::Ready { bytes: b, .. } => bytes += b.len(),
                Cell::Pending(_) => pending += 1,
            }
        }
        let entries = inner.cells.len();
        drop(inner);
        let disk = match &self.dir {
            Some(dir) => cellfile::list(dir, &[FORMAT.ext]),
            None => Vec::new(),
        };
        CacheStats {
            entries,
            pending,
            bytes,
            disk_cells: disk.len(),
            disk_bytes: disk.iter().map(|(_, len)| len).sum(),
        }
    }

    /// Whether the cache holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Evict least-recently-used *ready* cells until the cell count is
    /// back within capacity. Pending cells are not eviction candidates,
    /// so a burst of distinct in-flight jobs can transiently exceed
    /// capacity rather than strand waiters.
    fn evict(inner: &mut Inner, capacity: usize) {
        while inner.cells.len() > capacity {
            let victim = inner
                .cells
                .iter()
                .filter_map(|(k, c)| match c {
                    Cell::Ready { stamp, .. } => Some((*stamp, *k)),
                    Cell::Pending(_) => None,
                })
                .min();
            match victim {
                Some((_, key)) => {
                    inner.cells.remove(&key);
                }
                None => break, // all pending: nothing evictable
            }
        }
    }
}

/// Point-in-time capacity gauges (see [`ResultCache::stats`]).
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Cells in memory, ready + pending.
    pub entries: usize,
    /// Of those, cells whose computation is still in flight.
    pub pending: usize,
    /// Total payload bytes held by in-memory ready cells.
    pub bytes: usize,
    /// `.cell` files in the spill directory (0 without `--cache-dir`).
    pub disk_cells: usize,
    /// Total size in bytes of those files, headers included.
    pub disk_bytes: u64,
}

/// Path of the on-disk cell for `key`.
pub fn cell_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.cell"))
}

/// Atomically persist one cell.
fn write_cell(dir: &Path, key: u64, bytes: &[u8]) -> std::io::Result<()> {
    let record = Record { count: 1, payload: bytes };
    cellfile::write(&cell_path(dir, key), &FORMAT, &key.to_le_bytes(), &[record])
}

/// Load and validate the cell for `key`; on any failure (wrong format
/// or version, key echo, truncation, CRC) the file is deleted and `None`
/// returned so the result is recomputed rather than served wrong.
fn read_cell(dir: &Path, key: u64) -> Option<Vec<u8>> {
    let path = cell_path(dir, key);
    if !path.exists() {
        return None;
    }
    match cellfile::load(&path, &FORMAT, &key.to_le_bytes()) {
        Ok(mut records) if records.len() == 1 => records.pop(),
        _ => {
            let _ = std::fs::remove_file(&path);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ampsched-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn hit_after_fulfill_and_lru_eviction() {
        let cache = ResultCache::new(2, None);
        for key in [1u64, 2, 3] {
            assert!(matches!(cache.claim(key), Claim::Owner));
            cache.fulfill(key, Arc::new(vec![key as u8]));
        }
        // Capacity 2: key 1 was least recently used and must be gone.
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.claim(1), Claim::Owner));
        // (Claiming 1 added a pending cell over capacity, which evicted
        // the next-LRU ready cell, key 2 — release the pending claim.)
        cache.fail(1, "abandoned by test".into());
        match cache.claim(3) {
            Claim::Hit(b) => assert_eq!(*b, vec![3]),
            _ => panic!("expected hit for key 3"),
        }
        assert!(matches!(cache.claim(2), Claim::Owner), "key 2 was evicted");
        cache.fail(2, "abandoned by test".into());
    }

    #[test]
    fn touching_a_cell_protects_it_from_eviction() {
        let cache = ResultCache::new(2, None);
        for key in [1u64, 2] {
            assert!(matches!(cache.claim(key), Claim::Owner));
            cache.fulfill(key, Arc::new(vec![key as u8]));
        }
        assert!(matches!(cache.claim(1), Claim::Hit(_))); // 1 now newer than 2
        assert!(matches!(cache.claim(3), Claim::Owner));
        cache.fulfill(3, Arc::new(vec![3]));
        assert!(matches!(cache.claim(1), Claim::Hit(_)));
        assert!(matches!(cache.claim(2), Claim::Owner)); // 2 was evicted
    }

    #[test]
    fn concurrent_claims_coalesce_onto_one_owner() {
        let cache = Arc::new(ResultCache::new(8, None));
        let owners = Arc::new(AtomicUsize::new(0));
        let served = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let owners = Arc::clone(&owners);
            let served = Arc::clone(&served);
            handles.push(std::thread::spawn(move || match cache.claim(42) {
                Claim::Owner => {
                    owners.fetch_add(1, Ordering::SeqCst);
                    // Give waiters time to pile onto the slot.
                    std::thread::sleep(Duration::from_millis(50));
                    cache.fulfill(42, Arc::new(b"payload".to_vec()));
                }
                Claim::Wait(slot) => match slot.wait(Duration::from_secs(30)) {
                    WaitOutcome::Ready(b) => {
                        assert_eq!(&**b, b"payload");
                        served.fetch_add(1, Ordering::SeqCst);
                    }
                    _ => panic!("waiter did not get the owner's bytes"),
                },
                Claim::Hit(b) | Claim::DiskHit(b) => {
                    assert_eq!(&**b, b"payload");
                    served.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(owners.load(Ordering::SeqCst), 1, "exactly one computation");
        assert_eq!(served.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn failure_wakes_waiters_and_is_not_cached() {
        let cache = Arc::new(ResultCache::new(8, None));
        assert!(matches!(cache.claim(7), Claim::Owner));
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.claim(7) {
                Claim::Wait(slot) => match slot.wait(Duration::from_secs(30)) {
                    WaitOutcome::Failed(msg) => msg,
                    _ => panic!("expected failure"),
                },
                // Raced past the fail: the cell is gone and the waiter
                // became a fresh owner; release it.
                Claim::Owner => {
                    cache.fail(7, "second owner".into());
                    "second owner".into()
                }
                _ => panic!("expected wait or fresh ownership"),
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        cache.fail(7, "boom".into());
        let msg = waiter.join().unwrap();
        assert!(msg == "boom" || msg == "second owner");
        // Not cached: the next claim owns a retry.
        assert!(matches!(cache.claim(7), Claim::Owner));
        cache.fail(7, "abandoned by test".into());
    }

    #[test]
    fn pending_cells_are_never_evicted() {
        let cache = ResultCache::new(1, None);
        assert!(matches!(cache.claim(1), Claim::Owner));
        // A second distinct pending cell exceeds capacity but must not
        // displace the first (both are pending).
        assert!(matches!(cache.claim(2), Claim::Owner));
        assert_eq!(cache.len(), 2);
        cache.fulfill(1, Arc::new(vec![1]));
        cache.fulfill(2, Arc::new(vec![2]));
        // Now evictable: capacity 1 keeps only the most recent.
        assert_eq!(cache.len(), 1);
        assert!(matches!(cache.claim(2), Claim::Hit(_)));
    }

    #[test]
    fn wait_times_out_without_resolution() {
        let cache = ResultCache::new(4, None);
        assert!(matches!(cache.claim(9), Claim::Owner));
        let slot = match cache.claim(9) {
            Claim::Wait(slot) => slot,
            _ => panic!("expected wait"),
        };
        let start = std::time::Instant::now();
        assert!(matches!(
            slot.wait(Duration::from_millis(30)),
            WaitOutcome::TimedOut
        ));
        assert!(start.elapsed() >= Duration::from_millis(30));
        cache.fail(9, "abandoned by test".into());
    }

    #[test]
    fn stats_report_bytes_and_disk_cells() {
        let dir = tmpdir("stats");
        let cache = ResultCache::new(4, Some(dir.clone()));
        assert!(matches!(cache.claim(21), Claim::Owner));
        assert!(matches!(cache.claim(22), Claim::Owner));
        cache.fulfill(21, Arc::new(vec![0u8; 100]));
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.pending, 1, "key 22 is still in flight");
        assert_eq!(s.bytes, 100, "only ready cells hold payload bytes");
        assert_eq!(s.disk_cells, 1, "ready cell spilled to disk");
        // On-disk cell = header with the 8-byte key echo, one record.
        let cell_len = cellfile::header_len(8) + cellfile::RECORD_HEADER_LEN + 100;
        assert_eq!(s.disk_bytes, cell_len as u64);
        cache.fail(22, "abandoned by test".into());
        let _ = std::fs::remove_dir_all(&dir);

        let bare = ResultCache::new(4, None);
        let s = bare.stats();
        assert_eq!((s.entries, s.disk_cells, s.disk_bytes), (0, 0, 0));
    }

    #[test]
    fn disk_round_trip_and_cold_start() {
        let dir = tmpdir("roundtrip");
        {
            let cache = ResultCache::new(4, Some(dir.clone()));
            assert!(matches!(cache.claim(11), Claim::Owner));
            cache.fulfill(11, Arc::new(b"persisted bytes".to_vec()));
        }
        // A cold cache (fresh process stand-in) serves from disk.
        let cold = ResultCache::new(4, Some(dir.clone()));
        match cold.claim(11) {
            Claim::DiskHit(b) => assert_eq!(&**b, b"persisted bytes"),
            _ => panic!("expected disk hit"),
        }
        // And the loaded cell is now a warm hit.
        assert!(matches!(cold.claim(11), Claim::Hit(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cells_are_deleted_not_served() {
        let dir = tmpdir("corrupt");
        {
            let cache = ResultCache::new(4, Some(dir.clone()));
            assert!(matches!(cache.claim(13), Claim::Owner));
            cache.fulfill(13, Arc::new(b"soon to be mangled".to_vec()));
        }
        let path = cell_path(&dir, 13);
        // Flip one payload byte past the header.
        let mut raw = std::fs::read(&path).unwrap();
        let at = raw.len() - 3;
        raw[at] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();

        let cold = ResultCache::new(4, Some(dir.clone()));
        assert!(matches!(cold.claim(13), Claim::Owner), "corrupt cell must miss");
        assert!(!path.exists(), "corrupt cell must be deleted");
        cold.fail(13, "abandoned by test".into());

        // Truncation is likewise rejected.
        {
            let cache = ResultCache::new(4, Some(dir.clone()));
            assert!(matches!(cache.claim(17), Claim::Owner));
            cache.fulfill(17, Arc::new(vec![0xAB; 256]));
        }
        let path17 = cell_path(&dir, 17);
        let raw = std::fs::read(&path17).unwrap();
        std::fs::write(&path17, &raw[..raw.len() / 2]).unwrap();
        let cold = ResultCache::new(4, Some(dir.clone()));
        assert!(matches!(cold.claim(17), Claim::Owner));
        assert!(!path17.exists());
        cold.fail(17, "abandoned by test".into());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
