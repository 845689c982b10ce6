//! The trace arena: generate-once, replay-everywhere instruction streams.
//!
//! Every `run_pair` call used to build fresh [`TraceGenerator`]s, so the
//! 80-pair Figure 7/8 sweep regenerated each benchmark's identical stream
//! three times per pair (once per scheduler) and again across every other
//! experiment module. The arena materializes each `(benchmark, seed,
//! thread-slot)` stream **once** into a compact packed encoding behind a
//! process-wide memoized store, and [`ReplaySource`] replays it by
//! decoding — bit-identical to live generation, several times cheaper.
//! The reader that materializes a chunk generates it into its own op
//! buffer and encodes it from there, so only later readers decode it.
//!
//! ## Encoding
//!
//! Ops are packed into ~6–9 bytes each (vs 48 bytes as an in-memory
//! [`MicroOp`]):
//!
//! ```text
//! header   1 byte   op-class index (low 4 bits) | predicted-correctly (bit 4)
//! src1     1 byte   register (0xFF = none, bit 7 = FP file)
//! src2     1 byte   register
//! dst      1 byte   register
//! pc       varint   zigzag delta from the previous op's pc
//! [mem only]
//! size     1 byte   access size
//! addr     varint   zigzag delta from the previous memory op's address
//! ```
//!
//! PC/address deltas are small in practice (the generator's program
//! counter dwells in a hot region; data accesses are mostly strided), so
//! their LEB128 varints are 1–3 bytes. Non-memory ops reconstruct
//! `addr = 0, size = 0`, which is what the [`MicroOp`] constructors
//! guarantee.
//!
//! ## Memoization and eviction
//!
//! Streams are stored in fixed-size chunks of [`CHUNK_OPS`] ops,
//! **extended on demand**: a consumer that reads past the materialized
//! prefix advances the entry's embedded generator by exactly one chunk,
//! so replay is bit-identical for *any* consumption length (a cyclic
//! replay of a fixed prefix would diverge from a live generator once the
//! run outlived the recording).
//! The store is a `Mutex<HashMap>` behind a `OnceLock`; entries are
//! `Arc`-shared, and when the packed total exceeds the byte budget the
//! least-recently-acquired entries *not currently held by a reader* are
//! evicted (an evicted stream is simply regenerated if needed again —
//! determinism makes eviction invisible). Shrinking the budget with
//! [`set_budget_bytes`] evicts immediately.
//!
//! ## Persistence
//!
//! With a cache directory (CLI `--trace-cache`, threaded through the
//! `_cached` constructors), materialized chunks additionally persist to
//! disk in the checksummed format of [`crate::persist`]: a fresh entry
//! adopts the persisted prefix instead of generating, dirty entries are
//! written back at doubling points, on eviction, and at [`flush`], and
//! any invalid file (version skew, truncation, corruption) is deleted
//! with a warning and regenerated live — bit-identical either way.
//!
//! ## Differential guarantee
//!
//! `--trace-path arena` and `--trace-path stream` must be bit-identical:
//! enforced by the round-trip tests here, the `util::check` properties in
//! `crates/trace/tests/prop_generator.rs` (with corpus persistence), the
//! `differential_trace` suite in `crates/experiments/tests/` (full
//! `TopoRunResult` equality across seeds and schedulers), and the exact
//! golden cycle counts in `golden_paper.rs`, which run on the arena
//! default.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ampsched_isa::{ArchReg, MicroOp};

use crate::benchmark::BenchmarkSpec;
use crate::generator::TraceGenerator;
use crate::persist;
use crate::timing;
use crate::workload::Workload;

/// How instruction streams are provisioned to the simulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TracePath {
    /// Materialize each stream once in the shared arena and replay it
    /// everywhere (the default).
    #[default]
    Arena,
    /// Generate every stream live, as before the arena existed. Kept as
    /// the differential reference, selectable via `--trace-path stream`.
    Stream,
}

impl TracePath {
    /// Parse a `--trace-path` flag value.
    pub fn from_flag(s: &str) -> Option<TracePath> {
        match s {
            "arena" => Some(TracePath::Arena),
            "stream" => Some(TracePath::Stream),
            _ => None,
        }
    }

    /// The flag spelling (`"arena"` / `"stream"`), for reports.
    pub fn name(self) -> &'static str {
        match self {
            TracePath::Arena => "arena",
            TracePath::Stream => "stream",
        }
    }

    /// Build a boxed workload for `spec` on a thread slot, routed through
    /// the arena or generated live according to `self`. Mirrors
    /// [`TraceGenerator::for_thread`] bit for bit on either path.
    pub fn workload_for_thread(
        self,
        spec: BenchmarkSpec,
        seed: u64,
        thread: usize,
    ) -> Box<dyn Workload> {
        self.workload_for_thread_cached(spec, seed, thread, None)
    }

    /// Like [`TracePath::workload_for_thread`], but with an optional
    /// on-disk cache directory (see [`crate::persist`]): on the arena
    /// path, materialized chunks are loaded from and written back to
    /// `cache_dir`. The stream path ignores the cache (it is the live
    /// differential reference).
    pub fn workload_for_thread_cached(
        self,
        spec: BenchmarkSpec,
        seed: u64,
        thread: usize,
        cache_dir: Option<&Path>,
    ) -> Box<dyn Workload> {
        match self {
            TracePath::Arena => {
                Box::new(ReplaySource::for_thread_cached(spec, seed, thread, cache_dir))
            }
            TracePath::Stream => {
                let gen = TraceGenerator::for_thread(spec, seed, thread);
                if timing::stream_sampling() {
                    Box::new(TimedStream::new(gen))
                } else {
                    Box::new(gen)
                }
            }
        }
    }
}

/// Ops per arena chunk. Large enough that per-chunk locking, timing, and
/// varint reset costs amortize to nothing; small enough that a short
/// quick-scale run doesn't over-materialize.
pub const CHUNK_OPS: usize = 8192;

/// Default arena byte budget. Entries held by live readers are exempt,
/// so this bounds the *cache* footprint, not correctness.
const DEFAULT_BUDGET_BYTES: u64 = 256 << 20;

const CLASS_MASK: u8 = 0x0F;
const PRED_BIT: u8 = 0x10;

/// Bit `i` set ⇔ `ALL_OP_CLASSES[i]` is a memory op. Lets the decoder
/// test mem-ness from the raw class index without constructing the enum
/// first.
const MEM_MASK: u16 = {
    let mut m = 0u16;
    let mut i = 0;
    while i < ampsched_isa::ops::NUM_OP_CLASSES {
        if ampsched_isa::ops::ALL_OP_CLASSES[i].is_mem() {
            m |= 1 << i;
        }
        i += 1;
    }
    m
};

/// One register byte: `0xFF` for none, bit 7 set for the FP file.
fn encode_reg(r: Option<ArchReg>) -> u8 {
    match r {
        None => 0xFF,
        Some(ArchReg::Int(n)) => n,
        Some(ArchReg::Fp(n)) => 0x80 | n,
    }
}

/// Branch-free register decode, the inverse of [`encode_reg`],
/// precomputed so the decoder's three per-op register reads are table
/// lookups instead of data-dependent branches.
static REG_LUT: [Option<ArchReg>; 256] = {
    let mut t = [None; 256];
    let mut b = 0usize;
    while b < 256 {
        t[b] = if b == 0xFF {
            None
        } else if b & 0x80 != 0 {
            Some(ArchReg::Fp((b & 0x7F) as u8))
        } else {
            Some(ArchReg::Int(b as u8))
        };
        b += 1;
    }
    t
};

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline]
fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

#[inline]
fn read_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    // Single-byte fast path: pc deltas are almost always +4 (one byte
    // zigzagged), so this branch predicts well in the decode loop.
    let b = *data.get(*pos)?;
    *pos += 1;
    if b < 0x80 {
        return Some(u64::from(b));
    }
    let mut v = u64::from(b & 0x7F);
    let mut shift = 7u32;
    loop {
        let b = *data.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Word-at-a-time varint decode for the hot path: requires 8 readable
/// bytes at `pos`. Finds the terminator with one bit-scan and folds the
/// 7-bit groups branchlessly — multi-byte address deltas cost the same
/// as single-byte pc deltas. Falls back to the byte loop for varints
/// longer than 8 bytes (never emitted for the deltas we encode).
#[inline]
fn read_varint_word(data: &[u8], pos: &mut usize) -> Option<u64> {
    debug_assert!(*pos + 8 <= data.len());
    let word = u64::from_le_bytes(data[*pos..*pos + 8].try_into().expect("8 bytes"));
    let stops = !word & 0x8080_8080_8080_8080;
    if stops == 0 {
        return read_varint(data, pos);
    }
    let stop = stops.trailing_zeros(); // bit index of the clear high bit
    *pos += stop as usize / 8 + 1;
    let w = (word & (u64::MAX >> (63 - stop))) & 0x7F7F_7F7F_7F7F_7F7F;
    // Pairwise 7-bit group folding: 8×7 bits → one 56-bit value.
    let w = (w & 0x007F_007F_007F_007F) | ((w & 0x7F00_7F00_7F00_7F00) >> 1);
    let w = (w & 0x0000_3FFF_0000_3FFF) | ((w & 0x3FFF_0000_3FFF_0000) >> 2);
    Some((w & 0x0000_0000_0FFF_FFFF) | ((w & 0x0FFF_FFFF_0000_0000) >> 4))
}

/// Append the packed encoding of `ops` to `buf`, delta-coding pc and
/// address against zero-initialized predecessors (so the result is
/// self-contained and decodable without context).
///
/// The encoding is exact for every op the [`MicroOp`] constructors can
/// produce (non-memory ops carry `addr = 0, size = 0`).
pub fn encode_stream(ops: &[MicroOp], buf: &mut Vec<u8>) {
    let (mut prev_pc, mut prev_addr) = (0u64, 0u64);
    for op in ops {
        debug_assert!(
            op.class.is_mem() || (op.addr == 0 && op.size == 0),
            "non-memory op with an address is outside the packed-encoding domain"
        );
        let mut header = op.class.index() as u8;
        if op.predicted_correctly {
            header |= PRED_BIT;
        }
        buf.push(header);
        buf.push(encode_reg(op.src1));
        buf.push(encode_reg(op.src2));
        buf.push(encode_reg(op.dst));
        write_varint(buf, zigzag(op.pc.wrapping_sub(prev_pc) as i64));
        prev_pc = op.pc;
        if op.class.is_mem() {
            buf.push(op.size);
            write_varint(buf, zigzag(op.addr.wrapping_sub(prev_addr) as i64));
            prev_addr = op.addr;
        }
    }
}

/// Decode exactly `n` ops packed by [`encode_stream`] into `out`
/// (appended). Returns `None` on malformed input: an out-of-range class
/// index, a truncated record, an overlong varint, or trailing bytes.
pub fn decode_stream(data: &[u8], n: usize, out: &mut Vec<MicroOp>) -> Option<()> {
    // Longest possible record: header + 3 regs + 10-byte pc varint +
    // size + 10-byte addr varint. Records starting at least this far
    // from the end can use unchecked-length reads and the word varint.
    const MAX_RECORD: usize = 25;
    let mut pos = 0usize;
    let (mut prev_pc, mut prev_addr) = (0u64, 0u64);
    out.reserve(n);
    for _ in 0..n {
        let fast = pos + MAX_RECORD <= data.len();
        let header = *data.get(pos)?;
        let class_idx = (header & CLASS_MASK) as usize;
        if class_idx >= ampsched_isa::ops::NUM_OP_CLASSES || header & !(CLASS_MASK | PRED_BIT) != 0
        {
            return None;
        }
        let class = ampsched_isa::ops::ALL_OP_CLASSES[class_idx];
        let src1 = REG_LUT[*data.get(pos + 1)? as usize];
        let src2 = REG_LUT[*data.get(pos + 2)? as usize];
        let dst = REG_LUT[*data.get(pos + 3)? as usize];
        pos += 4;
        let pc_delta = if fast {
            read_varint_word(data, &mut pos)?
        } else {
            read_varint(data, &mut pos)?
        };
        let pc = prev_pc.wrapping_add(unzigzag(pc_delta) as u64);
        prev_pc = pc;
        let (addr, size) = if MEM_MASK & (1 << class_idx) != 0 {
            let size = *data.get(pos)?;
            pos += 1;
            let addr_delta = if fast {
                read_varint_word(data, &mut pos)?
            } else {
                read_varint(data, &mut pos)?
            };
            let addr = prev_addr.wrapping_add(unzigzag(addr_delta) as u64);
            prev_addr = addr;
            (addr, size)
        } else {
            (0, 0)
        };
        out.push(MicroOp {
            pc,
            class,
            src1,
            src2,
            dst,
            addr,
            size,
            predicted_correctly: header & PRED_BIT != 0,
        });
    }
    if pos != data.len() {
        return None;
    }
    Some(())
}

/// One materialized run of [`CHUNK_OPS`] packed ops.
struct Chunk {
    data: Vec<u8>,
}

struct EntryInner {
    /// The live generator; advancing it by one chunk extends the stream
    /// on demand. When a prefix was loaded from the on-disk cache the
    /// generator lags behind `chunks` (see `gen_chunks`) and is only
    /// caught up if a consumer reads past the persisted prefix.
    gen: TraceGenerator,
    /// Chunks the embedded generator has actually produced. Equal to
    /// `chunks.len()` for entries materialized live; smaller when a
    /// disk-loaded prefix let us skip generation.
    gen_chunks: usize,
    chunks: Vec<Arc<Chunk>>,
    /// Chunks already persisted in this entry's cache file; the entry is
    /// dirty when `chunks.len()` exceeds this.
    disk_chunks: usize,
}

/// One memoized stream: a benchmark × seed × address-space combination.
struct ArenaEntry {
    /// LRU stamp from the store clock, updated on every acquisition.
    last_use: AtomicU64,
    /// Packed bytes materialized so far (mirrors `inner` without needing
    /// its lock, so eviction never touches another entry's mutex).
    bytes: AtomicU64,
    /// The store key, kept for cache-file naming.
    key: Key,
    /// Benchmark name, the human-readable cache-file prefix.
    name: &'static str,
    /// Where this entry persists its chunks, captured at creation (the
    /// first acquisition of a stream decides; `None` disables
    /// persistence for the entry).
    cache_dir: Option<PathBuf>,
    inner: Mutex<EntryInner>,
}

impl ArenaEntry {
    /// Fill `buf` with the `idx`-th chunk's ops. A materialized chunk is
    /// decoded; a missing one is materialized by this reader, which
    /// generates it straight into `buf` and encodes it from there, so the
    /// reader that makes a chunk never decodes it.
    fn read_into(&self, idx: usize, buf: &mut Vec<MicroOp>) {
        buf.clear();
        let mut inner = self.inner.lock().expect("arena entry lock");
        if let Some(chunk) = inner.chunks.get(idx).cloned() {
            drop(inner);
            let t = Instant::now();
            decode_stream(&chunk.data, CHUNK_OPS, buf)
                .expect("arena chunks are produced by encode_stream and always decode");
            timing::record(t.elapsed());
            return;
        }
        while inner.chunks.len() <= idx {
            let t = Instant::now();
            // Catch the generator up over any disk-loaded prefix it
            // never produced itself (only needed when a consumer reads
            // past what the cache file held).
            while inner.gen_chunks < inner.chunks.len() {
                for _ in 0..CHUNK_OPS {
                    inner.gen.next_op();
                }
                inner.gen_chunks += 1;
            }
            buf.clear();
            buf.reserve(CHUNK_OPS);
            for _ in 0..CHUNK_OPS {
                buf.push(inner.gen.next_op());
            }
            inner.gen_chunks += 1;
            let mut data = Vec::with_capacity(CHUNK_OPS * 8);
            encode_stream(buf, &mut data);
            timing::record(t.elapsed());
            ampsched_obs::counter!("trace.arena.chunk.materialize");
            ampsched_obs::hist!("trace.arena.chunk_bytes", data.len());
            self.bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
            TOTAL_BYTES.fetch_add(data.len() as u64, Ordering::Relaxed);
            inner.chunks.push(Arc::new(Chunk { data }));
            // Write back at doubling points so long runs persist
            // progress in amortized-linear total bytes written; flush()
            // and eviction catch the remainder.
            if self.cache_dir.is_some() && inner.chunks.len() >= inner.disk_chunks.max(1) * 2 {
                self.write_back(&mut inner);
            }
        }
    }

    /// Persist any chunks beyond the on-disk prefix by rewriting the
    /// entry's cache file (temp file + atomic rename). A write failure
    /// warns and leaves the previous file intact — persistence is an
    /// optimization, never a correctness dependency.
    fn write_back(&self, inner: &mut EntryInner) {
        let Some(dir) = &self.cache_dir else { return };
        if inner.chunks.len() <= inner.disk_chunks {
            return;
        }
        let payloads: Vec<&[u8]> = inner.chunks.iter().map(|c| c.data.as_slice()).collect();
        let path = persist::chunk_file_path(dir, self.name, self.key);
        match persist::save(&path, self.key, &payloads) {
            Ok(()) => {
                inner.disk_chunks = inner.chunks.len();
                ampsched_obs::counter!("trace.cache.write");
            }
            Err(e) => {
                ampsched_obs::counter!("trace.cache.write_error");
                ampsched_obs::warn!(
                    "trace.cache",
                    "could not write {}: {}", path.display(), e
                );
            }
        }
    }
}

pub(crate) type Key = (u64, u64, u64, u64);

struct Store {
    entries: HashMap<Key, Arc<ArenaEntry>>,
    clock: u64,
}

static STORE: OnceLock<Mutex<Store>> = OnceLock::new();
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
static BUDGET_BYTES: AtomicU64 = AtomicU64::new(DEFAULT_BUDGET_BYTES);

fn store() -> &'static Mutex<Store> {
    STORE.get_or_init(|| {
        Mutex::new(Store {
            entries: HashMap::new(),
            clock: 0,
        })
    })
}

/// FNV-1a over every stream-determining field of the spec. The key also
/// carries seed and address bases, so a fingerprint collision would
/// additionally require two *different* specs under the same name — the
/// suite forbids that by construction.
fn fingerprint(spec: &BenchmarkSpec) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(spec.name.as_bytes());
    eat(&[spec.phases.len() as u8]);
    for p in &spec.phases {
        eat(p.name.as_bytes());
        for c in p.mix.cdf() {
            eat(&c.to_bits().to_le_bytes());
        }
        eat(&p.mean_dep_distance.to_bits().to_le_bytes());
        eat(&p.mispredict_rate.to_bits().to_le_bytes());
        eat(&p.taken_rate.to_bits().to_le_bytes());
        eat(&p.data_working_set.to_le_bytes());
        eat(&p.stride_fraction.to_bits().to_le_bytes());
        eat(&p.code_footprint.to_le_bytes());
        eat(&p.duration.to_le_bytes());
    }
    h
}

/// Fetch or create the memoized entry for a stream, stamping its LRU
/// clock and evicting cold unreferenced entries if over budget. A fresh
/// entry first tries to adopt the persisted chunks from `cache_dir` (a
/// stale or corrupt cache file is warned about, deleted, and silently
/// replaced by live regeneration).
fn acquire(
    spec: &BenchmarkSpec,
    seed: u64,
    addr_base: u64,
    code_base: u64,
    cache_dir: Option<&Path>,
) -> Arc<ArenaEntry> {
    let key = (fingerprint(spec), seed, addr_base, code_base);
    let mut store = store().lock().expect("arena store lock");
    store.clock += 1;
    let now = store.clock;
    let mut created = false;
    let entry = store
        .entries
        .entry(key)
        .or_insert_with(|| {
            created = true;
            let chunks = cache_dir
                .map(|dir| load_from_disk(dir, spec.name, key))
                .unwrap_or_default();
            let bytes: u64 = chunks.iter().map(|c| c.data.len() as u64).sum();
            TOTAL_BYTES.fetch_add(bytes, Ordering::Relaxed);
            Arc::new(ArenaEntry {
                last_use: AtomicU64::new(now),
                bytes: AtomicU64::new(bytes),
                key,
                name: spec.name,
                cache_dir: cache_dir.map(Path::to_path_buf),
                inner: Mutex::new(EntryInner {
                    gen: TraceGenerator::new(spec.clone(), seed, addr_base, code_base),
                    gen_chunks: 0,
                    disk_chunks: chunks.len(),
                    chunks,
                }),
            })
        })
        .clone();
    if created {
        ampsched_obs::counter!("trace.arena.miss");
    } else {
        ampsched_obs::counter!("trace.arena.hit");
    }
    entry.last_use.store(now, Ordering::Relaxed);
    evict_locked(&mut store);
    entry
}

/// Load a stream's persisted chunks, enforcing the full corruption
/// policy: any invalid file is deleted (with a warning) and an empty
/// prefix is returned, so the caller falls back to live regeneration.
/// The load is trace-provisioning time and is accounted as such.
fn load_from_disk(dir: &Path, name: &'static str, key: Key) -> Vec<Arc<Chunk>> {
    let path = persist::chunk_file_path(dir, name, key);
    if !path.exists() {
        return Vec::new();
    }
    let t = Instant::now();
    let loaded = persist::load(&path, key);
    timing::record(t.elapsed());
    match loaded {
        Ok(payloads) => {
            ampsched_obs::counter!("trace.cache.load");
            ampsched_obs::counter!("trace.cache.load_chunks", payloads.len());
            payloads
                .into_iter()
                .map(|data| Arc::new(Chunk { data }))
                .collect()
        }
        Err(e) => {
            ampsched_obs::counter!("trace.cache.load_reject");
            ampsched_obs::warn!(
                "trace.cache",
                "{}: {}; deleting and regenerating", path.display(), e
            );
            let _ = std::fs::remove_file(&path);
            Vec::new()
        }
    }
}

/// Drop least-recently-acquired entries with no outside references until
/// the packed total fits the budget. Entries held by a [`ReplaySource`]
/// have `strong_count > 1` and are never touched, so in-flight readers
/// keep their stream alive regardless of budget pressure.
fn evict_locked(store: &mut Store) {
    let budget = BUDGET_BYTES.load(Ordering::Relaxed);
    while TOTAL_BYTES.load(Ordering::Relaxed) > budget {
        let victim = store
            .entries
            .iter()
            .filter(|(_, e)| Arc::strong_count(e) == 1)
            .min_by_key(|(_, e)| e.last_use.load(Ordering::Relaxed))
            .map(|(k, _)| *k);
        match victim {
            Some(k) => {
                ampsched_obs::counter!("trace.arena.evict");
                if let Some(e) = store.entries.remove(&k) {
                    // Persist unsaved chunks before dropping them, so
                    // eviction never discards work a warm run could
                    // have reused.
                    let mut inner = e.inner.lock().expect("arena entry lock");
                    e.write_back(&mut inner);
                    drop(inner);
                    TOTAL_BYTES.fetch_sub(e.bytes.load(Ordering::Relaxed), Ordering::Relaxed);
                }
            }
            None => break,
        }
    }
}

/// `(entries, packed_bytes)` currently resident, for tests and reports.
pub fn stats() -> (usize, u64) {
    let store = store().lock().expect("arena store lock");
    (store.entries.len(), TOTAL_BYTES.load(Ordering::Relaxed))
}

/// Override the arena byte budget (tests exercise eviction with tiny
/// budgets; long-lived processes may want more or less cache).
///
/// Takes effect immediately: shrinking the budget below the resident
/// total evicts cold unreferenced entries right away rather than
/// waiting for the next acquisition.
pub fn set_budget_bytes(bytes: u64) {
    BUDGET_BYTES.store(bytes, Ordering::Relaxed);
    let mut store = store().lock().expect("arena store lock");
    evict_locked(&mut store);
}

/// Write every dirty entry's chunks to its on-disk cache file. Entries
/// acquired without a cache directory are untouched. Call once at
/// process exit (the `ampsched` CLI does) so short runs persist streams
/// that never hit a doubling write-back point or eviction.
pub fn flush() {
    let entries: Vec<Arc<ArenaEntry>> = store()
        .lock()
        .expect("arena store lock")
        .entries
        .values()
        .cloned()
        .collect();
    for e in entries {
        let mut inner = e.inner.lock().expect("arena entry lock");
        e.write_back(&mut inner);
    }
}

/// Drop every unreferenced entry, regardless of budget. Mainly for tests
/// that need a cold arena.
pub fn clear() {
    let mut store = store().lock().expect("arena store lock");
    let keys: Vec<Key> = store
        .entries
        .iter()
        .filter(|(_, e)| Arc::strong_count(e) == 1)
        .map(|(k, _)| *k)
        .collect();
    for k in keys {
        if let Some(e) = store.entries.remove(&k) {
            TOTAL_BYTES.fetch_sub(e.bytes.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

/// A [`Workload`] that replays a memoized arena stream.
///
/// Reads one chunk at a time into its op buffer, so the hot
/// [`Workload::next_op`] is a plain array read plus a phase counter —
/// cheaper than live generation, and bit-identical to it for any
/// consumption length (the arena extends on demand). A chunk another
/// reader materialized is decoded; a chunk nobody has yet is generated
/// straight into the buffer and encoded from there. The buffer is
/// allocated on the first read, so a source built but never read (a
/// lane that never leaves the machine it shares) costs no buffer.
///
/// ```
/// use ampsched_trace::{suite, ReplaySource, TraceGenerator, Workload};
///
/// let spec = suite::by_name("gcc").expect("gcc is in the suite");
/// let mut arena = ReplaySource::for_thread(spec.clone(), 42, 0);
/// let mut stream = TraceGenerator::for_thread(spec, 42, 0);
/// // Identical across chunk boundaries (chunks hold 8192 ops)...
/// for _ in 0..10_000 {
///     assert_eq!(arena.next_op(), stream.next_op());
/// }
/// // ...and the phase schedule is mirrored exactly.
/// assert_eq!(arena.current_phase(), stream.current_phase());
/// ```
pub struct ReplaySource {
    entry: Arc<ArenaEntry>,
    name: &'static str,
    /// Phase durations copied from the spec; phase index is a pure
    /// function of ops consumed, mirrored here so `current_phase` never
    /// needs the entry lock.
    durations: Vec<u64>,
    next_chunk: usize,
    /// The current chunk's ops; empty, with no capacity, until the first
    /// read.
    buf: Vec<MicroOp>,
    pos: usize,
    phase_idx: usize,
    left_in_phase: u64,
}

impl ReplaySource {
    /// Arena-backed equivalent of [`TraceGenerator::for_thread`]: same
    /// per-thread seed derivation and disjoint address bases.
    pub fn for_thread(spec: BenchmarkSpec, seed: u64, thread: usize) -> ReplaySource {
        ReplaySource::for_thread_cached(spec, seed, thread, None)
    }

    /// [`ReplaySource::for_thread`] with an optional on-disk cache
    /// directory (see [`crate::persist`]) for cross-process reuse.
    pub fn for_thread_cached(
        spec: BenchmarkSpec,
        seed: u64,
        thread: usize,
        cache_dir: Option<&Path>,
    ) -> ReplaySource {
        let base = (thread as u64 + 1) << 30;
        ReplaySource::new_cached(
            spec,
            seed.wrapping_add(thread as u64),
            base,
            base + (1 << 28),
            cache_dir,
        )
    }

    /// Arena-backed equivalent of [`TraceGenerator::new`].
    pub fn new(spec: BenchmarkSpec, seed: u64, addr_base: u64, code_base: u64) -> ReplaySource {
        ReplaySource::new_cached(spec, seed, addr_base, code_base, None)
    }

    /// [`ReplaySource::new`] with an optional on-disk cache directory.
    pub fn new_cached(
        spec: BenchmarkSpec,
        seed: u64,
        addr_base: u64,
        code_base: u64,
        cache_dir: Option<&Path>,
    ) -> ReplaySource {
        let name = spec.name;
        let durations: Vec<u64> = spec.phases.iter().map(|p| p.duration).collect();
        let entry = acquire(&spec, seed, addr_base, code_base, cache_dir);
        let left_in_phase = durations[0];
        ReplaySource {
            entry,
            name,
            durations,
            next_chunk: 0,
            buf: Vec::new(),
            pos: 0,
            phase_idx: 0,
            left_in_phase,
        }
    }

    #[cold]
    fn refill(&mut self) {
        self.entry.read_into(self.next_chunk, &mut self.buf);
        self.next_chunk += 1;
        self.pos = 0;
    }
}

impl Workload for ReplaySource {
    fn name(&self) -> &str {
        self.name
    }

    fn current_phase(&self) -> usize {
        self.phase_idx
    }

    fn next_op(&mut self) -> MicroOp {
        if self.pos == self.buf.len() {
            self.refill();
        }
        let op = self.buf[self.pos];
        self.pos += 1;
        // Mirror TraceGenerator::advance_phase_counter exactly.
        self.left_in_phase -= 1;
        if self.left_in_phase == 0 {
            self.phase_idx = (self.phase_idx + 1) % self.durations.len();
            self.left_in_phase = self.durations[self.phase_idx];
        }
        op
    }
}

/// Streaming generator with sampled wall-clock accounting: one op in
/// every [`timing::STREAM_SAMPLE_EVERY`] is timed and the measurement is
/// scaled up, so the `--trace-path stream --profile` baseline can report
/// its generation share at ~1% instrumentation overhead without
/// perturbing the stream itself.
struct TimedStream {
    inner: TraceGenerator,
    ticks: u32,
}

impl TimedStream {
    fn new(inner: TraceGenerator) -> TimedStream {
        TimedStream { inner, ticks: 0 }
    }
}

impl Workload for TimedStream {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn current_phase(&self) -> usize {
        self.inner.current_phase()
    }

    fn next_op(&mut self) -> MicroOp {
        let sample = self.ticks == 0;
        self.ticks = (self.ticks + 1) % timing::STREAM_SAMPLE_EVERY;
        if sample {
            let t = Instant::now();
            let op = self.inner.next_op();
            timing::record(t.elapsed() * timing::STREAM_SAMPLE_EVERY);
            op
        } else {
            self.inner.next_op()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    #[test]
    fn packed_roundtrip_preserves_every_field() {
        let mut g = TraceGenerator::for_thread(suite::by_name("equake").unwrap(), 11, 1);
        let ops: Vec<MicroOp> = (0..6000).map(|_| g.next_op()).collect();
        let mut buf = Vec::new();
        encode_stream(&ops, &mut buf);
        assert!(
            buf.len() < ops.len() * 10,
            "packed encoding should stay under 10 B/op, got {} for {}",
            buf.len(),
            ops.len()
        );
        let mut back = Vec::new();
        decode_stream(&buf, ops.len(), &mut back).expect("valid stream");
        assert_eq!(back, ops);
    }

    #[test]
    fn malformed_streams_are_rejected() {
        let mut g = TraceGenerator::for_thread(suite::by_name("sha").unwrap(), 3, 0);
        let ops: Vec<MicroOp> = (0..64).map(|_| g.next_op()).collect();
        let mut buf = Vec::new();
        encode_stream(&ops, &mut buf);
        let mut out = Vec::new();
        // Truncation, trailing garbage, and a bad class index all fail.
        assert!(decode_stream(&buf[..buf.len() - 1], ops.len(), &mut out).is_none());
        let mut longer = buf.clone();
        longer.push(0);
        out.clear();
        assert!(decode_stream(&longer, ops.len(), &mut out).is_none());
        let mut bad = buf.clone();
        bad[0] = 0x0F; // class index 15: out of range
        out.clear();
        assert!(decode_stream(&bad, ops.len(), &mut out).is_none());
        out.clear();
        assert!(decode_stream(&[], 1, &mut out).is_none());
    }

    #[test]
    fn replay_is_bit_identical_across_chunk_boundaries() {
        let spec = suite::by_name("gcc").unwrap();
        let mut arena = ReplaySource::for_thread(spec.clone(), 2012, 0);
        let mut live = TraceGenerator::for_thread(spec, 2012, 0);
        // Cover several chunk boundaries plus phase transitions.
        for i in 0..(3 * CHUNK_OPS + 100) {
            assert_eq!(arena.current_phase(), live.current_phase(), "phase at op {i}");
            assert_eq!(arena.next_op(), live.next_op(), "op {i} diverged");
        }
    }

    #[test]
    fn second_reader_reuses_the_materialization() {
        // A seed no other test uses, so the entry's chunk count is ours
        // alone even when tests run in parallel against the shared store.
        let spec = suite::by_name("mcf").unwrap();
        let seed = 0x5eed_2e05e;
        let mut a = ReplaySource::for_thread(spec.clone(), seed, 0);
        for _ in 0..CHUNK_OPS {
            a.next_op();
        }
        let base = 1u64 << 30;
        let entry = acquire(&spec, seed, base, base + (1 << 28), None);
        let chunks_before = entry.inner.lock().unwrap().chunks.len();
        assert_eq!(chunks_before, 1, "first reader materialized one chunk");
        let mut b = ReplaySource::for_thread(spec.clone(), seed, 0);
        let mut live = TraceGenerator::for_thread(spec, seed, 0);
        for _ in 0..CHUNK_OPS {
            assert_eq!(b.next_op(), live.next_op());
        }
        assert_eq!(
            entry.inner.lock().unwrap().chunks.len(),
            chunks_before,
            "the second reader must not re-materialize the shared prefix"
        );
    }

    /// The first `n` ops of a stream, generated live.
    fn live_ops(spec: &BenchmarkSpec, seed: u64, thread: usize, n: usize) -> Vec<MicroOp> {
        let mut g = TraceGenerator::for_thread(spec.clone(), seed, thread);
        (0..n).map(|_| g.next_op()).collect()
    }

    /// Read `n` ops from `r` and assert they equal `want[*at..*at + n]`.
    fn read_matches(r: &mut ReplaySource, want: &[MicroOp], at: &mut usize, n: usize, ctx: &str) {
        for (i, want) in want.iter().enumerate().skip(*at).take(n) {
            assert_eq!(r.next_op(), *want, "{ctx}: op {i} diverged");
        }
        *at += n;
    }

    #[test]
    fn materializing_decoding_and_alternating_readers_equal_the_generator() {
        // Seeds no other test uses, so each entry starts empty here and
        // its chunks are read in exactly the order below.
        const CHUNKS: usize = 2;
        let n = CHUNKS * CHUNK_OPS;
        for spec in suite::all() {
            for seed in [0x1de7_0001u64, 0x1de7_0002] {
                // Thread slot 0: one reader materializes every chunk, a
                // second (alive meanwhile, so nothing is evicted)
                // decodes them.
                let want = live_ops(&spec, seed, 0, n);
                let ctx = format!("{} seed {seed:#x}", spec.name);
                let mut maker = ReplaySource::for_thread(spec.clone(), seed, 0);
                read_matches(&mut maker, &want, &mut 0, n, &format!("{ctx} materializing reader"));
                assert_eq!(maker.entry.inner.lock().unwrap().gen_chunks, CHUNKS);
                let mut decoder = ReplaySource::for_thread(spec.clone(), seed, 0);
                read_matches(&mut decoder, &want, &mut 0, n, &format!("{ctx} decoding reader"));
                assert_eq!(
                    decoder.entry.inner.lock().unwrap().gen_chunks,
                    CHUNKS,
                    "{ctx}: the decoding reader generated"
                );
                // Thread slot 1: two readers take turns materializing;
                // chunk c is made by reader c % 2 and decoded by the
                // other.
                let want = live_ops(&spec, seed, 1, n);
                let mut pair = [
                    ReplaySource::for_thread(spec.clone(), seed, 1),
                    ReplaySource::for_thread(spec.clone(), seed, 1),
                ];
                let mut at = [0usize; 2];
                for c in 0..CHUNKS {
                    for r in [c % 2, 1 - c % 2] {
                        let ctx = format!("{ctx} alternating reader {r} chunk {c}");
                        read_matches(&mut pair[r], &want, &mut at[r], CHUNK_OPS, &ctx);
                        assert_eq!(pair[r].entry.inner.lock().unwrap().gen_chunks, c + 1, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn an_unread_source_holds_no_buffer() {
        let spec = suite::by_name("gzip").unwrap();
        let mut r = ReplaySource::for_thread(spec, 0x1de7_0003, 0);
        assert_eq!(r.buf.capacity(), 0, "built but never read");
        r.next_op();
        assert_eq!(r.buf.capacity(), CHUNK_OPS, "one chunk's ops after the first read");
    }

    #[test]
    fn distinct_threads_get_distinct_streams() {
        let spec = suite::by_name("pi").unwrap();
        let mut t0 = ReplaySource::for_thread(spec.clone(), 9, 0);
        let mut t1 = ReplaySource::for_thread(spec, 9, 1);
        let same = (0..2000).filter(|_| t0.next_op() == t1.next_op()).count();
        assert!(same < 2000, "thread slots must produce distinct streams");
    }

    #[test]
    fn eviction_respects_live_readers_and_budget() {
        // A dedicated tiny budget: anything beyond one chunk is over.
        set_budget_bytes(1);
        let spec = suite::by_name("vortex").unwrap();
        let mut held = ReplaySource::for_thread(spec.clone(), 123_456, 0);
        for _ in 0..CHUNK_OPS {
            held.next_op();
        }
        // Acquiring unrelated entries triggers eviction of cold ones, but
        // `held`'s entry has a live reader and must survive.
        for seed in 0..4u64 {
            let mut r = ReplaySource::for_thread(spec.clone(), 900_000 + seed, 0);
            r.next_op();
        }
        let mut live = TraceGenerator::for_thread(spec.clone(), 123_456, 0);
        for _ in 0..CHUNK_OPS {
            live.next_op();
        }
        for i in 0..100 {
            assert_eq!(held.next_op(), live.next_op(), "op {i} after eviction pressure");
        }
        set_budget_bytes(DEFAULT_BUDGET_BYTES);
        clear();
        // Evicted-and-reacquired streams regenerate identically.
        let mut again = ReplaySource::for_thread(spec.clone(), 123_456, 0);
        let mut fresh = TraceGenerator::for_thread(spec, 123_456, 0);
        for _ in 0..200 {
            assert_eq!(again.next_op(), fresh.next_op());
        }
    }

    #[test]
    fn shrinking_the_budget_evicts_immediately() {
        // Regression: set_budget_bytes used to only take effect at the
        // next acquisition, so a shrunk budget left the arena over
        // budget indefinitely. A seed no other test uses.
        let spec = suite::by_name("gsm").unwrap();
        let seed = 0x000b_06e7_0001_u64;
        {
            let mut r = ReplaySource::for_thread(spec.clone(), seed, 0);
            for _ in 0..CHUNK_OPS {
                r.next_op();
            }
        } // reader dropped: the entry is cold and evictable
        let key = (fingerprint(&spec), seed, 1u64 << 30, (1u64 << 30) + (1 << 28));
        assert!(
            store().lock().unwrap().entries.contains_key(&key),
            "entry resident before the budget shrink"
        );
        set_budget_bytes(0);
        let evicted = !store().lock().unwrap().entries.contains_key(&key);
        set_budget_bytes(DEFAULT_BUDGET_BYTES);
        assert!(evicted, "set_budget_bytes must evict immediately, not at the next acquire");
    }

    #[test]
    fn persisted_chunks_survive_clear_and_replay_identically() {
        let dir = std::env::temp_dir().join(format!("ampsched-arena-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = suite::by_name("ammp").unwrap();
        let seed = 0xd15c_0001u64;
        // Cold pass: materialize two chunks and a bit, then flush.
        {
            let mut cold = ReplaySource::for_thread_cached(spec.clone(), seed, 0, Some(&dir));
            for _ in 0..(2 * CHUNK_OPS + 64) {
                cold.next_op();
            }
        }
        flush();
        clear();
        let files = crate::persist::scan(&dir);
        assert_eq!(files.len(), 1, "one cache file per stream");
        assert!(files[0].is_valid());
        assert_eq!(files[0].records, 3, "flush persists every materialized chunk");

        // Warm pass: the entry must adopt the persisted prefix (no
        // generator work for it) and replay bit-identically, including
        // past the persisted prefix (generator catch-up).
        let mut warm = ReplaySource::for_thread_cached(spec.clone(), seed, 0, Some(&dir));
        let key = (fingerprint(&spec), seed, 1u64 << 30, (1u64 << 30) + (1 << 28));
        {
            let store = store().lock().unwrap();
            let inner = store.entries[&key].inner.lock().unwrap();
            assert_eq!(inner.chunks.len(), 3, "warm entry adopted the disk prefix");
            assert_eq!(inner.gen_chunks, 0, "no generation on the warm path");
        }
        let mut live = TraceGenerator::for_thread(spec.clone(), seed, 0);
        for i in 0..(4 * CHUNK_OPS) {
            assert_eq!(warm.next_op(), live.next_op(), "op {i} diverged on the warm path");
        }
        drop(warm);
        clear();

        // Corruption pass: flip one payload byte; the warm acquire must
        // detect it, delete the file, and regenerate identically.
        let path = &crate::persist::scan(&dir)[0].path;
        let mut image = std::fs::read(path).unwrap();
        let at = image.len() - 100;
        image[at] ^= 0x10;
        std::fs::write(path, &image).unwrap();
        let mut after = ReplaySource::for_thread_cached(spec.clone(), seed, 0, Some(&dir));
        let mut fresh = TraceGenerator::for_thread(spec, seed, 0);
        for i in 0..CHUNK_OPS {
            assert_eq!(after.next_op(), fresh.next_op(), "op {i} diverged after corruption");
        }
        assert!(
            crate::persist::scan(&dir).iter().all(|r| r.is_valid()),
            "the corrupt file must have been deleted (and possibly rewritten valid)"
        );
        drop(after);
        clear();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_path_flag_round_trips() {
        assert_eq!(TracePath::from_flag("arena"), Some(TracePath::Arena));
        assert_eq!(TracePath::from_flag("stream"), Some(TracePath::Stream));
        assert_eq!(TracePath::from_flag("bogus"), None);
        assert_eq!(TracePath::default(), TracePath::Arena);
        assert_eq!(TracePath::Arena.name(), "arena");
        assert_eq!(TracePath::Stream.name(), "stream");
    }

    #[test]
    fn both_paths_build_equivalent_workloads() {
        let spec = suite::by_name("apsi").unwrap();
        let mut a = TracePath::Arena.workload_for_thread(spec.clone(), 5, 1);
        let mut s = TracePath::Stream.workload_for_thread(spec, 5, 1);
        assert_eq!(a.name(), s.name());
        for _ in 0..5000 {
            assert_eq!(a.next_op(), s.next_op());
            assert_eq!(a.current_phase(), s.current_phase());
        }
    }

    #[test]
    fn timed_stream_is_transparent() {
        timing::set_stream_sampling(true);
        let spec = suite::by_name("CRC32").unwrap();
        let mut timed = TracePath::Stream.workload_for_thread(spec.clone(), 8, 0);
        timing::set_stream_sampling(false);
        let mut plain = TraceGenerator::for_thread(spec, 8, 0);
        let before = timing::total();
        for _ in 0..1000 {
            assert_eq!(timed.next_op(), plain.next_op());
        }
        assert!(timing::total() > before, "sampling must record time");
    }
}
