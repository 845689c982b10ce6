//! The out-of-order core pipeline.
//!
//! Stage order inside [`Core::tick`] is commit → issue → dispatch, the
//! usual reverse-pipeline processing that prevents same-cycle
//! flow-through: an instruction dispatched in cycle *t* is issueable from
//! *t+1*, and a result produced in cycle *t* wakes consumers from *t*
//! onward (bypass network assumed).

use ampsched_isa::{ArchReg, MicroOp, OpClass};
use ampsched_mem::{AccessKind, MemSystem};
use ampsched_trace::Workload;

use crate::activity::ActivityCounters;
use crate::config::CoreConfig;
use crate::fu::FuPool;
use crate::profile::{PipeSnapshot, StallCause};
use crate::stats::CoreStats;

/// Sentinel: result not yet produced.
const NOT_READY: u64 = u64::MAX;

// Indices into `Core::issue_wake`, one per issue structure.
const IW_INT: usize = 0;
const IW_FP: usize = 1;
const IW_LOADS: usize = 2;
const IW_STORES: usize = 3;

/// A resolved data dependency: the producing ROB slot plus its sequence
/// number (slot reuse is detected by sequence mismatch, which implies the
/// producer has committed and the value is architecturally available).
#[derive(Debug, Clone, Copy, Default)]
struct Dep {
    slot: u32,
    seq: u64, // 0 = no dependency
}

#[derive(Debug, Clone, Copy)]
struct RobSlot {
    seq: u64, // 0 = empty slot
    class: OpClass,
    dispatched_at: u64,
    /// Cycle the result is available; `NOT_READY` until issued.
    ready_at: u64,
    src1: Dep,
    src2: Dep,
    /// Destination register file: `Some(true)` = FP, `Some(false)` = INT.
    dst_fp: Option<bool>,
    addr: u64,
    mispredicted: bool,
}

impl Default for RobSlot {
    fn default() -> Self {
        RobSlot {
            seq: 0,
            class: OpClass::IntAlu,
            dispatched_at: 0,
            ready_at: NOT_READY,
            src1: Dep::default(),
            src2: Dep::default(),
            dst_fp: None,
            addr: 0,
            mispredicted: false,
        }
    }
}

/// Packed encoding of [`RobSlot::dst_fp`], shared with `state_digest`.
const DST_NONE: u8 = 0;
const DST_INT: u8 = 1;
const DST_FP: u8 = 2;

/// Reorder-buffer storage as a struct of parallel packed arrays.
///
/// The per-cycle sweeps — issue wakeup over the queues, the quiescence
/// event scan, dependency checks, the commit select — each read only one
/// or two fields of many slots. Packing each field densely keeps those
/// sweeps inside a handful of cache lines instead of striding across
/// ~88-byte `RobSlot` records, which is where the fast path's wide
/// stage passes get their locality.
///
/// The frozen reference stages keep reading and writing whole seed-shaped
/// [`RobSlot`] values through [`Rob::get`]/[`Rob::set`], so their stage
/// bodies stay semantically verbatim over the new layout. Both kernels
/// share this storage; there is no mirrored state to keep coherent.
#[derive(Clone)]
struct Rob {
    seq: Vec<u64>,
    ready_at: Vec<u64>,
    dispatched_at: Vec<u64>,
    class: Vec<OpClass>,
    src1_slot: Vec<u32>,
    src1_seq: Vec<u64>,
    src2_slot: Vec<u32>,
    src2_seq: Vec<u64>,
    /// `DST_NONE` / `DST_INT` / `DST_FP`.
    dst_fp: Vec<u8>,
    addr: Vec<u64>,
    mispredicted: Vec<bool>,
}

impl Rob {
    fn new(cap: usize) -> Self {
        Rob {
            seq: vec![0; cap],
            ready_at: vec![NOT_READY; cap],
            dispatched_at: vec![0; cap],
            class: vec![OpClass::IntAlu; cap],
            src1_slot: vec![0; cap],
            src1_seq: vec![0; cap],
            src2_slot: vec![0; cap],
            src2_seq: vec![0; cap],
            dst_fp: vec![DST_NONE; cap],
            addr: vec![0; cap],
            mispredicted: vec![false; cap],
        }
    }

    /// Number of slots (the configured ROB size).
    #[inline]
    fn cap(&self) -> usize {
        self.seq.len()
    }

    /// Materialize slot `i` as the seed simulator's `RobSlot` value (the
    /// frozen reference stages consume whole slots, exactly as the seed
    /// did over the array-of-structs layout).
    #[inline]
    fn get(&self, i: usize) -> RobSlot {
        RobSlot {
            seq: self.seq[i],
            class: self.class[i],
            dispatched_at: self.dispatched_at[i],
            ready_at: self.ready_at[i],
            src1: Dep {
                slot: self.src1_slot[i],
                seq: self.src1_seq[i],
            },
            src2: Dep {
                slot: self.src2_slot[i],
                seq: self.src2_seq[i],
            },
            dst_fp: match self.dst_fp[i] {
                DST_NONE => None,
                DST_INT => Some(false),
                _ => Some(true),
            },
            addr: self.addr[i],
            mispredicted: self.mispredicted[i],
        }
    }

    /// Scatter a whole `RobSlot` value into the parallel arrays.
    #[inline]
    fn set(&mut self, i: usize, s: RobSlot) {
        self.seq[i] = s.seq;
        self.ready_at[i] = s.ready_at;
        self.dispatched_at[i] = s.dispatched_at;
        self.class[i] = s.class;
        self.src1_slot[i] = s.src1.slot;
        self.src1_seq[i] = s.src1.seq;
        self.src2_slot[i] = s.src2.slot;
        self.src2_seq[i] = s.src2.seq;
        self.dst_fp[i] = match s.dst_fp {
            None => DST_NONE,
            Some(false) => DST_INT,
            Some(true) => DST_FP,
        };
        self.addr[i] = s.addr;
        self.mispredicted[i] = s.mispredicted;
    }

    /// Is the value behind dependency (`slot`, `seq`) readable at `now`?
    /// A sequence mismatch means the producer committed (slot reuse), so
    /// the value is architecturally available.
    #[inline]
    fn dep_ready(&self, slot: u32, seq: u64, now: u64) -> bool {
        if seq == 0 {
            return true;
        }
        let i = slot as usize;
        self.seq[i] != seq || self.ready_at[i] <= now
    }

    /// The first cycle at which dependency (`slot`, `seq`) is readable:
    /// 0 when already architecturally available, the producer's
    /// `ready_at` when it has issued, [`NOT_READY`] when the completion
    /// time is still unknown. `dep_time(..) <= now` ⇔ `dep_ready(.., now)`,
    /// and the value can only move *earlier* through a `ready_at` write
    /// (an issue event) — never through commit, which needs
    /// `ready_at <= now` itself. The issue-horizon skips below rely on
    /// exactly that monotonicity.
    #[inline]
    fn dep_time(&self, slot: u32, seq: u64) -> u64 {
        if seq == 0 {
            return 0;
        }
        let i = slot as usize;
        if self.seq[i] != seq {
            0
        } else {
            self.ready_at[i]
        }
    }
}

/// Which simulation kernel [`Core::step`] runs.
///
/// `Fast` is the production path: the optimized [`Core::tick`] stages plus
/// cycle-skip-ahead over quiescent regions. `Reference` drives
/// [`Core::reference_tick`] every single cycle — slower, but the frozen
/// baseline the differential harness compares against. Both must produce
/// bit-identical results; `crates/cpu/tests/differential.rs` and the
/// system-level differential tests enforce that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SimPath {
    /// Optimized stages + skip-ahead (default).
    #[default]
    Fast,
    /// Frozen per-cycle reference kernel.
    Reference,
}

impl SimPath {
    /// Parse a `--sim-path` flag value (`"fast"` / `"reference"`).
    pub fn from_flag(s: &str) -> Option<SimPath> {
        match s {
            "fast" => Some(SimPath::Fast),
            "reference" => Some(SimPath::Reference),
            _ => None,
        }
    }

    /// The flag spelling (`"fast"` / `"reference"`), for reports.
    pub fn name(self) -> &'static str {
        match self {
            SimPath::Fast => "fast",
            SimPath::Reference => "reference",
        }
    }
}

/// One out-of-order core executing a [`Workload`] stream.
///
/// A clone is an independent core in the same state: given the same
/// workload stream from the same position, it behaves identically.
#[derive(Clone)]
pub struct Core {
    cfg: CoreConfig,
    core_id: usize,

    // Reorder buffer (ring), stored as parallel packed arrays.
    rob: Rob,
    rob_head: usize,
    rob_len: usize,
    next_seq: u64,

    // Rename state: last writer of each architectural register.
    last_writer: [Dep; ampsched_isa::regs::NUM_ARCH_REGS],
    int_free: u16,
    fp_free: u16,

    // Scheduler queues: ROB slot indices in age order.
    isq_int: Vec<u32>,
    isq_fp: Vec<u32>,
    loads: Vec<u32>,
    stores: Vec<u32>,

    // Fast-path indices over `loads`/`stores`: the age-ordered subset
    // that has not issued yet, so the per-cycle issue scans skip entries
    // that already issued and are only waiting for data or commit.
    // Maintained by the fast path only (`dispatch`/`issue_loads`/
    // `issue_stores`); the frozen reference stages never read them, and
    // as derived state they are excluded from `state_digest`. A core must
    // be driven through one kernel path for its whole lifetime (both
    // runners guarantee this).
    loads_unissued: Vec<u32>,
    stores_unissued: Vec<u32>,

    // Issue horizons (fast path only): `issue_wake[q]` is a proven lower
    // bound on the next cycle at which issue structure `q` could grant
    // anything, so sweeps at cycles strictly below it are skipped
    // entirely. A full sweep that grants nothing computes the bound from
    // its failure causes (producer `ready_at`, dispatch cycle, FU
    // occupancy); any issue event drags every horizon down to its
    // completion time (a dependent cannot wake before its producer's
    // `ready_at`), a dispatch insert zeroes the target queue's horizon,
    // and a flush or the reference path resets them all. Derived state:
    // excluded from `state_digest`, never read by the `ref_*` stages.
    issue_wake: [u64; 4],

    // Per-entry wake caches for the four issue structures, maintained in
    // lockstep with `isq_int`/`isq_fp`/`loads_unissued`/`stores_unissued`
    // by the fast path (push on dispatch, compact or remove with the
    // sweep). `wake[i]` is a sound lower bound on entry `i`'s first
    // eligible cycle: finite bounds stay valid forever (dep times are
    // immutable once known, FU pools only get busier, and a load's
    // blocking stores are all present at dispatch — in-order dispatch —
    // and cannot leave the store queue before their own `ready_at`),
    // while `NOT_READY` means "blocked on a producer or store whose
    // completion is unknown" and must be re-examined once any issue
    // event lands — `isq_recheck[q]` tracks the earliest such event per
    // structure (indexed by `IW_*`). The sweep skips a cached entry with
    // one compare instead of re-reading its whole dependency state (for
    // loads that includes the O(store-queue) disambiguation scan). The
    // reference path clears the caches (its frozen stages push/remove
    // without maintaining them); the fast sweeps re-align a cleared
    // cache by refilling with zeros.
    isq_int_wake: Vec<u64>,
    isq_fp_wake: Vec<u64>,
    loads_wake: Vec<u64>,
    stores_wake: Vec<u64>,
    isq_recheck: [u64; 4],

    // Quiescence certificate, maintained by `step` on the fast path:
    // cycles strictly below `quiet_until` are certified no-ops, and
    // `idle_streak` (the last tick committed nothing) gates the scan
    // that certifies them. A flush voids the certificate but keeps the
    // gate. Derived state: excluded from `state_digest`.
    quiet_until: u64,
    idle_streak: bool,

    // Functional units (six arithmetic classes).
    fus: [FuPool; 6],

    // Frontend state.
    pending: Option<MicroOp>,
    fetch_ready_at: u64,
    last_fetch_line: u64,
    waiting_branch: Option<Dep>,
    redirect_until: u64,
    /// Ops pulled from workloads so far (fetched, whether or not they
    /// commit). Bookkeeping only: excluded from `state_digest`.
    ops_pulled: u64,

    /// Architectural statistics.
    pub stats: CoreStats,
    /// Power-model activity counters.
    pub activity: ActivityCounters,
}

impl Core {
    /// Build an idle core.
    pub fn new(cfg: CoreConfig, core_id: usize) -> Self {
        cfg.validate();
        let fus = [
            FuPool::new(cfg.fu[0]),
            FuPool::new(cfg.fu[1]),
            FuPool::new(cfg.fu[2]),
            FuPool::new(cfg.fu[3]),
            FuPool::new(cfg.fu[4]),
            FuPool::new(cfg.fu[5]),
        ];
        Core {
            rob: Rob::new(cfg.rob_size as usize),
            rob_head: 0,
            rob_len: 0,
            next_seq: 1,
            last_writer: [Dep::default(); ampsched_isa::regs::NUM_ARCH_REGS],
            int_free: cfg.int_rename_pool(),
            fp_free: cfg.fp_rename_pool(),
            isq_int: Vec::with_capacity(cfg.int_isq as usize),
            isq_fp: Vec::with_capacity(cfg.fp_isq as usize),
            loads: Vec::with_capacity(cfg.lsq_loads as usize),
            stores: Vec::with_capacity(cfg.lsq_stores as usize),
            loads_unissued: Vec::with_capacity(cfg.lsq_loads as usize),
            stores_unissued: Vec::with_capacity(cfg.lsq_stores as usize),
            issue_wake: [0; 4],
            isq_int_wake: Vec::with_capacity(cfg.int_isq as usize),
            isq_fp_wake: Vec::with_capacity(cfg.fp_isq as usize),
            loads_wake: Vec::with_capacity(cfg.lsq_loads as usize),
            stores_wake: Vec::with_capacity(cfg.lsq_stores as usize),
            isq_recheck: [NOT_READY; 4],
            quiet_until: 0,
            idle_streak: false,
            fus,
            pending: None,
            fetch_ready_at: 0,
            last_fetch_line: u64::MAX,
            waiting_branch: None,
            redirect_until: 0,
            ops_pulled: 0,
            stats: CoreStats::default(),
            activity: ActivityCounters::new(),
            cfg,
            core_id,
        }
    }

    /// Static configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Core index within the system (selects L1s in the [`MemSystem`]).
    pub fn core_id(&self) -> usize {
        self.core_id
    }

    /// Occupied ROB entries (diagnostics/tests).
    pub fn rob_occupancy(&self) -> usize {
        self.rob_len
    }

    #[inline]
    fn dep_ready(&self, dep: Dep, now: u64) -> bool {
        // Slot reused or freed => producer committed => value available.
        self.rob.dep_ready(dep.slot, dep.seq, now)
    }

    /// Drag every issue horizon down to `t`: an issue event with
    /// completion time `t` may wake dependents in any structure, but none
    /// of them before the producing result is ready. Entries cached as
    /// blocked-on-unknown-producer must be re-examined from `t` as well.
    #[inline]
    fn wake_all_at(&mut self, t: u64) {
        for w in &mut self.issue_wake {
            *w = (*w).min(t);
        }
        for r in &mut self.isq_recheck {
            *r = (*r).min(t);
        }
    }

    #[inline]
    fn srcs_ready(&self, slot: &RobSlot, now: u64) -> bool {
        self.dep_ready(slot.src1, now) && self.dep_ready(slot.src2, now)
    }

    /// Advance the core by one cycle. Returns the number of instructions
    /// committed this cycle.
    ///
    /// This is the *fast path*: its commit/issue/dispatch stages are
    /// restructured for wall-clock speed (queue compaction instead of
    /// repeated `Vec::remove`, field loads instead of whole-slot copies,
    /// hoisted structural limits, inlined activity accounting) but must
    /// stay cycle- and counter-identical to
    /// [`Core::reference_tick`]. The differential suite in
    /// `crates/cpu/tests/differential.rs` enforces that equivalence.
    pub fn tick(&mut self, now: u64, workload: &mut dyn Workload, mem: &mut MemSystem) -> u32 {
        self.stats.cycles += 1;
        self.activity.cycles += 1;
        let committed = self.commit(now, mem);
        self.issue(now, mem);
        self.dispatch(now, workload, mem);
        committed
    }

    /// Advance the core by one cycle through the kernel `path` selects.
    /// Returns the number of instructions committed this cycle.
    ///
    /// `Reference` runs [`Core::reference_tick`]. `Fast` replays a cycle
    /// inside the certified quiescent region with [`Core::fast_forward`]
    /// and otherwise runs [`Core::tick`]; the second commit-free tick in
    /// a row (isolated ones are common dependency bubbles) scans for the
    /// next event and certifies every cycle before it
    /// ([`Core::quiet_until`]). A core must be stepped through one path
    /// for its whole lifetime.
    pub fn step(
        &mut self,
        now: u64,
        path: SimPath,
        workload: &mut dyn Workload,
        mem: &mut MemSystem,
    ) -> u32 {
        match path {
            SimPath::Reference => self.reference_tick(now, workload, mem),
            SimPath::Fast if self.quiet_until > now => {
                self.fast_forward(now, 1);
                0
            }
            SimPath::Fast => {
                let n = self.tick(now, workload, mem);
                if n != 0 {
                    self.idle_streak = false;
                } else if self.idle_streak {
                    // One scan certifies an entire stall region;
                    // committing cycles never pay for it.
                    self.quiet_until = self.next_event_at_or_after(now + 1);
                } else {
                    self.idle_streak = true;
                }
                n
            }
        }
    }

    /// Ops this core has pulled from the workloads it ran so far. A
    /// runner that knows which workload the core ran can tell from it
    /// how far each stream has been read.
    pub fn ops_pulled(&self) -> u64 {
        self.ops_pulled
    }

    /// End of the certified quiescent region: every cycle strictly below
    /// it is a no-op, so a runner may jump the core from `now` to any
    /// cycle up to it with one [`Core::fast_forward`] call. 0 until
    /// [`Core::step`] certifies a stall region, after a flush, and always
    /// on the reference path.
    pub fn quiet_until(&self) -> u64 {
        self.quiet_until
    }

    /// Advance the core by one cycle through the frozen *reference path*.
    ///
    /// The `ref_*` stage bodies below are the seed simulator's original
    /// commit/issue/dispatch implementations, kept verbatim as the
    /// bit-exactness baseline for [`Core::tick`] and
    /// [`Core::fast_forward`]. Do not
    /// optimize them; optimize `tick` and prove equivalence against this.
    pub fn reference_tick(
        &mut self,
        now: u64,
        workload: &mut dyn Workload,
        mem: &mut MemSystem,
    ) -> u32 {
        self.stats.cycles += 1;
        self.activity.cycles += 1;
        // The frozen stages below mutate `ready_at` and the queues
        // without maintaining the fast path's issue horizons or wake
        // caches; keep them inert so a core that ever ran reference
        // ticks can still be ticked fast safely (the fast sweep refills
        // a cleared cache with zeros, forcing full re-examination).
        self.issue_wake = [0; 4];
        self.isq_int_wake.clear();
        self.isq_fp_wake.clear();
        self.loads_wake.clear();
        self.stores_wake.clear();
        self.isq_recheck = [0; 4];
        let committed = self.ref_commit(now, mem);
        self.ref_issue(now, mem);
        self.ref_dispatch(now, workload, mem);
        committed
    }

    // --- Commit ------------------------------------------------------

    fn commit(&mut self, now: u64, mem: &mut MemSystem) -> u32 {
        let width = self.cfg.commit_width as u32;
        let rob_cap = self.rob.cap();
        // Select pass: sweep the ring head over the packed `ready_at`
        // array to size this cycle's retirement batch. Retiring an op
        // never changes a younger op's `ready_at`, so the batch decided
        // here equals what the per-op interleaved loop would retire.
        // Branchy ring wrap instead of `%`: the capacity is not a power
        // of two, so modulo compiles to an integer division on the
        // per-op path.
        let mut n = 0u32;
        let mut idx = self.rob_head;
        while n < width && (n as usize) < self.rob_len && self.rob.ready_at[idx] <= now {
            n += 1;
            idx += 1;
            if idx == rob_cap {
                idx = 0;
            }
        }
        if n == 0 {
            return 0;
        }
        // Retire pass: per-op bookkeeping for the whole batch, reading
        // only the fields each op class needs from the packed arrays.
        let mut idx = self.rob_head;
        for _ in 0..n {
            let class = self.rob.class[idx];
            match class {
                OpClass::Store => {
                    // Write-back through the store buffer: update cache
                    // state; latency is off the critical path.
                    let _ = mem.access(self.core_id, AccessKind::Store, self.rob.addr[idx], now);
                    self.activity.dcache_accesses += 1;
                    // Free the store-queue entry (the head is the oldest
                    // store, so this is the front in the common case).
                    if let Some(pos) = self.stores.iter().position(|&s| s == idx as u32) {
                        self.stores.remove(pos);
                    }
                }
                OpClass::Load => {
                    if let Some(pos) = self.loads.iter().position(|&s| s == idx as u32) {
                        self.loads.remove(pos);
                    }
                }
                OpClass::Branch => {
                    self.stats.branches += 1;
                    if self.rob.mispredicted[idx] {
                        self.stats.mispredicts += 1;
                    }
                }
                _ => {}
            }
            match self.rob.dst_fp[idx] {
                DST_FP => self.fp_free += 1,
                DST_INT => self.int_free += 1,
                _ => {}
            }
            self.stats.committed.record(class);
            self.rob.seq[idx] = 0;
            idx += 1;
            if idx == rob_cap {
                idx = 0;
            }
        }
        self.activity.commits += n as u64;
        self.rob_head = idx;
        self.rob_len -= n as usize;
        n
    }

    /// Reference copy of the seed simulator's commit stage (frozen).
    fn ref_commit(&mut self, now: u64, mem: &mut MemSystem) -> u32 {
        let mut n = 0u32;
        while n < self.cfg.commit_width as u32 && self.rob_len > 0 {
            let idx = self.rob_head;
            let slot = self.rob.get(idx);
            if slot.ready_at > now {
                break;
            }
            match slot.class {
                OpClass::Store => {
                    let _ = mem.access(self.core_id, AccessKind::Store, slot.addr, now);
                    self.activity.dcache_accesses += 1;
                    if let Some(pos) = self.stores.iter().position(|&s| s == idx as u32) {
                        self.stores.remove(pos);
                    }
                }
                OpClass::Load => {
                    if let Some(pos) = self.loads.iter().position(|&s| s == idx as u32) {
                        self.loads.remove(pos);
                    }
                }
                OpClass::Branch => {
                    self.stats.branches += 1;
                    if slot.mispredicted {
                        self.stats.mispredicts += 1;
                    }
                }
                _ => {}
            }
            if let Some(fp) = slot.dst_fp {
                if fp {
                    self.fp_free += 1;
                } else {
                    self.int_free += 1;
                }
            }
            self.stats.committed.record(slot.class);
            self.activity.commits += 1;
            self.rob.seq[idx] = 0;
            self.rob_head = (self.rob_head + 1) % self.rob.cap();
            self.rob_len -= 1;
            n += 1;
        }
        n
    }

    // --- Issue -------------------------------------------------------

    fn issue(&mut self, now: u64, mem: &mut MemSystem) {
        // CAM wakeup energy ∝ queue occupancy (charged every cycle, even
        // when a sweep below is skipped: the CAM still burns power).
        self.activity.isq_int_wakeups += self.isq_int.len() as u64;
        self.activity.isq_fp_wakeups += self.isq_fp.len() as u64;

        // Sweep each structure only at or past its issue horizon: below
        // it, the sweep is proven to grant nothing and mutate nothing.
        if self.issue_wake[IW_INT] <= now {
            self.issue_arith_queue(false, now);
        }
        if self.issue_wake[IW_FP] <= now {
            self.issue_arith_queue(true, now);
        }
        if self.issue_wake[IW_LOADS] <= now {
            self.issue_loads(now, mem);
        }
        if self.issue_wake[IW_STORES] <= now {
            self.issue_stores(now);
        }
    }

    /// Reference copy of the seed simulator's issue stage (frozen).
    fn ref_issue(&mut self, now: u64, mem: &mut MemSystem) {
        self.activity.isq_int_wakeups += self.isq_int.len() as u64;
        self.activity.isq_fp_wakeups += self.isq_fp.len() as u64;

        self.ref_issue_arith_queue(false, now);
        self.ref_issue_arith_queue(true, now);
        self.ref_issue_loads(now, mem);
        self.ref_issue_stores(now);
    }

    fn issue_arith_queue(&mut self, fp: bool, now: u64) {
        let width = if fp {
            self.cfg.issue_width_fp
        } else {
            self.cfg.issue_width_int
        } as usize;
        // One wide wakeup/select sweep per cycle: a single compaction
        // pass over the whole queue batch instead of `Vec::remove` per
        // issued op — surviving entries are written back in place, so age
        // order is preserved with no quadratic shifting. Every per-entry
        // check is a packed-array read (`dispatched_at`, then the
        // `seq`/`ready_at` pairs behind each source), so the sweep stays
        // in a few hot cache lines. A failed `try_issue` does not mutate
        // the pool, so attempting entries in the same order yields the
        // same grants as the reference.
        let q = if fp { IW_FP } else { IW_INT };
        let mut queue = std::mem::take(if fp { &mut self.isq_fp } else { &mut self.isq_int });
        let mut wakes = std::mem::take(if fp {
            &mut self.isq_fp_wake
        } else {
            &mut self.isq_int_wake
        });
        // Re-align a cache the reference path cleared (or a fresh core):
        // zeros force a full re-examination, which is always sound.
        if wakes.len() != queue.len() {
            wakes.clear();
            wakes.resize(queue.len(), 0);
        }
        let recheck = self.isq_recheck[q];
        let mut issued = 0usize;
        let mut kept = 0usize;
        let mut i = 0usize;
        // Issue-horizon accumulators: `earliest` is the min over failing
        // entries of the first cycle each could become eligible;
        // `min_done` is the min completion time of this sweep's grants
        // (dependents anywhere cannot wake before that).
        let mut earliest = u64::MAX;
        let mut min_done = u64::MAX;
        let mut skipped_unknown = false;
        while i < queue.len() && issued < width {
            // Cached skip: a finite bound stays sound forever; an unknown
            // one (`NOT_READY`) holds until the recheck event.
            let cached = wakes[i];
            if cached > now && (cached != NOT_READY || recheck > now) {
                earliest = earliest.min(cached);
                skipped_unknown |= cached == NOT_READY;
                queue[kept] = queue[i];
                wakes[kept] = cached;
                kept += 1;
                i += 1;
                continue;
            }
            let slot_idx = queue[i] as usize;
            let mut keep = true;
            let mut entry_wake = now + 1; // dispatched-this-cycle default
            if self.rob.dispatched_at[slot_idx] < now {
                let s1_seq = self.rob.src1_seq[slot_idx];
                let s2_seq = self.rob.src2_seq[slot_idx];
                let d1 = self.rob.dep_time(self.rob.src1_slot[slot_idx], s1_seq);
                let d2 = self.rob.dep_time(self.rob.src2_slot[slot_idx], s2_seq);
                if d1 <= now && d2 <= now {
                    let class = self.rob.class[slot_idx];
                    let done_at = if class.is_branch() {
                        // Dedicated branch/condition unit, 1-cycle latency.
                        Some(now + 1)
                    } else {
                        self.fus[class.index()].try_issue(now)
                    };
                    if let Some(done_at) = done_at {
                        self.rob.ready_at[slot_idx] = done_at;
                        min_done = min_done.min(done_at);
                        // count_issue, inlined from the packed fields.
                        self.activity.fu_ops[class.index()] += 1;
                        let reads = (s1_seq != 0) as u64 + (s2_seq != 0) as u64;
                        if class.is_fp() {
                            self.activity.fp_reg_reads += reads;
                        } else {
                            self.activity.int_reg_reads += reads;
                        }
                        match self.rob.dst_fp[slot_idx] {
                            DST_FP => self.activity.fp_reg_writes += 1,
                            DST_INT => self.activity.int_reg_writes += 1,
                            _ => {}
                        }
                        issued += 1;
                        keep = false;
                    } else {
                        // Every unit busy; the pool only gets busier
                        // within this sweep, so its current earliest-free
                        // time is a sound (conservative) wake bound.
                        entry_wake = self.fus[class.index()].earliest_free();
                        earliest = earliest.min(entry_wake);
                    }
                } else {
                    // Not ready: eligible no earlier than the later source
                    // (`NOT_READY` saturates — wake comes via an issue
                    // event instead).
                    entry_wake = d1.max(d2);
                    earliest = earliest.min(entry_wake);
                }
            } else {
                // Dispatched this very cycle: eligible next cycle.
                earliest = earliest.min(now + 1);
            }
            if keep {
                queue[kept] = queue[i];
                wakes[kept] = entry_wake;
                kept += 1;
            }
            i += 1;
        }
        // Issue width exhausted: the rest of the queue survives untouched,
        // so bulk-move it instead of inspecting each entry — but those
        // entries were never examined, so the horizon cannot rise past
        // the next cycle.
        let full_scan = i == queue.len();
        if !full_scan {
            queue.copy_within(i.., kept);
            wakes.copy_within(i.., kept);
            kept += queue.len() - i;
            earliest = now + 1;
        }
        queue.truncate(kept);
        wakes.truncate(kept);
        if fp {
            self.isq_fp = queue;
            self.isq_fp_wake = wakes;
        } else {
            self.isq_int = queue;
            self.isq_int_wake = wakes;
        }
        if full_scan && recheck <= now {
            // Every unknown-producer entry was just re-examined; the next
            // issue event will lower this again.
            self.isq_recheck[q] = NOT_READY;
        }
        // Unknown-producer entries that were skip-kept under `recheck > now`
        // contribute nothing to `earliest`; the horizon must not overwrite
        // the pending recheck bound, or those entries sleep forever.
        let mut wake = earliest.min(min_done);
        if skipped_unknown {
            wake = wake.min(self.isq_recheck[q]);
        }
        self.issue_wake[q] = wake;
        if min_done != u64::MAX {
            // Grants this sweep: dependents in any structure may wake
            // once the earliest result is ready.
            self.wake_all_at(min_done);
        }
    }

    /// Reference copy of the seed simulator's arithmetic issue (frozen).
    fn ref_issue_arith_queue(&mut self, fp: bool, now: u64) {
        let width = if fp {
            self.cfg.issue_width_fp
        } else {
            self.cfg.issue_width_int
        } as usize;
        let mut issued = 0usize;
        let mut i = 0usize;
        while i < if fp { self.isq_fp.len() } else { self.isq_int.len() } {
            if issued >= width {
                break;
            }
            let slot_idx = if fp { self.isq_fp[i] } else { self.isq_int[i] } as usize;
            let slot = self.rob.get(slot_idx);
            let eligible = slot.dispatched_at < now && self.srcs_ready(&slot, now);
            if eligible {
                let done_at = if slot.class.is_branch() {
                    // Dedicated branch/condition unit, 1-cycle latency.
                    Some(now + 1)
                } else {
                    self.fus[slot.class.index()].try_issue(now)
                };
                if let Some(done_at) = done_at {
                    self.rob.ready_at[slot_idx] = done_at;
                    self.count_issue(&slot);
                    if fp {
                        self.isq_fp.remove(i);
                    } else {
                        self.isq_int.remove(i);
                    }
                    issued += 1;
                    continue; // do not advance i: element removed
                }
            }
            i += 1;
        }
    }

    fn count_issue(&mut self, slot: &RobSlot) {
        self.activity.fu_ops[slot.class.index()] += 1;
        // Register file reads for each real source, writes for the dest.
        let fp_domain = slot.class.is_fp();
        let reads = (slot.src1.seq != 0) as u64 + (slot.src2.seq != 0) as u64;
        if fp_domain {
            self.activity.fp_reg_reads += reads;
        } else {
            self.activity.int_reg_reads += reads;
        }
        match slot.dst_fp {
            Some(true) => self.activity.fp_reg_writes += 1,
            Some(false) => self.activity.int_reg_writes += 1,
            None => {}
        }
    }

    fn issue_loads(&mut self, now: u64, mem: &mut MemSystem) {
        // One load port: the oldest ready load issues. Entries stay in
        // `loads` until commit (they hold the LQ slot), but the per-cycle
        // scan walks only `loads_unissued` — entries that issued already
        // are just waiting for data or commit and can never issue again.
        // Fast path: load only the fields needed, skip the store scan
        // when the store queue is empty, and inline the issue accounting
        // (loads use the integer datapath and never a branch/FP unit).
        //
        // Per-entry cache: `loads_wake[i]` bounds entry `i`'s first
        // eligible cycle, so a waiting load costs one compare instead of
        // the dependency checks plus the O(store-queue) disambiguation
        // scan. The bound is permanent when finite — dep times are
        // immutable once known, and a load's blocking stores are all
        // older, hence present at its dispatch (in-order), and cannot
        // leave the queue before their own `ready_at`. `NOT_READY` means
        // some producer or blocking store has not issued yet; those
        // entries re-examine at the next issue event (`isq_recheck`).
        if self.loads_wake.len() != self.loads_unissued.len() {
            // Reference path ran in between: rebuild with zeros (full
            // re-examination is always sound).
            self.loads_wake.clear();
            self.loads_wake.resize(self.loads_unissued.len(), 0);
        }
        let recheck = self.isq_recheck[IW_LOADS];
        let mut earliest = u64::MAX;
        let mut skipped_unknown = false;
        for i in 0..self.loads_unissued.len() {
            let cached = self.loads_wake[i];
            if cached > now && (cached != NOT_READY || recheck > now) {
                earliest = earliest.min(cached);
                skipped_unknown |= cached == NOT_READY;
                continue;
            }
            let slot_idx = self.loads_unissued[i] as usize;
            let da = self.rob.dispatched_at[slot_idx];
            if da >= now {
                self.loads_wake[i] = now + 1; // dispatched this cycle
                earliest = earliest.min(now + 1);
                continue;
            }
            let s1_seq = self.rob.src1_seq[slot_idx];
            let s2_seq = self.rob.src2_seq[slot_idx];
            let d1 = self.rob.dep_time(self.rob.src1_slot[slot_idx], s1_seq);
            let d2 = self.rob.dep_time(self.rob.src2_slot[slot_idx], s2_seq);
            if d1 > now || d2 > now {
                self.loads_wake[i] = d1.max(d2);
                earliest = earliest.min(d1.max(d2));
                continue;
            }
            let seq = self.rob.seq[slot_idx];
            let addr = self.rob.addr[slot_idx];
            // Disambiguation against older, in-flight stores to the same
            // 8-byte word (addresses are exact in a trace-driven model):
            // a dense sweep over the store queue's `seq`/`addr`/`ready_at`
            // columns.
            let mut blocked = false;
            let mut forward = false;
            // The load unblocks once the *last* matching older store has
            // its data (a store can never leave the queue before its own
            // `ready_at`, so retirement cannot unblock it any earlier).
            let mut unblock_at = 0u64;
            if !self.stores.is_empty() {
                let word = addr >> 3;
                for &st_idx in &self.stores {
                    let st = st_idx as usize;
                    if self.rob.seq[st] >= seq {
                        continue; // younger store: irrelevant
                    }
                    if self.rob.addr[st] >> 3 == word {
                        let r = self.rob.ready_at[st];
                        if r == NOT_READY || r > now {
                            blocked = true; // store data not ready yet
                            unblock_at = unblock_at.max(r);
                        } else {
                            forward = true;
                        }
                    }
                }
            }
            if blocked {
                self.loads_wake[i] = unblock_at;
                earliest = earliest.min(unblock_at);
                continue;
            }
            let done_at = if forward {
                now + 1 // store-to-load forwarding
            } else {
                let lat = mem.access(self.core_id, AccessKind::Load, addr, now);
                self.activity.dcache_accesses += 1;
                now + lat as u64
            };
            self.rob.ready_at[slot_idx] = done_at;
            // count_issue, inlined: Load is integer-domain, non-FP dest
            // unless the load targets an FP register.
            self.activity.fu_ops[OpClass::Load.index()] += 1;
            self.activity.int_reg_reads += (s1_seq != 0) as u64 + (s2_seq != 0) as u64;
            match self.rob.dst_fp[slot_idx] {
                DST_FP => self.activity.fp_reg_writes += 1,
                DST_INT => self.activity.int_reg_writes += 1,
                _ => {}
            }
            self.loads_unissued.remove(i);
            self.loads_wake.remove(i);
            // Single load port: the rest of the queue was not examined,
            // and this grant may wake dependents anywhere.
            self.issue_wake[IW_LOADS] = now + 1;
            self.wake_all_at(done_at);
            return;
        }
        // Nothing issued and every non-skipped unissued load examined.
        if recheck <= now {
            self.isq_recheck[IW_LOADS] = NOT_READY;
        }
        // As in the arith sweep: skip-kept unknown entries are covered by
        // the pending recheck bound, which the horizon must respect.
        let mut wake = earliest;
        if skipped_unknown {
            wake = wake.min(self.isq_recheck[IW_LOADS]);
        }
        self.issue_wake[IW_LOADS] = wake;
    }

    /// Reference copy of the seed simulator's load issue (frozen).
    fn ref_issue_loads(&mut self, now: u64, mem: &mut MemSystem) {
        for i in 0..self.loads.len() {
            let slot_idx = self.loads[i];
            let slot = self.rob.get(slot_idx as usize);
            if slot.ready_at != NOT_READY {
                continue; // already issued, waiting for data
            }
            if slot.dispatched_at >= now || !self.srcs_ready(&slot, now) {
                continue;
            }
            let mut blocked = false;
            let mut forward_from: Option<u64> = None;
            for &st_idx in &self.stores {
                let st = self.rob.get(st_idx as usize);
                if st.seq >= slot.seq {
                    continue; // younger store: irrelevant
                }
                if st.addr >> 3 == slot.addr >> 3 {
                    if st.ready_at == NOT_READY || st.ready_at > now {
                        blocked = true; // store data not ready yet
                    } else {
                        forward_from = Some(st.ready_at);
                    }
                }
            }
            if blocked {
                continue;
            }
            let slot_idx = slot_idx as usize;
            let done_at = if forward_from.is_some() {
                now + 1 // store-to-load forwarding
            } else {
                let lat = mem.access(self.core_id, AccessKind::Load, slot.addr, now);
                self.activity.dcache_accesses += 1;
                now + lat as u64
            };
            self.rob.ready_at[slot_idx] = done_at;
            let s = self.rob.get(slot_idx);
            self.count_issue(&s);
            break;
        }
    }

    fn issue_stores(&mut self, now: u64) {
        // One store port: compute address + capture data. Fast path:
        // walk only the unissued subset, with field loads plus inlined
        // accounting (stores are integer-domain and never have a
        // destination register). Per-entry cache as in `issue_loads`,
        // minus the disambiguation term (stores have none).
        if self.stores_wake.len() != self.stores_unissued.len() {
            self.stores_wake.clear();
            self.stores_wake.resize(self.stores_unissued.len(), 0);
        }
        let recheck = self.isq_recheck[IW_STORES];
        let mut earliest = u64::MAX;
        let mut skipped_unknown = false;
        for i in 0..self.stores_unissued.len() {
            let cached = self.stores_wake[i];
            if cached > now && (cached != NOT_READY || recheck > now) {
                earliest = earliest.min(cached);
                skipped_unknown |= cached == NOT_READY;
                continue;
            }
            let slot_idx = self.stores_unissued[i] as usize;
            if self.rob.dispatched_at[slot_idx] >= now {
                self.stores_wake[i] = now + 1; // dispatched this cycle
                earliest = earliest.min(now + 1);
                continue;
            }
            let s1_seq = self.rob.src1_seq[slot_idx];
            let s2_seq = self.rob.src2_seq[slot_idx];
            let d1 = self.rob.dep_time(self.rob.src1_slot[slot_idx], s1_seq);
            let d2 = self.rob.dep_time(self.rob.src2_slot[slot_idx], s2_seq);
            if d1 > now || d2 > now {
                self.stores_wake[i] = d1.max(d2);
                earliest = earliest.min(d1.max(d2));
                continue;
            }
            self.rob.ready_at[slot_idx] = now + 1;
            self.activity.fu_ops[OpClass::Store.index()] += 1;
            self.activity.int_reg_reads += (s1_seq != 0) as u64 + (s2_seq != 0) as u64;
            match self.rob.dst_fp[slot_idx] {
                DST_FP => self.activity.fp_reg_writes += 1,
                DST_INT => self.activity.int_reg_writes += 1,
                _ => {}
            }
            self.stores_unissued.remove(i);
            self.stores_wake.remove(i);
            // Single store port: unexamined tail + a grant that may wake
            // dependents (store-to-load forwarding) next cycle.
            self.issue_wake[IW_STORES] = now + 1;
            self.wake_all_at(now + 1);
            return;
        }
        // Nothing issued and every non-skipped unissued store examined.
        if recheck <= now {
            self.isq_recheck[IW_STORES] = NOT_READY;
        }
        let mut wake = earliest;
        if skipped_unknown {
            wake = wake.min(self.isq_recheck[IW_STORES]);
        }
        self.issue_wake[IW_STORES] = wake;
    }

    /// Reference copy of the seed simulator's store issue (frozen).
    fn ref_issue_stores(&mut self, now: u64) {
        for &slot_idx in &self.stores {
            let slot = self.rob.get(slot_idx as usize);
            if slot.ready_at != NOT_READY {
                continue;
            }
            if slot.dispatched_at >= now || !self.srcs_ready(&slot, now) {
                continue;
            }
            self.rob.ready_at[slot_idx as usize] = now + 1;
            let s = self.rob.get(slot_idx as usize);
            self.count_issue(&s);
            break;
        }
    }

    // --- Dispatch ----------------------------------------------------

    fn dispatch(&mut self, now: u64, workload: &mut dyn Workload, mem: &mut MemSystem) {
        // Unresolved mispredicted branch: frontend fetches the wrong path;
        // no correct-path instructions enter until resolve + penalty.
        if let Some(dep) = self.waiting_branch {
            let i = dep.slot as usize;
            let (slot_seq, slot_ready) = (self.rob.seq[i], self.rob.ready_at[i]);
            let resolved = slot_seq != dep.seq || slot_ready <= now;
            if resolved {
                let resolve_time = if slot_seq == dep.seq { slot_ready } else { now };
                self.redirect_until =
                    resolve_time.max(now) + self.cfg.mispredict_penalty as u64;
                self.waiting_branch = None;
            } else {
                self.stats.redirect_stall_cycles += 1;
                return;
            }
        }
        if self.redirect_until > now {
            self.stats.redirect_stall_cycles += 1;
            return;
        }
        if self.fetch_ready_at > now {
            self.stats.icache_stall_cycles += 1;
            return;
        }

        // Structural limits are fixed for the core's lifetime; hoist them
        // out of the per-slot loop so the hot path reads locals only.
        let width = self.cfg.dispatch_width;
        let rob_cap = self.rob.cap();
        let lsq_loads = self.cfg.lsq_loads as usize;
        let lsq_stores = self.cfg.lsq_stores as usize;
        let fp_isq = self.cfg.fp_isq as usize;
        let int_isq = self.cfg.int_isq as usize;
        let l1_latency = mem.config().l1_latency;

        for _ in 0..width {
            // Refill the peek buffer.
            if self.pending.is_none() {
                self.pending = Some(workload.next_op());
                self.ops_pulled += 1;
            }
            let op = *self.pending.as_ref().expect("just filled");

            // Instruction-cache access on line crossing.
            let line = op.pc >> 6;
            if line != self.last_fetch_line {
                let lat = mem.access(self.core_id, AccessKind::Ifetch, op.pc, now);
                self.activity.icache_accesses += 1;
                self.last_fetch_line = line;
                if lat > l1_latency {
                    // Miss: frontend refills; retry once the line arrives.
                    self.fetch_ready_at = now + lat as u64;
                    self.stats.icache_stall_cycles += 1;
                    return;
                }
            }

            // Structural hazards.
            if self.rob_len == rob_cap {
                self.stats.rob_full_stalls += 1;
                return;
            }
            let dst_fp = op.effective_dst().map(|r| r.is_fp());
            match dst_fp {
                Some(true) if self.fp_free == 0 => {
                    self.stats.rename_stalls += 1;
                    return;
                }
                Some(false) if self.int_free == 0 => {
                    self.stats.rename_stalls += 1;
                    return;
                }
                _ => {}
            }
            match op.class {
                OpClass::Load => {
                    if self.loads.len() >= lsq_loads {
                        self.stats.lsq_full_stalls += 1;
                        return;
                    }
                }
                OpClass::Store => {
                    if self.stores.len() >= lsq_stores {
                        self.stats.lsq_full_stalls += 1;
                        return;
                    }
                }
                c if c.is_fp() => {
                    if self.isq_fp.len() >= fp_isq {
                        self.stats.isq_full_stalls += 1;
                        return;
                    }
                }
                _ => {
                    if self.isq_int.len() >= int_isq {
                        self.stats.isq_full_stalls += 1;
                        return;
                    }
                }
            }

            // All clear: allocate and rename.
            let seq = self.next_seq;
            self.next_seq += 1;
            let mut tail = self.rob_head + self.rob_len;
            if tail >= rob_cap {
                tail -= rob_cap;
            }

            let dep_of = |r: Option<ArchReg>, lw: &[Dep]| -> Dep {
                match r {
                    Some(r) if !r.is_zero() => lw[r.flat_index()],
                    _ => Dep::default(),
                }
            };
            let src1 = dep_of(op.src1, &self.last_writer);
            let src2 = dep_of(op.src2, &self.last_writer);

            // Scatter the new op across the packed columns (one store per
            // column; the per-cycle sweeps read them back densely).
            self.rob.seq[tail] = seq;
            self.rob.class[tail] = op.class;
            self.rob.dispatched_at[tail] = now;
            self.rob.ready_at[tail] = NOT_READY;
            self.rob.src1_slot[tail] = src1.slot;
            self.rob.src1_seq[tail] = src1.seq;
            self.rob.src2_slot[tail] = src2.slot;
            self.rob.src2_seq[tail] = src2.seq;
            self.rob.dst_fp[tail] = match dst_fp {
                None => DST_NONE,
                Some(false) => DST_INT,
                Some(true) => DST_FP,
            };
            self.rob.addr[tail] = op.addr;
            self.rob.mispredicted[tail] = op.class.is_branch() && !op.predicted_correctly;
            self.rob_len += 1;
            self.pending = None;

            if let Some(dst) = op.effective_dst() {
                self.last_writer[dst.flat_index()] = Dep {
                    slot: tail as u32,
                    seq,
                };
                if dst.is_fp() {
                    self.fp_free -= 1;
                } else {
                    self.int_free -= 1;
                }
            }

            self.activity.dispatches += 1;
            // A fresh entry is eligible next cycle: zero the target
            // structure's issue horizon.
            match op.class {
                OpClass::Load | OpClass::Store => {
                    self.activity.lsq_inserts += 1;
                    if op.class == OpClass::Load {
                        self.loads.push(tail as u32);
                        self.loads_unissued.push(tail as u32);
                        self.loads_wake.push(0);
                        self.issue_wake[IW_LOADS] = 0;
                    } else {
                        self.stores.push(tail as u32);
                        self.stores_unissued.push(tail as u32);
                        self.stores_wake.push(0);
                        self.issue_wake[IW_STORES] = 0;
                    }
                }
                c if c.is_fp() => {
                    self.activity.isq_fp_inserts += 1;
                    self.isq_fp.push(tail as u32);
                    self.isq_fp_wake.push(0);
                    self.issue_wake[IW_FP] = 0;
                }
                _ => {
                    self.activity.isq_int_inserts += 1;
                    self.isq_int.push(tail as u32);
                    self.isq_int_wake.push(0);
                    self.issue_wake[IW_INT] = 0;
                }
            }

            if op.class.is_branch() {
                self.activity.bpred_lookups += 1;
                if !op.predicted_correctly {
                    self.waiting_branch = Some(Dep {
                        slot: tail as u32,
                        seq,
                    });
                    return; // younger ops are wrong-path until resolve
                }
            }
        }
    }

    /// Frozen reference dispatch (verbatim seed implementation); see
    /// [`Core::reference_tick`].
    fn ref_dispatch(&mut self, now: u64, workload: &mut dyn Workload, mem: &mut MemSystem) {
        // Unresolved mispredicted branch: frontend fetches the wrong path;
        // no correct-path instructions enter until resolve + penalty.
        if let Some(dep) = self.waiting_branch {
            let slot = self.rob.get(dep.slot as usize);
            let resolved = slot.seq != dep.seq || slot.ready_at <= now;
            if resolved {
                let resolve_time = if slot.seq == dep.seq { slot.ready_at } else { now };
                self.redirect_until =
                    resolve_time.max(now) + self.cfg.mispredict_penalty as u64;
                self.waiting_branch = None;
            } else {
                self.stats.redirect_stall_cycles += 1;
                return;
            }
        }
        if self.redirect_until > now {
            self.stats.redirect_stall_cycles += 1;
            return;
        }
        if self.fetch_ready_at > now {
            self.stats.icache_stall_cycles += 1;
            return;
        }

        for _ in 0..self.cfg.dispatch_width {
            // Refill the peek buffer.
            if self.pending.is_none() {
                self.pending = Some(workload.next_op());
                self.ops_pulled += 1;
            }
            let op = *self.pending.as_ref().expect("just filled");

            // Instruction-cache access on line crossing.
            let line = op.pc >> 6;
            if line != self.last_fetch_line {
                let lat = mem.access(self.core_id, AccessKind::Ifetch, op.pc, now);
                self.activity.icache_accesses += 1;
                self.last_fetch_line = line;
                if lat > mem.config().l1_latency {
                    // Miss: frontend refills; retry once the line arrives.
                    self.fetch_ready_at = now + lat as u64;
                    self.stats.icache_stall_cycles += 1;
                    return;
                }
            }

            // Structural hazards.
            if self.rob_len == self.rob.cap() {
                self.stats.rob_full_stalls += 1;
                return;
            }
            let dst_fp = op.effective_dst().map(|r| r.is_fp());
            match dst_fp {
                Some(true) if self.fp_free == 0 => {
                    self.stats.rename_stalls += 1;
                    return;
                }
                Some(false) if self.int_free == 0 => {
                    self.stats.rename_stalls += 1;
                    return;
                }
                _ => {}
            }
            match op.class {
                OpClass::Load => {
                    if self.loads.len() >= self.cfg.lsq_loads as usize {
                        self.stats.lsq_full_stalls += 1;
                        return;
                    }
                }
                OpClass::Store => {
                    if self.stores.len() >= self.cfg.lsq_stores as usize {
                        self.stats.lsq_full_stalls += 1;
                        return;
                    }
                }
                c if c.is_fp() => {
                    if self.isq_fp.len() >= self.cfg.fp_isq as usize {
                        self.stats.isq_full_stalls += 1;
                        return;
                    }
                }
                _ => {
                    if self.isq_int.len() >= self.cfg.int_isq as usize {
                        self.stats.isq_full_stalls += 1;
                        return;
                    }
                }
            }

            // All clear: allocate and rename.
            let seq = self.next_seq;
            self.next_seq += 1;
            let tail = (self.rob_head + self.rob_len) % self.rob.cap();

            let dep_of = |r: Option<ArchReg>, lw: &[Dep]| -> Dep {
                match r {
                    Some(r) if !r.is_zero() => lw[r.flat_index()],
                    _ => Dep::default(),
                }
            };
            let src1 = dep_of(op.src1, &self.last_writer);
            let src2 = dep_of(op.src2, &self.last_writer);

            self.rob.set(
                tail,
                RobSlot {
                    seq,
                    class: op.class,
                    dispatched_at: now,
                    ready_at: NOT_READY,
                    src1,
                    src2,
                    dst_fp,
                    addr: op.addr,
                    mispredicted: op.class.is_branch() && !op.predicted_correctly,
                },
            );
            self.rob_len += 1;
            self.pending = None;

            if let Some(dst) = op.effective_dst() {
                self.last_writer[dst.flat_index()] = Dep {
                    slot: tail as u32,
                    seq,
                };
                if dst.is_fp() {
                    self.fp_free -= 1;
                } else {
                    self.int_free -= 1;
                }
            }

            self.activity.dispatches += 1;
            match op.class {
                OpClass::Load | OpClass::Store => {
                    self.activity.lsq_inserts += 1;
                    if op.class == OpClass::Load {
                        self.loads.push(tail as u32);
                    } else {
                        self.stores.push(tail as u32);
                    }
                }
                c if c.is_fp() => {
                    self.activity.isq_fp_inserts += 1;
                    self.isq_fp.push(tail as u32);
                }
                _ => {
                    self.activity.isq_int_inserts += 1;
                    self.isq_int.push(tail as u32);
                }
            }

            if op.class.is_branch() {
                self.activity.bpred_lookups += 1;
                if !op.predicted_correctly {
                    self.waiting_branch = Some(Dep {
                        slot: tail as u32,
                        seq,
                    });
                    return; // younger ops are wrong-path until resolve
                }
            }
        }
    }

    // --- Swap support --------------------------------------------------

    /// Squash all in-flight work: empties the ROB, queues, rename state,
    /// and functional units. Committed statistics are preserved. Used when
    /// a thread is migrated off this core; uncommitted trace ops are
    /// dropped (statistically irrelevant for a stochastic trace).
    pub fn flush_pipeline(&mut self) {
        self.rob.seq.fill(0);
        self.rob_head = 0;
        self.rob_len = 0;
        self.last_writer = [Dep::default(); ampsched_isa::regs::NUM_ARCH_REGS];
        self.int_free = self.cfg.int_rename_pool();
        self.fp_free = self.cfg.fp_rename_pool();
        self.isq_int.clear();
        self.isq_fp.clear();
        self.loads.clear();
        self.stores.clear();
        self.loads_unissued.clear();
        self.stores_unissued.clear();
        self.issue_wake = [0; 4];
        self.isq_int_wake.clear();
        self.isq_fp_wake.clear();
        self.loads_wake.clear();
        self.stores_wake.clear();
        self.isq_recheck = [NOT_READY; 4];
        self.quiet_until = 0;
        for fu in &mut self.fus {
            fu.reset();
        }
        self.pending = None;
        self.waiting_branch = None;
        self.last_fetch_line = u64::MAX;
        // fetch_ready_at / redirect_until are wall-clock gates; the system
        // adds the swap overhead on top via `stall_until`.
    }

    /// Block the frontend until the given cycle (swap overhead).
    pub fn stall_until(&mut self, cycle: u64) {
        self.fetch_ready_at = self.fetch_ready_at.max(cycle);
        self.redirect_until = self.redirect_until.max(cycle);
    }

    /// Classify and snapshot the pipeline for the sampled profiler —
    /// occupancies, cumulative committed count, and the dominant stall
    /// cause at `now`. Pure observation: reads packed state the stages
    /// already maintain, mutates nothing, and is identical under either
    /// kernel path (it only touches architectural state both share).
    pub fn pipe_snapshot(&self, now: u64) -> PipeSnapshot {
        let stall = if self.rob_len == 0 {
            if self.fetch_ready_at > now || self.redirect_until > now {
                // Swap overhead, an L1I miss, or a branch redirect is
                // holding fetch while the window sits empty.
                StallCause::FrontendStall
            } else {
                StallCause::FrontendEmpty
            }
        } else {
            let h = self.rob_head;
            if self.rob.ready_at[h] <= now {
                StallCause::Committing
            } else if self.rob.class[h].is_mem() {
                StallCause::MemWait
            } else {
                StallCause::ExecWait
            }
        };
        PipeSnapshot {
            rob: self.rob_len as u32,
            isq_int: self.isq_int.len() as u32,
            isq_fp: self.isq_fp.len() as u32,
            lq: self.loads.len() as u32,
            sq: self.stores.len() as u32,
            committed: self.stats.committed.total(),
            issue_slots: (self.cfg.issue_width_int + self.cfg.issue_width_fp + 2) as u32,
            stall,
        }
    }

    // --- Skip-ahead fast path ------------------------------------------

    /// Earliest cycle `t >= now` at which `tick(t)` might do more than
    /// the quiescent no-op pattern that [`Core::fast_forward`] replicates
    /// (cycle/stall/wakeup accounting only: no commit, no issue, no
    /// dispatch, no memory access).
    ///
    /// The bound is conservative: ticking at the returned cycle may still
    /// turn out to be quiescent (e.g. an issue lost to a width conflict),
    /// which costs a real tick but never correctness. The bound is also
    /// *sound*: nothing can change state strictly before it, because
    /// every state transition in the pipeline is enumerated below.
    pub fn next_event_at_or_after(&self, now: u64) -> u64 {
        // A candidate at `now` means the very next tick may act; bail out
        // as soon as one appears. (Candidates strictly above `now` must
        // all be scanned: an early return on `now + 1` could hide a
        // different candidate at `now` later in the scan order.)
        let horizon = now;
        let mut best = u64::MAX;

        // 1. Commit: the head retires once its result is ready. A head
        //    with no result yet is covered by its own issue candidate.
        if self.rob_len > 0 {
            let r = self.rob.ready_at[self.rob_head];
            if r != NOT_READY {
                best = best.min(r.max(now));
                if best <= horizon {
                    return best;
                }
            }
        }

        // 2. Frontend.
        if let Some(dep) = self.waiting_branch {
            let i = dep.slot as usize;
            if self.rob.seq[i] != dep.seq {
                // Producer slot reused: resolves on the very next tick.
                return now;
            }
            let ready = self.rob.ready_at[i];
            if ready != NOT_READY {
                // Resolution must happen at exactly the ready cycle — the
                // redirect window is measured from it.
                best = best.min(ready.max(now));
                if best <= horizon {
                    return best;
                }
            }
            // Unissued branch: covered by its issue-queue candidate.
        } else {
            let gate = self.redirect_until.max(self.fetch_ready_at).max(now);
            let dispatch_blocked = match &self.pending {
                // An empty peek buffer means the next active cycle draws
                // from the workload and touches the I-cache: both are
                // unpredictable here, so the gate cycle is an event.
                None => false,
                // The pending op's I-cache access already happened when it
                // was buffered (`last_fetch_line` is set before the miss
                // check), so only the structural hazards remain, probed in
                // dispatch order. Occupancies cannot change during a
                // quiescent region, so a blocked verdict holds until some
                // other (commit/issue) event fires first.
                Some(op) => {
                    if self.rob_len == self.rob.cap() {
                        true
                    } else {
                        let dst_fp = op.effective_dst().map(|r| r.is_fp());
                        let rename_blocked = match dst_fp {
                            Some(true) => self.fp_free == 0,
                            Some(false) => self.int_free == 0,
                            None => false,
                        };
                        rename_blocked
                            || match op.class {
                                OpClass::Load => {
                                    self.loads.len() >= self.cfg.lsq_loads as usize
                                }
                                OpClass::Store => {
                                    self.stores.len() >= self.cfg.lsq_stores as usize
                                }
                                c if c.is_fp() => {
                                    self.isq_fp.len() >= self.cfg.fp_isq as usize
                                }
                                _ => self.isq_int.len() >= self.cfg.int_isq as usize,
                            }
                    }
                }
            };
            if !dispatch_blocked {
                best = best.min(gate);
                if best <= horizon {
                    return best;
                }
            }
        }

        // 3. Issue-queue entries (all unissued by construction): an entry
        //    can first issue once it has aged a cycle, its sources are
        //    ready, and — for non-branches — some unit is free. A source
        //    produced by an op that has itself not issued yet reads as
        //    "never" here; that producer's own candidate covers it, and
        //    the chain bottoms out at the ROB head.
        for queue in [&self.isq_int, &self.isq_fp] {
            for &slot_idx in queue.iter() {
                let s = slot_idx as usize;
                let class = self.rob.class[s];
                let mut t = (self.rob.dispatched_at[s] + 1)
                    .max(self.dep_event_time(self.rob.src1_slot[s], self.rob.src1_seq[s]))
                    .max(self.dep_event_time(self.rob.src2_slot[s], self.rob.src2_seq[s]));
                if !class.is_branch() {
                    t = t.max(self.fus[class.index()].earliest_free());
                }
                if t == u64::MAX {
                    continue;
                }
                best = best.min(t.max(now));
                if best <= horizon {
                    return best;
                }
            }
        }

        // 4. Unissued loads: sources ready, plus every older in-flight
        //    store to the same word resolved (for bypass or forwarding).
        for &slot_idx in &self.loads {
            let s = slot_idx as usize;
            if self.rob.ready_at[s] != NOT_READY {
                continue; // issued: covered by the commit candidate
            }
            let mut t = (self.rob.dispatched_at[s] + 1)
                .max(self.dep_event_time(self.rob.src1_slot[s], self.rob.src1_seq[s]))
                .max(self.dep_event_time(self.rob.src2_slot[s], self.rob.src2_seq[s]));
            let seq = self.rob.seq[s];
            let word = self.rob.addr[s] >> 3;
            for &st_idx in &self.stores {
                let st = st_idx as usize;
                if self.rob.seq[st] < seq && self.rob.addr[st] >> 3 == word {
                    t = t.max(self.rob.ready_at[st]); // NOT_READY = never (see above)
                }
            }
            if t == u64::MAX {
                continue;
            }
            best = best.min(t.max(now));
            if best <= horizon {
                return best;
            }
        }

        // 5. Unissued stores: address/data generation needs only sources.
        for &slot_idx in &self.stores {
            let s = slot_idx as usize;
            if self.rob.ready_at[s] != NOT_READY {
                continue;
            }
            let t = (self.rob.dispatched_at[s] + 1)
                .max(self.dep_event_time(self.rob.src1_slot[s], self.rob.src1_seq[s]))
                .max(self.dep_event_time(self.rob.src2_slot[s], self.rob.src2_seq[s]));
            if t == u64::MAX {
                continue;
            }
            best = best.min(t.max(now));
            if best <= horizon {
                return best;
            }
        }

        best
    }

    /// When the value behind `dep` becomes readable: immediately for no
    /// dependency or a committed producer, at `ready_at` for an issued
    /// producer, "never" (`u64::MAX`) for an unissued one — whose own
    /// issue is a separate event candidate.
    #[inline]
    fn dep_event_time(&self, dep_slot: u32, dep_seq: u64) -> u64 {
        if dep_seq == 0 {
            return 0;
        }
        let i = dep_slot as usize;
        if self.rob.seq[i] != dep_seq {
            return 0; // producer committed
        }
        self.rob.ready_at[i]
    }

    /// Replicate `n` consecutive quiescent ticks covering cycles
    /// `from .. from + n` in O(1): exactly the accounting `tick` performs
    /// on a cycle where nothing commits, issues, or dispatches.
    ///
    /// Only valid when `from + n <= self.next_event_at_or_after(from)` —
    /// the runner guarantees this before calling.
    pub fn fast_forward(&mut self, from: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.stats.cycles += n;
        self.activity.cycles += n;
        // Queue occupancies are frozen across a quiescent region, so the
        // per-cycle CAM wakeup accounting is a multiplication.
        self.activity.isq_int_wakeups += n * self.isq_int.len() as u64;
        self.activity.isq_fp_wakeups += n * self.isq_fp.len() as u64;

        // Dispatch-stage stall accounting, mirroring `dispatch`'s gate
        // order. An unresolved mispredicted branch charges every cycle to
        // the redirect stall; otherwise the redirect window covers the
        // leading cycles, the I-cache refill the next ones, and any
        // remainder is an active frontend blocked on the same structural
        // hazard every cycle.
        if self.waiting_branch.is_some() {
            self.stats.redirect_stall_cycles += n;
            return;
        }
        let n_redirect = self.redirect_until.saturating_sub(from).min(n);
        let n_icache = self
            .fetch_ready_at
            .saturating_sub(from)
            .min(n)
            .saturating_sub(n_redirect);
        let n_structural = n - n_redirect - n_icache;
        self.stats.redirect_stall_cycles += n_redirect;
        self.stats.icache_stall_cycles += n_icache;
        if n_structural > 0 {
            let op = self
                .pending
                .as_ref()
                .expect("active quiescent frontend must hold a pending op");
            if self.rob_len == self.rob.cap() {
                self.stats.rob_full_stalls += n_structural;
            } else {
                let dst_fp = op.effective_dst().map(|r| r.is_fp());
                let rename_blocked = match dst_fp {
                    Some(true) => self.fp_free == 0,
                    Some(false) => self.int_free == 0,
                    None => false,
                };
                if rename_blocked {
                    self.stats.rename_stalls += n_structural;
                } else {
                    match op.class {
                        OpClass::Load | OpClass::Store => {
                            self.stats.lsq_full_stalls += n_structural
                        }
                        _ => self.stats.isq_full_stalls += n_structural,
                    }
                }
            }
        }
    }

    /// FNV-1a digest over the complete microarchitectural state —
    /// everything `tick` reads or writes except the `stats`/`activity`
    /// counters (those are compared directly via `PartialEq` in the
    /// differential tests). Two cores with equal digests behave
    /// identically from here on given the same inputs.
    pub fn state_digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut put = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(FNV_PRIME);
        };
        let dep_words = |d: Dep| (d.slot as u64, d.seq);

        put(self.rob_head as u64);
        put(self.rob_len as u64);
        put(self.next_seq);
        // Slot iteration in index order over the packed columns, with the
        // same field order and `dst_fp` encoding as the original
        // array-of-structs digest (`DST_*` matches the old 0/1/2 map).
        for i in 0..self.rob.cap() {
            let seq = self.rob.seq[i];
            if seq == 0 {
                continue; // freed slots carry no future-visible state
            }
            put(seq);
            put(self.rob.class[i].index() as u64);
            put(self.rob.dispatched_at[i]);
            put(self.rob.ready_at[i]);
            put(self.rob.src1_slot[i] as u64);
            put(self.rob.src1_seq[i]);
            put(self.rob.src2_slot[i] as u64);
            put(self.rob.src2_seq[i]);
            put(self.rob.dst_fp[i] as u64);
            put(self.rob.addr[i]);
            put(self.rob.mispredicted[i] as u64);
        }
        for d in &self.last_writer {
            let (a, b) = dep_words(*d);
            put(a);
            put(b);
        }
        put(self.int_free as u64);
        put(self.fp_free as u64);
        for queue in [&self.isq_int, &self.isq_fp, &self.loads, &self.stores] {
            put(queue.len() as u64);
            for &i in queue.iter() {
                put(i as u64);
            }
        }
        for fu in &self.fus {
            for &f in fu.free_at() {
                put(f);
            }
        }
        match &self.pending {
            None => put(0),
            Some(op) => {
                put(1);
                put(op.pc);
                put(op.class.index() as u64);
                put(op.addr);
                put(op.size as u64);
                put(op.predicted_correctly as u64);
                let reg = |r: Option<ArchReg>| r.map_or(0, |r| r.flat_index() as u64 + 1);
                put(reg(op.src1));
                put(reg(op.src2));
                put(reg(op.dst));
            }
        }
        put(self.fetch_ready_at);
        put(self.last_fetch_line);
        match self.waiting_branch {
            None => put(0),
            Some(d) => {
                put(1);
                let (a, b) = dep_words(d);
                put(a);
                put(b);
            }
        }
        put(self.redirect_until);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ampsched_mem::MemConfig;

    /// Cycles through a fixed op vector forever.
    struct VecWorkload {
        ops: Vec<MicroOp>,
        i: usize,
    }

    impl VecWorkload {
        fn new(ops: Vec<MicroOp>) -> Self {
            assert!(!ops.is_empty());
            VecWorkload { ops, i: 0 }
        }
    }

    impl Workload for VecWorkload {
        fn name(&self) -> &str {
            "vec"
        }
        fn next_op(&mut self) -> MicroOp {
            let op = self.ops[self.i % self.ops.len()];
            self.i += 1;
            op
        }
        fn current_phase(&self) -> usize {
            0
        }
    }

    fn run(core: &mut Core, w: &mut dyn Workload, mem: &mut MemSystem, cycles: u64) {
        for now in 0..cycles {
            core.tick(now, w, mem);
        }
    }

    fn mem() -> MemSystem {
        MemSystem::new(MemConfig::default(), 2)
    }

    /// `n` independent ops of a class, each writing a distinct register.
    fn independent(class: OpClass, n: usize) -> Vec<MicroOp> {
        (0..n)
            .map(|i| {
                let dst = if class.is_fp() {
                    ArchReg::Fp((i % 16) as u8)
                } else {
                    ArchReg::Int(1 + (i % 16) as u8)
                };
                let mut op = MicroOp::arith(class, None, None, Some(dst));
                op.pc = 4 * i as u64;
                op
            })
            .collect()
    }

    /// A serial dependency chain on a single register.
    fn chain(class: OpClass) -> Vec<MicroOp> {
        let reg = if class.is_fp() {
            ArchReg::Fp(1)
        } else {
            ArchReg::Int(1)
        };
        vec![MicroOp::arith(class, Some(reg), None, Some(reg))]
    }

    #[test]
    fn sim_path_flag_round_trips() {
        assert_eq!(SimPath::from_flag("fast"), Some(SimPath::Fast));
        assert_eq!(SimPath::from_flag("reference"), Some(SimPath::Reference));
        assert_eq!(SimPath::from_flag("bogus"), None);
        assert_eq!(SimPath::default(), SimPath::Fast);
        assert_eq!(SimPath::Fast.name(), "fast");
        assert_eq!(SimPath::Reference.name(), "reference");
    }

    #[test]
    fn int_stream_fast_on_int_core_slow_on_fp_core() {
        let mut m1 = mem();
        let mut int_core = Core::new(CoreConfig::int_core(), 0);
        let mut w = VecWorkload::new(independent(OpClass::IntAlu, 32));
        run(&mut int_core, &mut w, &mut m1, 20_000);
        let ipc_int = int_core.stats.ipc();

        let mut m2 = mem();
        let mut fp_core = Core::new(CoreConfig::fp_core(), 0);
        let mut w = VecWorkload::new(independent(OpClass::IntAlu, 32));
        run(&mut fp_core, &mut w, &mut m2, 20_000);
        let ipc_fp = fp_core.stats.ipc();

        assert!(
            ipc_int > 1.5,
            "INT core should near dispatch-bound IPC on int stream, got {ipc_int}"
        );
        assert!(
            ipc_fp < 0.6,
            "FP core's 1-unit 2-cyc NP int ALU caps at 0.5, got {ipc_fp}"
        );
    }

    #[test]
    fn fp_stream_fast_on_fp_core_slow_on_int_core() {
        let mut m1 = mem();
        let mut fp_core = Core::new(CoreConfig::fp_core(), 0);
        let mut w = VecWorkload::new(independent(OpClass::FpAlu, 32));
        run(&mut fp_core, &mut w, &mut m1, 20_000);
        let ipc_fp = fp_core.stats.ipc();

        let mut m2 = mem();
        let mut int_core = Core::new(CoreConfig::int_core(), 0);
        let mut w = VecWorkload::new(independent(OpClass::FpAlu, 32));
        run(&mut int_core, &mut w, &mut m2, 20_000);
        let ipc_int = int_core.stats.ipc();

        assert!(ipc_fp > 1.5, "FP core on fp stream: got {ipc_fp}");
        assert!(
            ipc_int < 0.3,
            "INT core's 1-unit 4-cyc NP fp ALU caps at 0.25, got {ipc_int}"
        );
    }

    #[test]
    fn dependency_chain_is_latency_bound() {
        // FP ALU chain on the FP core: pipelined latency-4 unit => one
        // result every 4 cycles => IPC ~= 0.25.
        let mut m = mem();
        let mut c = Core::new(CoreConfig::fp_core(), 0);
        let mut w = VecWorkload::new(chain(OpClass::FpAlu));
        run(&mut c, &mut w, &mut m, 20_000);
        let ipc = c.stats.ipc();
        assert!(
            (ipc - 0.25).abs() < 0.05,
            "chain IPC should approach 1/latency, got {ipc}"
        );
    }

    #[test]
    fn independent_wider_than_chain() {
        let mut m1 = mem();
        let mut c1 = Core::new(CoreConfig::int_core(), 0);
        let mut w1 = VecWorkload::new(independent(OpClass::IntMul, 32));
        run(&mut c1, &mut w1, &mut m1, 10_000);

        let mut m2 = mem();
        let mut c2 = Core::new(CoreConfig::int_core(), 0);
        let mut w2 = VecWorkload::new(chain(OpClass::IntMul));
        run(&mut c2, &mut w2, &mut m2, 10_000);

        assert!(
            c1.stats.ipc() > 2.0 * c2.stats.ipc(),
            "ILP must raise throughput: {} vs {}",
            c1.stats.ipc(),
            c2.stats.ipc()
        );
    }

    #[test]
    fn mispredicted_branches_stall_the_frontend() {
        let good: Vec<MicroOp> = independent(OpClass::IntAlu, 8)
            .into_iter()
            .chain(std::iter::once(MicroOp::branch(Some(ArchReg::Int(1)), true)))
            .collect();
        let bad: Vec<MicroOp> = independent(OpClass::IntAlu, 8)
            .into_iter()
            .chain(std::iter::once(MicroOp::branch(Some(ArchReg::Int(1)), false)))
            .collect();

        let mut m1 = mem();
        let mut c1 = Core::new(CoreConfig::int_core(), 0);
        let mut w1 = VecWorkload::new(good);
        run(&mut c1, &mut w1, &mut m1, 20_000);

        let mut m2 = mem();
        let mut c2 = Core::new(CoreConfig::int_core(), 0);
        let mut w2 = VecWorkload::new(bad);
        run(&mut c2, &mut w2, &mut m2, 20_000);

        assert!(c2.stats.ipc() < 0.7 * c1.stats.ipc());
        assert!(c2.stats.redirect_stall_cycles > 0);
        assert!(c2.stats.mispredicts > 0);
        assert_eq!(c1.stats.mispredicts, 0);
    }

    #[test]
    fn load_latency_and_store_forwarding() {
        // Load-dependent chain over one cached address: each iteration is
        // load (L1 hit, 2 cyc) -> dependent alu.
        let ops = vec![
            MicroOp::load(0x100, 8, None, ArchReg::Int(2)),
            MicroOp::arith(OpClass::IntAlu, Some(ArchReg::Int(2)), None, Some(ArchReg::Int(3))),
        ];
        let mut m = mem();
        let mut c = Core::new(CoreConfig::int_core(), 0);
        let mut w = VecWorkload::new(ops);
        run(&mut c, &mut w, &mut m, 10_000);
        assert!(c.stats.committed.count(OpClass::Load) > 1000);

        // Store followed by a load of the same word: forwarding keeps the
        // load off the cache after the first iteration's allocations.
        let fwd_ops = vec![
            MicroOp::store(0x200, 8, None, ArchReg::Int(4)),
            MicroOp::load(0x200, 8, None, ArchReg::Int(5)),
        ];
        let mut m2 = mem();
        let mut c2 = Core::new(CoreConfig::int_core(), 0);
        let mut w2 = VecWorkload::new(fwd_ops);
        run(&mut c2, &mut w2, &mut m2, 10_000);
        assert!(
            c2.stats.committed.total() > 4000,
            "forwarding pairs should flow at high rate, got {}",
            c2.stats.committed.total()
        );
    }

    #[test]
    fn loads_wait_for_older_unresolved_stores_to_same_word() {
        // A store whose data depends on a divide, then a load of the same
        // word: the load must wait and then *forward* from the store —
        // a forwarded load never accesses the D-cache. If the load
        // (incorrectly) bypassed the unresolved store, it would go to the
        // cache and the access count would be ~2 per triple.
        let ops = vec![
            MicroOp::arith(OpClass::IntDiv, Some(ArchReg::Int(1)), None, Some(ArchReg::Int(6))),
            MicroOp::store(0x300, 8, None, ArchReg::Int(6)),
            MicroOp::load(0x300, 8, None, ArchReg::Int(7)),
        ];
        let mut m = mem();
        let mut c = Core::new(CoreConfig::int_core(), 0);
        let mut w = VecWorkload::new(ops);
        // White-box: record each instruction's resolved ready_at by seq.
        use std::collections::HashMap;
        let mut ready: HashMap<u64, (OpClass, u64)> = HashMap::new();
        for now in 0..600 {
            c.tick(now, &mut w, &mut m);
            for i in 0..c.rob.cap() {
                if c.rob.seq[i] != 0 && c.rob.ready_at[i] != NOT_READY {
                    ready.insert(c.rob.seq[i], (c.rob.class[i], c.rob.ready_at[i]));
                }
            }
        }
        // First triple is seqs 1 (div), 2 (store), 3 (load).
        let div = ready[&1];
        let store = ready[&2];
        let load = ready[&3];
        assert_eq!(div.0, OpClass::IntDiv);
        assert_eq!(store.0, OpClass::Store);
        assert_eq!(load.0, OpClass::Load);
        assert!(
            store.1 >= div.1,
            "store data depends on the divide: {} vs {}",
            store.1,
            div.1
        );
        assert!(
            load.1 > store.1,
            "load of the same word must not complete before the store: {} vs {}",
            load.1,
            store.1
        );
    }

    #[test]
    fn icache_misses_stall_fetch() {
        // Code footprint far beyond the 4KB L1I: every line access misses.
        let ops: Vec<MicroOp> = (0..4096)
            .map(|i| {
                let mut op =
                    MicroOp::arith(OpClass::IntAlu, None, None, Some(ArchReg::Int(1 + (i % 16) as u8)));
                op.pc = (i as u64) * 64 * 131; // jump lines, 512KB+ footprint
                op
            })
            .collect();
        let mut m = mem();
        let mut c = Core::new(CoreConfig::int_core(), 0);
        let mut w = VecWorkload::new(ops);
        run(&mut c, &mut w, &mut m, 20_000);
        assert!(c.stats.icache_stall_cycles > 5_000);
        assert!(c.stats.ipc() < 0.5);
    }

    #[test]
    fn rename_pool_pressure_stalls_dispatch() {
        // FP core has only 16 int rename regs: a burst of int writers with
        // a long divide at the head keeps them occupied.
        let mut ops = vec![MicroOp::arith(
            OpClass::IntDiv,
            Some(ArchReg::Int(1)),
            None,
            Some(ArchReg::Int(2)),
        )];
        for i in 0..40 {
            ops.push(MicroOp::arith(
                OpClass::IntAlu,
                Some(ArchReg::Int(2)), // all depend on the divide
                None,
                Some(ArchReg::Int(3 + (i % 20) as u8)),
            ));
        }
        let mut m = mem();
        let mut c = Core::new(CoreConfig::fp_core(), 0);
        let mut w = VecWorkload::new(ops);
        run(&mut c, &mut w, &mut m, 5_000);
        assert!(
            c.stats.rename_stalls > 0,
            "16-entry int rename pool must saturate"
        );
    }

    #[test]
    fn flush_pipeline_discards_inflight_and_preserves_stats() {
        let mut m = mem();
        let mut c = Core::new(CoreConfig::int_core(), 0);
        let mut w = VecWorkload::new(independent(OpClass::IntAlu, 32));
        run(&mut c, &mut w, &mut m, 1000);
        let committed_before = c.stats.committed.total();
        assert!(c.rob_occupancy() > 0);
        c.flush_pipeline();
        assert_eq!(c.rob_occupancy(), 0);
        assert_eq!(c.stats.committed.total(), committed_before);
        // Core keeps executing correctly after the flush.
        for now in 1000..2000 {
            c.tick(now, &mut w, &mut m);
        }
        assert!(c.stats.committed.total() > committed_before);
    }

    #[test]
    fn stall_until_blocks_frontend() {
        let mut m = mem();
        let mut c = Core::new(CoreConfig::int_core(), 0);
        let mut w = VecWorkload::new(independent(OpClass::IntAlu, 32));
        c.stall_until(500);
        for now in 0..500 {
            c.tick(now, &mut w, &mut m);
        }
        assert_eq!(c.stats.committed.total(), 0, "stalled core commits nothing");
        for now in 500..1500 {
            c.tick(now, &mut w, &mut m);
        }
        assert!(c.stats.committed.total() > 0);
    }

    #[test]
    fn activity_counters_accumulate() {
        let mut m = mem();
        let mut c = Core::new(CoreConfig::int_core(), 0);
        let mut w = VecWorkload::new(independent(OpClass::IntAlu, 32));
        run(&mut c, &mut w, &mut m, 1000);
        assert!(c.activity.dispatches > 0);
        assert!(c.activity.commits > 0);
        assert!(c.activity.fu_ops[OpClass::IntAlu.index()] > 0);
        assert!(c.activity.int_reg_writes > 0);
        assert_eq!(c.activity.cycles, 1000);
        let taken = c.activity.take();
        assert!(taken.commits > 0);
        assert_eq!(c.activity.commits, 0);
    }

    #[test]
    fn commit_is_in_order() {
        // A long FP divide followed by quick int ops: ints cannot commit
        // before the divide does (ROB order), so total commits are gated.
        let ops = vec![
            MicroOp::arith(OpClass::FpDiv, Some(ArchReg::Fp(1)), None, Some(ArchReg::Fp(1))),
            MicroOp::arith(OpClass::IntAlu, None, None, Some(ArchReg::Int(1))),
            MicroOp::arith(OpClass::IntAlu, None, None, Some(ArchReg::Int(2))),
        ];
        let mut m = mem();
        let mut c = Core::new(CoreConfig::int_core(), 0);
        let mut w = VecWorkload::new(ops);
        run(&mut c, &mut w, &mut m, 2_000);
        // Serial FpDiv chain on a 12-cycle NP unit: ~12 cycles per triple.
        let triples = c.stats.committed.count(OpClass::FpDiv);
        assert!(triples > 0);
        let cycles_per_triple = 2000.0 / triples as f64;
        assert!(
            cycles_per_triple >= 11.0,
            "in-order commit must serialize on the divide: {cycles_per_triple}"
        );
    }
}
