//! Differential cycle-exactness harness: the optimized fast path
//! ([`Core::tick`] plus [`Core::fast_forward`] skip-ahead, driven
//! directly or through [`Core::step`]) must be
//! bit-identical to the frozen reference path ([`Core::reference_tick`])
//! — same microarchitectural state digest every cycle, same statistics,
//! same activity counters — over property-generated random programs and
//! over the real trace generator with fixed seeds.

use ampsched_cpu::core::Core;
use ampsched_cpu::{CoreConfig, FuSpec, SimPath};
use ampsched_isa::{ArchReg, MicroOp, OpClass};
use ampsched_mem::{MemConfig, MemSystem};
use ampsched_trace::{suite, TraceGenerator, Workload};
use ampsched_util::check::{Checker, Source};
use ampsched_util::{prop_assert, prop_assert_eq};

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

/// One random micro-op. Registers come from a small pool so dependency
/// chains form; addresses share 8-byte words so loads alias stores;
/// branches are mostly well-predicted (like real workloads) but not
/// always, so redirect stalls and `waiting_branch` resolution get
/// exercised.
fn random_op(s: &mut Source, pc: &mut u64) -> MicroOp {
    *pc += 4 * s.u64_in(1, 4); // occasional line-crossing gaps
    if s.u64_in(0, 16) == 0 {
        *pc += 64 * s.u64_in(1, 32); // jump to a far line: L1I pressure
    }
    let reg = |s: &mut Source| -> Option<ArchReg> {
        match s.u64_in(0, 4) {
            0 => None,
            1 => Some(ArchReg::Fp(s.u8_in(0, 8))),
            _ => Some(ArchReg::Int(s.u8_in(0, 8))),
        }
    };
    let classes = [
        OpClass::IntAlu,
        OpClass::IntAlu,
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::FpAlu,
        OpClass::FpAlu,
        OpClass::FpMul,
        OpClass::FpDiv,
        OpClass::Load,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
    ];
    let class = *s.choice(&classes);
    let mut op = match class {
        OpClass::Load => MicroOp::load(
            8 * s.u64_in(0, 64),
            8,
            reg(s),
            match s.u64_in(0, 4) {
                0 => ArchReg::Fp(s.u8_in(0, 8)),
                _ => ArchReg::Int(s.u8_in(0, 8)),
            },
        ),
        OpClass::Store => MicroOp::store(8 * s.u64_in(0, 64), 8, reg(s), ArchReg::Int(s.u8_in(0, 8))),
        OpClass::Branch => MicroOp::branch(reg(s), s.u64_in(0, 10) != 0),
        c => {
            // arith dst must avoid the hard-wired zero for dep coverage,
            // but allowing zero (no real dest) is also a valid case.
            let dst = match s.u64_in(0, 8) {
                0 => None,
                n if c.is_fp() || n < 5 => Some(if c.is_fp() {
                    ArchReg::Fp(s.u8_in(0, 8))
                } else {
                    ArchReg::Int(s.u8_in(0, 8))
                }),
                _ => Some(ArchReg::Int(s.u8_in(0, 8))),
            };
            MicroOp::arith(c, reg(s), reg(s), dst)
        }
    };
    op.pc = *pc;
    op
}

#[derive(Debug, Clone)]
struct Program {
    fp_core: bool,
    cycles: u64,
    flush_at: Option<u64>,
    ops: Vec<MicroOp>,
    /// Frontend stall after the flush in the lockstep test, so a stale
    /// quiescence certificate outliving the refetch cycle would diverge.
    stall: u64,
}

fn gen_program(s: &mut Source) -> Program {
    let mut pc = 0x1000;
    Program {
        fp_core: s.bool(),
        cycles: s.u64_in(200, 2000),
        flush_at: if s.bool() { Some(s.u64_in(50, 150)) } else { None },
        ops: s.vec_with(1, 64, |s| random_op(s, &mut pc)),
        stall: s.u64_in(0, 201),
    }
}

fn cfg(fp: bool) -> CoreConfig {
    if fp {
        CoreConfig::fp_core()
    } else {
        CoreConfig::int_core()
    }
}

fn mem() -> MemSystem {
    MemSystem::new(MemConfig::default(), 2)
}

/// Run the fast path with skip-ahead over `cycles`; returns real ticks.
fn run_fast_skipping(
    core: &mut Core,
    w: &mut dyn Workload,
    m: &mut MemSystem,
    cycles: u64,
    flush_at: Option<u64>,
) -> u64 {
    let mut real_ticks = 0;
    let mut cycle = 0u64;
    while cycle < cycles {
        if flush_at != Some(cycle) {
            // A flush is an externally scheduled event the event scan
            // cannot see; never skip across one.
            let mut target = core.next_event_at_or_after(cycle).min(cycles);
            if let Some(f) = flush_at {
                if f > cycle {
                    target = target.min(f);
                }
            }
            if target > cycle {
                core.fast_forward(cycle, target - cycle);
                cycle = target;
                if cycle >= cycles {
                    break;
                }
            }
        }
        if flush_at == Some(cycle) {
            core.flush_pipeline();
            core.stall_until(cycle + 40);
        }
        core.tick(cycle, w, m);
        real_ticks += 1;
        cycle += 1;
    }
    real_ticks
}

#[test]
fn fast_tick_matches_reference_lockstep_on_random_programs() {
    Checker::new(0xd1ff_0001)
        .cases(48)
        .suite("cpu_differential")
        .run("fast_tick_lockstep", gen_program, |p| {
            // `stepped` runs the fast path through `Core::step`, which
            // replays certified quiescent cycles with `fast_forward`.
            let mut fast = Core::new(cfg(p.fp_core), 0);
            let mut stepped = Core::new(cfg(p.fp_core), 0);
            let mut refc = Core::new(cfg(p.fp_core), 0);
            let mut mf = mem();
            let mut ms = mem();
            let mut mr = mem();
            let mut wf = VecWorkload::new(p.ops.clone());
            let mut ws = VecWorkload::new(p.ops.clone());
            let mut wr = VecWorkload::new(p.ops.clone());
            for now in 0..p.cycles {
                if p.flush_at == Some(now) {
                    fast.flush_pipeline();
                    fast.stall_until(now + p.stall);
                    stepped.flush_pipeline();
                    prop_assert_eq!(stepped.quiet_until(), 0, "flush must void the certificate");
                    stepped.stall_until(now + p.stall);
                    refc.flush_pipeline();
                    refc.stall_until(now + p.stall);
                }
                let cf = fast.tick(now, &mut wf, &mut mf);
                let cs = stepped.step(now, SimPath::Fast, &mut ws, &mut ms);
                let cr = refc.reference_tick(now, &mut wr, &mut mr);
                prop_assert_eq!(cf, cr, "commit count diverged at cycle {}", now);
                prop_assert_eq!(cs, cr, "stepped commit count diverged at cycle {}", now);
                prop_assert_eq!(
                    fast.state_digest(),
                    refc.state_digest(),
                    "state diverged at cycle {}",
                    now
                );
                prop_assert_eq!(
                    stepped.state_digest(),
                    refc.state_digest(),
                    "stepped state diverged at cycle {}",
                    now
                );
            }
            prop_assert_eq!(fast.stats, refc.stats);
            prop_assert_eq!(fast.activity, refc.activity);
            prop_assert_eq!(stepped.stats, refc.stats);
            prop_assert_eq!(stepped.activity, refc.activity);
            Ok(())
        });
}

#[test]
fn skip_ahead_matches_reference_on_random_programs() {
    Checker::new(0xd1ff_0002)
        .cases(48)
        .suite("cpu_differential")
        .run("skip_ahead_equivalence", gen_program, |p| {
            let mut fast = Core::new(cfg(p.fp_core), 0);
            let mut refc = Core::new(cfg(p.fp_core), 0);
            let mut mf = mem();
            let mut mr = mem();
            let mut wf = VecWorkload::new(p.ops.clone());
            let mut wr = VecWorkload::new(p.ops.clone());

            let real = run_fast_skipping(&mut fast, &mut wf, &mut mf, p.cycles, p.flush_at);
            for now in 0..p.cycles {
                if p.flush_at == Some(now) {
                    refc.flush_pipeline();
                    refc.stall_until(now + 40);
                }
                refc.reference_tick(now, &mut wr, &mut mr);
            }
            prop_assert!(real <= p.cycles, "cannot tick more than the cycle budget");
            prop_assert_eq!(fast.state_digest(), refc.state_digest());
            prop_assert_eq!(fast.stats, refc.stats);
            prop_assert_eq!(fast.activity, refc.activity);
            Ok(())
        });
}

/// Fixed seeds × real benchmark traces × both core flavors, per the
/// acceptance criteria: lockstep digests plus end-state equality, and the
/// skip-ahead loop checked against the same reference run.
#[test]
fn trace_generator_differential_fixed_seeds() {
    const CYCLES: u64 = 30_000;
    for &(seed, bench) in &[(1u64, "gcc"), (2, "fpstress"), (3, "mcf"), (2012, "equake")] {
        for fp_core in [false, true] {
            let spec = suite::by_name(bench).expect("bench exists");
            let mut fast = Core::new(cfg(fp_core), 0);
            let mut refc = Core::new(cfg(fp_core), 0);
            let mut mf = mem();
            let mut mr = mem();
            let mut wf = TraceGenerator::for_thread(spec.clone(), seed, 0);
            let mut wr = TraceGenerator::for_thread(spec, seed, 0);

            run_fast_skipping(&mut fast, &mut wf, &mut mf, CYCLES, None);
            for now in 0..CYCLES {
                refc.reference_tick(now, &mut wr, &mut mr);
            }
            assert_eq!(
                fast.state_digest(),
                refc.state_digest(),
                "state diverged: seed {seed} bench {bench} fp_core {fp_core}"
            );
            assert_eq!(
                fast.stats, refc.stats,
                "stats diverged: seed {seed} bench {bench} fp_core {fp_core}"
            );
            assert_eq!(
                fast.activity, refc.activity,
                "activity diverged: seed {seed} bench {bench} fp_core {fp_core}"
            );
        }
    }
}

/// A random *valid* core shape: every structural size drawn from the
/// bottom of its legal range up to (a bit past) the paper's Table I
/// values, so the sweep hits degenerate shapes the two stock cores never
/// produce — size-1 issue queues and LSQ halves, a ROB barely wider than
/// dispatch (wraparound every few cycles), rename pools one register
/// deep, single-unit non-pipelined FU pools with long latencies.
fn random_config(s: &mut Source) -> CoreConfig {
    let mut c = if s.bool() {
        CoreConfig::fp_core()
    } else {
        CoreConfig::int_core()
    };
    c.name = "FUZZ";
    c.dispatch_width = s.u8_in(1, 5);
    c.commit_width = s.u8_in(1, 7);
    c.issue_width_int = s.u8_in(1, 5);
    c.issue_width_fp = s.u8_in(1, 5);
    c.rob_size = s.u64_in(c.dispatch_width as u64, 48) as u16;
    c.int_regs = s.u64_in(33, 80) as u16;
    c.fp_regs = s.u64_in(33, 80) as u16;
    c.int_isq = s.u64_in(1, 24) as u16;
    c.fp_isq = s.u64_in(1, 16) as u16;
    c.lsq_loads = s.u64_in(1, 12) as u16;
    c.lsq_stores = s.u64_in(1, 12) as u16;
    for fu in &mut c.fu {
        *fu = FuSpec::new(s.u8_in(1, 3), s.u8_in(1, 16), s.bool());
    }
    c.mispredict_penalty = s.u8_in(1, 20);
    c.validate();
    c
}

#[derive(Debug, Clone)]
struct ShapedProgram {
    config: CoreConfig,
    cycles: u64,
    flush_at: Option<u64>,
    ops: Vec<MicroOp>,
}

fn gen_shaped_program(s: &mut Source) -> ShapedProgram {
    let mut pc = 0x1000;
    ShapedProgram {
        config: random_config(s),
        cycles: s.u64_in(200, 2000),
        flush_at: if s.bool() { Some(s.u64_in(50, 150)) } else { None },
        ops: s.vec_with(1, 64, |s| random_op(s, &mut pc)),
    }
}

/// Config-fuzzed lockstep differential: the structural-hazard, ring-wrap,
/// and wake-cache logic must agree with the reference on *every* legal
/// core shape, not just the two the paper ships. Degenerate shapes are
/// where horizon/cache bookkeeping slips: a size-1 queue makes every
/// insert a full-queue stall, a tiny ROB wraps `rob_head` constantly, and
/// a one-deep rename pool serializes dispatch.
#[test]
fn fast_tick_matches_reference_on_fuzzed_core_shapes() {
    Checker::new(0xd1ff_0003)
        .cases(64)
        .suite("cpu_differential")
        .run("config_fuzz_lockstep", gen_shaped_program, |p| {
            let mut fast = Core::new(p.config.clone(), 0);
            let mut refc = Core::new(p.config.clone(), 0);
            let mut mf = mem();
            let mut mr = mem();
            let mut wf = VecWorkload::new(p.ops.clone());
            let mut wr = VecWorkload::new(p.ops.clone());
            for now in 0..p.cycles {
                if p.flush_at == Some(now) {
                    fast.flush_pipeline();
                    fast.stall_until(now + 40);
                    refc.flush_pipeline();
                    refc.stall_until(now + 40);
                }
                let cf = fast.tick(now, &mut wf, &mut mf);
                let cr = refc.reference_tick(now, &mut wr, &mut mr);
                prop_assert_eq!(cf, cr, "commit count diverged at cycle {}", now);
                prop_assert_eq!(
                    fast.state_digest(),
                    refc.state_digest(),
                    "state diverged at cycle {}",
                    now
                );
            }
            prop_assert_eq!(fast.stats, refc.stats);
            prop_assert_eq!(fast.activity, refc.activity);
            Ok(())
        });
}

/// Same fuzzed shapes through the skip-ahead loop: `next_event_at_or_after`
/// certificates and `fast_forward` replication must hold on degenerate
/// shapes too (end-state, stats, and activity equality).
#[test]
fn skip_ahead_matches_reference_on_fuzzed_core_shapes() {
    Checker::new(0xd1ff_0004)
        .cases(64)
        .suite("cpu_differential")
        .run("config_fuzz_skip_ahead", gen_shaped_program, |p| {
            let mut fast = Core::new(p.config.clone(), 0);
            let mut refc = Core::new(p.config.clone(), 0);
            let mut mf = mem();
            let mut mr = mem();
            let mut wf = VecWorkload::new(p.ops.clone());
            let mut wr = VecWorkload::new(p.ops.clone());

            let real = run_fast_skipping(&mut fast, &mut wf, &mut mf, p.cycles, p.flush_at);
            for now in 0..p.cycles {
                if p.flush_at == Some(now) {
                    refc.flush_pipeline();
                    refc.stall_until(now + 40);
                }
                refc.reference_tick(now, &mut wr, &mut mr);
            }
            prop_assert!(real <= p.cycles, "cannot tick more than the cycle budget");
            prop_assert_eq!(fast.state_digest(), refc.state_digest());
            prop_assert_eq!(fast.stats, refc.stats);
            prop_assert_eq!(fast.activity, refc.activity);
            Ok(())
        });
}

/// The skip-ahead must actually engage on a memory-bound workload — the
/// whole point of the fast path. `mcf` on the FP core spends most cycles
/// waiting on L2/memory, so real ticks must be well under the budget.
#[test]
fn skip_ahead_engages_on_memory_bound_trace() {
    const CYCLES: u64 = 30_000;
    let spec = suite::by_name("mcf").expect("bench exists");
    let mut core = Core::new(CoreConfig::fp_core(), 0);
    let mut m = mem();
    let mut w = TraceGenerator::for_thread(spec, 7, 0);
    let real = run_fast_skipping(&mut core, &mut w, &mut m, CYCLES, None);
    assert!(
        real < CYCLES * 9 / 10,
        "skip-ahead should save >10% of ticks on mcf, ran {real}/{CYCLES}"
    );
    assert_eq!(core.stats.cycles, CYCLES, "skipped cycles still counted");
}
