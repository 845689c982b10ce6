//! Micro-benchmarks of the simulation substrate itself: trace generation,
//! cache accesses, single-core ticking, and the dual-core system loop.

use ampsched_bench::criterion;
use ampsched_core::TopoStatic;
use ampsched_cpu::{Core, CoreConfig};
use ampsched_mem::{AccessKind, MemConfig, MemSystem};
use ampsched_system::{DualCoreSystem, SystemConfig};
use ampsched_trace::{suite, TraceGenerator, Workload};
use ampsched_util::timer::{black_box, Criterion};

fn bench(c: &mut Criterion) {
    c.bench_function("trace_generator_100k_ops", |b| {
        let mut g = TraceGenerator::for_thread(suite::by_name("gcc").unwrap(), 1, 0);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..100_000 {
                acc = acc.wrapping_add(g.next_op().addr);
            }
            black_box(acc)
        })
    });

    c.bench_function("cache_100k_accesses", |b| {
        let mut m = MemSystem::new(MemConfig::default(), 1);
        let mut addr = 0u64;
        b.iter(|| {
            let mut acc = 0u32;
            for i in 0..100_000u64 {
                addr = addr.wrapping_mul(6364136223846793005).wrapping_add(i) % (1 << 20);
                acc += m.access(0, AccessKind::Load, addr & !7, i);
            }
            black_box(acc)
        })
    });

    c.bench_function("single_core_100k_cycles", |b| {
        b.iter(|| {
            let mut core = Core::new(CoreConfig::int_core(), 0);
            let mut mem = MemSystem::new(MemConfig::default(), 1);
            let mut w = TraceGenerator::for_thread(suite::by_name("equake").unwrap(), 2, 0);
            let mut n = 0u64;
            for now in 0..100_000u64 {
                n += core.tick(now, &mut w, &mut mem) as u64;
            }
            black_box(n)
        })
    });

    c.bench_function("dual_core_system_200k_insts", |b| {
        b.iter(|| {
            let workloads: [Box<dyn Workload>; 2] = [
                Box::new(TraceGenerator::for_thread(suite::by_name("apsi").unwrap(), 3, 0)),
                Box::new(TraceGenerator::for_thread(suite::by_name("sha").unwrap(), 3, 1)),
            ];
            let mut sys = DualCoreSystem::new(SystemConfig::default(), workloads);
            let mut sched = TopoStatic;
            black_box(sys.run(&mut sched, 200_000, 10_000_000))
        })
    });
}

fn main() {
    let mut c = criterion();
    bench(&mut c);
    c.final_summary();
}
