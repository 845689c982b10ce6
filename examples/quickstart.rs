//! Quickstart: co-schedule two benchmarks on the asymmetric dual-core
//! under the paper's proposed fine-grained scheduler and print what
//! happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ampsched::prelude::*;

fn main() {
    // Thread 0 starts on the FP core ("core A"), thread 1 on the INT core
    // ("core B"). equake is FP-flavored and bitcount INT-flavored, so the
    // initial assignment is already correct — but equake's `assemble`
    // phases still give the monitor something to track.
    let workloads: [Box<dyn Workload>; 2] = [
        Box::new(TraceGenerator::for_thread(
            suite::by_name("equake").expect("suite benchmark"),
            42,
            0,
        )),
        Box::new(TraceGenerator::for_thread(
            suite::by_name("bitcount").expect("suite benchmark"),
            42,
            1,
        )),
    ];

    let mut system = DualCoreSystem::new(SystemConfig::default(), workloads);
    let mut scheduler = TopoProposed::with_defaults(2);

    // The paper runs until one thread commits 5M instructions.
    let result = system.run(&mut scheduler, 5_000_000, 200_000_000);

    println!("scheduler        : {}", result.scheduler);
    println!("cycles           : {}", result.cycles);
    println!("swaps performed  : {}", result.swaps);
    println!("decision points  : {}", result.window_decisions);
    for (t, m) in result.threads.iter().enumerate() {
        println!(
            "thread {t}: {:>9} insts  IPC {:.3}  {:.2} W  IPC/Watt {:.3}",
            m.instructions,
            m.ipc(),
            m.watts(),
            m.ipc_per_watt()
        );
    }
    // The audit trail: each decision point and where every thread sat
    // after it.
    if let Some(d) = result.decisions.first() {
        println!("cycle {}: changed {}, thread→core {:?}", d.cycle, d.changed, d.assignment);
    }
}
