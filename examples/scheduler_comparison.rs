//! Run one multiprogrammed pair under every scheduling scheme in the
//! paper and compare IPC/Watt — a miniature of the Figure 7/8 evaluation.
//!
//! ```text
//! cargo run --release --example scheduler_comparison [benchA benchB]
//! ```
//!
//! Defaults to the adversarial pair {mixstress, mpeg2_dec}: both change
//! flavor at sub-epoch granularity, which is exactly where fine-grained
//! scheduling pays off.

use ampsched::experiments::common::{Params, SchedKind};
use ampsched::experiments::profiling;
use ampsched::metrics::Table;
use ampsched::prelude::*;

fn make_system(a: &BenchmarkSpec, b: &BenchmarkSpec, params: &Params) -> DualCoreSystem {
    let workloads: [Box<dyn Workload>; 2] = [
        Box::new(TraceGenerator::for_thread(a.clone(), params.seed, 0)),
        Box::new(TraceGenerator::for_thread(b.clone(), params.seed, 1)),
    ];
    DualCoreSystem::new(params.system, workloads)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name_a = args.first().map(String::as_str).unwrap_or("mixstress");
    let name_b = args.get(1).map(String::as_str).unwrap_or("mpeg2_dec");
    let a = suite::by_name(name_a).unwrap_or_else(|| panic!("unknown benchmark {name_a}"));
    let b = suite::by_name(name_b).unwrap_or_else(|| panic!("unknown benchmark {name_b}"));

    let mut params = Params::medium();
    params.run_insts = 3_000_000;
    eprintln!("[profiling for the HPE predictors ...]");
    let preds = profiling::predictors(&params);

    // Static first: it is the baseline of the weighted speedups.
    let kinds = [
        SchedKind::Static,
        SchedKind::RoundRobin(1),
        SchedKind::HpeMatrix,
        SchedKind::HpeSurface,
        SchedKind::MatrixFine,
        SchedKind::Sampling(2),
        SchedKind::Proposed(ProposedConfig::default()),
        SchedKind::Extended(ExtendedConfig::default()),
    ];

    println!("pair: {} (thread 0, FP core) + {} (thread 1, INT core)\n", a.name, b.name);
    let mut t = Table::new(&["scheduler", "IPC/W t0", "IPC/W t1", "swaps", "cycles"]);
    let mut runs = Vec::new();
    for kind in &kinds {
        let mut sys = make_system(&a, &b, &params);
        let r = sys.run(&mut *kind.build(&preds), params.run_insts, params.max_cycles);
        let ppw = r.ipc_per_watt();
        t.row(&[
            r.scheduler.clone(),
            format!("{:.4}", ppw[0]),
            format!("{:.4}", ppw[1]),
            r.swaps.to_string(),
            r.cycles.to_string(),
        ]);
        runs.push(r);
    }
    println!("{}", t.render());

    println!("weighted speedups over the static assignment:");
    let base = runs[0].ipc_per_watt();
    for r in &runs[1..] {
        let s = weighted_speedup(&r.ipc_per_watt(), &base);
        println!("  {:17} {:+.1}%", r.scheduler, improvement_pct(s));
    }
}
