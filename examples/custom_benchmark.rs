//! Define a *new* workload model with the public API — a bursty
//! "physics-then-collision" game-loop kernel that is not in the 37-bench
//! suite — and check which scheduler handles it best against a co-runner.
//!
//! Demonstrates: building `PhaseSpec`/`BenchmarkSpec` values by hand,
//! plugging them into `TraceGenerator`, and driving `DualCoreSystem`
//! directly.
//!
//! ```text
//! cargo run --release --example custom_benchmark
//! ```

use ampsched::isa::{InstMix, OpClass};
use ampsched::prelude::*;

/// A 60 FPS-style game loop: ~0.8M instructions of FP physics per frame
/// followed by ~0.5M instructions of INT collision/logic, repeating.
fn game_loop() -> BenchmarkSpec {
    let physics = InstMix::from_weights(&[
        (OpClass::FpAlu, 0.30),
        (OpClass::FpMul, 0.20),
        (OpClass::FpDiv, 0.02),
        (OpClass::IntAlu, 0.12),
        (OpClass::Load, 0.22),
        (OpClass::Store, 0.08),
        (OpClass::Branch, 0.06),
    ]);
    let logic = InstMix::from_weights(&[
        (OpClass::IntAlu, 0.52),
        (OpClass::IntMul, 0.04),
        (OpClass::Load, 0.24),
        (OpClass::Store, 0.06),
        (OpClass::Branch, 0.14),
    ]);
    BenchmarkSpec::new(
        "game_loop",
        Suite::Synthetic,
        vec![
            PhaseSpec::new("physics", physics, 4.0, 0.02, 0.30, 96 * 1024, 0.85, 6 * 1024, 800_000),
            PhaseSpec::new("logic", logic, 2.8, 0.08, 0.45, 64 * 1024, 0.60, 8 * 1024, 500_000),
        ],
    )
}

fn run_with(scheduler: &mut dyn Scheduler, seed: u64) -> TopoRunResult {
    // Deliberately misplaced initial assignment: sha (pure INT) starts on
    // the FP core, the FP-leaning game loop starts on the INT core.
    let workloads: [Box<dyn Workload>; 2] = [
        Box::new(TraceGenerator::for_thread(
            suite::by_name("sha").expect("suite benchmark"),
            seed,
            0,
        )),
        Box::new(TraceGenerator::for_thread(game_loop(), seed, 1)),
    ];
    let mut sys = DualCoreSystem::new(SystemConfig::default(), workloads);
    sys.run(scheduler, 8_000_000, 200_000_000)
}

fn main() {
    let spec = game_loop();
    println!(
        "custom benchmark '{}': avg %INT {:.0}, avg %FP {:.0}, {} phases",
        spec.name,
        spec.avg_int_pct(),
        spec.avg_fp_pct(),
        spec.phases.len()
    );
    println!("co-runner: sha (INT-heavy, stable); sha starts on the FP core\n");

    let mut stat = TopoStatic;
    let baseline = run_with(&mut stat, 99);
    let base_ppw = baseline.ipc_per_watt();
    println!(
        "static   : IPC/W = [{:.4}, {:.4}], swaps = {}",
        base_ppw[0], base_ppw[1], baseline.swaps
    );

    let mut rr = TopoRoundRobin::every_epoch();
    let rr_res = run_with(&mut rr, 99);
    println!(
        "round-rb : IPC/W = [{:.4}, {:.4}], swaps = {:>3}, weighted vs static {:+.1}%",
        rr_res.ipc_per_watt()[0],
        rr_res.ipc_per_watt()[1],
        rr_res.swaps,
        improvement_pct(weighted_speedup(&rr_res.ipc_per_watt(), &base_ppw))
    );

    let mut prop = TopoProposed::with_defaults(2);
    let prop_res = run_with(&mut prop, 99);
    println!(
        "proposed : IPC/W = [{:.4}, {:.4}], swaps = {:>3}, weighted vs static {:+.1}%",
        prop_res.ipc_per_watt()[0],
        prop_res.ipc_per_watt()[1],
        prop_res.swaps,
        improvement_pct(weighted_speedup(&prop_res.ipc_per_watt(), &base_ppw))
    );
    println!(
        "\nproposed made {} swap decisions over {} decision points ({:.2}%)",
        prop_res.swaps,
        prop_res.window_decisions,
        100.0 * prop_res.swap_rate()
    );
}
