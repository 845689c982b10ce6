//! Property-based tests over the core data structures and cross-crate
//! invariants, on the in-tree `util::check` harness with a fixed seed.

use ampsched::isa::{InstMix, MixCounts, OpClass};
use ampsched::mem::{Cache, CacheConfig};
use ampsched::metrics::{geometric_speedup, weighted_speedup};
use ampsched::prelude::*;
use ampsched::sched::{MajorityVote, ProfilePoint, RatioMatrix};
use ampsched_util::check::{Checker, Source};
use ampsched_util::{prop_assert, prop_assert_eq, prop_assert_ne};

const SEED: u64 = 0xa3b5_0006;

fn checker() -> Checker {
    Checker::new(SEED).cases(64).suite("workspace_props")
}

fn arb_mix(s: &mut Source) -> InstMix {
    // Nine positive weights; at least one strictly positive is guaranteed
    // by construction (a degenerate all-zero draw — which shrinking loves
    // to produce — falls back to pure IntAlu rather than rejecting).
    let mut w = s.vec_with(9, 9, |s| s.f64_in(0.0, 1.0));
    if w.iter().sum::<f64>() <= 1e-9 {
        w[0] = 1.0;
    }
    InstMix::from_weights(&[
        (OpClass::IntAlu, w[0]),
        (OpClass::IntMul, w[1]),
        (OpClass::IntDiv, w[2]),
        (OpClass::FpAlu, w[3]),
        (OpClass::FpMul, w[4]),
        (OpClass::FpDiv, w[5]),
        (OpClass::Load, w[6]),
        (OpClass::Store, w[7]),
        (OpClass::Branch, w[8]),
    ])
}

#[test]
fn mix_normalization_is_a_distribution() {
    checker().run("mix_normalization_is_a_distribution", arb_mix, |mix| {
        let probs = mix.normalized();
        let sum: f64 = probs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        prop_assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
        let cdf = mix.cdf();
        prop_assert_eq!(cdf[8], 1.0);
        for w in cdf.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12);
        }
        Ok(())
    });
}

#[test]
fn generated_stream_matches_mix_within_tolerance() {
    checker().run(
        "generated_stream_matches_mix_within_tolerance",
        |s: &mut Source| (arb_mix(s), s.u64_in(0, 1000)),
        |(mix, seed)| {
            let spec = BenchmarkSpec::new(
                "prop",
                Suite::Synthetic,
                vec![PhaseSpec::new("p", *mix, 3.0, 0.05, 0.4, 8192, 0.7, 4096, 1 << 40)],
            );
            let mut g = TraceGenerator::new(spec, *seed, 0, 1 << 20);
            let mut counts = MixCounts::new();
            for _ in 0..6000 {
                counts.record(g.next_op().class);
            }
            let want_int = 100.0 * mix.int_fraction();
            let want_fp = 100.0 * mix.fp_fraction();
            prop_assert!(
                (counts.int_pct() - want_int).abs() < 5.0,
                "observed %INT {} vs spec {}",
                counts.int_pct(),
                want_int
            );
            prop_assert!((counts.fp_pct() - want_fp).abs() < 5.0);
            Ok(())
        },
    );
}

#[test]
fn cache_occupancy_never_exceeds_capacity() {
    checker().run(
        "cache_occupancy_never_exceeds_capacity",
        |s: &mut Source| {
            let accesses = s.vec_with(1, 499, |s| (s.u64_in(0, 1_000_000), s.bool()));
            let assoc = s.u32_in(1, 8);
            (accesses, assoc)
        },
        |(accesses, assoc)| {
            let cfg = CacheConfig::new(64 * 16 * *assoc as u64, 64, *assoc);
            let mut c = Cache::new(cfg);
            for (addr, write) in accesses {
                c.access(addr & !7, *write);
            }
            let capacity = (cfg.size_bytes / cfg.line_bytes) as usize;
            prop_assert!(c.resident_lines() <= capacity);
            let s = c.stats();
            prop_assert!(s.hits + s.misses > 0);
            prop_assert!(s.writebacks <= s.misses, "writebacks only happen on miss evictions");
            Ok(())
        },
    );
}

#[test]
fn cache_access_after_access_hits() {
    checker().run(
        "cache_access_after_access_hits",
        |s: &mut Source| s.u64_in(0, 1_000_000_000),
        |&addr| {
            let mut c = Cache::new(CacheConfig::new(4096, 64, 2));
            c.access(addr, false);
            prop_assert!(c.access(addr, false).hit);
            prop_assert!(c.contains(addr));
            Ok(())
        },
    );
}

#[test]
fn majority_vote_agrees_with_direct_count() {
    checker().run(
        "majority_vote_agrees_with_direct_count",
        |s: &mut Source| {
            let votes = s.vec_with(1, 39, |s| s.bool());
            let depth = s.usize_in(1, 10);
            (votes, depth)
        },
        |(votes, depth)| {
            let depth = *depth;
            let mut v = MajorityVote::new(depth);
            for &b in votes {
                v.push(b);
            }
            let expected = if votes.len() < depth {
                false
            } else {
                let yes = votes[votes.len() - depth..].iter().filter(|b| **b).count();
                2 * yes > depth
            };
            prop_assert_eq!(v.majority(), expected);
            Ok(())
        },
    );
}

#[test]
fn speedup_identities() {
    checker().run(
        "speedup_identities",
        |s: &mut Source| {
            let base = s.vec_with(2, 2, |s| s.f64_in(0.01, 10.0));
            let scale = s.f64_in(0.1, 10.0);
            (base, scale)
        },
        |(base, scale)| {
            let scale = *scale;
            // Scaling both threads by the same factor gives exactly that
            // factor under both means.
            let new: Vec<f64> = base.iter().map(|b| b * scale).collect();
            let w = weighted_speedup(&new, base);
            let g = geometric_speedup(&new, base);
            prop_assert!((w - scale).abs() < 1e-9);
            prop_assert!((g - scale).abs() < 1e-9);
            // AM-GM: weighted >= geometric always.
            let mixed = vec![base[0] * scale, base[1] / scale];
            let wm = weighted_speedup(&mixed, base);
            let gm = geometric_speedup(&mixed, base);
            prop_assert!(wm >= gm - 1e-12);
            Ok(())
        },
    );
}

#[test]
fn ratio_matrix_lookup_is_total() {
    checker().run(
        "ratio_matrix_lookup_is_total",
        |s: &mut Source| {
            let pts = s.vec_with(1, 59, |s| {
                (s.f64_in(0.0, 100.0), s.f64_in(0.0, 100.0), s.f64_in(0.1, 5.0))
            });
            let q_int = s.f64_in(-10.0, 110.0);
            let q_fp = s.f64_in(-10.0, 110.0);
            (pts, q_int, q_fp)
        },
        |(pts, q_int, q_fp)| {
            let points: Vec<ProfilePoint> = pts
                .iter()
                .map(|&(i, f, r)| ProfilePoint {
                    int_pct: i,
                    fp_pct: f,
                    ppw_int_core: r,
                    ppw_fp_core: 1.0,
                })
                .collect();
            let m = RatioMatrix::from_points(&points);
            let v = m.lookup(*q_int, *q_fp);
            prop_assert!(v.is_finite() && v > 0.0, "lookup must always return a usable ratio");
            Ok(())
        },
    );
}

#[test]
fn window_percentages_partition() {
    checker().run(
        "window_percentages_partition",
        |s: &mut Source| s.vec_with(9, 9, |s| s.u64_in(0, 500)),
        |counts| {
            let mut mc = MixCounts::new();
            for (i, &n) in counts.iter().enumerate() {
                for _ in 0..n {
                    mc.record(ampsched::isa::ops::ALL_OP_CLASSES[i]);
                }
            }
            if mc.total() > 0 {
                let sum = mc.int_pct() + mc.fp_pct() + mc.mem_pct() + mc.branch_pct();
                prop_assert!((sum - 100.0).abs() < 1e-9, "domains partition the stream: {sum}");
            }
            Ok(())
        },
    );
}

#[test]
fn assignment_roundtrip() {
    checker().run(
        "assignment_roundtrip",
        |s: &mut Source| (s.bool(), s.usize_in(0, 2)),
        |&(swapped, t)| {
            let a = AssignmentMap::pair(swapped);
            let core = a.core_of(t).expect("both pair threads run");
            prop_assert_eq!(a.thread_on(core), Some(t));
            let mut twice = a.clone();
            twice.swap_threads(0, 1);
            prop_assert_eq!(twice, AssignmentMap::pair(!swapped));
            twice.swap_threads(0, 1);
            prop_assert_eq!(twice, a.clone());
            prop_assert_ne!(a.core_of(0), a.core_of(1));
            Ok(())
        },
    );
}
