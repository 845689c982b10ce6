//! # ampsched-util
//!
//! Zero-dependency, in-tree replacements for the external crates the
//! workspace used to pull from crates.io. The build environment is
//! offline; everything the simulator, its tests, and its tools need
//! must live in the tree and be byte-for-byte reproducible.
//!
//! | module | replaces | contents |
//! |---|---|---|
//! | [`rng`] | `rand` | SplitMix64-seeded xoshiro256++ with the `StdRng`-shaped API |
//! | [`check`] | `proptest` | property-testing harness: composable generators, fixed seeds, choice-stream shrinking |
//! | [`json`] | `serde`/`serde_json` | a small JSON value type, serializer, and parser |
//! | [`timer`] | — | the `--profile` phase profiler and the bench-result differ behind `bench_diff` |
//! | [`hash`] | `crc32fast` | compile-time-tabled CRC-32 for on-disk integrity checks |
//! | [`cellfile`] | — | the one checked on-disk cell format: versioned, key-echoing, CRC-framed records, atomic write, directory scan |
//!
//! Every generator and harness in this crate is deterministic: the same
//! seed produces the same byte stream, the same test cases, and the same
//! failures, on every host.

pub mod cellfile;
pub mod check;
pub mod hash;
pub mod json;
pub mod rng;
pub mod timer;

pub use check::{Checker, Source};
pub use json::Json;
pub use rng::StdRng;
