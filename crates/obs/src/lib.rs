//! # ampsched-obs — hermetic observability
//!
//! Process-global instrumentation for the ampsched workspace, built with
//! zero external dependencies (the PR 1 hermetic-build rule): a leveled
//! structured [logger](mod@log), [counters and fixed-bucket
//! histograms](metrics) with quantile estimation, nesting RAII [timing
//! spans](mod@span) that export to Chrome trace-event JSON, a [JSONL
//! telemetry sink](telemetry) for the scheduler decision audit trail,
//! a [per-request span-group registry](request) with deterministic ids
//! and phase timelines, and a [flight recorder](ring) — a fixed-capacity
//! ring of recent obs events dumped to JSONL when something goes wrong.
//!
//! ## Bit-identity contract
//!
//! Instrumentation is *read-only with respect to simulation state*. Every
//! hook either observes a value the simulation already computed (counters,
//! decision records) or measures wall-clock outside the simulated machine
//! (spans). Nothing here feeds back into a simulated component, so
//! enabling any combination of `AMPSCHED_LOG`, `--telemetry`, and
//! `--trace-events` must leave experiment `--json` reports byte-identical
//! — enforced by `differential_telemetry` in `ampsched-experiments` and a
//! dedicated CI leg.
//!
//! ## Cost when disabled
//!
//! Disabled paths are a single relaxed atomic load (spans, telemetry) or
//! an integer level compare (logging). Counters always count — they are a
//! relaxed fetch-add on a cached `&'static AtomicU64`, plus a thread-local
//! add inside a [`metrics::scoped`] call — but are only ever touched at
//! decision points, multi-cycle skips, and per-chunk trace operations,
//! never inside the per-cycle hot loop.
//!
//! ```
//! ampsched_obs::counter!("demo.events");
//! ampsched_obs::hist!("demo.latency_us", 17u64);
//! let snap = ampsched_obs::metrics::snapshot();
//! assert!(snap.counters.iter().any(|(name, _)| name == "demo.events"));
//! ```

pub mod log;
pub mod metrics;
pub mod profiler;
pub mod request;
pub mod ring;
pub mod span;
pub mod telemetry;

pub use log::Level;
pub use metrics::{Snapshot, BUCKETS};
pub use span::SpanGuard;
