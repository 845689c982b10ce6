//! # ampsched-metrics
//!
//! Metrics and reporting shared by the experiment drivers:
//!
//! * [`ThreadMetrics`] — per-thread instructions/cycles/energy with the
//!   paper's IPC/Watt metric;
//! * [`speedup`] — weighted (arithmetic-mean) and geometric speedups of
//!   per-thread metric ratios, exactly as used in Figures 6–9;
//! * [`stats`] — the mean and the k-smallest/k-largest selections behind
//!   the Figure 9 worst/best bars;
//! * [`report`] — fixed-width ASCII tables and CSV output.

pub mod bars;
pub mod report;
pub mod speedup;
pub mod stats;
pub mod thread;

pub use bars::hbar_chart;
pub use report::{write_csv, Table};
pub use stats::{k_largest_indices, k_smallest_indices, mean};
pub use speedup::{geometric_speedup, improvement_pct, weighted_improvement_pct, weighted_speedup};
pub use thread::ThreadMetrics;
