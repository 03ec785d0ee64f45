//! The benchmark harness: runnable reproductions of every table and
//! figure in the paper's evaluation (Chapter 5 measurements, Chapter 6
//! media experiments, and the Chapter 2 baselines), and the virtual-time
//! perf observatory's scenario matrix.
//!
//! Everything runs from one binary: `cargo run -p publishing-bench --bin
//! lab -- tables` prints every figure, and [`cli`] lists the other
//! commands. How fast the reproduction itself runs on the host is not
//! measured here — that is `hostbench`'s job (`BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
pub mod cli;
pub mod forensics_demo;
pub mod perf_matrix;
pub mod scenarios;

pub use scenarios::*;
