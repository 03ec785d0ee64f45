//! The perf observatory for the PUBLISHING reproduction.
//!
//! The observatory measures *virtual* time and nothing else: every piece
//! is machine-readable and exactly replayable. Host cost (wall clock,
//! allocations) is `hostbench`'s alone (`BENCHMARK.json`).
//!
//! - [`snapshot`]: the versioned `BENCH_<n>.json` artifact — one entry
//!   per canonical bench scenario, carrying its virtual-time metrics
//!   (events/sec, stage-latency percentiles, peak queue depths, bytes
//!   published) and fingerprints, so two runs at the same seed write
//!   byte-identical files;
//! - [`compare`]: the regression comparator that diffs two snapshots
//!   under per-metric direction and noise thresholds, and backs the CI
//!   perf gate (nonzero exit on regression);
//! - [`forensics`]: the regression-forensics engine that explains a
//!   comparator verdict — ranked suspects per violated rule from the
//!   snapshot's attribution families (profile categories, ledger busy
//!   times, critical-path stages, what-if knees) and a report-level
//!   differ over histograms, ledgers, and aligned critical paths;
//! - [`trace`]: the Chrome-trace (Perfetto JSON) exporter that turns
//!   `publishing-obs` lifecycle span logs into per-component timelines
//!   with per-message lifecycle slices, loadable in `chrome://tracing`
//!   or <https://ui.perfetto.dev>.
//!
//! All three artifacts are built and read back as `publishing_obs::json`
//! values — the workspace's one JSON model (there is no serde).
//!
//! Dependency discipline: like `publishing-obs`, this crate sits below
//! the world drivers. The `lab bench` command (in `publishing-bench`)
//! builds the worlds and hands their reports to this crate's builders.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod forensics;
pub mod snapshot;
pub mod trace;
