//! `lab bench` — the perf-observatory bench driver.
//!
//! Runs the canonical scenario matrix at fixed seeds (see
//! [`crate::perf_matrix`]) and writes one versioned `BENCH_<n>.json`
//! snapshot (schema: `publishing_perf::snapshot`). The matrix covers the
//! system's load-bearing paths:
//!
//! - `steady_state` — fault-free publish/deliver over the sharded tier;
//! - `crash_replay` — a node crash mid-run, recovered in parallel by
//!   the responsible shards;
//! - `rebalance` — a new shard admitted mid-run (log drain + cutover);
//! - `chaos_smoke` — one generated fault schedule replayed through the
//!   chaos driver (crashes plus loss/corruption/disk windows).
//!
//! Every metric is a statement about virtual time (events per virtual
//! second, stage-latency percentiles, queue depths, bytes published), so
//! two runs of one build write byte-identical snapshots and print
//! byte-identical tables; the path written goes to stderr.
//!
//! - `--smoke` runs the smaller CI matrix (< 1 s);
//! - `--dir DIR` writes the snapshot into `DIR` (default: the current
//!   directory); the snapshot number is one past the highest existing
//!   `BENCH_<n>.json` there.

use super::{fail, write_file, Flags};
use crate::perf_matrix::run_matrix;
use publishing_perf::snapshot::{next_snapshot_number, snapshot_filename, ScenarioSnapshot};

pub(super) const USAGE: &str = "[--smoke] [--dir DIR]";

pub(super) fn run(flags: &Flags) {
    let dir = std::path::PathBuf::from(flags.value("--dir").unwrap_or("."));
    let snap = run_matrix(flags.has("--smoke"));

    let path = dir.join(snapshot_filename(next_snapshot_number(&dir)));
    write_file(&path, snap.to_json());
    eprintln!("wrote {}", path.display());

    let metric = |s: &ScenarioSnapshot, name: &str| s.virt.get(name).copied().unwrap_or(0.0);
    for s in &snap.scenarios {
        println!(
            "  {:<14} {:>10.0} ev/vsec  p99(pub→dlv) {:>8.0}us  peak_q {:>3.0}",
            s.name,
            metric(s, "events_per_virtual_sec"),
            metric(s, "publish_to_deliver_us_p99"),
            metric(s, "peak_queue_depth"),
        );
    }

    // A bench run that did no work is a broken scenario, not a datum.
    for s in &snap.scenarios {
        if metric(s, "events_delivered") == 0.0 {
            fail(1, format!("scenario {} delivered no events", s.name));
        }
    }
}
