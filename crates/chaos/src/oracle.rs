//! The recovery invariant oracle: what must hold after every schedule.
//!
//! Judged against a fault-free [`Baseline`] of the same workload seed:
//!
//! - **convergence** — replay lag drained, no recorder/shard down or
//!   still catching up, and the process census: every spawned process
//!   is running on its node with no recovery in flight, or was
//!   destroyed on purpose;
//! - **output equivalence** — every client's deduplicated output equals
//!   the baseline byte for byte (no lost delivery, no duplicate
//!   surviving dedup, no invented message), and the whole-world output
//!   fingerprint matches;
//! - **replay prefix** — every replayed read matches the pre-crash
//!   read at the same position ([`check_replay_prefix`] on each
//!   kernel's span log);
//! - **suppression coverage** — suppressions only name known senders
//!   and only appear in runs that actually recovered something.
//!
//! [`check_replay_prefix`]: publishing_obs::span::check_replay_prefix

use crate::scenario::ChaosWorld;
use publishing_demos::ids::ProcessId;
use publishing_obs::causal::CausalGraph;
use publishing_obs::span::SpanEvent;

/// The fault-free run this schedule's world is compared against.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// Deduplicated-output fingerprint.
    pub output_fp: u64,
    /// Span-log fingerprint: what `lab chaos` prints of the twin, so two
    /// processes that ran it differently differ in their output.
    pub obs_fp: u64,
    /// Each client's deduplicated output lines.
    pub client_outputs: Vec<(ProcessId, Vec<String>)>,
    /// Every component's span events from the fault-free run, in log
    /// order — the reference stream for causal divergence pinpointing.
    pub span_events: Vec<Vec<SpanEvent>>,
}

impl Baseline {
    /// The baseline a fault-free `twin` sets, read once it has run.
    pub fn of(twin: &dyn ChaosWorld) -> Baseline {
        Baseline {
            output_fp: twin.output_fingerprint(),
            obs_fp: twin.obs_fingerprint(),
            client_outputs: twin.client_outputs(),
            span_events: twin.span_events(),
        }
    }
}

/// Oracle knobs.
#[derive(Debug, Clone, Default)]
pub struct OracleOptions {
    /// Self-test hook for the shrinker: treat any completed recovery as
    /// a failure. With this set, any schedule containing a crash
    /// "fails", and shrinking must converge on a single-crash
    /// reproducer — a deterministic end-to-end test of the
    /// delta-debugging loop against real runs.
    pub fail_on_recovery: bool,
}

/// Checks every invariant; returns human-readable failures (empty =
/// pass).
pub fn check(t: &dyn ChaosWorld, baseline: &Baseline, opts: &OracleOptions) -> Vec<String> {
    let mut failures = t.convergence_failures();

    let fp = t.output_fingerprint();
    if fp != baseline.output_fp {
        // Upgrade the bare fingerprint mismatch to a causal pinpoint:
        // align the baseline and run span streams and name the first
        // event where they part ways, with its causal ancestors.
        let base_graph = CausalGraph::from_event_lists(&baseline.span_events);
        let run_graph = t.causal_graph();
        let detail = match publishing_obs::divergence_diff(&base_graph, &run_graph) {
            Some(d) => format!("; first causal divergence: {}", d.render()),
            None => "; span streams identical (divergence is output-only)".to_string(),
        };
        failures.push(format!(
            "output fingerprint {fp:#x} != fault-free baseline {:#x}{detail}",
            baseline.output_fp
        ));
    }
    let got = t.client_outputs();
    for ((pid, want), (_, have)) in baseline.client_outputs.iter().zip(&got) {
        if want != have {
            let at = want
                .iter()
                .zip(have.iter())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| want.len().min(have.len()));
            failures.push(format!(
                "client {pid}: output diverges at line {at} \
                 (want {:?}, have {:?}; {} vs {} lines)",
                want.get(at),
                have.get(at),
                want.len(),
                have.len()
            ));
        }
    }

    failures.extend(t.replay_prefix_failures());
    failures.extend(t.suppression_failures());

    if opts.fail_on_recovery && t.recoveries_completed() > 0 {
        failures.push(format!(
            "self-test: {} recoveries completed",
            t.recoveries_completed()
        ));
    }
    failures
}
