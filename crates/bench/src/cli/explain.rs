//! `lab explain` — the causal explorer over the published log:
//! happens-before chains, recovery critical path, and replay-divergence
//! diffing.
//!
//! Drives the same deterministic crash/recovery scenario as `lab
//! report` — echo servers on one node, ping clients elsewhere, the
//! server node crashed mid-run and recovered in parallel by the
//! responsible shards — builds the happens-before DAG from every
//! component's span log, and answers three questions:
//!
//! 1. **explain** — for a message key, the full causal chain from its
//!    publish back through program order, capture, sequencing, and
//!    delivery, with the virtual-time slack spent on every hop;
//! 2. **critical path** — the longest weighted chain from the crash to
//!    convergence, each segment attributed to a recovery stage
//!    (checkpoint load, replay, suppression, re-sequencing, delivery);
//! 3. **divergence diff** — align this run's span stream against the
//!    fault-free baseline of the same workload and pinpoint the first
//!    event where they part ways, with its causal ancestors.
//!
//! - `--key K` explains message `K` (default: the latest suppressed or
//!   delivered message of the run);
//! - `--dot PATH` writes the DAG as Graphviz DOT;
//! - `--flow PATH` writes the Chrome-trace timeline with flow arrows
//!   (send→deliver, replay→suppress) for Perfetto;
//! - `--diff` prints the first causal divergence against the fault-free
//!   baseline (expected: the crash's first replay);
//! - `--smoke` runs the CI gate: the critical path must be non-empty
//!   and its attribution must sum to the measured recovery lag, the
//!   explain chain must be non-empty, and the crashed run must diverge
//!   from its fault-free baseline;
//! - `--quorum` switches to the replicated-recorder world and the
//!   committed leader-crash schedule (leader replica dies at 250ms, the
//!   server node at 400ms): the crash→convergence critical path must
//!   then cross an election-gate edge, attributing part of the recovery
//!   window to the leader failover itself.

use super::Flags;
use crate::canonical::{self, Sizing};
use publishing_obs::causal::{CausalGraph, CriticalPath, EdgeKind};
use publishing_obs::span::{MsgKey, Stage};
use publishing_sim::time::{SimDuration, SimTime};

pub(super) const USAGE: &str =
    "[--smoke] [--key NODE.LOCAL#SEQ] [--dot PATH] [--flow PATH] [--diff] [--quorum]";

/// Picks the most interesting default key: the latest suppressed
/// message if the run recovered anything, else the latest delivery.
fn default_key(g: &CausalGraph) -> Option<MsgKey> {
    for want in [Stage::Suppress, Stage::Deliver, Stage::Publish] {
        if let Some(e) = g.events().iter().rev().find(|e| e.stage == want) {
            return Some(e.key);
        }
    }
    None
}

fn fail(msg: &str) -> ! {
    super::fail(1, format!("explain: {msg}"))
}

/// Prints the critical path and returns the measured crash→convergence
/// window, which the path's attribution must sum to exactly.
fn attributed_window(cp: &CriticalPath, crash: SimTime, conv: SimTime) -> SimDuration {
    println!("\n{}", cp.render());
    let measured = conv.saturating_since(crash);
    if cp.total() != measured {
        fail(&format!(
            "critical-path attribution {:.3}ms does not sum to measured recovery lag {:.3}ms",
            cp.total().as_millis_f64(),
            measured.as_millis_f64()
        ));
    }
    measured
}

fn write(path: &str, contents: String) {
    if let Err(e) = std::fs::write(path, contents) {
        fail(&format!("cannot write {path}: {e}"));
    }
}

fn write_dot(path: Option<&str>, g: &CausalGraph) {
    if let Some(path) = path {
        write(path, g.to_dot());
        eprintln!("dot: {} nodes -> {path}", g.len());
    }
}

/// Explains the leader-failover recovery of the quorum world: builds
/// the happens-before DAG (including election-gate edges), attributes
/// the crash→convergence critical path, and — under `--smoke` — gates
/// on the election hop actually appearing in the attribution.
fn run_quorum_mode(smoke: bool, dot_path: Option<&str>) {
    let (w, _) = canonical::quorum_failover_world(10, SimTime::from_secs(12));
    let g = w.causal_graph();
    if let Err(e) = g.validate() {
        fail(&format!("quorum causal graph failed validation: {e}"));
    }
    let elect_gates = g
        .edges()
        .iter()
        .filter(|e| e.kind == EdgeKind::ElectGate)
        .count();
    println!(
        "causal graph: {} events, {} edges ({} election gates) over {} logs",
        g.len(),
        g.edges().len(),
        elect_gates,
        w.span_logs().count()
    );
    if smoke && elect_gates == 0 {
        fail("failover run built no election-gate edges");
    }

    let Some((crash, conv)) = w.recovery_window() else {
        fail("quorum run produced no recovery window");
    };
    let Some(cp) = g.critical_path(crash, conv, None) else {
        fail("quorum run produced no critical path");
    };
    let measured = attributed_window(&cp, crash, conv);
    let election = cp
        .by_stage()
        .into_iter()
        .find(|e| e.0 == "election")
        .map(|e| e.1);
    match election {
        Some(d) => println!(
            "election hop: {:.3}ms of the {:.3}ms crash→convergence window went to leader failover",
            d.as_millis_f64(),
            measured.as_millis_f64()
        ),
        None if smoke => fail("critical path did not attribute an election hop"),
        None => println!("no election hop on the critical path"),
    }

    write_dot(dot_path, &g);

    if smoke {
        if w.recoveries_done().is_empty() {
            fail("quorum smoke run completed no recoveries");
        }
        eprintln!(
            "explain quorum smoke: all gates green ({} recoveries, election hop attributed)",
            w.recoveries_done().len()
        );
    }
}

pub(super) fn run(flags: &Flags) {
    let smoke = flags.has("--smoke");
    let dot_path = flags.value("--dot");
    if flags.has("--quorum") {
        return run_quorum_mode(smoke, dot_path);
    }

    let sizing = Sizing::new(smoke);
    let (mut w, _) = canonical::ping_world(&sizing, None);
    canonical::crash_server_node(&mut w, sizing.horizon);
    let g = w.causal_graph();
    if let Err(e) = g.validate() {
        fail(&format!("causal graph failed validation: {e}"));
    }
    println!(
        "causal graph: {} events, {} edges over {} logs",
        g.len(),
        g.edges().len(),
        w.span_logs().count()
    );

    // 1. Explain: the requested (or most interesting) message's chain.
    let key = flags.parsed::<MsgKey>("--key").or_else(|| default_key(&g));
    let explanation = key.and_then(|k| g.explain(k));
    match (&key, &explanation) {
        (Some(k), Some(ex)) => {
            println!("\n{}", ex.render());
            if smoke && ex.chain.is_empty() {
                fail(&format!("explain {k} produced an empty causal chain"));
            }
        }
        (Some(k), None) => {
            if smoke {
                fail(&format!("no events recorded for key {k}"));
            }
            println!("\nno events recorded for key {k}");
        }
        (None, _) => fail("run recorded no span events at all"),
    }

    // 2. Critical path: crash → convergence, attributed per stage.
    let window = w.recovery_window();
    let cp = window.and_then(|(crash, conv)| g.critical_path(crash, conv, None));
    match (&window, &cp) {
        (Some((crash, conv)), Some(cp)) => {
            let measured = attributed_window(cp, *crash, *conv);
            println!(
                "attribution check: {} segments sum to {:.3}ms == measured crash→convergence window",
                cp.segments.len(),
                measured.as_millis_f64()
            );
        }
        _ if smoke => fail("smoke run produced no recovery window / critical path"),
        _ => println!("\nno completed recovery; no critical path to attribute"),
    }

    // 3. Divergence diff against the fault-free baseline.
    if flags.has("--diff") || smoke {
        let (mut baseline, _) = canonical::ping_world(&sizing, None);
        baseline.run_until(sizing.horizon);
        let bg = baseline.causal_graph();
        match publishing_obs::divergence_diff(&bg, &g) {
            Some(d) => {
                println!("\nfirst divergence vs fault-free baseline:\n{}", d.render());
            }
            None => {
                // A crashed run must diverge from its fault-free twin.
                if smoke {
                    fail("crashed run's span stream is identical to the fault-free baseline");
                }
                println!("\nno divergence vs fault-free baseline");
            }
        }
    }

    write_dot(dot_path, &g);
    if let Some(path) = flags.value("--flow") {
        let t = canonical::chrome_trace(&w, "shard");
        write(path, t.to_json());
        eprintln!(
            "flow trace: {} events ({} flow endpoints) -> {path}",
            t.events.len(),
            t.count_phase('s') + t.count_phase('f')
        );
    }

    if smoke {
        // Per-process attribution must telescope too.
        for lag in w.recovery_lags() {
            if lag.recovery_ms > 0.0 && (lag.critical_path_ms - lag.recovery_ms).abs() > 1e-6 {
                fail(&format!(
                    "pid {}: critical_path_ms {} != recovery_ms {}",
                    lag.subject, lag.critical_path_ms, lag.recovery_ms
                ));
            }
        }
        let recovered = w.recoveries_done().len();
        if recovered == 0 {
            fail("smoke run completed no recoveries");
        }
        eprintln!("explain smoke: all gates green ({recovered} recoveries attributed)");
    }
}
