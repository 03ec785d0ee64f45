//! The measuring loop and the metrics computed from it.
//!
//! A *repetition* is a batch of `per_rep` worlds (or searches); two
//! warm-up repetitions are discarded; the frozen reference kernel is
//! timed through every repetition, right after the timed regions.
//! End-to-end values are medians over repetitions, except
//! `msgs_per_host_sec` ([`UNDISTURBED_QUANTILE`]).

use crate::alloc::Totals;
use crate::facade::{run_one, Counts, Outcome};
use crate::kernels;
use crate::refkernel::Pacer;
use crate::stats::{median, quantile, ratio, SplitMix64};
use crate::trace::Tracer;
use crate::workloads::Workload;
use std::time::{Duration, Instant};

/// Repetitions run and thrown away before measuring.
const WARMUP_REPS: usize = 2;
/// Fewest measured repetitions, however short `--seconds` is.
const MIN_REPS: usize = 4;
/// The quantile of the repetitions' raw message rates reported as
/// `msgs_per_host_sec`. Interference on the shared box only ever slows a
/// repetition, and comes in episodes longer than a run, so the median
/// repetition's rate spread up to 24 % between runs of the same code (the
/// bound is 25 %); the fastest twentieth is what the undisturbed box
/// does. A quantile, not the maximum: it does not grow with the number
/// of repetitions, and on `quorum_replay` (one world per repetition) it
/// is a fixed point of the worlds' distribution, not its luckiest draw.
const UNDISTURBED_QUANTILE: f64 = 0.95;

/// What one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// `--seed`: start of the sub-seed stream.
    pub seed: u64,
    /// `--seconds`: how long to measure.
    pub seconds: f64,
    /// `--trace 1`: record spans and report per-layer metrics.
    pub trace: bool,
}

/// `(name, unit, value)` of one printed metric.
pub type Metric = (&'static str, &'static str, f64);

/// The result line, before formatting.
#[derive(Debug, Clone)]
pub struct Report {
    /// No world violated the gate.
    pub correct: bool,
    /// Messages offered.
    pub attempted: u64,
    /// Messages of worlds that failed the gate.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Gate violations, for the human-readable output.
    pub failures: Vec<String>,
}

/// Correctness bookkeeping over every world run, warm-up included.
#[derive(Debug, Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Gate {
    fn judge(&mut self, w: &Workload, sub_seed: u64, o: &Outcome) {
        self.attempted += o.sent;
        self.failed += o.failed();
        for f in &o.failures {
            self.failures
                .push(format!("{} seed={sub_seed}: {f}", w.name));
        }
    }
}

/// One measured repetition.
#[derive(Debug, Clone, Copy)]
struct Rep {
    traced: bool,
    run_ns: u64,
    msgs: u64,
    ref_ops_per_sec: f64,
    run_alloc: Totals,
    peak_bytes: u64,
}

impl Rep {
    fn msgs_per_sec(&self) -> f64 {
        ratio(self.msgs as f64 * 1e9, self.run_ns as f64)
    }

    fn msgs_per_kref(&self) -> f64 {
        ratio(self.msgs_per_sec() * 1e3, self.ref_ops_per_sec)
    }
}

/// Sums over the measured repetitions' worlds.
#[derive(Debug, Default)]
struct Measured {
    reps: Vec<Rep>,
    counts: Counts,
    setup_s: Vec<f64>,
    build_allocs: u64,
    report_allocs: u64,
    alloc_samples: u64,
    searches: u64,
    trials: u64,
    knee_users: u64,
}

/// The state one invocation threads through its repetitions.
struct Session<'a> {
    w: &'a Workload,
    seeds: SplitMix64,
    tr: &'a mut Tracer,
    gate: Gate,
    pacer: Pacer,
}

fn repetition(s: &mut Session, m: &mut Measured, traced: bool) {
    let w = s.w;
    s.tr.recording = traced;
    s.tr.rep = m.reps.len() as u32;
    let span = s.tr.open("rep");
    let (mut run_ns, mut msgs, mut peak_bytes) = (0u64, 0u64, 0u64);
    let mut run_alloc = Totals::default();
    for i in 0..w.per_rep {
        let sub_seed = s.seeds.next_u64();
        let pacer = &mut s.pacer;
        let o = run_one(w, sub_seed, i == 0, s.tr, &mut m.counts, &mut |ns| {
            pacer.after_timed(ns)
        });
        s.gate.judge(w, sub_seed, &o);
        run_ns += o.run_ns;
        msgs += o.got;
        peak_bytes = peak_bytes.max(o.peak_bytes);
        m.setup_s.push(o.setup_ns as f64 / 1e9);
        run_alloc += o.run_alloc;
        if o.build_allocs > 0 {
            m.build_allocs += o.build_allocs;
            m.report_allocs += o.report_allocs;
            m.alloc_samples += 1;
        }
        if o.trials > 0 {
            m.searches += 1;
            m.trials += o.trials;
            m.knee_users += u64::from(o.knee_users);
        }
    }
    s.tr.close(span);
    s.tr.recording = false;
    m.reps.push(Rep {
        traced,
        run_ns,
        msgs,
        ref_ops_per_sec: s.pacer.finish_rep(),
        run_alloc,
        peak_bytes,
    });
}

/// Runs the plan: determinism check, warm-up, measurement, metrics.
pub fn run(plan: &Plan, tr: &mut Tracer) -> Report {
    let w = &plan.workload;
    let mut s = Session {
        w,
        seeds: SplitMix64::new(plan.seed),
        tr,
        gate: Gate::default(),
        pacer: Pacer::default(),
    };

    // The same sub-seed twice must give the same outputs and spans.
    let sub_seed = s.seeds.next_u64();
    let mut once = || {
        run_one(
            w,
            sub_seed,
            false,
            s.tr,
            &mut Counts::default(),
            &mut |_| {},
        )
    };
    let (first, again) = (once(), once());
    s.gate.judge(w, sub_seed, &first);
    if (first.fingerprint, first.sent, first.got) != (again.fingerprint, again.sent, again.got) {
        s.gate.failed += first.sent.max(1);
        s.gate.failures.push(format!(
            "{} seed={sub_seed}: two runs of one sub-seed differ ({:#x} vs {:#x})",
            w.name, first.fingerprint, again.fingerprint
        ));
    }

    let mut warmup = Measured::default();
    for _ in 0..WARMUP_REPS {
        repetition(&mut s, &mut warmup, false);
    }

    let mut m = Measured::default();
    let budget = Duration::from_secs_f64(plan.seconds.max(0.0));
    let start = Instant::now();
    while m.reps.len() < MIN_REPS || start.elapsed() < budget {
        let traced = plan.trace && m.reps.len() % 2 == 0;
        repetition(&mut s, &mut m, traced);
    }
    let Session { tr, gate, .. } = s;

    let values = if plan.trace {
        per_layer(w, &m, tr)
    } else {
        end_to_end(&m)
    };
    let metrics = values
        .into_iter()
        .map(|(name, unit, v)| (name, unit, if v.is_finite() { v } else { 0.0 }))
        .collect();
    Report {
        correct: gate.failures.is_empty(),
        attempted: gate.attempted.max(1),
        failed: gate.failed,
        metrics,
        failures: gate.failures,
    }
}

/// `f` of every repetition.
fn over_reps(m: &Measured, f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    m.reps.iter().map(f).collect()
}

/// The median over repetitions of `f`.
fn median_of(m: &Measured, f: impl Fn(&Rep) -> f64) -> f64 {
    median(&over_reps(m, f))
}

/// The sum over repetitions of `f`.
fn total_of(m: &Measured, f: impl Fn(&Rep) -> u64) -> f64 {
    m.reps.iter().map(|r| f(r) as f64).sum()
}

/// The `--trace 0` metrics, in `BENCHMARK.json` order.
fn end_to_end(m: &Measured) -> Vec<Metric> {
    let per_msg = |n: u64, r: &Rep| ratio(n as f64, r.msgs as f64);
    vec![
        ("msgs_per_kref", "1/kref", median_of(m, Rep::msgs_per_kref)),
        (
            "msgs_per_host_sec",
            "1/s",
            quantile(&over_reps(m, Rep::msgs_per_sec), UNDISTURBED_QUANTILE),
        ),
        (
            "allocs_per_msg",
            "count",
            median_of(m, |r| per_msg(r.run_alloc.allocs, r)),
        ),
        (
            "alloc_bytes_per_msg",
            "B",
            median_of(m, |r| per_msg(r.run_alloc.bytes, r)),
        ),
        (
            "peak_heap_mb",
            "MB",
            median_of(m, |r| r.peak_bytes as f64 / 1e6),
        ),
        (
            "virt_deliver_us",
            "us",
            ratio(m.counts.deliver_us, m.counts.deliver_n as f64),
        ),
        ("setup_s", "s", median(&m.setup_s)),
    ]
}

/// The `--trace 1` metrics, in `BENCHMARK.json` order.
fn per_layer(w: &Workload, m: &Measured, tr: &Tracer) -> Vec<Metric> {
    let c = &m.counts;
    let msgs = total_of(m, |r| r.msgs);
    let run_ns = total_of(m, |r| r.run_ns);
    let worlds = c.worlds.max(1);
    let (events, frames) = (c.events as f64, c.frames as f64);
    let per_msg = |n: u64| ratio(n as f64, msgs);
    let per_kmsg = |n: u64| ratio(n as f64 * 1e3, msgs);

    // Layer kernels, sized from this run's own counts per world.
    let depth = ratio(c.peak_pending_weighted, events);
    let sched_hold_ns = kernels::sched_hold_ns(depth.round() as usize, c.scheduled / worlds);
    let frame_bytes = c.mean_frame_bytes();
    let lan_ns = kernels::lan_ns_per_frame(w.medium, w.topology, frame_bytes, c.frames / worlds);
    let append_ns = kernels::store_append_ns(c.mean_payload_bytes(), c.appends / worlds);
    let span_ns = kernels::span_record_ns(c.spans / worlds);
    // Modelled share of the run: kernel cost × the run's own op count.
    let share = |ns_per_op: f64, ops: u64| ratio(ns_per_op * ops as f64, run_ns);
    let sched_share = share(sched_hold_ns, c.scheduled);
    let lan_share = share(lan_ns, c.frames);
    let store_share = share(append_ns, c.appends);
    let span_share = share(span_ns, c.spans);
    let coverage = sched_share + lan_share + store_share + span_share;
    let ns_per_event = ratio(run_ns, events);

    // Spans exist for the traced repetitions only. A search's own worlds
    // are built inside `find_knee`; its shares come from the knee-point
    // trial run again span by span.
    let span_ns_of = |name: &str| tr.total(name).0 as f64;
    let workflow_ns: f64 = ["compile", "build", "run", "outputs", "report"]
        .iter()
        .map(|n| span_ns_of(n))
        .sum();
    let kref = |traced: bool| -> f64 {
        let reps = m.reps.iter().filter(|r| r.traced == traced);
        median(&reps.map(Rep::msgs_per_kref).collect::<Vec<f64>>())
    };

    vec![
        ("world.build_us", "us", tr.mean_us("build")),
        (
            "world.build_allocs",
            "count",
            ratio(m.build_allocs as f64, m.alloc_samples as f64),
        ),
        (
            "world.run_share",
            "ratio",
            ratio(span_ns_of("run"), workflow_ns),
        ),
        ("world.outputs_us", "us", tr.mean_us("outputs")),
        (
            "world.engine_ns_per_event",
            "ns",
            ns_per_event * (1.0 - coverage),
        ),
        ("world.model_coverage", "ratio", coverage),
        ("sim.events_per_msg", "count", ratio(events, msgs)),
        ("sim.ns_per_event", "ns", ns_per_event),
        (
            "sim.events_per_host_sec",
            "1/s",
            ratio(events * 1e9, run_ns),
        ),
        (
            "sim.allocs_per_event",
            "count",
            ratio(total_of(m, |r| r.run_alloc.allocs), events),
        ),
        ("sim.sched_peak_pending", "count", depth),
        (
            "sim.sched_fired_ratio",
            "ratio",
            ratio(events, c.scheduled as f64),
        ),
        ("sim.sched_hold_ns", "ns", sched_hold_ns),
        ("sim.sched_share", "ratio", sched_share),
        ("net.frames_per_msg", "count", per_msg(c.frames)),
        (
            "net.deliveries_per_frame",
            "count",
            ratio(c.deliveries as f64, frames),
        ),
        (
            "net.fanout_bytes_per_msg",
            "B",
            ratio(c.deliveries as f64 * frame_bytes, msgs),
        ),
        (
            "net.collisions_per_frame",
            "count",
            ratio(c.collisions as f64, frames),
        ),
        ("net.lan_ns_per_frame", "ns", lan_ns),
        ("net.lan_share", "ratio", lan_share),
        ("net.frame_ns", "ns", kernels::frame_ns(frame_bytes)),
        ("net.crc_mb_per_s", "MB/s", kernels::crc_mb_per_s()),
        ("demos.activations_per_msg", "count", per_msg(c.activations)),
        ("demos.xport_sent_per_msg", "count", per_msg(c.xport_sent)),
        ("demos.retransmits_per_msg", "count", per_msg(c.retransmits)),
        (
            "demos.dups_dropped_per_msg",
            "count",
            per_msg(c.dups_dropped),
        ),
        ("core.captured_per_msg", "count", per_msg(c.captured)),
        ("core.notices_per_msg", "count", per_msg(c.notices)),
        (
            "core.checkpoints_per_kmsg",
            "count",
            per_kmsg(c.checkpoints),
        ),
        (
            "core.recoveries",
            "count",
            ratio(c.recoveries as f64, worlds as f64),
        ),
        (
            "core.replayed_per_recovery",
            "count",
            ratio(c.replayed as f64, c.recoveries as f64),
        ),
        (
            "core.virt_recovery_ms",
            "ms",
            ratio(c.recovery_ms, c.recovery_windows as f64),
        ),
        ("stable.appends_per_msg", "count", per_msg(c.appends)),
        ("stable.pages_per_kmsg", "count", per_kmsg(c.pages)),
        ("stable.disk_bytes_per_msg", "B", per_msg(c.disk_bytes)),
        ("stable.append_ns", "ns", append_ns),
        ("stable.share", "ratio", store_share),
        ("obs.spans_per_msg", "count", per_msg(c.spans)),
        ("obs.span_record_ns", "ns", span_ns),
        ("obs.span_share", "ratio", span_share),
        ("obs.report_us", "us", tr.mean_us("report")),
        (
            "obs.report_allocs",
            "count",
            ratio(m.report_allocs as f64, m.alloc_samples as f64),
        ),
        (
            "shard.gating_stalls_per_kmsg",
            "count",
            per_kmsg(c.gating_stalls),
        ),
        (
            "quorum.elections",
            "count",
            ratio(c.elections as f64, worlds as f64),
        ),
        (
            "quorum.virt_commit_us",
            "us",
            ratio(c.commit_us, c.commits as f64),
        ),
        ("chaos.oracle_us", "us", tr.mean_us("oracle")),
        (
            "chaos.faults_injected",
            "count",
            ratio(c.faults_injected as f64, worlds as f64),
        ),
        ("workload.compile_us", "us", tr.mean_us("compile")),
        (
            "workload.trials_per_search",
            "count",
            ratio(m.trials as f64, m.searches as f64),
        ),
        (
            "workload.knee_users",
            "count",
            ratio(m.knee_users as f64, m.searches as f64),
        ),
        (
            "workload.ms_per_trial",
            "ms",
            if m.trials > 0 {
                ratio(run_ns / 1e6, m.trials as f64)
            } else {
                0.0
            },
        ),
        ("bench.reps", "count", m.reps.len() as f64),
        (
            "bench.rep_ms_p90",
            "ms",
            quantile(&over_reps(m, |r| r.run_ns as f64 / 1e6), 0.9),
        ),
        (
            "bench.ref_mops",
            "1/us",
            median_of(m, |r| r.ref_ops_per_sec) / 1e6,
        ),
        (
            "bench.trace_overhead_pct",
            "%",
            (ratio(kref(false), kref(true)) - 1.0) * 100.0,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ALL;

    /// The string values of `field` in the objects of one top-level array
    /// of `BENCHMARK.json`, in order (the file is flat enough for a
    /// bracket scan).
    fn fields_in(json: &str, key: &str, field: &str) -> Vec<String> {
        let at = json.find(&format!("\"{key}\"")).expect(key);
        let open = at + json[at..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        json[open..close]
            .split(&format!("\"{field}\""))
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("value") + 1..];
                rest[..rest.find('"').expect("value end")].to_string()
            })
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json beside hostbench/")
    }

    #[test]
    fn printed_names_and_units_equal_benchmark_json_for_both_trace_values() {
        let json = benchmark_json();
        let workloads: Vec<&str> = ALL.iter().map(|w| w.name).collect();
        assert_eq!(fields_in(&json, "workloads", "name"), workloads);
        for w in &ALL {
            for trace in [false, true] {
                // One world per repetition keeps the debug-build test short.
                let plan = Plan {
                    workload: Workload { per_rep: 1, ..*w },
                    seed: 1,
                    seconds: 0.0,
                    trace,
                };
                let report = run(&plan, &mut Tracer::new());
                assert!(report.correct, "{}: {:?}", w.name, report.failures);
                assert_eq!(report.failed, 0);
                let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
                let units: Vec<&str> = report.metrics.iter().map(|m| m.1).collect();
                let key = if trace { "per_layer" } else { "end_to_end" };
                assert_eq!(fields_in(&json, key, "name"), names, "{} {key}", w.name);
                assert_eq!(fields_in(&json, key, "unit"), units, "{} {key}", w.name);
                if !trace {
                    for (name, _, v) in &report.metrics {
                        assert!(*v > 0.0, "{}: {name} = {v}", w.name);
                    }
                }
            }
        }
    }

    #[test]
    fn rep_rates_divide_out() {
        let r = Rep {
            traced: false,
            run_ns: 500_000_000,
            msgs: 1_000,
            ref_ops_per_sec: 4e6,
            run_alloc: Totals::default(),
            peak_bytes: 0,
        };
        assert_eq!(r.msgs_per_sec(), 2_000.0);
        assert_eq!(r.msgs_per_kref(), 0.5);
    }
}
