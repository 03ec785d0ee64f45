//! `hostbench`: the repository's host-speed benchmark.
//!
//! ```text
//! hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hostbench --health <n>
//! ```
//!
//! The first form measures one workload and prints, as the last line of
//! standard output, one JSON object `{correct, attempted, failed,
//! metrics}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1` (which also writes the spans to
//! `hostbench/out/trace-<workload>-<seed>.json`). The second form runs
//! `n` sub-seeded worlds per workload untimed and lists every one that
//! violates the correctness gate. Human-readable output goes to standard
//! error. See `README.md`.

mod alloc;
mod bench;
mod facade;
mod kernels;
mod refkernel;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static METER: alloc::Meter = alloc::Meter;

const USAGE: &str = "usage: hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
                     \x20      hostbench --health <n>";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    health: Option<u64>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seconds: 15.0,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag}: missing value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.to_string()),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err(bad(&"expected 0..=600"));
                }
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--health" => args.health = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn find_workload(name: &str) -> Result<&'static workloads::Workload, String> {
    workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })
}

/// The one-line JSON result.
fn result_line(r: &bench::Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn write_trace(tr: &trace::Tracer, workload: &str, seed: u64) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}-{seed}.json"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tr.write_chrome(&mut out)?;
    out.flush()?;
    Ok(path)
}

fn measure(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().ok_or("missing --workload")?;
    let plan = bench::Plan {
        workload: *find_workload(name)?,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let mut tr = trace::Tracer::new();
    let report = bench::run(&plan, &mut tr);

    eprintln!(
        "hostbench {name} seed={} seconds={} trace={}\n  why: {}",
        args.seed, args.seconds, args.trace as u8, plan.workload.why
    );
    for (metric, unit, v) in &report.metrics {
        eprintln!("  {metric:<32} {v:>18.6} {unit}");
    }
    for f in &report.failures {
        eprintln!("  FAIL {f}");
    }
    if args.trace {
        let path = write_trace(&tr, name, args.seed).map_err(|e| format!("trace file: {e}"))?;
        eprintln!("  {} spans -> {}", tr.spans().len(), path.display());
    }
    println!("{}", result_line(&report));
    Ok(ExitCode::SUCCESS)
}

/// `--health N`: the first N sub-seeds of `--seed 0` on every workload
/// through the full gate (twin oracle included), untimed; a panicking
/// world is a violation.
fn health(n: u64) -> ExitCode {
    std::panic::set_hook(Box::new(|_| {}));
    let mut bad = 0u64;
    for w in &workloads::ALL {
        let mut seeds = stats::SplitMix64::new(0);
        let mut violations = 0u64;
        for _ in 0..n {
            let sub_seed = seeds.next_u64();
            let outcome = std::panic::catch_unwind(|| {
                let mut tr = trace::Tracer::new();
                let mut counts = facade::Counts::default();
                facade::run_one(w, sub_seed, true, &mut tr, &mut counts, &mut |_| {})
            });
            let failures = match outcome {
                Ok(o) => o.failures,
                Err(p) => {
                    let msg = p
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| p.downcast_ref::<&str>().copied())
                        .unwrap_or("non-string panic");
                    vec![format!("panic: {msg}")]
                }
            };
            if !failures.is_empty() {
                violations += 1;
                let (spec, schedule) = w.literals(sub_seed);
                println!("{}: {spec} | {schedule}", w.name);
                for f in failures {
                    println!("    {f}");
                }
            }
        }
        println!("{}: {n} worlds, {violations} violate the gate", w.name);
        bad += violations;
    }
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match args.health {
        Some(n) => Ok(health(n)),
        None => measure(&args),
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload steady_bus --seed 7 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("steady_bus"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.health),
            (7, 15.0, true, None)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--seed x")).is_err());
        assert!(parse_args(&argv("--seconds -1")).is_err());
        assert!(parse_args(&argv("--frobnicate 1")).is_err());
        assert!(find_workload("nope").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&bench::Report {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s", "s", 0.25), ("x.y", "ns", 3.0)],
            failures: vec![],
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"x.y\": {\"value\": 3, \"unit\": \"ns\"}}}"
        );
    }
}
