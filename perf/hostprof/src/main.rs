//! `hostprof`: where `hostbench`'s workloads spend their host time.
//!
//! ```text
//! hostprof --workload <name> [--seed <n>] [--seconds <s>] [--hz <n>]
//! ```
//!
//! Runs the named `hostbench` workload — the same literals and the same
//! sub-seed stream, included from `hostbench/src/` so they cannot drift —
//! world after world until `--seconds` (default 12) of host time have
//! been spent inside `run_schedule` / `find_knee`, and samples the call
//! stack at `--hz` (default 250) of process CPU time *only while inside
//! them*: `setitimer(ITIMER_PROF)` raises `SIGPROF`, the handler calls
//! glibc's `backtrace` into a buffer allocated up front. The raw stacks
//! go to `perf/hostprof/out/<workload>-<seed>.txt` with the executable's
//! load address; `perf/hostprof.py` resolves them through `addr2line`
//! and prints the tables DESIGN.md §19–§21 are made of.
//!
//! Linux, x86-64/aarch64 glibc only (the three `extern "C"` declarations
//! below are all it binds); std only.

#[allow(dead_code)]
#[path = "../../../hostbench/src/stats.rs"]
mod stats;
#[allow(dead_code)]
#[path = "../../../hostbench/src/workloads.rs"]
mod workloads;

use publishing_chaos::driver::run_schedule;
use publishing_chaos::{FaultSchedule, Scenario};
use publishing_obs::slo::SloSpec;
use publishing_workload::{find_knee, CompiledWorkload, SearchParams, WorkloadSpec};
use std::ffi::{c_int, c_void};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use workloads::{Kind, Workload, MAX_USERS};

const USAGE: &str = "usage: hostprof --workload <name> [--seed <n>] [--seconds <s>] [--hz <n>]";

/// Return addresses kept per sample, innermost first, after the two
/// frames of the signal delivery itself.
const DEPTH: usize = 62;
/// `backtrace` also reports the handler and the signal trampoline.
const SKIP: usize = 2;
/// Words per sample: a frame count, then the frames.
const STRIDE: usize = 1 + DEPTH;
/// Samples the buffer holds (a minute at 1 kHz); later ones are counted
/// as dropped.
const MAX_SAMPLES: usize = 60_000;

const ITIMER_PROF: c_int = 2;
const SIGPROF: c_int = 27;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Itimerval {
    interval: Timeval,
    value: Timeval,
}

extern "C" {
    fn setitimer(which: c_int, new: *const Itimerval, old: *mut Itimerval) -> c_int;
    fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    fn backtrace(buffer: *mut *mut c_void, size: c_int) -> c_int;
}

/// Whether the program is inside a timed region; the handler drops every
/// other tick.
static SAMPLING: AtomicBool = AtomicBool::new(false);
/// The sample buffer, `MAX_SAMPLES * STRIDE` words, leaked at start-up.
static BUFFER: AtomicPtr<usize> = AtomicPtr::new(std::ptr::null_mut());
/// Samples taken, including the ones the full buffer dropped.
static TAKEN: AtomicUsize = AtomicUsize::new(0);

extern "C" fn on_sigprof(_signum: c_int) {
    if !SAMPLING.load(Ordering::Relaxed) {
        return;
    }
    let at = TAKEN.fetch_add(1, Ordering::Relaxed);
    let buffer = BUFFER.load(Ordering::Relaxed);
    if at >= MAX_SAMPLES || buffer.is_null() {
        return;
    }
    let mut frames = [std::ptr::null_mut::<c_void>(); SKIP + DEPTH];
    // SAFETY: `frames` has room for the `SKIP + DEPTH` entries asked for.
    // `backtrace` is not formally async-signal-safe — its first call may
    // load libgcc — so `main` calls it once before the timer starts; from
    // then on it only walks unwind tables and writes into `frames`.
    let n = unsafe { backtrace(frames.as_mut_ptr(), (SKIP + DEPTH) as c_int) };
    let kept = (n.max(0) as usize).saturating_sub(SKIP);
    // SAFETY: `buffer` points at `MAX_SAMPLES * STRIDE` words that live
    // for the whole process, `at < MAX_SAMPLES`, `kept <= DEPTH`, and the
    // one thread of this program is the only writer (the handler does
    // not nest: SIGPROF is blocked while it runs).
    unsafe {
        let slot = buffer.add(at * STRIDE);
        slot.write(kept);
        for (i, frame) in frames[SKIP..SKIP + kept].iter().enumerate() {
            slot.add(1 + i).write(*frame as usize);
        }
    }
}

fn start_sampler(hz: u64) {
    let buffer: &'static mut [usize] =
        Box::leak(vec![0usize; MAX_SAMPLES * STRIDE].into_boxed_slice());
    BUFFER.store(buffer.as_mut_ptr(), Ordering::Relaxed);
    let mut warm = [std::ptr::null_mut::<c_void>(); 4];
    let tick = Timeval {
        sec: 0,
        usec: (1_000_000 / hz.max(1)) as i64,
    };
    let timer = Itimerval {
        interval: Timeval { ..tick },
        value: tick,
    };
    // SAFETY: `warm` has room for the 4 entries asked for; `on_sigprof`
    // is an `extern "C" fn(c_int)`, the handler type `signal` expects,
    // and touches only the atomics above and the leaked buffer; `timer`
    // is a valid `struct itimerval` (two `timeval`s of two longs each on
    // the 64-bit Linux targets this builds for) and the old value is not
    // asked for.
    unsafe {
        backtrace(warm.as_mut_ptr(), 4);
        signal(SIGPROF, on_sigprof);
        assert_eq!(
            setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()),
            0,
            "setitimer"
        );
    }
}

/// Runs `work` as a timed region: sampled, and counted into `spent`.
fn timed<T>(spent: &mut Duration, work: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    SAMPLING.store(true, Ordering::Relaxed);
    let out = work();
    SAMPLING.store(false, Ordering::Relaxed);
    *spent += t.elapsed();
    out
}

/// One world (or one search) of `w`, as `hostbench`'s facade makes it.
fn one(w: &Workload, sub_seed: u64, spent: &mut Duration) {
    let (spec, schedule) = w.literals(sub_seed);
    let spec: WorkloadSpec = spec.parse().expect("workload literal");
    let compiled = CompiledWorkload::new(spec.clone());
    match w.kind {
        Kind::Run => {
            let schedule: FaultSchedule = schedule.parse().expect("schedule literal");
            let mut scenario = Scenario::new(w.topology, spec.seed);
            scenario.medium = w.medium;
            let mut world = scenario.build_with(&compiled);
            timed(spent, || run_schedule(world.as_mut(), &schedule));
            std::hint::black_box(world.output_fingerprint());
        }
        Kind::KneeSearch => {
            let params = SearchParams {
                max_users: MAX_USERS,
                chaos: false,
                medium: w.medium,
                ..SearchParams::default()
            };
            let knee = timed(spent, || {
                find_knee(w.name, w.topology, &spec, &SloSpec::default(), &params)
            });
            std::hint::black_box(knee.knee_users);
        }
    }
}

fn write_samples(
    w: &Workload,
    seed: u64,
    hz: u64,
    spent: Duration,
    worlds: u64,
) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-{seed}.txt", w.name));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let taken = TAKEN.load(Ordering::Relaxed);
    let kept = taken.min(MAX_SAMPLES);
    writeln!(
        out,
        "# hostprof workload={} seed={seed} hz={hz} timed_s={:.3} worlds={worlds} samples={kept} dropped={}",
        w.name,
        spent.as_secs_f64(),
        taken - kept
    )?;
    writeln!(out, "# exe {}", std::env::current_exe()?.display())?;
    // What turns a sampled address back into an offset in a file: the
    // executable's load address (its lowest mapping, the first line) and
    // every executable mapping.
    let maps = std::fs::read_to_string("/proc/self/maps")?;
    let base = maps.split('-').next().unwrap_or("0");
    writeln!(out, "# base {base}")?;
    for line in maps.lines() {
        if line
            .split_whitespace()
            .nth(1)
            .is_some_and(|p| p.contains('x'))
        {
            writeln!(out, "# map {line}")?;
        }
    }
    let buffer = BUFFER.load(Ordering::Relaxed);
    for at in 0..kept {
        // SAFETY: the timer is stopped and sampling is off, so nothing
        // writes the buffer any more; `at < MAX_SAMPLES` and the frame
        // count the handler stored is at most `DEPTH`.
        let sample = unsafe { std::slice::from_raw_parts(buffer.add(at * STRIDE), STRIDE) };
        let frames: Vec<String> = sample[1..=sample[0]]
            .iter()
            .map(|a| format!("{a:x}"))
            .collect();
        writeln!(out, "{}", frames.join(" "))?;
    }
    out.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut name, mut seed, mut seconds, mut hz) = (None, 11u64, 12.0f64, 250u64);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().map(String::as_str).unwrap_or("");
        let ok = match flag.as_str() {
            "--workload" => {
                name = Some(value.to_string());
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok(),
            "--hz" => value
                .parse()
                .map(|v| hz = v)
                .is_ok_and(|()| (1..=1000).contains(&hz)),
            _ => false,
        };
        if !ok {
            eprintln!("{flag} {value}: bad argument\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    let Some(w) = name.as_deref().and_then(workloads::by_name) else {
        let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        eprintln!("{USAGE}\nworkloads: {}", known.join(", "));
        return ExitCode::from(2);
    };

    start_sampler(hz);
    let mut sub_seeds = stats::SplitMix64::new(seed);
    let mut spent = Duration::ZERO;
    let mut worlds = 0u64;
    while spent.as_secs_f64() < seconds {
        one(w, sub_seeds.next_u64(), &mut spent);
        worlds += 1;
    }
    let stop = Itimerval {
        interval: Timeval { sec: 0, usec: 0 },
        value: Timeval { sec: 0, usec: 0 },
    };
    // SAFETY: a valid, all-zero `struct itimerval` disarms the timer.
    unsafe { setitimer(ITIMER_PROF, &stop, std::ptr::null_mut()) };

    match write_samples(w, seed, hz, spent, worlds) {
        Ok(path) => {
            let kept = TAKEN.load(Ordering::Relaxed).min(MAX_SAMPLES);
            eprintln!(
                "{}: {worlds} worlds, {:.1} s timed, {kept} samples -> {}",
                w.name,
                spent.as_secs_f64(),
                path.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write samples: {e}");
            ExitCode::FAILURE
        }
    }
}
