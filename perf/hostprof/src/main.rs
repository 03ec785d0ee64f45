//! `hostprof`: where `hostbench`'s workloads spend their host time.
//!
//! ```text
//! hostprof --workload <name> [--seed <n>] [--seconds <s>] [--hz <n> | --allocs <n>]
//!          [--phase run|report]
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
//! `--phase report` times each world's `obs_report` instead, after an
//! untimed `run_schedule` (a search has no report of its own to time, so
//! `knee_search` refuses it); the stacks go to
//! `<workload>-<seed>-report.txt`. Either phase prints the highest live
//! heap during a run, what the world still held when its report began
//! and the highest live heap during the report (the worst world of
//! each), and writes them into the header line.
//!
//! `--allocs <n>` asks *who allocates* instead of *where time goes*: no
//! timer; the program's counting `#[global_allocator]` takes the same
//! `backtrace` at every `n`-th allocation (`alloc`, `alloc_zeroed`, a
//! growing `realloc` — what `hostbench` counts as `allocs_per_msg`)
//! inside the timed regions, and the total is written beside the stacks.
//! A prime `n` (211) keeps the sampling out of step with per-message
//! patterns. `hostprof.py --per-msg <allocs_per_msg>` turns the shares
//! into allocations per message by call site (DESIGN.md §22).
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
use std::alloc::{GlobalAlloc, Layout, System};
use std::ffi::{c_int, c_void};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use workloads::{Kind, Workload, MAX_USERS};

const USAGE: &str = "usage: hostprof --workload <name> [--seed <n>] [--seconds <s>] \
                     [--hz <n> | --allocs <n>] [--phase run|report]";

/// Return addresses kept per sample, innermost first, after the frames
/// of the sampling itself.
const DEPTH: usize = 62;
/// `backtrace` also reports the handler and the signal trampoline. (The
/// allocator hook skips nothing: how much of it is inlined is the
/// optimiser's business, so the resolver drops its frames by name.)
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

/// `--allocs <n>`: every how many allocations a stack is taken (0: time
/// mode, the allocator only forwards).
static ALLOC_EVERY: AtomicUsize = AtomicUsize::new(0);
/// Allocations counted inside timed regions in `--allocs` mode.
static ALLOCS: AtomicUsize = AtomicUsize::new(0);
/// Set while the allocator hook takes a stack, so an allocation made on
/// its behalf is neither counted nor sampled.
static IN_HOOK: AtomicBool = AtomicBool::new(false);
/// Bytes allocated and not yet freed (`Layout` sizes, as `hostbench`'s
/// meter counts them), and the highest value since [`reset_peak`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting: in `--allocs` mode every `n`-th
/// allocation inside a timed region leaves its stack in the sample
/// buffer.
struct Counting;

/// What `hostbench`'s meter counts as one allocation.
#[inline]
fn count_allocation() {
    let every = ALLOC_EVERY.load(Ordering::Relaxed);
    if every == 0 || !SAMPLING.load(Ordering::Relaxed) || IN_HOOK.swap(true, Ordering::Relaxed) {
        return;
    }
    if ALLOCS.fetch_add(1, Ordering::Relaxed) % every == 0 {
        record_stack(0);
    }
    IN_HOOK.store(false, Ordering::Relaxed);
}

/// Live heap grew by `bytes`.
#[inline]
fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Live heap shrank by `bytes` (all of it allocated here: this
/// allocator serves the process from its start).
#[inline]
fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// Restarts peak tracking from the current live heap, which it returns.
fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

// SAFETY: every method forwards to `System` with the arguments it was
// given, so `System`'s guarantees are this allocator's; the counting
// beside it touches only atomics and the leaked sample buffer and never
// the memory being handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller's contract for `alloc`, passed on unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller's contract for `alloc_zeroed`, unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            count_allocation();
        }
        // SAFETY: the caller's contract for `realloc`, passed on unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size > layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed on unchanged.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

extern "C" fn on_sigprof(_signum: c_int) {
    if SAMPLING.load(Ordering::Relaxed) {
        record_stack(SKIP);
    }
}

/// Takes the current call stack, less its `skip` innermost frames, into
/// the next slot of the sample buffer. Called from the `SIGPROF` handler
/// (time mode) or from the allocator hook (`--allocs`), never both in
/// one run; always inlined, so it adds no frame of its own to skip.
#[inline(always)]
fn record_stack(skip: usize) {
    let at = TAKEN.fetch_add(1, Ordering::Relaxed);
    let buffer = BUFFER.load(Ordering::Relaxed);
    if at >= MAX_SAMPLES || buffer.is_null() {
        return;
    }
    let mut frames = [std::ptr::null_mut::<c_void>(); SKIP + DEPTH];
    // SAFETY: `frames` has room for the `SKIP + DEPTH` entries asked for.
    // `backtrace` is not formally async-signal-safe — its first call may
    // load libgcc (and allocate) — so `main` calls it once before any
    // sample can be taken; from then on it only walks unwind tables and
    // writes into `frames`.
    let n = unsafe { backtrace(frames.as_mut_ptr(), (SKIP + DEPTH) as c_int) };
    let kept = (n.max(0) as usize).saturating_sub(skip).min(DEPTH);
    // SAFETY: `buffer` points at `MAX_SAMPLES * STRIDE` words that live
    // for the whole process, `at < MAX_SAMPLES`, `kept <= DEPTH`, and the
    // one thread of this program is the only writer (the handler does
    // not nest: SIGPROF is blocked while it runs; the allocator hook does
    // not nest: `IN_HOOK` is set; and a run arms only one of them).
    unsafe {
        let slot = buffer.add(at * STRIDE);
        slot.write(kept);
        for (i, frame) in frames[skip..skip + kept].iter().enumerate() {
            slot.add(1 + i).write(*frame as usize);
        }
    }
}

/// Allocates the sample buffer, warms `backtrace` up, and arms the one
/// sampler the run uses: the allocator hook every `allocs`-th allocation
/// if that is not 0, the `SIGPROF` timer at `hz` otherwise.
fn start_sampler(hz: u64, allocs: usize) {
    let buffer: &'static mut [usize] =
        Box::leak(vec![0usize; MAX_SAMPLES * STRIDE].into_boxed_slice());
    BUFFER.store(buffer.as_mut_ptr(), Ordering::Relaxed);
    let mut warm = [std::ptr::null_mut::<c_void>(); 4];
    if allocs != 0 {
        // SAFETY: `warm` has room for the 4 entries asked for.
        unsafe { backtrace(warm.as_mut_ptr(), 4) };
        ALLOC_EVERY.store(allocs, Ordering::Relaxed);
        return;
    }
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

/// The highest live heap, in bytes, of the worst world so far: during
/// its build and run (or its search), when its report began, and during
/// the report. Each is counted from the live heap before the world was
/// built, so the sample buffer and everything else that outlives a world
/// are left out.
#[derive(Default)]
struct Heap {
    run: usize,
    held: usize,
    report: usize,
}

impl Heap {
    fn header(&self) -> String {
        let mb = |b: usize| b as f64 / 1e6;
        format!(
            "run_peak_mb={:.4} held_mb={:.4} report_peak_mb={:.4}",
            mb(self.run),
            mb(self.held),
            mb(self.report)
        )
    }
}

/// One world (or one search) of `w`, as `hostbench`'s facade makes it;
/// `report` times the world's `obs_report` instead of its run.
fn one(w: &Workload, sub_seed: u64, report: bool, spent: &mut Duration, heap: &mut Heap) {
    let (spec, schedule) = w.literals(sub_seed);
    let spec: WorkloadSpec = spec.parse().expect("workload literal");
    let compiled = CompiledWorkload::new(spec.clone());
    let floor = reset_peak();
    let above = |bytes: usize| bytes.saturating_sub(floor);
    match w.kind {
        Kind::Run => {
            let schedule: FaultSchedule = schedule.parse().expect("schedule literal");
            let mut scenario = Scenario::new(w.topology, spec.seed);
            scenario.medium = w.medium;
            let mut world = scenario.build_with(&compiled);
            if report {
                run_schedule(world.as_mut(), &schedule);
            } else {
                timed(spent, || run_schedule(world.as_mut(), &schedule));
            }
            heap.run = heap.run.max(above(PEAK.load(Ordering::Relaxed)));
            heap.held = heap.held.max(above(reset_peak()));
            if report {
                std::hint::black_box(timed(spent, || world.obs_report()));
                heap.report = heap.report.max(above(PEAK.load(Ordering::Relaxed)));
            }
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
            heap.run = heap.run.max(above(PEAK.load(Ordering::Relaxed)));
            std::hint::black_box(knee.knee_users);
        }
    }
}

/// Writes the samples; `mode` is how they were taken, as header fields.
fn write_samples(
    w: &Workload,
    seed: u64,
    phase: &str,
    mode: &str,
    spent: Duration,
    worlds: u64,
    heap: &Heap,
) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let suffix = if phase == "report" { "-report" } else { "" };
    let path = dir.join(format!("{}-{seed}{suffix}.txt", w.name));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let taken = TAKEN.load(Ordering::Relaxed);
    let kept = taken.min(MAX_SAMPLES);
    writeln!(
        out,
        "# hostprof workload={} seed={seed} phase={phase} {mode} timed_s={:.3} worlds={worlds} samples={kept} dropped={} {}",
        w.name,
        spent.as_secs_f64(),
        taken - kept,
        heap.header()
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
    let mut allocs_every = 0usize;
    let mut phase = "run";
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
            "--allocs" => value
                .parse()
                .map(|v| allocs_every = v)
                .is_ok_and(|()| allocs_every > 0),
            "--phase" => ["run", "report"]
                .into_iter()
                .find(|&p| p == value)
                .map(|p| phase = p)
                .is_some(),
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
    let report = phase == "report";
    if report && w.kind != Kind::Run {
        eprintln!(
            "--phase report: {} is a search, with no report of its own\n{USAGE}",
            w.name
        );
        return ExitCode::from(2);
    }

    start_sampler(hz, allocs_every);
    let mut sub_seeds = stats::SplitMix64::new(seed);
    let mut spent = Duration::ZERO;
    let mut worlds = 0u64;
    let mut heap = Heap::default();
    while spent.as_secs_f64() < seconds {
        one(w, sub_seeds.next_u64(), report, &mut spent, &mut heap);
        worlds += 1;
    }
    let stop = Itimerval {
        interval: Timeval { sec: 0, usec: 0 },
        value: Timeval { sec: 0, usec: 0 },
    };
    // SAFETY: a valid, all-zero `struct itimerval` disarms the timer.
    unsafe { setitimer(ITIMER_PROF, &stop, std::ptr::null_mut()) };

    ALLOC_EVERY.store(0, Ordering::Relaxed);

    // Time mode samples at `hz`; `--allocs` every `every`-th of `allocs`.
    let mode = match allocs_every {
        0 => format!("hz={hz}"),
        n => format!("every={n} allocs={}", ALLOCS.load(Ordering::Relaxed)),
    };
    match write_samples(w, seed, phase, &mode, spent, worlds, &heap) {
        Ok(path) => {
            let kept = TAKEN.load(Ordering::Relaxed).min(MAX_SAMPLES);
            let of = match allocs_every {
                0 => String::new(),
                _ => format!(" of {} allocations", ALLOCS.load(Ordering::Relaxed)),
            };
            eprintln!(
                "{}: {worlds} worlds, {:.1} s of {phase} timed, {kept} samples{of} -> {}",
                w.name,
                spent.as_secs_f64(),
                path.display()
            );
            eprintln!("{}: highest live heap {}", w.name, heap.header());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write samples: {e}");
            ExitCode::FAILURE
        }
    }
}
