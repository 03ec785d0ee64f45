//! The frozen reference kernel: a fixed amount of pure-CPU work shaped
//! like the simulator's hot path (binary-heap hold, 1 KiB payload copy,
//! one small box per operation), timed right after every repetition.
//!
//! Dividing a repetition's message rate by the reference rate measured
//! beside it cancels most of what the shared box does to both (clock
//! drift, a noisy neighbour on the other core), which is what makes
//! `msgs_per_kref` steadier than the raw rate. The kernel must therefore
//! never change: a later PR that edits it changes the unit every earlier
//! number was reported in. [`CHECKSUM`] pins the operation sequence.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Operations (one hold + one copy + one box) per kernel run.
pub const OPS: u64 = 49_152;
/// Pending entries held in the heap throughout.
const DEPTH: u64 = 512;
/// The value [`run`] must return.
pub const CHECKSUM: u64 = 15_363_929_112_190_501_397;

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// Runs the kernel once and returns its checksum.
pub fn run() -> u64 {
    let mut heap = BinaryHeap::with_capacity(DEPTH as usize + 1);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for id in 0..DEPTH {
        x = lcg(x);
        heap.push(Reverse((x >> 44, id)));
    }
    let mut src = [0u8; 1024];
    for (i, b) in src.iter_mut().enumerate() {
        *b = i as u8;
    }
    let mut dst = [0u8; 1024];
    let mut sum = 0u64;
    for i in 0..OPS {
        let Reverse((at, id)) = heap.pop().expect("heap holds DEPTH entries");
        x = lcg(x);
        let cell = black_box(Box::new((at, id, x)));
        src[(i & 1023) as usize] = (cell.2 >> 56) as u8;
        dst.copy_from_slice(black_box(&src));
        sum = sum.rotate_left(5) ^ cell.0 ^ cell.1 ^ u64::from(dst[(cell.2 & 1023) as usize]);
        heap.push(Reverse((at + 1 + (cell.2 >> 46), id)));
    }
    sum
}

/// Times one kernel run; returns its length in ns.
///
/// # Panics
///
/// Panics if the checksum is wrong: the kernel was edited or miscompiled,
/// and every `msgs_per_kref` would silently be in a different unit.
pub fn timed_ns() -> u64 {
    let t = Instant::now();
    let sum = run();
    let ns = t.elapsed().as_nanos() as u64;
    assert_eq!(sum, CHECKSUM, "reference kernel checksum changed");
    ns
}

/// Reference-kernel time spread through a repetition: one kernel run is
/// owed for every [`Pacer::EVERY_NS`] of timed work, and taken as soon as
/// the timed region that earned it ends. Interference on the shared box
/// comes in bursts of milliseconds; a reference sampled as widely as the
/// work it is compared with sees the same bursts.
#[derive(Debug, Default)]
pub struct Pacer {
    owed_ns: u64,
    runs: u64,
    ref_ns: u64,
}

impl Pacer {
    /// Timed work per reference run (the reference then costs ≈1/8 of
    /// the timed work).
    pub const EVERY_NS: u64 = 20_000_000;

    /// Accounts `timed_ns` of finished timed work and runs the kernel as
    /// often as is now owed.
    pub fn after_timed(&mut self, timed_ns: u64) {
        self.owed_ns += timed_ns;
        while self.owed_ns >= Self::EVERY_NS {
            self.owed_ns -= Self::EVERY_NS;
            self.sample();
        }
    }

    fn sample(&mut self) {
        self.ref_ns += timed_ns();
        self.runs += 1;
    }

    /// Ends a repetition: returns the reference rate (operations per
    /// second) over its samples — taking one now if none was owed — and
    /// starts the next repetition's account. Unspent timed work carries
    /// over.
    pub fn finish_rep(&mut self) -> f64 {
        if self.runs == 0 {
            self.sample();
        }
        let rate = (self.runs * OPS) as f64 * 1e9 / self.ref_ns as f64;
        (self.runs, self.ref_ns) = (0, 0);
        rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_frozen() {
        assert_eq!(run(), CHECKSUM);
    }

    #[test]
    fn pacer_owes_one_run_per_quantum_and_never_reports_an_empty_rep() {
        let mut p = Pacer::default();
        p.after_timed(Pacer::EVERY_NS / 2);
        assert_eq!(p.runs, 0);
        p.after_timed(Pacer::EVERY_NS * 2);
        assert_eq!((p.runs, p.owed_ns), (2, Pacer::EVERY_NS / 2));
        let r = p.finish_rep();
        assert!(r.is_finite() && r > 0.0);
        assert_eq!((p.runs, p.ref_ns, p.owed_ns), (0, 0, Pacer::EVERY_NS / 2));
        let r = p.finish_rep();
        assert!(
            r.is_finite() && r > 0.0,
            "a rep that owed nothing still samples once"
        );
    }
}
