//! A simulated disk with the Figure 5.2 service model.
//!
//! Service time for an operation is a fixed positioning latency (3 ms in
//! the paper's recorder) plus size divided by the transfer rate (2 MB/s).
//! Operations are FCFS; the disk is a single server, so queueing delay
//! emerges naturally under load — that queueing is what saturates first in
//! Figure 5.5 before the 4 KB buffering fix.

use publishing_sim::rng::DetRng;
use publishing_sim::stats::{Counter, Summary, Utilization};
use publishing_sim::table::{slot_mut, TokenTable};
use publishing_sim::time::{SimDuration, SimTime};

/// Disk service parameters.
#[derive(Debug, Clone)]
pub struct DiskParams {
    /// Fixed per-operation positioning latency (Fig 5.2: 3 ms).
    pub latency: SimDuration,
    /// Sustained transfer rate in bytes per second (Fig 5.2: 2 MB/s).
    pub bytes_per_sec: u64,
    /// Page size in bytes (the 4 KB buffering unit of §5.1).
    pub page_size: usize,
}

impl Default for DiskParams {
    fn default() -> Self {
        DiskParams {
            latency: SimDuration::from_millis(3),
            bytes_per_sec: 2_000_000,
            page_size: 4096,
        }
    }
}

impl DiskParams {
    /// Returns the service time for an operation moving `bytes`.
    pub fn service_time(&self, bytes: usize) -> SimDuration {
        let ns = (bytes as u64).saturating_mul(1_000_000_000) / self.bytes_per_sec;
        self.latency + SimDuration::from_nanos(ns)
    }
}

/// Injected disk failure modes, all off by default so a plain
/// [`Disk`] behaves exactly as before.
///
/// Transient errors model a controller hiccup: the operation occupies the
/// disk for its full service time but completes with
/// [`DiskResult::TransientError`] and no effect; the caller retries.
/// Torn writes model power loss mid-transfer: when the host crashes (see
/// [`Disk::crash_tear_inflight`]), each in-flight write leaves only a
/// prefix of its data on the page.
#[derive(Debug, Clone)]
pub struct DiskFaults {
    /// Probability an operation fails transiently.
    pub transient_error: f64,
    /// Whether a crash tears in-flight writes.
    pub torn_writes: bool,
    /// Seed for the disk's private fault stream.
    pub seed: u64,
}

impl Default for DiskFaults {
    fn default() -> Self {
        DiskFaults {
            transient_error: 0.0,
            torn_writes: false,
            seed: 0,
        }
    }
}

/// Identifies an outstanding disk operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IoToken(pub u64);

/// A disk request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskOp {
    /// Write `data` to `page` (data length at most the page size).
    Write {
        /// Target page number.
        page: u64,
        /// Bytes to store.
        data: Vec<u8>,
    },
    /// Read the contents of `page`.
    Read {
        /// Source page number.
        page: u64,
    },
}

/// The result handed back when an operation completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiskResult {
    /// A write became durable.
    Written {
        /// The page written.
        page: u64,
    },
    /// A read finished; empty pages read as an empty vector.
    Data {
        /// The page read.
        page: u64,
        /// Its contents at read time.
        data: Vec<u8>,
    },
    /// The operation failed transiently (injected fault) with no effect on
    /// the platter; the original operation is returned for resubmission.
    TransientError {
        /// The operation that failed.
        op: DiskOp,
    },
}

/// Counters and gauges a disk maintains.
#[derive(Debug, Default, Clone)]
pub struct DiskStats {
    /// Completed writes.
    pub writes: Counter,
    /// Completed reads.
    pub reads: Counter,
    /// Bytes written.
    pub bytes_written: Counter,
    /// Bytes read.
    pub bytes_read: Counter,
    /// Busy-time integrator (Fig 5.5a's utilization source).
    pub busy: Utilization,
    /// Per-operation response time (queueing + service), milliseconds.
    pub response_ms: Summary,
    /// Operations that failed transiently (injected).
    pub transient_errors: Counter,
    /// In-flight writes torn by a crash (injected).
    pub torn_writes: Counter,
}

struct Pending {
    op: DiskOp,
    submitted: SimTime,
    completes: SimTime,
    /// Fault draw fixed at submission: this operation will fail.
    fails: bool,
}

/// A single simulated disk.
///
/// The driver calls [`Disk::submit`], schedules an event at the returned
/// completion time, and then calls [`Disk::complete`].
pub struct Disk {
    params: DiskParams,
    /// Page contents by page number; `None` = never written or wiped.
    /// The store allocates the lowest free page, so the numbers are dense.
    pages: Vec<Option<Vec<u8>>>,
    /// In-flight operations by the [`IoToken`] they were issued. A single
    /// server completes them in near-submission order, so the table's
    /// window stays as short as the queue.
    pending: TokenTable<Pending>,
    busy_until: SimTime,
    stats: DiskStats,
    faults: DiskFaults,
    fault_rng: DetRng,
}

impl Disk {
    /// Creates an empty disk.
    pub fn new(params: DiskParams) -> Self {
        Disk {
            params,
            pages: Vec::new(),
            pending: TokenTable::new(),
            busy_until: SimTime::ZERO,
            stats: DiskStats::default(),
            faults: DiskFaults::default(),
            fault_rng: DetRng::new(0xD15C),
        }
    }

    /// Installs injected failure modes (and reseeds the fault stream).
    /// The default [`DiskFaults`] restores fault-free behaviour.
    pub fn set_faults(&mut self, faults: DiskFaults) {
        self.fault_rng = DetRng::new(faults.seed ^ 0xD15C);
        self.faults = faults;
    }

    /// Returns the service parameters.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Returns the installed failure modes.
    pub fn faults(&self) -> &DiskFaults {
        &self.faults
    }

    /// Returns the disk's counters.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Returns the number of in-flight operations.
    pub fn queue_depth(&self) -> usize {
        self.pending.len()
    }

    /// Submits an operation at time `now`; returns the token and the time
    /// the operation will complete (FCFS behind earlier submissions).
    ///
    /// # Panics
    ///
    /// Panics if a write exceeds the page size.
    pub fn submit(&mut self, now: SimTime, op: DiskOp) -> (IoToken, SimTime) {
        let bytes = match &op {
            DiskOp::Write { data, .. } => {
                assert!(
                    data.len() <= self.params.page_size,
                    "write of {} bytes exceeds page size {}",
                    data.len(),
                    self.params.page_size
                );
                data.len()
            }
            // Reads always move a whole page.
            DiskOp::Read { .. } => self.params.page_size,
        };
        let start = now.max(self.busy_until);
        let completes = start + self.params.service_time(bytes);
        self.stats.busy.set_busy(start);
        self.busy_until = completes;
        // The fault draw happens at submission (and only when injection is
        // on, so fault-free disks consume no randomness).
        let fails =
            self.faults.transient_error > 0.0 && self.fault_rng.chance(self.faults.transient_error);
        let token = self.pending.insert(Pending {
            op,
            submitted: now,
            completes,
            fails,
        });
        (IoToken(token), completes)
    }

    /// Completes an operation; the driver must call this exactly at (or
    /// after) the completion time returned by [`Disk::submit`].
    ///
    /// # Panics
    ///
    /// Panics if the token is unknown or completion is early.
    pub fn complete(&mut self, now: SimTime, token: IoToken) -> DiskResult {
        let p = self.pending.take(token.0).expect("unknown disk token");
        assert!(
            now >= p.completes,
            "early completion: {now} < {}",
            p.completes
        );
        self.stats
            .response_ms
            .record(p.completes.saturating_since(p.submitted).as_millis_f64());
        if self.pending.is_empty() && now >= self.busy_until {
            self.stats.busy.set_idle(self.busy_until);
        }
        if p.fails {
            self.stats.transient_errors.inc();
            return DiskResult::TransientError { op: p.op };
        }
        match p.op {
            DiskOp::Write { page, data } => {
                self.stats.writes.inc();
                self.stats.bytes_written.add(data.len() as u64);
                self.store_page(page, data);
                DiskResult::Written { page }
            }
            DiskOp::Read { page } => {
                self.stats.reads.inc();
                let data = self.peek_page(page).map(<[u8]>::to_vec).unwrap_or_default();
                self.stats.bytes_read.add(data.len() as u64);
                DiskResult::Data { page, data }
            }
        }
    }

    /// Peeks at a page's current durable contents without timing cost.
    ///
    /// This is the "open the disk pack in the lab" operation used by
    /// rebuild logic and assertions, not by the simulated dataflow.
    pub fn peek_page(&self, page: u64) -> Option<&[u8]> {
        let slot = self.pages.get(usize::try_from(page).ok()?)?;
        slot.as_deref()
    }

    fn store_page(&mut self, page: u64, data: Vec<u8>) {
        *slot_mut(&mut self.pages, page as usize) = Some(data);
    }

    /// Iterates every page ever written and not wiped — erased (empty)
    /// ones included — in page order (for rebuild scans).
    pub fn pages(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(page, data)| Some((page as u64, data.as_deref()?)))
    }

    /// Crash hook: if torn writes are enabled, every in-flight write is
    /// abandoned mid-transfer, leaving only a prefix of its data on the
    /// target page. The torn operations are forgotten — their completions
    /// belong to the crashed host and must never be delivered. With torn
    /// writes off this is a no-op (in-flight writes complete normally if
    /// the driver still delivers them).
    pub fn crash_tear_inflight(&mut self) {
        if !self.faults.torn_writes {
            return;
        }
        // In submission order: two torn writes to one page leave the later.
        let tokens: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| matches!(p.op, DiskOp::Write { .. }))
            .map(|(t, _)| t)
            .collect();
        for t in tokens {
            let p = self.pending.take(t).expect("listed");
            if let DiskOp::Write { page, data } = p.op {
                // An empty write is a trim: there is no transfer to tear,
                // so it either happened (at completion) or it didn't.
                if data.is_empty() {
                    continue;
                }
                self.stats.torn_writes.inc();
                self.store_page(page, data[..data.len() / 2].to_vec());
            }
        }
    }

    /// Erases everything (models replacing the pack; not used in recovery).
    pub fn wipe(&mut self) {
        self.pages.clear();
    }

    /// Erases one page instantly, with no service time. Used only by the
    /// rebuild scan to scrub pages it has just decided are garbage (a
    /// superseded checkpoint found during recovery) — the scan already
    /// owns the disk exclusively at that point.
    pub fn wipe_page(&mut self, page: u64) {
        if let Some(slot) = usize::try_from(page)
            .ok()
            .and_then(|at| self.pages.get_mut(at))
        {
            *slot = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> Disk {
        Disk::new(DiskParams::default())
    }

    #[test]
    fn service_time_matches_paper_parameters() {
        let p = DiskParams::default();
        // A 4 KB transfer at 2 MB/s takes 2.048 ms, plus 3 ms latency.
        assert_eq!(p.service_time(4096), SimDuration::from_micros(5_048));
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut d = disk();
        let (t1, c1) = d.submit(
            SimTime::ZERO,
            DiskOp::Write {
                page: 7,
                data: vec![1, 2, 3],
            },
        );
        assert_eq!(d.complete(c1, t1), DiskResult::Written { page: 7 });
        let (t2, c2) = d.submit(c1, DiskOp::Read { page: 7 });
        match d.complete(c2, t2) {
            DiskResult::Data { page, data } => {
                assert_eq!(page, 7);
                assert_eq!(data, vec![1, 2, 3]);
            }
            _ => panic!("expected data"),
        }
    }

    #[test]
    fn fcfs_queueing_delays_later_ops() {
        let mut d = disk();
        let (_, c1) = d.submit(
            SimTime::ZERO,
            DiskOp::Write {
                page: 0,
                data: vec![0; 4096],
            },
        );
        let (_, c2) = d.submit(
            SimTime::ZERO,
            DiskOp::Write {
                page: 1,
                data: vec![0; 4096],
            },
        );
        assert_eq!(
            c2.saturating_since(c1),
            DiskParams::default().service_time(4096)
        );
    }

    #[test]
    fn idle_gap_resets_queue() {
        let mut d = disk();
        let (t1, c1) = d.submit(
            SimTime::ZERO,
            DiskOp::Write {
                page: 0,
                data: vec![1],
            },
        );
        d.complete(c1, t1);
        let later = c1 + SimDuration::from_secs(1);
        let (_, c2) = d.submit(later, DiskOp::Read { page: 0 });
        assert_eq!(
            c2.saturating_since(later),
            DiskParams::default().service_time(4096)
        );
    }

    #[test]
    fn unwritten_page_reads_empty() {
        let mut d = disk();
        let (t, c) = d.submit(SimTime::ZERO, DiskOp::Read { page: 99 });
        match d.complete(c, t) {
            DiskResult::Data { data, .. } => assert!(data.is_empty()),
            _ => panic!(),
        }
    }

    #[test]
    fn utilization_reflects_busy_time() {
        let mut d = disk();
        let (t, c) = d.submit(
            SimTime::ZERO,
            DiskOp::Write {
                page: 0,
                data: vec![0; 4096],
            },
        );
        d.complete(c, t);
        // Busy for the whole service time; measure over twice that window.
        let window = SimTime::ZERO + DiskParams::default().service_time(4096).saturating_mul(2);
        let u = d.stats().busy.utilization(window);
        assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn response_time_includes_queueing() {
        let mut d = disk();
        let (t1, c1) = d.submit(
            SimTime::ZERO,
            DiskOp::Write {
                page: 0,
                data: vec![0; 4096],
            },
        );
        let (t2, c2) = d.submit(
            SimTime::ZERO,
            DiskOp::Write {
                page: 1,
                data: vec![0; 4096],
            },
        );
        d.complete(c1, t1);
        d.complete(c2, t2);
        let s = &d.stats().response_ms;
        assert_eq!(s.count(), 2);
        assert!(s.max().unwrap() > s.min().unwrap());
    }

    #[test]
    fn transient_error_returns_op_without_effect() {
        let mut d = disk();
        d.set_faults(DiskFaults {
            transient_error: 1.0,
            ..DiskFaults::default()
        });
        let op = DiskOp::Write {
            page: 3,
            data: vec![9, 9],
        };
        let (t, c) = d.submit(SimTime::ZERO, op.clone());
        assert_eq!(d.complete(c, t), DiskResult::TransientError { op });
        assert!(d.peek_page(3).is_none(), "no effect on the platter");
        assert_eq!(d.stats().transient_errors.get(), 1);
        assert_eq!(d.stats().writes.get(), 0);
        // Turning faults back off restores normal completion.
        d.set_faults(DiskFaults::default());
        let (t, c) = d.submit(
            c,
            DiskOp::Write {
                page: 3,
                data: vec![9, 9],
            },
        );
        assert_eq!(d.complete(c, t), DiskResult::Written { page: 3 });
        assert_eq!(d.peek_page(3), Some(&[9u8, 9][..]));
    }

    #[test]
    fn crash_tears_inflight_writes_to_prefix() {
        let mut d = disk();
        d.set_faults(DiskFaults {
            torn_writes: true,
            ..DiskFaults::default()
        });
        let (_, _) = d.submit(
            SimTime::ZERO,
            DiskOp::Write {
                page: 5,
                data: vec![1, 2, 3, 4],
            },
        );
        d.crash_tear_inflight();
        assert_eq!(d.peek_page(5), Some(&[1u8, 2][..]));
        assert_eq!(d.stats().torn_writes.get(), 1);
        assert_eq!(d.queue_depth(), 0, "torn op is forgotten");
    }

    #[test]
    fn crash_without_torn_writes_is_a_noop() {
        let mut d = disk();
        let (t, c) = d.submit(
            SimTime::ZERO,
            DiskOp::Write {
                page: 5,
                data: vec![1, 2, 3, 4],
            },
        );
        d.crash_tear_inflight();
        assert!(d.peek_page(5).is_none());
        assert_eq!(d.complete(c, t), DiskResult::Written { page: 5 });
    }

    #[test]
    #[should_panic(expected = "exceeds page size")]
    fn oversized_write_rejected() {
        disk().submit(
            SimTime::ZERO,
            DiskOp::Write {
                page: 0,
                data: vec![0; 5000],
            },
        );
    }

    #[test]
    #[should_panic(expected = "early completion")]
    fn early_completion_rejected() {
        let mut d = disk();
        let (t, _c) = d.submit(
            SimTime::ZERO,
            DiskOp::Write {
                page: 0,
                data: vec![1],
            },
        );
        d.complete(SimTime::ZERO, t);
    }
}
