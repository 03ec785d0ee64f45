//! Checkpoint policies (§3.2.3, §3.2.4, §5.1).
//!
//! Publishing makes checkpoints a pure performance knob: "a suboptimum
//! choice of checkpointing frequency will yield less than optimum
//! performance, but it will not affect the recoverability of a process"
//! (§3.3.1). The recorder evaluates one of these policies per process and
//! sends `REQUEST_CHECKPOINT` when due.

use crate::recorder::ProcessEntry;
use crate::recovery_time::LoadParams;
use publishing_sim::time::{SimDuration, SimTime};

/// When to checkpoint a process.
#[derive(Debug, Clone)]
pub enum CheckpointPolicy {
    /// Never checkpoint (recovery always restarts from the initial state).
    Never,
    /// Fixed interval per process.
    Periodic(SimDuration),
    /// §5.1's storage-balancing rule: "a process is checkpointed whenever
    /// its published message storage exceeds its checkpoint size."
    StorageExceedsCheckpoint,
    /// Young's first-order optimum interval √(2·Ts·Tf) (§3.2.4), given
    /// the checkpoint-save time Ts and expected MTBF Tf.
    Young {
        /// Time to save one checkpoint.
        t_s: SimDuration,
        /// Mean time between failures.
        t_f: SimDuration,
    },
    /// Checkpoint whenever the §3.2.3 recovery-time bound t_max would
    /// exceed the per-process target — the mechanism behind "arbitrarily
    /// bounded recovery time".
    BoundedRecovery {
        /// The recovery-time budget.
        target: SimDuration,
        /// Measured load parameters.
        load: LoadParams,
    },
}

/// Computes Young's optimum interval √(2·Ts·Tf).
pub fn young_interval(t_s: SimDuration, t_f: SimDuration) -> SimDuration {
    let prod = 2.0 * t_s.as_secs_f64() * t_f.as_secs_f64();
    SimDuration::from_secs_f64(prod.sqrt())
}

/// Young's expected checkpoint-plus-rework cost per unit time, for
/// checkpoint interval `t_c`: overhead ≈ Ts/Tc + Tc/(2·Tf). Minimized at
/// [`young_interval`]; the benches sweep `t_c` to verify the minimum.
pub fn young_overhead(t_c: SimDuration, t_s: SimDuration, t_f: SimDuration) -> f64 {
    let tc = t_c.as_secs_f64();
    let ts = t_s.as_secs_f64();
    let tf = t_f.as_secs_f64();
    ts / tc + tc / (2.0 * tf)
}

impl CheckpointPolicy {
    /// Returns `true` if `entry` is due for a checkpoint at `now`.
    pub fn due(&self, now: SimTime, entry: &ProcessEntry) -> bool {
        if entry.recovering {
            return false;
        }
        let since = now.saturating_since(entry.estimator.checkpoint_at);
        match self {
            CheckpointPolicy::Never => false,
            CheckpointPolicy::Periodic(interval) => since >= *interval,
            CheckpointPolicy::StorageExceedsCheckpoint => {
                let checkpoint_size = entry
                    .checkpoint_image
                    .as_ref()
                    .map(|i| i.len() as u64)
                    .unwrap_or(256);
                entry.bytes_since_checkpoint > checkpoint_size
            }
            CheckpointPolicy::Young { t_s, t_f } => since >= young_interval(*t_s, *t_f),
            CheckpointPolicy::BoundedRecovery { target, load } => {
                // The recorder approximates t_since by wall time since the
                // checkpoint — conservative for mostly-idle processes.
                let reload = entry.estimator.t_reload(load);
                let replay = entry.estimator.t_replay(load);
                let compute = since.mul_f64(1.0 / load.f_cpu);
                reload + replay + compute >= *target
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use publishing_demos::ids::ProcessId;

    fn recorder_with_entry() -> (crate::recorder::Recorder, ProcessId) {
        use crate::recorder::{PublishCost, Recorder};
        use publishing_stable::disk::DiskParams;
        let mut r = Recorder::new(
            publishing_demos::ids::NodeId(9),
            DiskParams::default(),
            1,
            PublishCost::MediaLayer,
        );
        let pid = ProcessId::new(1, 1);
        crate::recorder::tests::drain(&mut r, |r, ios| {
            r.on_created(SimTime::ZERO, pid, "echo", vec![], true, ios)
        });
        (r, pid)
    }

    #[test]
    fn young_interval_formula() {
        // √(2 · 1 s · 200 s) = 20 s.
        let i = young_interval(SimDuration::from_secs(1), SimDuration::from_secs(200));
        assert_eq!(i, SimDuration::from_secs(20));
    }

    #[test]
    fn young_overhead_minimized_at_optimum() {
        let t_s = SimDuration::from_secs(1);
        let t_f = SimDuration::from_secs(200);
        let opt = young_interval(t_s, t_f);
        let at_opt = young_overhead(opt, t_s, t_f);
        for factor in [0.25, 0.5, 2.0, 4.0] {
            let t_c = opt.mul_f64(factor);
            assert!(young_overhead(t_c, t_s, t_f) > at_opt, "factor {factor}");
        }
    }

    #[test]
    fn periodic_policy_fires_after_interval() {
        let (r, pid) = recorder_with_entry();
        let e = r.entry(pid).unwrap();
        let p = CheckpointPolicy::Periodic(SimDuration::from_secs(5));
        assert!(!p.due(SimTime::from_secs(3), e));
        // The initial checkpoint became durable a few ms after t = 0, so
        // give the interval a little slack.
        assert!(p.due(SimTime::from_secs(6), e));
    }

    #[test]
    fn never_policy_never_fires() {
        let (r, pid) = recorder_with_entry();
        let e = r.entry(pid).unwrap();
        assert!(!CheckpointPolicy::Never.due(SimTime::from_secs(1_000_000), e));
    }

    #[test]
    fn bounded_recovery_fires_as_t_max_grows() {
        let (r, pid) = recorder_with_entry();
        let e = r.entry(pid).unwrap();
        let p = CheckpointPolicy::BoundedRecovery {
            target: SimDuration::from_secs(1),
            load: crate::recovery_time::LoadParams::figure_3_1(),
        };
        assert!(!p.due(SimTime::from_millis(200), e));
        // At f_cpu = 0.5, 600 ms of elapsed time alone costs 1.2 s to redo.
        assert!(p.due(SimTime::from_millis(600), e));
    }

    #[test]
    fn recovering_process_is_never_due() {
        let (mut r, pid) = recorder_with_entry();
        r.set_recovering(pid, true);
        let e = r.entry(pid).unwrap();
        let p = CheckpointPolicy::Periodic(SimDuration::from_nanos(1));
        assert!(!p.due(SimTime::from_secs(100), e));
    }
}
