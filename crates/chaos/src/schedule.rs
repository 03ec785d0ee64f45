//! Fault schedules: the replayable unit of chaos.
//!
//! A [`FaultSchedule`] is a workload seed, a horizon, and a list of
//! timed [`Fault`]s, all at millisecond granularity. Schedules
//! round-trip through a compact whitespace-separated literal —
//! `seed=S horizon=Hms` and one `kind@Tms…` token per fault — so a
//! failure found by the generator is a string a human can paste back
//! in. The literal says what happens and when, not to which world:
//! prefixed with `topology=T medium=M` it is the reproducer `lab chaos`
//! prints and takes after `--schedule` ([`Scenario::reproducer`]).
//!
//! [`Scenario::reproducer`]: crate::scenario::Scenario::reproducer

use crate::scenario::{Topology, NODES, REPLICAS, SHARDS};
use publishing_sim::rng::DetRng;
use std::fmt;
use std::str::FromStr;

/// One injected fault. All times are absolute virtual-time
/// milliseconds from the start of the run; probabilities are integer
/// percentages so literals round-trip exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Crash one application process (`victim` indexes the scenario's
    /// spawned processes, wrapping).
    CrashProcess {
        /// Injection time (ms).
        at_ms: u64,
        /// Index into the scenario's process list (mod its length).
        victim: u32,
    },
    /// Crash a whole processing node (`node` wraps over the scenario's
    /// node count); the recorder tier restarts and repopulates it.
    CrashNode {
        /// Injection time (ms).
        at_ms: u64,
        /// Processing-node id (mod the scenario's node count).
        node: u32,
    },
    /// Crash member `member % members` of the recorder tier: the
    /// recorder, a shard, or a quorum replica. Each tier guards its own
    /// liveness (the last live shard, a replica whose loss would break
    /// the majority: no-ops).
    CrashRecorder {
        /// Injection time (ms).
        at_ms: u64,
        /// Tier member index (mod the tier's member count).
        member: u32,
    },
    /// Restart a previously crashed tier member; a quorum replica rejoins
    /// as a follower and catches up from the leader's log or a snapshot.
    RestartRecorder {
        /// Injection time (ms).
        at_ms: u64,
        /// Tier member index (mod the tier's member count).
        member: u32,
    },
    /// Admit a brand-new shard mid-run (rebalance; no-op on the
    /// single-recorder world).
    AddShard {
        /// Injection time (ms).
        at_ms: u64,
    },
    /// Frame-loss burst: probability `p_pct`% over `[at, at+dur)`.
    Loss {
        /// Burst start (ms).
        at_ms: u64,
        /// Burst duration (ms).
        dur_ms: u64,
        /// Loss probability in percent.
        p_pct: u32,
    },
    /// Frame-corruption burst.
    Corrupt {
        /// Burst start (ms).
        at_ms: u64,
        /// Burst duration (ms).
        dur_ms: u64,
        /// Corruption probability in percent.
        p_pct: u32,
    },
    /// Frame-duplication burst.
    Duplicate {
        /// Burst start (ms).
        at_ms: u64,
        /// Burst duration (ms).
        dur_ms: u64,
        /// Duplication probability in percent.
        p_pct: u32,
    },
    /// Transient disk-IO-error window over every recorder disk.
    DiskTransient {
        /// Window start (ms).
        at_ms: u64,
        /// Window duration (ms).
        dur_ms: u64,
        /// Per-IO transient-failure probability in percent.
        p_pct: u32,
    },
    /// From here on, a recorder crash tears in-flight page writes to a
    /// prefix instead of dropping them atomically (cleared by the
    /// end-of-schedule heal).
    TornWrites {
        /// Activation time (ms).
        at_ms: u64,
    },
}

impl Fault {
    /// The fault's (start) time in milliseconds.
    pub fn at_ms(&self) -> u64 {
        match self {
            Fault::CrashProcess { at_ms, .. }
            | Fault::CrashNode { at_ms, .. }
            | Fault::CrashRecorder { at_ms, .. }
            | Fault::RestartRecorder { at_ms, .. }
            | Fault::AddShard { at_ms }
            | Fault::Loss { at_ms, .. }
            | Fault::Corrupt { at_ms, .. }
            | Fault::Duplicate { at_ms, .. }
            | Fault::DiskTransient { at_ms, .. }
            | Fault::TornWrites { at_ms } => *at_ms,
        }
    }

    /// Rewrites the fault's (start) time.
    pub fn set_at_ms(&mut self, t: u64) {
        match self {
            Fault::CrashProcess { at_ms, .. }
            | Fault::CrashNode { at_ms, .. }
            | Fault::CrashRecorder { at_ms, .. }
            | Fault::RestartRecorder { at_ms, .. }
            | Fault::AddShard { at_ms }
            | Fault::Loss { at_ms, .. }
            | Fault::Corrupt { at_ms, .. }
            | Fault::Duplicate { at_ms, .. }
            | Fault::DiskTransient { at_ms, .. }
            | Fault::TornWrites { at_ms } => *at_ms = t,
        }
    }

    /// A stable snake-case kind name, used as the metric path segment
    /// for per-kind injection counters (`chaos/injected/<kind>`).
    pub fn kind(&self) -> &'static str {
        match self {
            Fault::CrashProcess { .. } => "crash_process",
            Fault::CrashNode { .. } => "crash_node",
            Fault::CrashRecorder { .. } => "crash_recorder",
            Fault::RestartRecorder { .. } => "restart_recorder",
            Fault::AddShard { .. } => "add_shard",
            Fault::Loss { .. } => "loss",
            Fault::Corrupt { .. } => "corrupt",
            Fault::Duplicate { .. } => "duplicate",
            Fault::DiskTransient { .. } => "disk_transient",
            Fault::TornWrites { .. } => "torn_writes",
        }
    }

    /// The burst duration in milliseconds, for windowed faults.
    pub fn dur_ms(&self) -> Option<u64> {
        match self {
            Fault::Loss { dur_ms, .. }
            | Fault::Corrupt { dur_ms, .. }
            | Fault::Duplicate { dur_ms, .. }
            | Fault::DiskTransient { dur_ms, .. } => Some(*dur_ms),
            _ => None,
        }
    }

    /// Rewrites the burst duration, for windowed faults (no-op
    /// otherwise).
    pub fn set_dur_ms(&mut self, d: u64) {
        match self {
            Fault::Loss { dur_ms, .. }
            | Fault::Corrupt { dur_ms, .. }
            | Fault::Duplicate { dur_ms, .. }
            | Fault::DiskTransient { dur_ms, .. } => *dur_ms = d,
            _ => {}
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::CrashProcess { at_ms, victim } => write!(f, "crash_process@{at_ms}ms#{victim}"),
            Fault::CrashNode { at_ms, node } => write!(f, "crash_node@{at_ms}ms#{node}"),
            Fault::CrashRecorder { at_ms, member } => {
                write!(f, "crash_recorder@{at_ms}ms#{member}")
            }
            Fault::RestartRecorder { at_ms, member } => {
                write!(f, "restart_recorder@{at_ms}ms#{member}")
            }
            Fault::AddShard { at_ms } => write!(f, "add_shard@{at_ms}ms"),
            Fault::Loss {
                at_ms,
                dur_ms,
                p_pct,
            } => write!(f, "loss@{at_ms}ms+{dur_ms}ms={p_pct}%"),
            Fault::Corrupt {
                at_ms,
                dur_ms,
                p_pct,
            } => write!(f, "corrupt@{at_ms}ms+{dur_ms}ms={p_pct}%"),
            Fault::Duplicate {
                at_ms,
                dur_ms,
                p_pct,
            } => write!(f, "dup@{at_ms}ms+{dur_ms}ms={p_pct}%"),
            Fault::DiskTransient {
                at_ms,
                dur_ms,
                p_pct,
            } => write!(f, "disk@{at_ms}ms+{dur_ms}ms={p_pct}%"),
            Fault::TornWrites { at_ms } => write!(f, "torn@{at_ms}ms"),
        }
    }
}

/// A complete, replayable chaos run: workload seed, horizon, faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Seed for the scenario's workload (think times etc.).
    pub workload_seed: u64,
    /// Injection stops here; the driver then heals the world and runs it
    /// on until its recovery has finished (at most a grace period) for
    /// the oracle.
    pub horizon_ms: u64,
    /// The faults, in generation order (the driver sorts injection by
    /// time; equal-time faults apply in list order).
    pub faults: Vec<Fault>,
}

impl fmt::Display for FaultSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={} horizon={}ms",
            self.workload_seed, self.horizon_ms
        )?;
        for fault in &self.faults {
            write!(f, " {fault}")?;
        }
        Ok(())
    }
}

fn parse_ms(s: &str, what: &str) -> Result<u64, String> {
    s.strip_suffix("ms")
        .ok_or_else(|| format!("{what}: expected <n>ms, got {s:?}"))?
        .parse()
        .map_err(|e| format!("{what}: {e}"))
}

/// Parses `name@Tms…` tokens; see [`Fault`]'s `Display` for the forms.
impl FromStr for Fault {
    type Err = String;

    fn from_str(tok: &str) -> Result<Self, String> {
        let (name, rest) = tok
            .split_once('@')
            .ok_or_else(|| format!("fault {tok:?}: missing '@'"))?;
        let windowed = |rest: &str| -> Result<(u64, u64, u32), String> {
            let (at, rest) = rest
                .split_once('+')
                .ok_or_else(|| format!("{name}: expected @Tms+Dms=P%"))?;
            let (dur, p) = rest
                .split_once('=')
                .ok_or_else(|| format!("{name}: expected @Tms+Dms=P%"))?;
            let p_pct: u32 = p
                .strip_suffix('%')
                .ok_or_else(|| format!("{name}: expected P%"))?
                .parse()
                .map_err(|e| format!("{name}: {e}"))?;
            if p_pct > 100 {
                return Err(format!("{name}: probability {p_pct}% > 100%"));
            }
            Ok((parse_ms(at, name)?, parse_ms(dur, name)?, p_pct))
        };
        let indexed = |rest: &str| -> Result<(u64, u32), String> {
            let (at, idx) = rest
                .split_once('#')
                .ok_or_else(|| format!("{name}: expected @Tms#I"))?;
            Ok((
                parse_ms(at, name)?,
                idx.parse().map_err(|e| format!("{name}: {e}"))?,
            ))
        };
        match name {
            "crash_process" => {
                indexed(rest).map(|(at_ms, victim)| Fault::CrashProcess { at_ms, victim })
            }
            "crash_node" => indexed(rest).map(|(at_ms, node)| Fault::CrashNode { at_ms, node }),
            "crash_recorder" => {
                indexed(rest).map(|(at_ms, member)| Fault::CrashRecorder { at_ms, member })
            }
            "restart_recorder" => {
                indexed(rest).map(|(at_ms, member)| Fault::RestartRecorder { at_ms, member })
            }
            "add_shard" => parse_ms(rest, name).map(|at_ms| Fault::AddShard { at_ms }),
            "loss" => windowed(rest).map(|(at_ms, dur_ms, p_pct)| Fault::Loss {
                at_ms,
                dur_ms,
                p_pct,
            }),
            "corrupt" => windowed(rest).map(|(at_ms, dur_ms, p_pct)| Fault::Corrupt {
                at_ms,
                dur_ms,
                p_pct,
            }),
            "dup" => windowed(rest).map(|(at_ms, dur_ms, p_pct)| Fault::Duplicate {
                at_ms,
                dur_ms,
                p_pct,
            }),
            "disk" => windowed(rest).map(|(at_ms, dur_ms, p_pct)| Fault::DiskTransient {
                at_ms,
                dur_ms,
                p_pct,
            }),
            "torn" => parse_ms(rest, name).map(|at_ms| Fault::TornWrites { at_ms }),
            other => Err(format!("unknown fault kind {other:?}")),
        }
    }
}

impl FromStr for FaultSchedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut workload_seed = None;
        let mut horizon_ms = None;
        let mut faults: Vec<Fault> = Vec::new();
        for tok in s.split_whitespace() {
            if let Some(v) = tok.strip_prefix("seed=") {
                workload_seed = Some(v.parse().map_err(|e| format!("seed: {e}"))?);
            } else if let Some(v) = tok.strip_prefix("horizon=") {
                horizon_ms = Some(parse_ms(v, "horizon")?);
            } else {
                faults.push(tok.parse()?);
            }
        }
        let horizon_ms = horizon_ms.ok_or("missing horizon=")?;
        // Injection stops at the horizon: a fault that starts after it
        // would never run (a burst that only *ends* after it is clamped).
        if let Some(late) = faults.iter().find(|f| f.at_ms() > horizon_ms) {
            return Err(format!("{late}: starts after horizon={horizon_ms}ms"));
        }
        Ok(FaultSchedule {
            workload_seed: workload_seed.ok_or("missing seed=")?,
            horizon_ms,
            faults,
        })
    }
}

/// Knobs for the seeded schedule generator.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Generation seed; also becomes the schedule's workload seed.
    pub seed: u64,
    /// Recorder tier of the target [`Scenario`]: node crashes range over
    /// its [`NODES`], tier faults over its members (one recorder,
    /// [`SHARDS`] shards or [`REPLICAS`] replicas), and `add_shard` is
    /// generated for the sharded tier only.
    ///
    /// [`Scenario`]: crate::scenario::Scenario
    pub topology: Topology,
    /// Spawned-process count (victim space for process crashes).
    pub procs: u32,
    /// Injection horizon (ms).
    pub horizon_ms: u64,
    /// Upper bound on generated faults (crash/restart pairs count as
    /// two).
    pub max_faults: usize,
}

impl ChaosConfig {
    /// The default generator knobs aimed at the chaos scenario on
    /// `topology`.
    pub fn for_topology(topology: Topology, seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            topology,
            ..ChaosConfig::default()
        }
    }

    /// Members of the target's recorder tier.
    fn members(&self) -> u32 {
        match self.topology {
            Topology::Single => 1,
            Topology::Sharded => SHARDS,
            Topology::Quorum => REPLICAS,
        }
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 1,
            topology: Topology::Single,
            procs: 4,
            horizon_ms: 1500,
            max_faults: 7,
        }
    }
}

/// Generates a seeded fault schedule.
///
/// The generator is biased toward the timings that historically break
/// recovery code: after every process/node crash there is an even
/// chance of a *follow-up* crash 5–60 ms later (crash during recovery),
/// and on a multi-member tier a member crash or rebalance may land in
/// that window too (crash during rebalance, crash during election).
/// Every tier-member crash is paired with a restart before the horizon
/// so convergence never depends on the end-of-run heal alone.
pub fn generate(cfg: &ChaosConfig) -> FaultSchedule {
    let mut rng = DetRng::new(cfg.seed ^ 0xC4A0_5EED);
    let mut faults = Vec::new();
    let horizon = cfg.horizon_ms.max(200);
    let n = rng.range(2, cfg.max_faults.max(3) as u64) as usize;
    let mut added_shard = false;
    while faults.len() < n {
        let t = rng.range(50, horizon * 6 / 10);
        let kind = rng.below(if cfg.topology == Topology::Single {
            6
        } else {
            8
        });
        match kind {
            0 => {
                faults.push(Fault::CrashProcess {
                    at_ms: t,
                    victim: rng.below(cfg.procs.max(1) as u64) as u32,
                });
                push_follow_up(&mut rng, &mut faults, cfg, t, horizon);
            }
            1 => {
                faults.push(Fault::CrashNode {
                    at_ms: t,
                    node: rng.below(NODES as u64) as u32,
                });
                push_follow_up(&mut rng, &mut faults, cfg, t, horizon);
            }
            2 => push_recorder_cycle(&mut rng, &mut faults, cfg, t, horizon),
            3 => faults.push(Fault::Loss {
                at_ms: t,
                dur_ms: rng.range(20, 200),
                p_pct: rng.range(5, 25) as u32,
            }),
            4 => faults.push(Fault::Duplicate {
                at_ms: t,
                dur_ms: rng.range(20, 200),
                p_pct: rng.range(10, 60) as u32,
            }),
            5 => {
                if rng.chance(0.5) {
                    faults.push(Fault::Corrupt {
                        at_ms: t,
                        dur_ms: rng.range(20, 150),
                        p_pct: rng.range(5, 20) as u32,
                    });
                } else {
                    faults.push(Fault::DiskTransient {
                        at_ms: t,
                        dur_ms: rng.range(50, 400),
                        p_pct: rng.range(10, 40) as u32,
                    });
                    if rng.chance(0.5) {
                        faults.push(Fault::TornWrites { at_ms: t });
                    }
                }
            }
            6 if cfg.topology == Topology::Sharded && !added_shard => {
                added_shard = true;
                faults.push(Fault::AddShard { at_ms: t });
                push_follow_up(&mut rng, &mut faults, cfg, t, horizon);
            }
            _ => push_recorder_cycle(&mut rng, &mut faults, cfg, t, horizon),
        }
    }
    faults.sort_by_key(Fault::at_ms);
    debug_assert!(
        faults.iter().all(|f| f.at_ms() <= horizon),
        "generated a fault past the horizon"
    );
    FaultSchedule {
        workload_seed: cfg.seed,
        horizon_ms: horizon,
        faults,
    }
}

/// A crash/restart pair for one member of the recorder tier.
fn push_recorder_cycle(
    rng: &mut DetRng,
    faults: &mut Vec<Fault>,
    cfg: &ChaosConfig,
    t: u64,
    horizon: u64,
) {
    let member = rng.below(cfg.members() as u64) as u32;
    let up = (t + rng.range(20, 150))
        .min(horizon.saturating_sub(1))
        .max(t + 1);
    faults.push(Fault::CrashRecorder { at_ms: t, member });
    faults.push(Fault::RestartRecorder { at_ms: up, member });
}

/// The crash-during-recovery / crash-during-rebalance bias: with even
/// odds, a second fault lands 5–60 ms after `t`, while the first one's
/// recovery (or the rebalance drain) is still in flight.
fn push_follow_up(
    rng: &mut DetRng,
    faults: &mut Vec<Fault>,
    cfg: &ChaosConfig,
    t: u64,
    horizon: u64,
) {
    if !rng.chance(0.5) {
        return;
    }
    let t2 = t + rng.range(5, 60);
    match rng.below(3) {
        0 => faults.push(Fault::CrashProcess {
            at_ms: t2,
            victim: rng.below(cfg.procs.max(1) as u64) as u32,
        }),
        1 => faults.push(Fault::CrashNode {
            at_ms: t2,
            node: rng.below(NODES as u64) as u32,
        }),
        _ => push_recorder_cycle(rng, faults, cfg, t2, horizon),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOPOLOGIES: [Topology; 3] = [Topology::Single, Topology::Sharded, Topology::Quorum];

    #[test]
    fn literal_round_trips() {
        for seed in 0..40u64 {
            let s = generate(&ChaosConfig::for_topology(
                TOPOLOGIES[seed as usize % 3],
                seed,
            ));
            let lit = s.to_string();
            let back: FaultSchedule = lit.parse().expect("parses");
            assert_eq!(s, back, "literal: {lit}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = ChaosConfig::for_topology(Topology::Sharded, 9);
        assert_eq!(generate(&cfg), generate(&cfg));
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = |lit: &str| lit.parse::<FaultSchedule>().unwrap_err();
        err("seed=1 horizon=100ms zap@3ms");
        err("horizon=100ms");
        err("seed=1 horizon=100ms loss@1ms+2ms=200%");
        err("seed=1 horizon=100ms crash_node@5ms");
        // One index per tier member: the group-qualified form is gone.
        err("seed=1 horizon=100ms crash_recorder@5ms#0.2");
        // A fault that starts after the horizon would never be injected;
        // the message names it and the horizon, wherever `horizon=` sits.
        let late = err("seed=1 crash_node@500ms#0 horizon=100ms");
        assert!(late.contains("crash_node@500ms#0") && late.contains("horizon=100ms"));
        // At the horizon is still inside it, and a burst may end past it.
        let s: FaultSchedule = "seed=1 horizon=100ms crash_node@100ms#0 loss@90ms+50ms=10%"
            .parse()
            .expect("parses");
        assert_eq!(s.faults.len(), 2);
    }

    #[test]
    fn member_crashes_are_paired_with_restarts_on_every_topology() {
        for topology in TOPOLOGIES {
            let mut any = false;
            for seed in 0..30u64 {
                let s = generate(&ChaosConfig::for_topology(topology, seed));
                let count = |kind: &str| s.faults.iter().filter(|f| f.kind() == kind).count();
                let crashes = count("crash_recorder");
                assert_eq!(crashes, count("restart_recorder"), "{topology} {seed}: {s}");
                any |= crashes > 0;
                let adds_allowed = usize::from(topology == Topology::Sharded);
                assert!(count("add_shard") <= adds_allowed, "{topology} {seed}: {s}");
            }
            assert!(any, "{topology}: the generator never crashed a tier member");
        }
    }
}
