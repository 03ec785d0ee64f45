//! Shared load-driver sampling: one home for message sizes.
//!
//! §5.1 converted the measured VAX trace to a distributed equivalent
//! with a fixed rule — system calls become *short* messages, I/O
//! requests become *long* ones, "estimated to be 128 and 1024 bytes
//! respectively". Those two constants (plus the Figure 5.1 checkpoint
//! fragment size) used to be re-stated by every scenario that published
//! anything; this module is now the single source the demos programs,
//! the queueing model, the bench scenarios, and the workload engine all
//! draw from, so a mix change shows up everywhere at once.

use publishing_sim::codec::{CodecError, Decoder, Encoder};

/// Short (system-call) message size in bytes (§5.1).
pub const SHORT_BYTES: usize = 128;
/// Long (I/O) message size in bytes (§5.1).
pub const LONG_BYTES: usize = 1024;
/// Checkpoint fragment size in bytes (Figure 5.1's checkpoint messages).
pub const CHECKPOINT_BYTES: usize = 1024;

/// MMIX LCG multiplier — the per-program deterministic generator the
/// demos programs have always used (see `programs::Chatter`).
pub const LCG_MUL: u64 = 6364136223846793005;
/// MMIX LCG increment.
pub const LCG_INC: u64 = 1442695040888963407;

/// Advances an MMIX LCG state and returns the new value. Programs keep
/// the `u64` state in their snapshot, so a recovered process resumes
/// the exact sample stream it crashed in.
pub fn lcg_next(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(LCG_MUL).wrapping_add(LCG_INC);
    *state
}

/// A two-point message-size mix: `short_pct` percent of publishes are
/// `short_bytes`, the rest `long_bytes`. The paper's split is the
/// default; workloads may widen either point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageMix {
    /// Percentage of messages drawn at the short size (0–100).
    pub short_pct: u8,
    /// The short operand of the mix, in bytes.
    pub short_bytes: u32,
    /// The long operand of the mix, in bytes.
    pub long_bytes: u32,
}

impl MessageMix {
    /// The paper's mean operating point: 4.2 short + 0.35 long messages
    /// per process-second (§5.1) is a 92% short mix over the 128 B /
    /// 1024 B split.
    pub const fn paper() -> Self {
        MessageMix {
            short_pct: 92,
            short_bytes: SHORT_BYTES as u32,
            long_bytes: LONG_BYTES as u32,
        }
    }

    /// Draws one message size from the mix, advancing `lcg`.
    pub fn sample(&self, lcg: &mut u64) -> usize {
        let draw = (lcg_next(lcg) >> 33) % 100;
        if draw < self.short_pct as u64 {
            self.short_bytes as usize
        } else {
            self.long_bytes as usize
        }
    }

    /// The mix's mean message size in bytes.
    pub fn mean_bytes(&self) -> f64 {
        let p = self.short_pct as f64 / 100.0;
        p * self.short_bytes as f64 + (1.0 - p) * self.long_bytes as f64
    }

    /// Encodes the mix into a snapshot.
    pub fn encode(&self, e: &mut Encoder) {
        e.u8(self.short_pct)
            .u32(self.short_bytes)
            .u32(self.long_bytes);
    }

    /// Decodes a mix from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the bytes do not decode.
    pub fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(MessageMix {
            short_pct: d.u8()?,
            short_bytes: d.u32()?,
            long_bytes: d.u32()?,
        })
    }
}

impl Default for MessageMix {
    fn default() -> Self {
        MessageMix::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_matches_mmix_constants() {
        let mut s = 1u64;
        let v = lcg_next(&mut s);
        assert_eq!(v, 1u64.wrapping_mul(LCG_MUL).wrapping_add(LCG_INC));
        assert_eq!(s, v);
    }

    #[test]
    fn paper_mix_samples_both_points() {
        let mix = MessageMix::paper();
        let mut lcg = 42u64;
        let mut short = 0usize;
        let mut long = 0usize;
        for _ in 0..10_000 {
            match mix.sample(&mut lcg) {
                SHORT_BYTES => short += 1,
                LONG_BYTES => long += 1,
                other => panic!("unexpected size {other}"),
            }
        }
        // 92% nominal; allow generous slack, the point is both appear.
        assert!(short > 8_500, "short {short}");
        assert!(long > 300, "long {long}");
    }

    #[test]
    fn mix_round_trips_through_codec() {
        let mix = MessageMix {
            short_pct: 30,
            short_bytes: 64,
            long_bytes: 4096,
        };
        let mut e = Encoder::new();
        mix.encode(&mut e);
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        let back = MessageMix::decode(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back, mix);
    }

    #[test]
    fn mean_bytes_matches_mix() {
        let m = MessageMix::paper();
        let want = 0.92 * 128.0 + 0.08 * 1024.0;
        assert!((m.mean_bytes() - want).abs() < 1e-9);
    }
}
