//! Message-fault plans.
//!
//! §1.1.2 classifies faults by detectability and determinism; publishing
//! recovers *detected, non-deterministic* faults, rounded up to crashes of
//! the affected processes. Crashes are scheduled by the chaos layer
//! (`publishing_chaos::FaultSchedule`); this module models the
//! message-level faults the transport must mask: frame loss, corruption
//! and duplication.

use crate::rng::DetRng;

/// A deterministic message-fault plan: independent per-frame
/// probabilities, rolled on the caller's RNG stream.
///
/// # Examples
///
/// ```
/// use publishing_sim::fault::FaultPlan;
///
/// let plan = FaultPlan::new().with_frame_loss(0.01);
/// assert_eq!(plan.frame_loss(), 0.01);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    frame_loss: f64,
    frame_corruption: f64,
    frame_duplication: f64,
}

impl FaultPlan {
    /// Creates an empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Sets the independent per-frame loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_frame_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.frame_loss = p;
        self
    }

    /// Sets the independent per-frame corruption probability (frame arrives
    /// with a bad checksum, exercising the link layer's discard path).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_frame_corruption(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.frame_corruption = p;
        self
    }

    /// Sets the independent per-frame duplication probability (the frame
    /// arrives twice, at distinct times — e.g. a retransmission whose
    /// original was not actually lost).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_frame_duplication(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.frame_duplication = p;
        self
    }

    /// Returns the per-frame loss probability.
    pub fn frame_loss(&self) -> f64 {
        self.frame_loss
    }

    /// Returns the per-frame corruption probability.
    pub fn frame_corruption(&self) -> f64 {
        self.frame_corruption
    }

    /// Returns the per-frame duplication probability.
    pub fn frame_duplication(&self) -> f64 {
        self.frame_duplication
    }

    /// Draws whether a frame is lost, using the caller's RNG stream.
    pub fn roll_loss(&self, rng: &mut DetRng) -> bool {
        self.frame_loss > 0.0 && rng.chance(self.frame_loss)
    }

    /// Draws whether a frame is corrupted in flight.
    pub fn roll_corruption(&self, rng: &mut DetRng) -> bool {
        self.frame_corruption > 0.0 && rng.chance(self.frame_corruption)
    }

    /// Draws whether a frame arrives twice. Like the other rolls, a zero
    /// probability consumes no randomness, so plans without duplication
    /// leave every existing RNG stream untouched.
    pub fn roll_duplication(&self, rng: &mut DetRng) -> bool {
        self.frame_duplication > 0.0 && rng.chance(self.frame_duplication)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_probability_never_rolls() {
        let plan = FaultPlan::new();
        let mut rng = DetRng::new(1);
        for _ in 0..100 {
            assert!(!plan.roll_loss(&mut rng));
            assert!(!plan.roll_corruption(&mut rng));
            assert!(!plan.roll_duplication(&mut rng));
        }
    }

    #[test]
    fn full_probability_always_rolls() {
        let plan = FaultPlan::new()
            .with_frame_loss(1.0)
            .with_frame_corruption(1.0)
            .with_frame_duplication(1.0);
        let mut rng = DetRng::new(1);
        assert!(plan.roll_loss(&mut rng));
        assert!(plan.roll_corruption(&mut rng));
        assert!(plan.roll_duplication(&mut rng));
    }

    #[test]
    #[should_panic]
    fn invalid_probability_rejected() {
        let _ = FaultPlan::new().with_frame_loss(1.5);
    }
}
