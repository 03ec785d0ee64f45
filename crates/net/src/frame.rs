//! Link-layer frames.
//!
//! A frame is the unit the medium carries: an opaque transport payload
//! wrapped with source/destination stations and a frame check sequence.
//! The media models never interpret the payload — exactly the layering of
//! Figure 4.3, where the media layer only moves checked byte strings.

use crate::crc::crc32;
use core::fmt;
use publishing_sim::codec::{Bytes, CodecError, Decode, Decoder};
use std::sync::Arc;

/// A station attached to the LAN (a processing node's or recorder's
/// network interface).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StationId(pub u32);

impl fmt::Debug for StationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "st{}", self.0)
    }
}

impl fmt::Display for StationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Link-layer destination: one station, or every station.
///
/// In DEMOS/MP with publishing, *all* messages are physically broadcast so
/// the recorder overhears them (§4.4.1); `Station` destinations still
/// reach every attached interface, which filter on this field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Destination {
    /// Addressed to one station (others, except recorders, discard it).
    Station(StationId),
    /// Addressed to every station.
    Broadcast,
}

impl Destination {
    /// Returns `true` if a station should pass this frame up its stack.
    pub fn accepts(self, station: StationId) -> bool {
        match self {
            Destination::Station(s) => s == station,
            Destination::Broadcast => true,
        }
    }
}

/// Fixed per-frame header overhead on the wire, in bytes (addresses, type,
/// FCS — on the order of an Ethernet header).
pub const HEADER_BYTES: usize = 18;

/// A link-layer frame.
///
/// The payload bytes are immutable and shared: a broadcast medium hands
/// every receiving station a clone, which is a reference-count bump, not
/// a copy, and a station decodes what it hears as views of the same
/// bytes ([`Frame::decode_payload`]) — one buffer per transmission, read
/// in place, as on the paper's wire (§3.3).
/// Because nothing can change the bytes behind a frame, the frame also
/// remembers their checksum (`sum`) beside the FCS it carries (`fcs`),
/// and every receiver's integrity check compares the two words instead
/// of re-reading the payload. The only operation that yields different
/// bytes, [`Frame::corrupt_in_flight`], writes them to a fresh buffer
/// and recomputes `sum` for it, so `sum == crc32(payload())` holds for
/// every frame this module can produce — and a view taken before the
/// damage keeps the undamaged bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Transmitting station.
    pub src: StationId,
    /// Link-layer destination.
    pub dst: Destination,
    /// Opaque transport payload: a whole shared buffer, kept as the
    /// buffer rather than as [`Bytes`] over it because every scheduled
    /// delivery carries a frame and a 64-byte event sifts measurably
    /// faster than a 72-byte one (atomically counted: the live runtime
    /// sends frames across threads).
    payload: Arc<[u8]>,
    /// Checksum of `payload`, computed when these bytes were written.
    sum: u32,
    /// Frame check sequence as carried on the wire.
    fcs: u32,
}

impl Frame {
    /// Builds a frame, computing its FCS over the payload. Shared bytes
    /// become the frame's as they are; a `Vec<u8>` is copied into a
    /// buffer of its own.
    pub fn new(src: StationId, dst: Destination, payload: impl Into<Bytes>) -> Self {
        let payload = Arc::<[u8]>::from(payload.into());
        let sum = crc32(&payload);
        Frame {
            src,
            dst,
            payload,
            sum,
            fcs: sum,
        }
    }

    /// Returns the opaque transport payload.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Returns the payload as the shared bytes it is, to keep a slice of.
    pub fn payload_bytes(&self) -> Bytes {
        Bytes::from(Arc::clone(&self.payload))
    }

    /// Decodes the whole payload as one `T`, in place: the byte strings
    /// of the value are views of the payload (and keep its buffer alive).
    ///
    /// # Errors
    ///
    /// As [`Decode::decode_all`]: the payload is not exactly one `T`.
    pub fn decode_payload<T: Decode>(&self) -> Result<T, CodecError> {
        T::decode_rest(Decoder::over_buffer(&self.payload))
    }

    /// Returns `true` if the carried FCS matches the payload.
    pub fn is_intact(&self) -> bool {
        self.sum == self.fcs
    }

    /// Corrupts the frame in flight by flipping one payload bit. Only
    /// this frame is damaged: clones keep the undamaged bytes.
    pub fn corrupt_in_flight(&mut self) {
        if self.payload.is_empty() {
            // No payload bits to damage; damage the FCS itself.
            self.fcs = !self.fcs;
        } else {
            let damaged = Bytes::filled(self.payload.len(), |buf| {
                buf.copy_from_slice(&self.payload);
                buf[0] ^= 0x80;
            });
            self.sum = crc32(&damaged);
            self.payload = damaged.into();
        }
    }

    /// Complements the FCS — the token-ring recorder's §6.1.2 mechanism
    /// for invalidating a frame it failed to record.
    pub fn invalidate_fcs(&mut self) {
        self.fcs = !self.fcs;
    }

    /// Returns the frame's size on the wire, including header overhead.
    pub fn wire_bytes(&self) -> usize {
        HEADER_BYTES + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn frame(payload: &[u8]) -> Frame {
        Frame::new(
            StationId(1),
            Destination::Station(StationId(2)),
            payload.to_vec(),
        )
    }

    #[test]
    fn fresh_frame_is_intact() {
        assert!(frame(b"hello").is_intact());
        assert!(frame(b"").is_intact());
    }

    #[test]
    fn corruption_detected() {
        let mut f = frame(b"hello");
        f.corrupt_in_flight();
        assert!(!f.is_intact());
    }

    #[test]
    fn corruption_of_empty_payload_detected() {
        let mut f = frame(b"");
        f.corrupt_in_flight();
        assert!(!f.is_intact());
    }

    #[test]
    fn invalidated_fcs_never_validates() {
        let mut f = frame(b"data");
        f.invalidate_fcs();
        assert!(!f.is_intact());
        // Invalidation is reversible by complementing again (a property the
        // ring model relies on never happening accidentally).
        f.invalidate_fcs();
        assert!(f.is_intact());
    }

    #[test]
    fn corruption_is_copy_on_write() {
        let original = frame(b"hello");
        let copies: Vec<Frame> = (0..5).map(|_| original.clone()).collect();
        assert_eq!(Arc::strong_count(&original.payload), 1 + copies.len());
        let mut damaged = original.clone();
        assert!(Arc::ptr_eq(&original.payload, &damaged.payload));
        damaged.corrupt_in_flight();
        assert!(!damaged.is_intact());
        assert!(original.is_intact());
        assert_eq!(original.payload(), b"hello");
        assert_ne!(damaged.payload(), original.payload());
    }

    /// One step applied to one member of a family of clones.
    #[derive(Debug, Clone)]
    enum Op {
        Clone(usize),
        Corrupt(usize),
        InvalidateFcs(usize),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..16).prop_map(Op::Clone),
            (0usize..16).prop_map(Op::Corrupt),
            (0usize..16).prop_map(Op::InvalidateFcs),
        ]
    }

    proptest! {
        /// The memoised predicate is the from-scratch one for every frame
        /// reachable through the public operations, damaging one clone
        /// never shows in another, and a clone shares its source's buffer.
        #[test]
        fn memoised_fcs_check_equals_recompute(
            payload in proptest::collection::vec(any::<u8>(), 0..300),
            ops in proptest::collection::vec(arb_op(), 0..40),
        ) {
            let first = Frame::new(StationId(1), Destination::Broadcast, payload);
            let mut family = vec![first];
            for op in ops {
                let i = match op {
                    Op::Clone(i) | Op::Corrupt(i) | Op::InvalidateFcs(i) => i % family.len(),
                };
                // What every other member looks like before the step.
                let before: Vec<(Vec<u8>, bool)> = family
                    .iter()
                    .map(|f| (f.payload().to_vec(), f.is_intact()))
                    .collect();
                match op {
                    Op::Clone(_) => {
                        let copy = family[i].clone();
                        prop_assert!(Arc::ptr_eq(&copy.payload, &family[i].payload));
                        prop_assert_eq!(&copy, &family[i]);
                        family.push(copy);
                    }
                    Op::Corrupt(_) => family[i].corrupt_in_flight(),
                    Op::InvalidateFcs(_) => family[i].invalidate_fcs(),
                }
                for (j, f) in family.iter().enumerate() {
                    prop_assert_eq!(f.is_intact(), crc32(f.payload()) == f.fcs);
                    if j != i && j < before.len() {
                        prop_assert_eq!(f.payload(), &before[j].0[..]);
                        prop_assert_eq!(f.is_intact(), before[j].1);
                    }
                }
            }
        }
    }

    #[test]
    fn destination_filtering() {
        let uni = Destination::Station(StationId(3));
        assert!(uni.accepts(StationId(3)));
        assert!(!uni.accepts(StationId(4)));
        assert!(Destination::Broadcast.accepts(StationId(9)));
    }

    #[test]
    fn wire_bytes_includes_header() {
        assert_eq!(frame(b"abcd").wire_bytes(), HEADER_BYTES + 4);
    }
}
