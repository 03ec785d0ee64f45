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
///
/// The frame check is the interface's own hardware (§4.3.3), so the
/// model keeps only what that check would find: `diff`, the checksum of
/// the payload XOR the FCS the frame carries. A frame is built with the
/// FCS of its own bytes, so `diff` starts at zero and no CRC is computed;
/// the two operations that make the check fail change it —
/// [`Frame::invalidate_fcs`] complements the carried FCS, so `diff` is
/// complemented, and [`Frame::corrupt_in_flight`], the only operation
/// that yields different bytes, writes them to a fresh buffer and folds
/// the checksums of the old and the new bytes into `diff`. Only damage
/// pays for a CRC, and a view taken before the damage keeps the
/// undamaged bytes.
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
    /// `crc32(payload) ^ carried FCS`: zero exactly when the frame check
    /// passes.
    diff: u32,
}

impl Frame {
    /// Builds a frame carrying the FCS of its payload. Shared bytes
    /// become the frame's as they are; a `Vec<u8>` is copied into a
    /// buffer of its own.
    pub fn new(src: StationId, dst: Destination, payload: impl Into<Bytes>) -> Self {
        Frame {
            src,
            dst,
            payload: Arc::<[u8]>::from(payload.into()),
            diff: 0,
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
        self.diff == 0
    }

    /// Corrupts the frame in flight by flipping one payload bit. Only
    /// this frame is damaged: clones keep the undamaged bytes.
    pub fn corrupt_in_flight(&mut self) {
        if self.payload.is_empty() {
            // No payload bits to damage; damage the FCS itself.
            self.invalidate_fcs();
        } else {
            let damaged = Bytes::filled(self.payload.len(), |buf| {
                buf.copy_from_slice(&self.payload);
                buf[0] ^= 0x80;
            });
            // The carried FCS stays; the checksum it is compared with
            // becomes the damaged bytes'.
            self.diff ^= crc32(&self.payload) ^ crc32(&damaged);
            self.payload = damaged.into();
        }
    }

    /// Complements the FCS — the token-ring recorder's §6.1.2 mechanism
    /// for invalidating a frame it failed to record.
    pub fn invalidate_fcs(&mut self) {
        self.diff = !self.diff;
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

    /// The frame as the wire would carry it: bytes and an explicit FCS,
    /// checked by recomputing the CRC — what [`Frame`] must be
    /// indistinguishable from.
    #[derive(Debug, Clone)]
    struct Reference {
        payload: Vec<u8>,
        fcs: u32,
    }

    impl Reference {
        fn new(payload: Vec<u8>) -> Self {
            let fcs = crc32(&payload);
            Reference { payload, fcs }
        }

        fn corrupt_in_flight(&mut self) {
            match self.payload.first_mut() {
                Some(b) => *b ^= 0x80,
                None => self.fcs = !self.fcs,
            }
        }

        fn is_intact(&self) -> bool {
            crc32(&self.payload) == self.fcs
        }
    }

    proptest! {
        /// Every frame reachable through the public operations answers
        /// the frame check as a reference carrying its FCS explicitly
        /// does, with the same bytes; damaging one clone never shows in
        /// another, and a clone shares its source's buffer.
        #[test]
        fn fcs_check_equals_an_explicit_fcs(
            payload in proptest::collection::vec(any::<u8>(), 0..300),
            ops in proptest::collection::vec(arb_op(), 0..40),
        ) {
            let first = Frame::new(StationId(1), Destination::Broadcast, payload.clone());
            let mut family = vec![(first, Reference::new(payload))];
            for op in ops {
                let i = match op {
                    Op::Clone(i) | Op::Corrupt(i) | Op::InvalidateFcs(i) => i % family.len(),
                };
                match op {
                    Op::Clone(_) => {
                        let copy = family[i].clone();
                        prop_assert!(Arc::ptr_eq(&copy.0.payload, &family[i].0.payload));
                        prop_assert_eq!(&copy.0, &family[i].0);
                        family.push(copy);
                    }
                    Op::Corrupt(_) => {
                        family[i].0.corrupt_in_flight();
                        family[i].1.corrupt_in_flight();
                    }
                    Op::InvalidateFcs(_) => {
                        family[i].0.invalidate_fcs();
                        family[i].1.fcs = !family[i].1.fcs;
                    }
                }
                // Each member against its own reference: damage to one
                // clone that showed in another would fail here.
                for (f, reference) in &family {
                    prop_assert_eq!(f.payload(), &reference.payload[..]);
                    prop_assert_eq!(f.is_intact(), reference.is_intact());
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
