//! Decoding over shared bytes is decoding, and the encoding is canonical.
//!
//! A station reads a frame in place: `decode_shared` hands out views of
//! the frame's buffer where `decode_all` over a plain slice copies. The
//! two must agree on every value and on every error. And the recorder
//! logs a captured message as the slice of the frame behind the `Data`
//! header, never encoding it again — which is only right if those bytes
//! are exactly `msg.encode_to_vec()`. A router or a recorder that only
//! needs a frame's destination reads it in place (`Wire::peek_dst`),
//! which must be the full decode's answer on every input, errors
//! included.

use proptest::prelude::*;
use publishing_demos::ids::{Channel, MessageId, NodeId, ProcessId};
use publishing_demos::link::Link;
use publishing_demos::message::{Message, MessageHeader};
use publishing_demos::transport::{Wire, DATA_HEADER};
use publishing_net::frame::{Destination, Frame, StationId};
use publishing_sim::codec::{Bytes, CodecError, Decode, Encode, MAX_LEN};

/// Header fields, an optional passed link, a body: empty, small, or the
/// 4 KiB of a full page.
fn arb_message() -> impl Strategy<Value = Message> {
    let header = (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u32..99);
    let link = proptest::option::of((0u64..u64::MAX, 0u32..99, 0u8..4, 0u8..2));
    let body = prop_oneof![
        (0usize..1).prop_map(|_| 0usize),
        1usize..300,
        (0usize..1).prop_map(|_| 4096usize),
    ];
    (header, (0u8..4, 0u8..2), link, body, 0u8..=255).prop_map(
        |((sender, to, seq, code), (channel, dtk), link, len, fill)| Message {
            header: MessageHeader {
                id: MessageId {
                    sender: ProcessId::from_u64(sender),
                    seq,
                },
                to: ProcessId::from_u64(to),
                code,
                channel: Channel(channel),
                deliver_to_kernel: dtk == 1,
            },
            passed_link: link.map(|(dest, code, channel, dtk)| Link {
                dest: ProcessId::from_u64(dest),
                code,
                channel: Channel(channel),
                deliver_to_kernel: dtk == 1,
            }),
            body: (0..len)
                .map(|i| fill.wrapping_add(i as u8))
                .collect::<Vec<u8>>()
                .into(),
        },
    )
}

/// Every `Wire` variant around `msg`.
fn wires(msg: &Message, route: (u32, u32, u32, u64)) -> Vec<Wire> {
    let (node, incarnation, peer_epoch, tseq) = route;
    let src_node = NodeId(node);
    vec![
        Wire::Data {
            src_node,
            incarnation,
            peer_epoch,
            tseq,
            msg: msg.clone(),
        },
        Wire::Ack {
            src_node,
            incarnation,
            peer_epoch,
            tseq,
            msg_id: msg.header.id,
            dst_pid: msg.header.to,
        },
        Wire::Datagram {
            src_node,
            msg: msg.clone(),
        },
        Wire::EpochNotice {
            src_node,
            incarnation,
        },
        Wire::Quorum {
            src_node,
            group: peer_epoch,
            payload: msg.body.clone(),
        },
    ]
}

/// Both decodes of `bytes`, which must agree.
fn decode_both<T: Decode + PartialEq + core::fmt::Debug>(bytes: &[u8]) -> Result<T, CodecError> {
    let plain = T::decode_all(bytes);
    let shared = T::decode_shared(&Bytes::from(bytes));
    assert_eq!(plain, shared, "shared and plain decode disagree");
    plain
}

/// The destination a full decode finds: a `Data`'s message's, an
/// `Ack`'s, none for the other variants.
fn decoded_dst(bytes: &[u8]) -> Result<Option<ProcessId>, CodecError> {
    Wire::decode_all(bytes).map(|wire| match wire {
        Wire::Data { msg, .. } => Some(msg.header.to),
        Wire::Ack { dst_pid, .. } => Some(dst_pid),
        Wire::Datagram { .. } | Wire::EpochNotice { .. } | Wire::Quorum { .. } => None,
    })
}

proptest! {
    #[test]
    fn shared_decode_equals_plain_decode_and_the_encoding_is_canonical(
        msg in arb_message(),
        route in (0u32..9, 0u32..5, 0u32..5, 1u64..u64::MAX),
        cut in 0usize..4200,
        extra in proptest::collection::vec(any::<u8>(), 1..4),
    ) {
        let encoded = msg.encode_to_vec();
        prop_assert_eq!(decode_both::<Message>(&encoded), Ok(msg.clone()));

        // What follows a Data header is the message's own encoding.
        let (node, incarnation, peer_epoch, tseq) = route;
        let frame = Wire::encode_data(NodeId(node), incarnation, peer_epoch, tseq, &msg);
        prop_assert_eq!(&frame[DATA_HEADER..], &encoded[..]);
        prop_assert_eq!(Wire::data_message(&frame), &encoded[..]);
        // Decoded in place, the body is the frame's bytes, not a copy;
        // re-encoding the decoded message gives the slice back.
        let Ok(Wire::Data { msg: seen, .. }) = Wire::decode_shared(&frame) else {
            panic!("a data frame decodes as one");
        };
        prop_assert!(seen.body.shares_buffer_with(&frame));
        prop_assert_eq!(seen.encode_to_vec(), &frame[DATA_HEADER..]);
        // The frame on the medium is that same buffer — the one
        // allocation of the transmission — and a station decodes it there.
        let on_wire = Frame::new(StationId(node), Destination::Broadcast, frame.clone());
        let Ok(Wire::Data { msg: heard, .. }) = on_wire.decode_payload::<Wire>() else {
            panic!("a data frame decodes as one");
        };
        prop_assert!(heard.body.shares_buffer_with(&frame));
        prop_assert_eq!(&heard, &msg);

        for wire in wires(&msg, route) {
            let bytes = wire.encode_to_vec();
            prop_assert_eq!(&wire.encode_to_bytes()[..], &bytes[..]);
            prop_assert_eq!(decode_both::<Wire>(&bytes), Ok(wire.clone()));
            // Truncated anywhere: the same error either way.
            let short = &bytes[..cut % bytes.len()];
            prop_assert!(matches!(
                decode_both::<Wire>(short),
                Err(CodecError::UnexpectedEnd { .. })
            ));
            // Trailing bytes: counted alike.
            let mut long = bytes.clone();
            long.extend_from_slice(&extra);
            prop_assert_eq!(
                decode_both::<Wire>(&long),
                Err(CodecError::TrailingBytes { remaining: extra.len() })
            );
        }
    }

    /// A body length prefix past the sanity bound is refused before
    /// anything is viewed or copied, identically.
    #[test]
    fn oversized_length_prefix_fails_alike(msg in arb_message(), over in 1u64..1 << 40) {
        let mut bytes = msg.encode_to_vec();
        let prefix = bytes.len() - msg.body.len() - 8;
        bytes[prefix..prefix + 8].copy_from_slice(&(MAX_LEN + over).to_le_bytes());
        prop_assert_eq!(
            decode_both::<Message>(&bytes),
            Err(CodecError::LengthTooLarge { len: MAX_LEN + over, max: MAX_LEN })
        );
    }

    /// Reading the destination in place is the full decode's answer on
    /// every variant, and on every truncation, damaged byte, trailing
    /// byte and garbage input — errors included.
    #[test]
    fn peek_dst_equals_the_full_decode(
        msg in arb_message(),
        route in (0u32..9, 0u32..5, 0u32..5, 1u64..u64::MAX),
        cut in 0usize..4200,
        at in any::<usize>(),
        flip in 1u8..=255,
        extra in proptest::collection::vec(any::<u8>(), 1..4),
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        for wire in wires(&msg, route) {
            let bytes = wire.encode_to_vec();
            let peeked = Wire::peek_dst(&bytes);
            prop_assert!(peeked.is_ok());
            prop_assert_eq!(peeked, decoded_dst(&bytes));
            let short = &bytes[..cut % bytes.len()];
            prop_assert_eq!(Wire::peek_dst(short), decoded_dst(short));
            let mut damaged = bytes.clone();
            damaged[at % bytes.len()] ^= flip;
            prop_assert_eq!(Wire::peek_dst(&damaged), decoded_dst(&damaged));
            let mut long = bytes;
            long.extend_from_slice(&extra);
            prop_assert_eq!(Wire::peek_dst(&long), decoded_dst(&long));
        }
        // Garbage behind every tag, known or not.
        for tag in 0u8..=6 {
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&garbage);
            prop_assert_eq!(Wire::peek_dst(&bytes), decoded_dst(&bytes));
        }
        prop_assert_eq!(Wire::peek_dst(&garbage), decoded_dst(&garbage));
    }
}
