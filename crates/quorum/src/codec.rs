//! Wire codec for recorder snapshot images shipped between quorum
//! replicas.
//!
//! A lagging follower that has fallen behind the leader's compacted
//! log floor is caught up with a full recorder-state image: the
//! per-process [`ProcessExport`] snapshots the sharded tier already
//! uses for handoff, batched and serialised here. The orphan rule
//! keeps these as free functions rather than `Encode`/`Decode` impls
//! (the export type lives in `publishing-core`, the traits in
//! `publishing-sim`).

use publishing_core::recorder::ProcessExport;
use publishing_demos::ids::{MessageId, ProcessId};
use publishing_demos::link::Link;
use publishing_demos::message::Message;
use publishing_sim::codec::{CodecError, Decode, Decoder, Encode, Encoder};
use publishing_stable::store::{Checkpoint, RecordKey};

fn encode_export(e: &mut Encoder, x: &ProcessExport) {
    x.pid.encode(e);
    e.option(x.checkpoint.as_ref(), |e, cp| {
        e.u64(cp.pid).u64(cp.upto_seq).bytes(&cp.blob);
    });
    e.seq(&x.records, |e, (key, bytes)| {
        e.u64(key.pid).u64(key.seq).bytes(bytes);
    });
    e.seq(&x.pending, |e, m| m.encode(e));
    e.seq(&x.arrivals, |e, (seq, id)| {
        e.u64(*seq);
        id.encode(e);
    });
    e.seq(&x.pins, |e, (idx, id)| {
        e.u64(*idx);
        id.encode(e);
    });
    e.u64(x.read_floor).u64(x.next_arrival_seq);
    e.seq(&x.last_sent, |e, (pid, seq)| {
        pid.encode(e);
        e.u64(*seq);
    });
    e.bool(x.recoverable);
    e.str(&x.program_name);
    e.seq(&x.initial_links, |e, l| l.encode(e));
    e.option(x.checkpoint_image.as_ref(), |e, img| {
        e.bytes(img);
    });
}

fn decode_export(d: &mut Decoder<'_>) -> Result<ProcessExport, CodecError> {
    let pid = ProcessId::decode(d)?;
    let checkpoint = d.option(|d| {
        Ok(Checkpoint {
            pid: d.u64()?,
            upto_seq: d.u64()?,
            blob: d.bytes()?,
        })
    })?;
    let records = d.seq(|d| {
        let key = RecordKey {
            pid: d.u64()?,
            seq: d.u64()?,
        };
        Ok((key, d.shared_bytes()?))
    })?;
    let pending = d.seq(Message::decode)?;
    let arrivals = d.seq(|d| Ok((d.u64()?, MessageId::decode(d)?)))?;
    let pins = d.seq(|d| Ok((d.u64()?, MessageId::decode(d)?)))?;
    let read_floor = d.u64()?;
    let next_arrival_seq = d.u64()?;
    let last_sent = d.seq(|d| Ok((ProcessId::decode(d)?, d.u64()?)))?;
    let recoverable = d.bool()?;
    let program_name = d.str()?;
    let initial_links = d.seq(Link::decode)?;
    let checkpoint_image = d.option(|d| d.bytes())?;
    Ok(ProcessExport {
        pid,
        checkpoint,
        records,
        pending,
        arrivals,
        pins,
        read_floor,
        next_arrival_seq,
        last_sent,
        recoverable,
        program_name,
        initial_links,
        checkpoint_image,
    })
}

/// Serialises a batch of process exports into one snapshot image.
pub fn encode_exports(exports: &[ProcessExport]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.seq(exports, encode_export);
    e.finish()
}

/// Parses a snapshot image produced by [`encode_exports`].
pub fn decode_exports(image: &[u8]) -> Result<Vec<ProcessExport>, CodecError> {
    let mut d = Decoder::new(image);
    let exports = d.seq(decode_export)?;
    d.finish()?;
    Ok(exports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use publishing_demos::ids::Channel;
    use publishing_demos::message::MessageHeader;

    fn pid(node: u32, local: u32) -> ProcessId {
        ProcessId::new(node, local)
    }

    fn msg(n: u64) -> Message {
        Message {
            header: MessageHeader {
                id: MessageId {
                    sender: pid(1, 1),
                    seq: n,
                },
                to: pid(2, 7),
                code: 0,
                channel: Channel(1),
                deliver_to_kernel: false,
            },
            passed_link: None,
            body: vec![n as u8; 3].into(),
        }
    }

    #[test]
    fn snapshot_image_roundtrip() {
        let export = ProcessExport {
            pid: pid(2, 7),
            checkpoint: Some(Checkpoint {
                pid: pid(2, 7).as_u64(),
                upto_seq: 4,
                blob: vec![9, 9, 9],
            }),
            records: vec![(
                RecordKey {
                    pid: pid(2, 7).as_u64(),
                    seq: 4,
                },
                vec![1, 2, 3].into(),
            )],
            pending: vec![msg(5), msg(6)],
            arrivals: vec![(4, msg(4).header.id)],
            pins: vec![(2, msg(2).header.id)],
            read_floor: 4,
            next_arrival_seq: 5,
            last_sent: vec![(pid(1, 1), 6)],
            recoverable: true,
            program_name: "worker".into(),
            initial_links: Vec::new(),
            checkpoint_image: Some(vec![7, 7]),
        };
        let empty = ProcessExport {
            pid: pid(3, 1),
            checkpoint: None,
            records: Vec::new(),
            pending: Vec::new(),
            arrivals: Vec::new(),
            pins: Vec::new(),
            read_floor: 0,
            next_arrival_seq: 0,
            last_sent: Vec::new(),
            recoverable: false,
            program_name: String::new(),
            initial_links: Vec::new(),
            checkpoint_image: None,
        };
        let image = encode_exports(&[export, empty]);
        let back = decode_exports(&image).expect("roundtrip");
        assert_eq!(back.len(), 2);
        // `ProcessExport` doesn't implement `PartialEq`; a stable codec
        // makes re-encoding the identity instead.
        assert_eq!(encode_exports(&back), image);
        assert_eq!(back[0].pending.len(), 2);
        assert_eq!(back[0].next_arrival_seq, 5);
        assert_eq!(back[1].checkpoint_image, None);
    }

    #[test]
    fn truncated_image_rejected() {
        let image = encode_exports(&[ProcessExport {
            pid: pid(1, 1),
            checkpoint: None,
            records: Vec::new(),
            pending: Vec::new(),
            arrivals: Vec::new(),
            pins: Vec::new(),
            read_floor: 0,
            next_arrival_seq: 0,
            last_sent: Vec::new(),
            recoverable: true,
            program_name: "p".into(),
            initial_links: Vec::new(),
            checkpoint_image: None,
        }]);
        assert!(decode_exports(&image[..image.len() - 1]).is_err());
    }
}
