//! Messages: header, optional passed link, and body (§4.2.2.3).

use crate::ids::{Channel, MessageId, ProcessId};
use crate::link::Link;
use publishing_sim::codec::{Bytes, CodecError, Decode, Decoder, Encode, Encoder};

/// A message header. Code and channel come from the link the message was
/// sent over; the ids support duplicate suppression and publishing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageHeader {
    /// Network-unique message id (sender + per-sender sequence).
    pub id: MessageId,
    /// Destination process.
    pub to: ProcessId,
    /// The sending link's code.
    pub code: u32,
    /// The sending link's channel.
    pub channel: Channel,
    /// Sent over a DELIVERTOKERNEL link: the destination node's kernel
    /// process receives it instead of the destination process (§4.4.3).
    pub deliver_to_kernel: bool,
}

impl MessageHeader {
    /// Returns the sending process (from the message id).
    pub fn from(&self) -> ProcessId {
        self.id.sender
    }
}

impl Encode for MessageHeader {
    fn encode(&self, e: &mut Encoder) {
        self.id.encode(e);
        self.to.encode(e);
        e.u32(self.code)
            .u8(self.channel.0)
            .bool(self.deliver_to_kernel);
    }
}

impl Decode for MessageHeader {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let id = MessageId::decode(d)?;
        let to = ProcessId::decode(d)?;
        let code = d.u32()?;
        let channel = Channel(d.u8()?);
        let deliver_to_kernel = d.bool()?;
        Ok(MessageHeader {
            id,
            to,
            code,
            channel,
            deliver_to_kernel,
        })
    }
}

/// A complete message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Routing and identification fields.
    pub header: MessageHeader,
    /// At most one link may ride in a message (§4.2.2.3); it was removed
    /// from the sender's table and is installed in the receiver's on read.
    pub passed_link: Option<Link>,
    /// Uninterpreted body; "it is left to the communicating processes to
    /// agree as to the contents and format". A message decoded out of a
    /// frame views the frame's bytes here.
    pub body: Bytes,
}

impl Encode for Message {
    fn encode(&self, e: &mut Encoder) {
        self.header.encode(e);
        e.option(self.passed_link.as_ref(), |e, l| l.encode(e));
        e.bytes(&self.body);
    }

    /// The message's size as carried on the wire — what the timing
    /// models charge for as well.
    fn encoded_len(&self) -> usize {
        // Header 30 (ids 16 + 8, code 4, channel 1, flag 1), link
        // presence byte, body length prefix 8; a passed link adds 14.
        let link = if self.passed_link.is_some() { 14 } else { 0 };
        39 + link + self.body.len()
    }
}

impl Decode for Message {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let header = MessageHeader::decode(d)?;
        let passed_link = d.option(Link::decode)?;
        let body = d.shared_bytes()?;
        Ok(Message {
            header,
            passed_link,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    fn msg() -> Message {
        Message {
            header: MessageHeader {
                id: MessageId {
                    sender: ProcessId::new(1, 5),
                    seq: 7,
                },
                to: ProcessId::new(2, 3),
                code: 42,
                channel: Channel(9),
                deliver_to_kernel: false,
            },
            passed_link: Some(Link::to(ProcessId::new(1, 5), Channel(1), 11)),
            body: vec![1, 2, 3, 4].into(),
        }
    }

    #[test]
    fn codec_roundtrip() {
        let m = msg();
        let buf = m.encode_to_vec();
        assert_eq!(Message::decode_all(&buf).unwrap(), m);
    }

    #[test]
    fn codec_roundtrip_without_link() {
        let mut m = msg();
        m.passed_link = None;
        let buf = m.encode_to_vec();
        assert_eq!(Message::decode_all(&buf).unwrap(), m);
    }

    #[test]
    fn encoded_len_is_exact() {
        let mut m = msg();
        assert_eq!(m.encoded_len(), m.encode_to_vec().len());
        m.passed_link = None;
        assert_eq!(m.encoded_len(), m.encode_to_vec().len());
        m.body = Vec::new().into();
        assert_eq!(m.encoded_len(), m.encode_to_vec().len());
    }

    #[test]
    fn from_is_id_sender() {
        assert_eq!(
            msg().header.from(),
            ProcessId {
                node: NodeId(1),
                local: 5
            }
        );
    }

    #[test]
    fn truncated_message_fails() {
        let buf = msg().encode_to_vec();
        assert!(Message::decode_all(&buf[..buf.len() - 1]).is_err());
    }
}
