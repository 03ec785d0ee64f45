//! Links: the capability-like name space of DEMOS (§4.2.2.1).
//!
//! "A link is much like a capability. It allows access and is immutable
//! and unforgable. A DEMOS process must have a link to another process in
//! order to send it messages." Links live outside process address spaces,
//! in kernel-resident link tables or inside messages in transit; a process
//! refers to a link only via its link id.

use crate::ids::{Channel, LinkId, ProcessId};
use publishing_sim::codec::{CodecError, Decode, Decoder, Encode, Encoder};
use std::collections::BTreeMap;

/// A link: the right to send messages to a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// The process messages over this link are delivered to.
    pub dest: ProcessId,
    /// The code the creator assigned; carried in every message header so
    /// the receiver can tell which of its links was used (§4.2.2.1).
    pub code: u32,
    /// The channel messages over this link arrive on (§4.2.2.2).
    pub channel: Channel,
    /// A DELIVERTOKERNEL link (§4.4.3): messages sent over it are handed
    /// to the kernel process of the node hosting `dest`, which performs
    /// process-control actions while assuming `dest`'s identity.
    pub deliver_to_kernel: bool,
}

impl Link {
    /// Creates an ordinary link to `dest`.
    pub fn to(dest: ProcessId, channel: Channel, code: u32) -> Self {
        Link {
            dest,
            code,
            channel,
            deliver_to_kernel: false,
        }
    }

    /// Creates a DELIVERTOKERNEL link controlling `dest`.
    pub fn control(dest: ProcessId, code: u32) -> Self {
        Link {
            dest,
            code,
            channel: Channel::DEFAULT,
            deliver_to_kernel: true,
        }
    }
}

impl Encode for Link {
    fn encode(&self, e: &mut Encoder) {
        self.dest.encode(e);
        e.u32(self.code)
            .u8(self.channel.0)
            .bool(self.deliver_to_kernel);
    }

    fn encoded_len(&self) -> usize {
        // Destination 8, code 4, channel 1, flag 1.
        14
    }
}

impl Decode for Link {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let dest = ProcessId::decode(d)?;
        let code = d.u32()?;
        let channel = Channel(d.u8()?);
        let deliver_to_kernel = d.bool()?;
        Ok(Link {
            dest,
            code,
            channel,
            deliver_to_kernel,
        })
    }
}

/// A kernel-resident link table (part of the process save area, §4.4.3).
///
/// Link ids are never reused within a table's lifetime, so a stale id can
/// never silently alias a new link — and the allocation counter is part of
/// the checkpoint, keeping id assignment deterministic across recovery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkTable {
    entries: BTreeMap<u32, Link>,
    next: u32,
}

impl LinkTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        LinkTable::default()
    }

    /// Inserts a link, returning its id.
    pub fn insert(&mut self, link: Link) -> LinkId {
        let id = self.next;
        self.next += 1;
        self.entries.insert(id, link);
        LinkId(id)
    }

    /// Looks up a link by id.
    pub fn get(&self, id: LinkId) -> Option<&Link> {
        self.entries.get(&id.0)
    }

    /// Removes a link (used when a link is passed in a message or
    /// moved by MOVELINK; "the link is removed from the sender's link
    /// table and copied into the message", §4.2.2.3).
    pub fn remove(&mut self, id: LinkId) -> Option<Link> {
        self.entries.remove(&id.0)
    }

    /// Returns the number of links held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the table holds no links.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(id, link)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.entries.iter().map(|(&id, l)| (LinkId(id), l))
    }
}

impl Encode for LinkTable {
    fn encode(&self, e: &mut Encoder) {
        e.u32(self.next);
        e.u64(self.entries.len() as u64);
        for (id, link) in &self.entries {
            e.u32(*id);
            link.encode(e);
        }
    }
}

impl Decode for LinkTable {
    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let next = d.u32()?;
        let n = d.u64()?;
        let mut entries = BTreeMap::new();
        for _ in 0..n {
            let id = d.u32()?;
            let link = Link::decode(d)?;
            entries.insert(id, link);
        }
        Ok(LinkTable { entries, next })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    fn pid(n: u32, l: u32) -> ProcessId {
        ProcessId {
            node: NodeId(n),
            local: l,
        }
    }

    #[test]
    fn insert_get_remove() {
        let mut t = LinkTable::new();
        let id = t.insert(Link::to(pid(1, 2), Channel(3), 77));
        assert_eq!(t.get(id).unwrap().code, 77);
        let link = t.remove(id).unwrap();
        assert_eq!(link.dest, pid(1, 2));
        assert!(t.get(id).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn ids_never_reused() {
        let mut t = LinkTable::new();
        let a = t.insert(Link::to(pid(1, 1), Channel(0), 0));
        t.remove(a);
        let b = t.insert(Link::to(pid(1, 1), Channel(0), 0));
        assert_ne!(a, b);
    }

    #[test]
    fn codec_roundtrip_preserves_next_counter() {
        let mut t = LinkTable::new();
        t.insert(Link::to(pid(1, 1), Channel(2), 5));
        let a = t.insert(Link::control(pid(2, 3), 9));
        t.remove(a);
        let buf = t.encode_to_vec();
        let t2 = LinkTable::decode_all(&buf).unwrap();
        assert_eq!(t, t2);
        // A restored table must allocate the same next id the original
        // would — determinism across recovery.
        let (mut t, mut t2) = (t, t2);
        assert_eq!(
            t.insert(Link::to(pid(9, 9), Channel(0), 0)),
            t2.insert(Link::to(pid(9, 9), Channel(0), 0))
        );
    }

    #[test]
    fn control_links_flagged() {
        assert!(Link::control(pid(1, 1), 0).deliver_to_kernel);
        assert!(!Link::to(pid(1, 1), Channel(0), 0).deliver_to_kernel);
    }

    #[test]
    fn link_codec_roundtrip_and_exact_length() {
        for link in [
            Link::control(pid(7, 1), u32::MAX),
            Link::to(pid(1, 1), Channel(3), 0),
        ] {
            let buf = link.encode_to_vec();
            assert_eq!(Link::decode_all(&buf).unwrap(), link);
            assert_eq!(link.encoded_len(), buf.len());
        }
    }

    #[test]
    fn iter_in_id_order() {
        let mut t = LinkTable::new();
        t.insert(Link::to(pid(1, 1), Channel(0), 10));
        t.insert(Link::to(pid(1, 2), Channel(0), 20));
        let codes: Vec<u32> = t.iter().map(|(_, l)| l.code).collect();
        assert_eq!(codes, vec![10, 20]);
    }
}
