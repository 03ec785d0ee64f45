//! Per-process message queues with channel-selective receive (§4.2.2.2).
//!
//! "Instead of returning the next message in the queue, the message kernel
//! returns the next message in the queue which belongs to one of those
//! channels." When that skips the queue head, publishing requires telling
//! the recorder (§4.4.2) — the queue reports the deviation so the kernel
//! can send the read-order notice.

use crate::ids::{ChannelSet, MessageId};
use crate::message::Message;
use std::collections::VecDeque;

/// What a successful selective receive tells the kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadInfo {
    /// The message handed to the process.
    pub message: Message,
    /// `Some(head_id)` when the read skipped the queue head — the §4.4.2
    /// notice content: "the id of the message read and the id of the first
    /// message in the queue".
    pub skipped_head: Option<MessageId>,
}

/// A process's queue of unread messages.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MessageQueue {
    items: VecDeque<Message>,
}

impl MessageQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        MessageQueue::default()
    }

    /// Appends an arriving message.
    pub fn enqueue(&mut self, msg: Message) {
        self.items.push_back(msg);
    }

    /// Removes and returns the first message on one of `channels`, noting
    /// whether the queue head was skipped.
    pub fn receive(&mut self, channels: ChannelSet) -> Option<ReadInfo> {
        let pos = self
            .items
            .iter()
            .position(|m| channels.contains(m.header.channel))?;
        let skipped_head = if pos == 0 {
            None
        } else {
            Some(self.items[0].header.id)
        };
        let message = self.items.remove(pos).expect("position valid");
        Some(ReadInfo {
            message,
            skipped_head,
        })
    }

    /// Like [`MessageQueue::receive`], but DELIVERTOKERNEL process-control
    /// messages match regardless of the channel mask — they are urgent and
    /// executed by the kernel, not delivered to the program (§4.4.3).
    pub fn receive_for_process(&mut self, channels: ChannelSet) -> Option<ReadInfo> {
        let pos = self
            .items
            .iter()
            .position(|m| m.header.deliver_to_kernel || channels.contains(m.header.channel))?;
        let skipped_head = if pos == 0 {
            None
        } else {
            Some(self.items[0].header.id)
        };
        let message = self.items.remove(pos).expect("position valid");
        Some(ReadInfo {
            message,
            skipped_head,
        })
    }

    /// Returns `true` if [`MessageQueue::receive_for_process`] would
    /// succeed (mask match or urgent control message).
    pub fn has_deliverable(&self, channels: ChannelSet) -> bool {
        self.items
            .iter()
            .any(|m| m.header.deliver_to_kernel || channels.contains(m.header.channel))
    }

    /// Returns the number of unread messages.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates the queued messages front to back.
    pub fn iter(&self) -> impl Iterator<Item = &Message> {
        self.items.iter()
    }

    /// Discards every queued message (process destruction, §3.5: "when
    /// the process is terminated, all messages queued for it are also
    /// discarded").
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Channel, MessageId, ProcessId};
    use crate::message::MessageHeader;

    fn msg(seq: u64, channel: u8) -> Message {
        Message {
            header: MessageHeader {
                id: MessageId {
                    sender: ProcessId::new(1, 1),
                    seq,
                },
                to: ProcessId::new(2, 1),
                code: 0,
                channel: Channel(channel),
                deliver_to_kernel: false,
            },
            passed_link: None,
            body: vec![].into(),
        }
    }

    #[test]
    fn fifo_on_single_channel() {
        let mut q = MessageQueue::new();
        q.enqueue(msg(1, 0));
        q.enqueue(msg(2, 0));
        let all = ChannelSet::ALL;
        assert_eq!(q.receive(all).unwrap().message.header.id.seq, 1);
        assert_eq!(q.receive(all).unwrap().message.header.id.seq, 2);
        assert!(q.receive(all).is_none());
    }

    #[test]
    fn in_order_read_reports_no_skip() {
        let mut q = MessageQueue::new();
        q.enqueue(msg(1, 0));
        let r = q.receive(ChannelSet::ALL).unwrap();
        assert_eq!(r.skipped_head, None);
    }

    #[test]
    fn selective_receive_skips_and_reports_head() {
        let mut q = MessageQueue::new();
        q.enqueue(msg(1, 0)); // head, channel 0
        q.enqueue(msg(2, 5)); // urgent, channel 5
        let r = q.receive(ChannelSet::of(&[Channel(5)])).unwrap();
        assert_eq!(r.message.header.id.seq, 2);
        assert_eq!(r.skipped_head.unwrap().seq, 1);
        // The skipped message is still there.
        assert_eq!(q.len(), 1);
        assert_eq!(q.receive(ChannelSet::ALL).unwrap().message.header.id.seq, 1);
    }

    #[test]
    fn no_match_returns_none_without_disturbing_queue() {
        let mut q = MessageQueue::new();
        q.enqueue(msg(1, 0));
        assert!(q.receive(ChannelSet::of(&[Channel(9)])).is_none());
        assert_eq!(q.len(), 1);
    }

    fn control(seq: u64) -> Message {
        let mut m = msg(seq, 0);
        m.header.deliver_to_kernel = true;
        m
    }

    #[test]
    fn control_messages_bypass_mask() {
        let mut q = MessageQueue::new();
        q.enqueue(msg(1, 0));
        q.enqueue(control(2));
        // Mask matches nothing, but the control message is urgent.
        let r = q.receive_for_process(ChannelSet::NONE).unwrap();
        assert!(r.message.header.deliver_to_kernel);
        assert_eq!(r.skipped_head.unwrap().seq, 1);
        assert!(!q.has_deliverable(ChannelSet::NONE));
        assert!(q.receive_for_process(ChannelSet::NONE).is_none());
        // The ordinary message is still there for a matching mask.
        assert!(q.has_deliverable(ChannelSet::ALL));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = MessageQueue::new();
        q.enqueue(msg(1, 0));
        q.clear();
        assert!(q.is_empty());
    }
}
