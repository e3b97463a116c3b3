//! Message delivery and per-round feedback.

use crate::frequency::Frequency;
use crate::node::NodeId;

/// A message successfully received by a listening node.
///
/// Reception happens only when exactly one node broadcast on the listener's
/// frequency and the adversary did not disrupt it (Section 2). The `sender`
/// field identifies the simulation-level sender for tracing purposes; the
/// protocols in `wsync-core` never inspect it (all protocol-visible identity
/// lives inside the payload, as in the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Received<M> {
    /// Simulation identity of the sender (for traces/metrics only).
    pub sender: NodeId,
    /// The frequency on which the message was received.
    pub frequency: Frequency,
    /// The message payload.
    pub payload: M,
}

/// The feedback a node obtains at the end of a round.
///
/// The model gives nodes very little information: a broadcaster learns
/// nothing about whether its broadcast was received (there is no collision
/// detection and no channel sensing), and a listener cannot distinguish
/// silence, collision, and disruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Feedback<M> {
    /// The node listened and received a message.
    Received(Received<M>),
    /// The node listened and heard nothing (no broadcaster, collision, or
    /// disruption — indistinguishable to the node).
    Silence {
        /// The frequency the node listened on.
        frequency: Frequency,
    },
    /// The node broadcast; it learns nothing about the outcome.
    Broadcasted {
        /// The frequency the node broadcast on.
        frequency: Frequency,
    },
    /// The node slept this round.
    Slept,
}

impl<M> Feedback<M> {
    /// Returns the received message, if any.
    pub fn received(&self) -> Option<&Received<M>> {
        match self {
            Feedback::Received(r) => Some(r),
            _ => None,
        }
    }

    /// Returns `true` if a message was received.
    pub fn is_received(&self) -> bool {
        matches!(self, Feedback::Received(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn received_accessor() {
        let fb: Feedback<u8> = Feedback::Received(Received {
            sender: NodeId::new(1),
            frequency: Frequency::new(2),
            payload: 9,
        });
        assert!(fb.is_received());
        assert_eq!(fb.received().unwrap().payload, 9);

        let silent: Feedback<u8> = Feedback::Silence {
            frequency: Frequency::new(1),
        };
        assert!(!silent.is_received());
        assert!(silent.received().is_none());

        let sent: Feedback<u8> = Feedback::Broadcasted {
            frequency: Frequency::new(1),
        };
        assert!(sent.received().is_none());

        let slept: Feedback<u8> = Feedback::Slept;
        assert!(!slept.is_received());
    }
}
