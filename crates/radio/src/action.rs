//! Per-round actions a node can take.

use crate::frequency::Frequency;

/// What a node does in a single round.
///
/// Per the model (Section 2), in each round each active node chooses a single
/// frequency on which to participate, and chooses whether to broadcast or
/// receive on it. A node receives no information from any other frequency.
/// `Sleep` is an extension (not used by the paper's protocols) that lets a
/// node skip a round entirely — useful for modelling crashed or
/// energy-saving nodes in the fault-tolerance experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<M> {
    /// Broadcast `message` on `frequency`.
    Broadcast {
        /// The frequency to broadcast on.
        frequency: Frequency,
        /// The message payload.
        message: M,
    },
    /// Listen on `frequency`.
    Listen {
        /// The frequency to listen on.
        frequency: Frequency,
    },
    /// Do not participate this round (receives nothing, transmits nothing).
    Sleep,
}

impl<M> Action<M> {
    /// Convenience constructor for a broadcast action.
    pub fn broadcast(frequency: Frequency, message: M) -> Self {
        Action::Broadcast { frequency, message }
    }

    /// Convenience constructor for a listen action.
    pub fn listen(frequency: Frequency) -> Self {
        Action::Listen { frequency }
    }

    /// The frequency this action uses, if any.
    pub fn frequency(&self) -> Option<Frequency> {
        match self {
            Action::Broadcast { frequency, .. } | Action::Listen { frequency } => Some(*frequency),
            Action::Sleep => None,
        }
    }

    /// Returns `true` if the action is a broadcast.
    pub fn is_broadcast(&self) -> bool {
        matches!(self, Action::Broadcast { .. })
    }

    /// Returns `true` if the action is a listen.
    pub fn is_listen(&self) -> bool {
        matches!(self, Action::Listen { .. })
    }

    /// Maps the message payload type.
    pub fn map_message<N, F: FnOnce(M) -> N>(self, f: F) -> Action<N> {
        match self {
            Action::Broadcast { frequency, message } => Action::Broadcast {
                frequency,
                message: f(message),
            },
            Action::Listen { frequency } => Action::Listen { frequency },
            Action::Sleep => Action::Sleep,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let b: Action<u32> = Action::broadcast(Frequency::new(2), 7);
        assert!(b.is_broadcast());
        assert!(!b.is_listen());
        assert_eq!(b.frequency(), Some(Frequency::new(2)));

        let l: Action<u32> = Action::listen(Frequency::new(3));
        assert!(l.is_listen());
        assert_eq!(l.frequency(), Some(Frequency::new(3)));

        let s: Action<u32> = Action::Sleep;
        assert_eq!(s.frequency(), None);
        assert!(!s.is_broadcast() && !s.is_listen());
    }

    #[test]
    fn map_message_preserves_shape() {
        let b: Action<u32> = Action::broadcast(Frequency::new(1), 7);
        let mapped = b.map_message(|x| format!("v{x}"));
        match mapped {
            Action::Broadcast { frequency, message } => {
                assert_eq!(frequency, Frequency::new(1));
                assert_eq!(message, "v7");
            }
            _ => panic!("expected broadcast"),
        }
        let l: Action<u32> = Action::listen(Frequency::new(4));
        assert!(matches!(l.map_message(|x| x as u64), Action::Listen { .. }));
    }
}
