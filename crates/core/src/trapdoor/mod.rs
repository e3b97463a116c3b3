//! The Trapdoor Protocol (Section 6).
//!
//! Every node starts as a *contender* and proceeds through `lg N` epochs
//! (Figure 1). In every round of epoch `e` a contender picks a frequency
//! uniformly at random from `[1..F′]` (`F′ = min(F, 2t)`) and broadcasts a
//! contender message — labelled with its timestamp `(rounds_active, uid)` —
//! with probability `2^e/(2N)`, otherwise it listens. A contender that
//! receives a contender message with a *larger* timestamp is knocked out
//! (the trapdoor opens) and from then on only listens on random frequencies
//! in `[1..F′]`. A contender that completes all `lg N` epochs becomes the
//! *leader*: it fixes the round numbering and thereafter broadcasts it with
//! probability 1/2 on a random frequency in `[1..F′]` every round. Any node
//! that receives a leader message adopts the numbering and is synchronized.
//!
//! Theorem 10: the protocol solves wireless synchronization in
//! `O(F/(F−t)·log²N + F·t/(F−t)·log N)` rounds with high probability.

mod config;

pub use config::{EpochSpec, TrapdoorConfig};

use rand::Rng;

use wsync_radio::action::Action;
use wsync_radio::frequency::FrequencyBand;
use wsync_radio::message::Feedback;
use wsync_radio::node::ActivationInfo;
use wsync_radio::protocol::Protocol;
use wsync_radio::rng::SimRng;

use crate::timestamp::Timestamp;

/// Messages exchanged by the Trapdoor Protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapdoorMsg {
    /// A contender announcing its timestamp.
    Contender {
        /// The sender's timestamp at the time of broadcast.
        timestamp: Timestamp,
    },
    /// The leader announcing the round numbering: the number assigned to the
    /// round in which this message is received.
    Leader {
        /// The round number of the current round under the leader's scheme.
        announced_round: u64,
    },
}

/// The role a Trapdoor node is currently playing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrapdoorRole {
    /// Still competing: proceeding through the epochs.
    Contender,
    /// Knocked out by a larger timestamp; listening for the leader.
    KnockedOut,
    /// Won the competition; disseminating the round numbering.
    Leader,
    /// Adopted the numbering scheme from the leader.
    Synchronized,
}

/// A node running the Trapdoor Protocol.
#[derive(Debug, Clone)]
pub struct TrapdoorProtocol {
    config: TrapdoorConfig,
    role: TrapdoorRole,
    timestamp: Timestamp,
    output: Option<u64>,
    band: FrequencyBand,
    activated: bool,
}

impl TrapdoorProtocol {
    /// Creates a protocol instance with the given configuration. The unique
    /// identifier is drawn when the node is activated.
    pub fn new(config: TrapdoorConfig) -> Self {
        TrapdoorProtocol {
            config,
            role: TrapdoorRole::Contender,
            timestamp: Timestamp::new(0, 0),
            output: None,
            band: FrequencyBand::new(config.num_frequencies.max(1)),
            activated: false,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrapdoorConfig {
        &self.config
    }

    /// The node's current role.
    pub fn role(&self) -> TrapdoorRole {
        self.role
    }

    /// Whether this node won the competition and became the leader.
    pub fn is_leader(&self) -> bool {
        self.role == TrapdoorRole::Leader
    }

    /// The node's current timestamp.
    pub fn timestamp(&self) -> Timestamp {
        self.timestamp
    }

    /// The probability with which this node would broadcast in its local
    /// round `local_round`, given its current role. This is the node's
    /// contribution to the *broadcast weight* `W(r)` of Lemma 9; the weight
    /// experiment (L9) sums it over all active nodes every round to verify
    /// that the total stays below `6F′`.
    pub fn broadcast_weight_at(&self, local_round: u64) -> f64 {
        match self.role {
            TrapdoorRole::Contender => match self.config.epoch_at(local_round) {
                Some((epoch, _)) => self.config.broadcast_probability(epoch),
                None => 0.5,
            },
            TrapdoorRole::Leader => self.config.leader_broadcast_probability,
            TrapdoorRole::KnockedOut | TrapdoorRole::Synchronized => 0.0,
        }
    }

    fn pick_frequency(&self, rng: &mut SimRng) -> wsync_radio::frequency::Frequency {
        self.band.sample_prefix(self.config.f_prime(), rng)
    }
}

impl Protocol for TrapdoorProtocol {
    type Msg = TrapdoorMsg;

    fn on_activate(&mut self, info: ActivationInfo, rng: &mut SimRng) {
        debug_assert_eq!(info.num_frequencies, self.config.num_frequencies);
        self.activated = true;
        self.band = FrequencyBand::new(info.num_frequencies.max(1));
        self.timestamp = Timestamp::new(0, Timestamp::draw_uid(self.config.upper_bound_n, rng));
    }

    fn choose_action(&mut self, local_round: u64, rng: &mut SimRng) -> Action<TrapdoorMsg> {
        // The timestamp counts the rounds the node has been active,
        // including the current one.
        self.timestamp.rounds_active = local_round + 1;
        let frequency = self.pick_frequency(rng);
        match self.role {
            TrapdoorRole::Contender => {
                let p = match self.config.epoch_at(local_round) {
                    Some((epoch, _)) => self.config.broadcast_probability(epoch),
                    // Past the final epoch (promotion happens at end of the
                    // previous round's feedback, so this is unreachable in
                    // practice); behave like the final epoch.
                    None => 0.5,
                };
                if rng.gen_bool(p) {
                    Action::broadcast(
                        frequency,
                        TrapdoorMsg::Contender {
                            timestamp: self.timestamp,
                        },
                    )
                } else {
                    Action::listen(frequency)
                }
            }
            TrapdoorRole::KnockedOut | TrapdoorRole::Synchronized => Action::listen(frequency),
            TrapdoorRole::Leader => {
                if rng.gen_bool(self.config.leader_broadcast_probability) {
                    Action::broadcast(
                        frequency,
                        TrapdoorMsg::Leader {
                            // Our output for the current round will be the
                            // previous output plus one (incremented at the
                            // end of the round), so announce that value.
                            announced_round: self.output.unwrap_or(0) + 1,
                        },
                    )
                } else {
                    Action::listen(frequency)
                }
            }
        }
    }

    fn on_feedback(
        &mut self,
        local_round: u64,
        feedback: Feedback<TrapdoorMsg>,
        _rng: &mut SimRng,
    ) {
        let was_synced = self.output.is_some();

        if let Feedback::Received(received) = &feedback {
            match received.payload {
                TrapdoorMsg::Contender { timestamp } => {
                    if self.role == TrapdoorRole::Contender && timestamp > self.timestamp {
                        self.role = TrapdoorRole::KnockedOut;
                    }
                }
                TrapdoorMsg::Leader { announced_round } => {
                    if self.role != TrapdoorRole::Leader && !was_synced {
                        self.role = TrapdoorRole::Synchronized;
                        self.output = Some(announced_round);
                    }
                }
            }
        }

        // A contender that has survived every epoch becomes the leader.
        if self.role == TrapdoorRole::Contender
            && local_round + 1 >= self.config.total_contention_rounds()
        {
            self.role = TrapdoorRole::Leader;
            if !was_synced {
                // The leader is free to choose any numbering scheme; it uses
                // the number of rounds it has been active.
                self.output = Some(local_round + 1);
            }
        }

        // Correctness: a node that already had a round number increments it.
        if was_synced {
            self.output = Some(self.output.expect("synced node has an output") + 1);
        }
    }

    fn output(&self) -> Option<u64> {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsync_radio::frequency::Frequency;
    use wsync_radio::message::Received;
    use wsync_radio::node::NodeId;

    fn activated_protocol(seed: u64) -> (TrapdoorProtocol, SimRng) {
        let config = TrapdoorConfig::new(64, 8, 2);
        let mut p = TrapdoorProtocol::new(config);
        let mut rng = SimRng::from_seed(seed);
        p.on_activate(ActivationInfo::new(64, 8, 2), &mut rng);
        (p, rng)
    }

    fn contender_msg(rounds_active: u64, uid: u64) -> Feedback<TrapdoorMsg> {
        Feedback::Received(Received {
            sender: NodeId::new(9),
            frequency: Frequency::new(1),
            payload: TrapdoorMsg::Contender {
                timestamp: Timestamp::new(rounds_active, uid),
            },
        })
    }

    fn leader_msg(announced: u64) -> Feedback<TrapdoorMsg> {
        Feedback::Received(Received {
            sender: NodeId::new(9),
            frequency: Frequency::new(1),
            payload: TrapdoorMsg::Leader {
                announced_round: announced,
            },
        })
    }

    #[test]
    fn starts_as_contender_with_bottom_output() {
        let (p, _) = activated_protocol(1);
        assert_eq!(p.role(), TrapdoorRole::Contender);
        assert_eq!(p.output(), None);
        assert!(!p.is_leader());
        assert!(p.timestamp().uid >= 1);
    }

    #[test]
    fn actions_stay_within_f_prime() {
        let (mut p, mut rng) = activated_protocol(2);
        let f_prime = p.config().f_prime();
        for r in 0..200 {
            let action = p.choose_action(r, &mut rng);
            let freq = action.frequency().expect("contender never sleeps");
            assert!(freq.index() <= f_prime);
            p.on_feedback(
                r,
                Feedback::Silence {
                    frequency: Frequency::new(1),
                },
                &mut rng,
            );
        }
    }

    #[test]
    fn knocked_out_by_larger_timestamp_only() {
        let (mut p, mut rng) = activated_protocol(3);
        p.choose_action(0, &mut rng);
        // smaller timestamp: stays contender
        p.on_feedback(0, contender_msg(0, 0), &mut rng);
        assert_eq!(p.role(), TrapdoorRole::Contender);
        // larger timestamp: knocked out
        p.choose_action(1, &mut rng);
        p.on_feedback(1, contender_msg(1_000_000, u64::MAX), &mut rng);
        assert_eq!(p.role(), TrapdoorRole::KnockedOut);
        // knocked-out nodes only listen
        for r in 2..10 {
            let action = p.choose_action(r, &mut rng);
            assert!(action.is_listen());
            p.on_feedback(
                r,
                Feedback::Silence {
                    frequency: Frequency::new(1),
                },
                &mut rng,
            );
        }
        assert_eq!(p.output(), None);
    }

    #[test]
    fn adopts_leader_numbering_and_increments() {
        let (mut p, mut rng) = activated_protocol(4);
        p.choose_action(0, &mut rng);
        p.on_feedback(0, leader_msg(41), &mut rng);
        assert_eq!(p.role(), TrapdoorRole::Synchronized);
        assert_eq!(p.output(), Some(41));
        // Output increments each subsequent round (correctness).
        for r in 1..5 {
            p.choose_action(r, &mut rng);
            p.on_feedback(
                r,
                Feedback::Silence {
                    frequency: Frequency::new(1),
                },
                &mut rng,
            );
            assert_eq!(p.output(), Some(41 + r));
        }
    }

    #[test]
    fn knocked_out_node_still_adopts_leader() {
        let (mut p, mut rng) = activated_protocol(5);
        p.choose_action(0, &mut rng);
        p.on_feedback(0, contender_msg(999, 999), &mut rng);
        assert_eq!(p.role(), TrapdoorRole::KnockedOut);
        p.choose_action(1, &mut rng);
        p.on_feedback(1, leader_msg(7), &mut rng);
        assert_eq!(p.role(), TrapdoorRole::Synchronized);
        assert_eq!(p.output(), Some(7));
    }

    #[test]
    fn lone_contender_becomes_leader_after_all_epochs() {
        let (mut p, mut rng) = activated_protocol(6);
        let total = p.config().total_contention_rounds();
        for r in 0..total {
            p.choose_action(r, &mut rng);
            p.on_feedback(
                r,
                Feedback::Silence {
                    frequency: Frequency::new(1),
                },
                &mut rng,
            );
        }
        assert!(p.is_leader());
        assert_eq!(p.output(), Some(total));
        // Leader output keeps incrementing and the announced value matches
        // the output at the end of the round.
        let before = p.output().unwrap();
        let action = p.choose_action(total, &mut rng);
        if let Action::Broadcast {
            message: TrapdoorMsg::Leader { announced_round },
            ..
        } = action
        {
            assert_eq!(announced_round, before + 1);
        }
        p.on_feedback(
            total,
            Feedback::Silence {
                frequency: Frequency::new(1),
            },
            &mut rng,
        );
        assert_eq!(p.output(), Some(before + 1));
    }

    #[test]
    fn leader_ignores_other_leader_messages() {
        let (mut p, mut rng) = activated_protocol(7);
        let total = p.config().total_contention_rounds();
        for r in 0..total {
            p.choose_action(r, &mut rng);
            p.on_feedback(
                r,
                Feedback::Silence {
                    frequency: Frequency::new(1),
                },
                &mut rng,
            );
        }
        assert!(p.is_leader());
        let out_before = p.output().unwrap();
        p.choose_action(total, &mut rng);
        p.on_feedback(total, leader_msg(123_456), &mut rng);
        // keeps its own numbering (incremented), does not adopt
        assert_eq!(p.output(), Some(out_before + 1));
        assert!(p.is_leader());
    }

    #[test]
    fn contender_broadcast_frequency_increases_with_epochs() {
        // With broadcast probability 2^e/(2N), later epochs should broadcast
        // much more often than the first epoch.
        let config = TrapdoorConfig::new(256, 4, 1);
        let mut early = 0u32;
        let mut late = 0u32;
        let trials = 400u64;
        let mut p = TrapdoorProtocol::new(config);
        let mut rng = SimRng::from_seed(8);
        p.on_activate(ActivationInfo::new(256, 4, 1), &mut rng);
        let last_epoch_start =
            config.total_contention_rounds() - config.epoch_length(config.num_epochs());
        for i in 0..trials {
            // sample epoch-1 behaviour (without feeding feedback, the role
            // stays contender and probabilities depend only on the round)
            if p.choose_action(0, &mut rng).is_broadcast() {
                early += 1;
            }
            if p.choose_action(last_epoch_start + (i % 4), &mut rng)
                .is_broadcast()
            {
                late += 1;
            }
        }
        assert!(
            late > early,
            "late epochs must broadcast more ({late} vs {early})"
        );
        assert!(late as f64 > trials as f64 * 0.3);
        assert!((early as f64) < trials as f64 * 0.1);
    }
}
