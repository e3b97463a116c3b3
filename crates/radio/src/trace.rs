//! Execution observation views: [`RoundObservation`] and the in-memory
//! [`FullTrace`] recorder.
//!
//! The engine reports every resolved round through the [`Probe`] pipeline
//! as one borrowed [`RoundObservation`] over its reusable
//! structure-of-arrays scratch.
//! The `wsync-core` property checker consumes the same stream to verify
//! the five requirements of the wireless synchronization problem online
//! with O(n) memory; [`FullTrace`] records everything and is intended for
//! tests and debugging of small executions.

use crate::adversary::DisruptionSet;
use crate::frequency::Frequency;
use crate::history::FrequencyActivity;
use crate::node::NodeId;
use crate::probe::Probe;

/// A node's externally visible state in one round, as seen by observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeView {
    /// The node has not been activated yet.
    Inactive,
    /// The node is active; `output` is its synchronization output for this
    /// round (`None` is the paper's `⊥`).
    Active {
        /// Output value after this round.
        output: Option<u64>,
    },
    /// The node was activated but is currently down, forced off the air by a
    /// churn [`fault layer`](crate::fault::FaultLayer). A crashed node takes
    /// no action, receives no feedback, and produces no output; it rejoins
    /// (with reset protocol state) when the layer wakes it. Fault-free
    /// executions never produce this view.
    Crashed,
}

impl NodeView {
    /// The output if the node is active (a crashed node has none — it is
    /// treated like a not-yet-activated node by output-based checks).
    pub fn output(&self) -> Option<Option<u64>> {
        match self {
            NodeView::Inactive | NodeView::Crashed => None,
            NodeView::Active { output } => Some(*output),
        }
    }

    /// Whether the node is active.
    pub fn is_active(&self) -> bool {
        matches!(self, NodeView::Active { .. })
    }
}

/// A compact description of a node's action in one round, for observers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionView {
    /// Not activated yet.
    Inactive,
    /// The node slept.
    Sleep,
    /// The node listened on the given frequency.
    Listen(Frequency),
    /// The node broadcast on the given frequency.
    Broadcast(Frequency),
    /// The node is down this round (churn fault layer); it took no action.
    Crashed,
}

/// A successful message delivery in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The frequency the message was delivered on.
    pub frequency: Frequency,
    /// The broadcasting node.
    pub sender: NodeId,
    /// How many nodes received the message.
    pub receivers: u32,
}

/// Flat per-round counters computed by the engine while it resolves the
/// round — the structure-of-arrays passes tally these for free, so probes
/// that only fold aggregates (like [`SimMetrics`](crate::metrics::SimMetrics))
/// never re-scan the per-node or per-frequency slices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundTally {
    /// Number of active nodes this round.
    pub active_nodes: u32,
    /// Number of nodes newly activated at the beginning of the round.
    pub newly_activated: u32,
    /// Broadcast actions this round.
    pub broadcasts: u32,
    /// Listen actions this round.
    pub listens: u32,
    /// Sleep actions this round.
    pub sleeps: u32,
    /// Frequencies on which a message was delivered.
    pub deliveries: u32,
    /// Successful receptions (listeners on delivering frequencies).
    pub receptions: u32,
    /// Frequencies with two or more broadcasters.
    pub collisions: u32,
    /// Frequencies where a solitary broadcast was suppressed by disruption.
    pub jammed_solo_broadcasts: u32,
    /// Number of frequencies the adversary disrupted (after clamping).
    pub disrupted_frequencies: u32,
    /// Whether the adversary exceeded the bound `t` and was clamped.
    pub adversary_clamped: bool,
    /// Deliveries resolved by the engine but dropped whole by a loss fault
    /// layer (no listener on the frequency received anything).
    pub dropped_deliveries: u32,
    /// Receptions suppressed per-listener by a capture/fading fault layer
    /// (the delivery itself survived for other listeners).
    pub suppressed_receptions: u32,
    /// Receptions severed by a partition fault layer (sender and listener
    /// sat in different partition groups before healing).
    pub severed_receptions: u32,
    /// Activated nodes that spent this round crashed (churn fault layer).
    pub crashed_nodes: u32,
    /// Nodes that woke from a crash at the beginning of this round with
    /// freshly reset protocol state.
    pub restarted_nodes: u32,
}

/// Everything a probe sees about one completed round.
///
/// The slices borrow the engine's reusable per-round buffers and are valid
/// only for the duration of the [`Probe::observe`] call — a consumer that
/// retains data across rounds must copy it (as [`FullTrace`] does).
#[derive(Debug)]
pub struct RoundObservation<'a> {
    /// The global round number (0-based).
    pub round: u64,
    /// Nodes newly activated at the beginning of this round.
    pub newly_activated: &'a [NodeId],
    /// Per-node action, indexed by node index.
    pub actions: &'a [ActionView],
    /// Per-node view after the round, indexed by node index.
    pub nodes: &'a [NodeView],
    /// The frequencies the adversary disrupted this round.
    pub disrupted: &'a DisruptionSet,
    /// Messages delivered this round.
    pub deliveries: &'a [Delivery],
    /// Per-frequency resolution of the round, indexed by 0-based frequency
    /// index — the same record shape the adversary-visible
    /// [`History`](crate::history::History) retains.
    pub activity: &'a [FrequencyActivity],
    /// Flat aggregate counters of the round.
    pub tally: RoundTally,
}

/// A single recorded round in a [`FullTrace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global round number.
    pub round: u64,
    /// Nodes newly activated this round.
    pub newly_activated: Vec<NodeId>,
    /// Per-node action.
    pub actions: Vec<ActionView>,
    /// Per-node view after the round.
    pub nodes: Vec<NodeView>,
    /// Disrupted frequency indices (1-based).
    pub disrupted: Vec<u32>,
    /// Deliveries this round.
    pub deliveries: Vec<Delivery>,
}

/// A probe that records every round in memory.
///
/// Memory grows with `rounds × nodes`; intended for tests, debugging, and
/// small demonstration runs.
#[derive(Debug, Default, Clone)]
pub struct FullTrace {
    events: Vec<TraceEvent>,
}

impl FullTrace {
    /// Creates an empty trace recorder.
    pub fn new() -> Self {
        FullTrace::default()
    }

    /// The recorded rounds, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Probe for FullTrace {
    fn observe(&mut self, observation: &RoundObservation<'_>) {
        self.events.push(TraceEvent {
            round: observation.round,
            newly_activated: observation.newly_activated.to_vec(),
            actions: observation.actions.to_vec(),
            nodes: observation.nodes.to_vec(),
            disrupted: observation.disrupted.iter().map(Frequency::index).collect(),
            deliveries: observation.deliveries.to_vec(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_observation<'a>(
        round: u64,
        nodes: &'a [NodeView],
        actions: &'a [ActionView],
        disrupted: &'a DisruptionSet,
        newly: &'a [NodeId],
        deliveries: &'a [Delivery],
    ) -> RoundObservation<'a> {
        RoundObservation {
            round,
            newly_activated: newly,
            actions,
            nodes,
            disrupted,
            deliveries,
            activity: &[],
            tally: RoundTally::default(),
        }
    }

    #[test]
    fn node_view_accessors() {
        assert!(!NodeView::Inactive.is_active());
        assert_eq!(NodeView::Inactive.output(), None);
        let v = NodeView::Active { output: Some(3) };
        assert!(v.is_active());
        assert_eq!(v.output(), Some(Some(3)));
    }

    #[test]
    fn full_trace_records_and_queries() {
        let mut trace = FullTrace::new();
        let disrupted = DisruptionSet::from_frequencies(4, [Frequency::new(2)]);
        let deliveries = [Delivery {
            frequency: Frequency::new(1),
            sender: NodeId::new(0),
            receivers: 2,
        }];
        let newly = [NodeId::new(1)];

        let nodes_r0 = [NodeView::Active { output: None }, NodeView::Inactive];
        let actions_r0 = [
            ActionView::Broadcast(Frequency::new(1)),
            ActionView::Inactive,
        ];
        trace.observe(&sample_observation(
            0,
            &nodes_r0,
            &actions_r0,
            &disrupted,
            &newly,
            &deliveries,
        ));

        let nodes_r1 = [
            NodeView::Active { output: Some(7) },
            NodeView::Active { output: None },
        ];
        let actions_r1 = [ActionView::Listen(Frequency::new(2)), ActionView::Sleep];
        trace.observe(&sample_observation(
            1,
            &nodes_r1,
            &actions_r1,
            &disrupted,
            &[],
            &[],
        ));

        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
        assert_eq!(trace.events()[0].deliveries, deliveries);
        assert_eq!(trace.events()[0].newly_activated, newly);
        assert_eq!(trace.events()[1].nodes, nodes_r1);
        assert_eq!(trace.events()[0].disrupted, vec![2]);
    }
}
