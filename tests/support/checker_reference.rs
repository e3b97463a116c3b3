//! Test-only references for the property checker, shared by
//! `tests/engine_golden.rs` and `tests/checker_differential.rs`:
//!
//! * [`DenseChecker`] — the checker's two-pass `observe` as it was before
//!   it walked the active set, scanning all N node views every round. The
//!   O(active) [`PropertyChecker`] must produce an equal
//!   [`PropertyReport`] on every execution.
//! * [`ActiveSetInvariant`] — a probe asserting, on every observed round,
//!   the engine invariant that walk relies on.
//!
//! [`run_checked`] runs an engine with all three attached.

use wireless_sync::prelude::*;
use wireless_sync::radio::trace::NodeView;
use wireless_sync::sync::checker::MAX_RECORDED;
use wireless_sync::sync::registry::{self, BoxedProtocol};

/// What [`run_checked`] observed.
#[derive(Debug)]
pub struct Checked {
    /// The engine's result.
    pub result: ExecutionResult,
    /// The O(active) property checker's report.
    pub checker: PropertyReport,
    /// The dense reference checker's report.
    pub dense: PropertyReport,
    /// The invariant probe, after it checked every round.
    pub invariant: ActiveSetInvariant,
}

/// Runs `engine` to completion with a [`PropertyChecker`], a
/// [`DenseChecker`] and an [`ActiveSetInvariant`] attached.
pub fn run_checked<P: Protocol, A: Adversary>(mut engine: Engine<P, A>) -> Checked {
    let checker = engine.attach_probe(Box::new(PropertyChecker::new()));
    let dense = engine.attach_probe(Box::new(DenseChecker::default()));
    let invariant = engine.attach_probe(Box::new(ActiveSetInvariant::default()));
    let result = engine.run();
    let mut stack = engine.take_probes();
    let checker = stack.take::<PropertyChecker>(checker).unwrap();
    let dense = stack.take::<DenseChecker>(dense).unwrap();
    Checked {
        checker: checker.finish(&result),
        dense: dense.finish(&result),
        invariant: stack.take(invariant).unwrap(),
        result,
    }
}

/// The engine `Sim::run_one` builds for `(spec, seed)`: registry-resolved
/// protocol and adversary, and the spec's fault layers in declaration
/// order.
pub fn spec_engine(spec: &ScenarioSpec, seed: u64) -> Engine<BoxedProtocol, Box<dyn Adversary>> {
    let ctor = registry::resolve_protocol(spec.protocol.name())
        .unwrap()
        .instantiate(spec, &spec.protocol.params)
        .unwrap();
    let adversary = registry::build_adversary(&spec.adversary, spec, seed).unwrap();
    let mut engine = Engine::new(
        spec.sim_config(),
        &*ctor,
        adversary,
        spec.activation.clone(),
        seed,
    )
    .unwrap();
    for fault in &spec.faults {
        engine.attach_fault(registry::build_fault(fault, spec).unwrap());
    }
    engine
}

/// The dense reference checker: same violations, same order, same cap as
/// the active-set checker, computed by visiting every node every round.
#[derive(Debug, Clone, Default)]
pub struct DenseChecker {
    previous: Vec<Option<Option<u64>>>,
    violations: Vec<Violation>,
    total_violations: u64,
    rounds_observed: u64,
}

impl DenseChecker {
    fn record(&mut self, violation: Violation) {
        self.total_violations += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(violation);
        }
    }

    /// The report, with liveness taken from the engine as
    /// [`PropertyChecker::finish`] does.
    pub fn finish(self, result: &ExecutionResult) -> PropertyReport {
        PropertyReport {
            violations: self.violations,
            total_violations: self.total_violations,
            rounds_observed: self.rounds_observed,
            liveness: result.all_synchronized,
            completion_round: result.completion_round(),
        }
    }
}

impl Probe for DenseChecker {
    fn observe(&mut self, observation: &RoundObservation<'_>) {
        let n = observation.nodes.len();
        if self.previous.len() < n {
            self.previous.resize(n, None);
        }
        self.rounds_observed += 1;

        // Agreement: all non-⊥ outputs in this round must be equal.
        let mut first_output: Option<(NodeId, u64)> = None;
        for (i, view) in observation.nodes.iter().enumerate() {
            if let NodeView::Active { output: Some(v) } = view {
                match first_output {
                    None => first_output = Some((NodeId::new(i as u32), *v)),
                    Some((fid, fv)) => {
                        if fv != *v {
                            let second = (NodeId::new(i as u32), *v);
                            self.record(Violation::Agreement {
                                round: observation.round,
                                first: (fid, fv),
                                second,
                            });
                        }
                    }
                }
            }
        }

        // Synch commit and correctness: per-node transition checks.
        for (i, view) in observation.nodes.iter().enumerate() {
            let current: Option<Option<u64>> = view.output();
            if let (Some(prev_active), Some(cur_active)) = (self.previous[i], current) {
                match (prev_active, cur_active) {
                    (Some(p), None) => {
                        self.record(Violation::SynchCommit {
                            node: NodeId::new(i as u32),
                            round: observation.round,
                            previous: p,
                        });
                    }
                    (Some(p), Some(c)) if c != p + 1 => {
                        self.record(Violation::Correctness {
                            node: NodeId::new(i as u32),
                            round: observation.round,
                            previous: p,
                            current: c,
                        });
                    }
                    _ => {}
                }
            }
            self.previous[i] = current;
        }
    }
}

/// Asserts on every observed round that `RoundObservation::active` is
/// strictly ascending, has `tally.active_nodes` entries, and lists node
/// `i` exactly when `nodes[i]` is `Active`.
#[derive(Debug, Default)]
pub struct ActiveSetInvariant {
    /// Rounds checked so far.
    pub rounds_checked: u64,
    /// Most nodes active in one round so far.
    pub max_active: usize,
    /// Crash restarts seen so far.
    pub restarts: u64,
}

impl Probe for ActiveSetInvariant {
    fn observe(&mut self, observation: &RoundObservation<'_>) {
        let round = observation.round;
        let active = observation.active;
        assert!(
            active.windows(2).all(|w| w[0] < w[1]),
            "round {round}: active set {active:?} is not strictly ascending"
        );
        assert_eq!(
            active.len(),
            observation.tally.active_nodes as usize,
            "round {round}: active set length disagrees with the tally"
        );
        let mut listed = active.iter().peekable();
        for (i, view) in observation.nodes.iter().enumerate() {
            let in_active = listed.next_if(|&&a| a as usize == i).is_some();
            assert_eq!(
                view.is_active(),
                in_active,
                "round {round}: node {i} has view {view:?} but active-set membership {in_active}"
            );
        }
        assert_eq!(
            listed.next(),
            None,
            "round {round}: active set lists a node index past N"
        );
        self.rounds_checked += 1;
        self.max_active = self.max_active.max(active.len());
        self.restarts += u64::from(observation.tally.restarted_nodes);
    }
}
