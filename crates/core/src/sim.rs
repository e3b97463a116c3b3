//! The simulation builder: one validated, runnable trial.
//!
//! [`Sim`] is the single code path every execution in the workspace goes
//! through. Build one from a declarative [`ScenarioSpec`] (possibly loaded
//! from JSON or put together with its builder methods), then run one trial
//! per seed:
//!
//! ```
//! use wsync_core::sim::Sim;
//! use wsync_core::spec::ScenarioSpec;
//!
//! let spec = ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random");
//! let outcome = Sim::from_spec(&spec)?.run_one(7);
//! assert!(outcome.result.all_synchronized);
//! # Ok::<(), wsync_core::spec::SpecError>(())
//! ```
//!
//! A `Sim` neither batches nor caches. Many seeds, grids and the
//! persistent result store go through
//! [`SweepRunner`](crate::sweep::SweepRunner); a bare seed range is
//! `BatchRunner::map(seeds, |seed| sim.run_one(seed))`.
//!
//! All validation happens in [`Sim::from_spec`]: protocol and adversary
//! names resolve against the [`registry`], their
//! parameters are type-checked, and the instance passes
//! `SimConfig::validate` — so a bad spec is a typed [`SpecError`] at build
//! time, never a panic mid-run.

use std::sync::Arc;

use wsync_radio::engine::Engine;

use crate::checker::PropertyChecker;
use crate::registry::{
    self, AdversaryFactory, FaultFactory, ProbeFactory, ProbeOutput, ProtocolCtor, RegistryProbe,
    SyncProtocol,
};
use crate::report::SyncOutcome;
use crate::spec::{ScenarioSpec, SpecError};
use crate::store::spec_digest;

/// One trial's outcome together with the outputs of the spec's declared
/// probes (see [`Sim::run_probed`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbedOutcome {
    /// The trial outcome — bit-identical to what [`Sim::run_one`] returns,
    /// probes or not.
    pub outcome: SyncOutcome,
    /// The declared probes' finalized outputs, in declaration order.
    pub probes: Vec<ProbeOutput>,
}

/// A fully validated, runnable simulation: the spec, resolved protocol
/// constructor, resolved adversary factory, resolved probe and fault
/// factories, and the canonical spec digest.
pub struct Sim {
    spec: ScenarioSpec,
    ctor: ProtocolCtor,
    adversary: Arc<dyn AdversaryFactory>,
    /// One resolved factory per entry of `spec.probes`, in order.
    probes: Vec<Arc<dyn ProbeFactory>>,
    /// One resolved factory per entry of `spec.faults`, in order.
    faults: Vec<Arc<dyn FaultFactory>>,
    digest: u64,
}

impl Sim {
    /// Builds a simulation from a declarative spec, resolving names against
    /// the process-global registry.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when the instance is inconsistent (`t ≥ F`,
    /// `n = 0`, `N < n`, a zero round cap), a name is unknown, or a
    /// parameter is missing, mistyped, or unrecognised.
    pub fn from_spec(spec: &ScenarioSpec) -> Result<Self, SpecError> {
        let protocol = registry::resolve_protocol(spec.protocol.name())?;
        let adversary = registry::resolve_adversary(spec.adversary.name())?;
        let probes: Vec<Arc<dyn ProbeFactory>> = spec
            .probes
            .iter()
            .map(|probe| registry::resolve_probe(probe.name()))
            .collect::<Result<_, SpecError>>()?;
        let faults: Vec<Arc<dyn FaultFactory>> = spec
            .faults
            .iter()
            .map(|fault| registry::resolve_fault(fault.name()))
            .collect::<Result<_, SpecError>>()?;
        spec.validate()?;
        let ctor = protocol.instantiate(spec, &spec.protocol.params)?;
        // Probe-build the adversary, the probes, and the fault layers once
        // so parameter errors surface here, keeping `run_one`/`run_probed`
        // infallible. AdversaryFactory's contract requires validation to be
        // seed-independent, so one probe covers all seeds; probe and fault
        // factories take no seed at all.
        adversary.build(spec, &spec.adversary.params, 0)?;
        for (component, factory) in spec.probes.iter().zip(&probes) {
            factory.build(spec, &component.params)?;
        }
        for (component, factory) in spec.faults.iter().zip(&faults) {
            factory.build(spec, &component.params)?;
        }
        Ok(Sim {
            spec: spec.clone(),
            ctor,
            adversary,
            probes,
            faults,
            digest: spec_digest(spec),
        })
    }

    /// The canonical content digest of this simulation's resolved spec —
    /// the key the result store files its trials under.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Runs a single trial. Executions are a pure function of
    /// `(spec, seed)`.
    ///
    /// Declared probes are *not* run on this path (their outputs would be
    /// discarded); use [`run_probed`](Self::run_probed) to carry them. The
    /// outcome is identical either way — probes only observe.
    pub fn run_one(&self, seed: u64) -> SyncOutcome {
        self.execute(seed, false).0
    }

    /// Runs a single trial with the spec's declared probes attached to the
    /// engine's probe stack, returning the outcome together with each
    /// probe's finalized output. The outcome is bit-identical to
    /// [`run_one`](Self::run_one) (probes never perturb an execution).
    pub fn run_probed(&self, seed: u64) -> ProbedOutcome {
        let (outcome, probes) = self.execute(seed, true);
        ProbedOutcome { outcome, probes }
    }

    /// The one trial path behind [`run_one`](Self::run_one) and
    /// [`run_probed`](Self::run_probed): builds the adversary, the fault
    /// layers and (optionally) the declared probes, attaches them with the
    /// [`PropertyChecker`] to the engine, executes, and counts leaders.
    ///
    /// Probes finalize against the finished outcome, so the one checker
    /// attached here serves them too. Probes only observe, so the outcome
    /// is bit-identical with and without them (`tests/engine_golden.rs`
    /// pins this).
    fn execute(&self, seed: u64, probed: bool) -> (SyncOutcome, Vec<ProbeOutput>) {
        let spec = &self.spec;
        let adversary = self
            .adversary
            .build(spec, &spec.adversary.params, seed)
            .expect("adversary parameters were validated when the Sim was built");
        let mut engine = Engine::new(
            spec.sim_config(),
            |id| (self.ctor)(id),
            adversary,
            spec.activation.clone(),
            seed,
        )
        .expect("the spec was validated when the Sim was built");
        for (component, factory) in spec.faults.iter().zip(&self.faults) {
            engine.attach_fault(
                factory
                    .build(spec, &component.params)
                    .expect("fault parameters were validated when the Sim was built"),
            );
        }
        let checker_slot = engine.attach_probe(Box::new(PropertyChecker::new()));
        let probe_slots: Vec<usize> = if probed {
            spec.probes
                .iter()
                .zip(&self.probes)
                .map(|(component, factory)| {
                    let probe = factory
                        .build(spec, &component.params)
                        .expect("probe parameters were validated when the Sim was built");
                    engine.attach_probe(Box::new(RegistryProbe::new(component.name(), probe)))
                })
                .collect()
        } else {
            Vec::new()
        };
        let result = engine.run();
        let mut stack = engine.take_probes();
        let checker: PropertyChecker = stack
            .take(checker_slot)
            .expect("the checker probe is recoverable from its slot");
        let leaders = engine.protocols().iter().filter(|p| p.is_leader()).count();
        let outcome = SyncOutcome {
            properties: checker.finish(&result),
            result,
            leaders,
            adversary: spec.adversary.name().to_string(),
            seed,
        };
        let outputs = probe_slots
            .into_iter()
            .map(|slot| {
                stack
                    .take::<RegistryProbe>(slot)
                    .expect("registry probes are recoverable from their slots")
                    .finish(&outcome)
            })
            .collect();
        (outcome, outputs)
    }

    /// Whether the spec declares any probes.
    pub fn has_probes(&self) -> bool {
        !self.probes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchRunner, BatchStats};
    use crate::spec::SweepSpec;
    use wsync_radio::activation::ActivationSchedule;

    fn run_named(spec: &ScenarioSpec, seed: u64) -> SyncOutcome {
        Sim::from_spec(spec).unwrap().run_one(seed)
    }

    #[test]
    fn trapdoor_small_scenario_synchronizes_cleanly() {
        let spec = ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random");
        let outcome = run_named(&spec, 11);
        assert!(outcome.result.all_synchronized);
        assert_eq!(outcome.leaders, 1);
        assert!(outcome.properties.all_hold());
        assert!(outcome.is_clean());
    }

    #[test]
    fn wakeup_and_round_robin_baselines_run() {
        let w = run_named(&ScenarioSpec::new("wakeup", 6, 8, 1), 3);
        assert!(w.result.all_synchronized);
        assert!(w.leaders >= 1);
        let r = run_named(&ScenarioSpec::new("round-robin", 6, 8, 1), 3);
        assert!(r.result.all_synchronized);
        assert!(r.leaders >= 1);
    }

    #[test]
    fn single_frequency_degenerates_under_fixed_band_jamming() {
        // With frequency 1 permanently jammed, single-frequency contenders
        // never hear each other: every node wins its own competition and
        // declares itself leader, and late joiners adopt numbering schemes
        // that disagree with the early ones.
        let spec = ScenarioSpec::new("single-frequency", 4, 4, 1)
            .with_adversary("fixed-band")
            .with_activation(ActivationSchedule::LateJoiner { late: 3 })
            .with_max_rounds(2_000);
        let outcome = run_named(&spec, 5);
        assert_eq!(outcome.leaders, 4, "every isolated node elects itself");
        assert!(!outcome.is_clean());
        assert!(
            outcome.properties.total_violations > 0,
            "disagreeing round numbers must be flagged"
        );
    }

    #[test]
    fn identical_seed_identical_outcome() {
        let spec = ScenarioSpec::new("trapdoor", 6, 8, 2).with_adversary("random");
        let a = run_named(&spec, 21);
        let b = run_named(&spec, 21);
        assert_eq!(a, b);
    }

    #[test]
    fn spec_driven_run_is_deterministic_and_clean() {
        let spec = ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random");
        let sim = Sim::from_spec(&spec).unwrap();
        let a = sim.run_one(11);
        let b = sim.run_one(11);
        assert_eq!(a, b);
        assert!(a.result.all_synchronized);
        assert_eq!(a.leaders, 1);
        assert_eq!(a.adversary, "random");
    }

    #[test]
    fn invalid_specs_fail_at_build_time_not_mid_run() {
        // t >= F
        assert!(matches!(
            Sim::from_spec(&ScenarioSpec::new("trapdoor", 4, 8, 8)),
            Err(SpecError::InvalidConfig(_))
        ));
        // zero nodes
        assert!(matches!(
            Sim::from_spec(&ScenarioSpec::new("trapdoor", 0, 8, 2)),
            Err(SpecError::InvalidConfig(_))
        ));
        // zero round cap
        assert!(matches!(
            Sim::from_spec(&ScenarioSpec::new("trapdoor", 4, 8, 2).with_max_rounds(0)),
            Err(SpecError::InvalidConfig(_))
        ));
        // unknown protocol
        assert!(matches!(
            Sim::from_spec(&ScenarioSpec::new("paxos", 4, 8, 2)),
            Err(SpecError::UnknownProtocol { .. })
        ));
        // unknown adversary
        assert!(matches!(
            Sim::from_spec(&ScenarioSpec::new("trapdoor", 4, 8, 2).with_adversary("ddos")),
            Err(SpecError::UnknownAdversary { .. })
        ));
        // missing adversary parameter
        assert!(matches!(
            Sim::from_spec(&ScenarioSpec::new("trapdoor", 4, 8, 2).with_adversary("bursty")),
            Err(SpecError::MissingParam { .. })
        ));
        // mistyped protocol parameter
        assert!(matches!(
            Sim::from_spec(
                &ScenarioSpec::new("trapdoor", 4, 8, 2)
                    .with_protocol_param("epoch_constant", "big")
            ),
            Err(SpecError::BadParam { .. })
        ));
    }

    #[test]
    fn protocol_constants_the_schedule_cannot_hold_are_typed_errors() {
        let hostile = [
            ("trapdoor", "epoch_constant", 1e30),
            ("trapdoor", "final_epoch_constant", 1e30),
            ("round-robin", "epoch_constant", 1e30),
            ("single-frequency", "final_epoch_constant", 1e30),
            ("good-samaritan", "epoch_constant", 1e30),
            ("good-samaritan", "fallback_multiplier", 1e30),
        ];
        let probabilities = [
            "trapdoor",
            "good-samaritan",
            "wakeup",
            "round-robin",
            "single-frequency",
        ]
        .map(|protocol| (protocol, "leader_broadcast_probability", 2.0));
        for (protocol, param, value) in hostile.into_iter().chain(probabilities) {
            let spec = ScenarioSpec::new(protocol, 4, 8, 2).with_protocol_param(param, value);
            match Sim::from_spec(&spec) {
                Err(SpecError::BadParam { param: p, .. }) => assert_eq!(p, param, "{protocol}"),
                Err(e) => panic!("{protocol}.{param}: unexpected error {e}"),
                Ok(_) => panic!("{protocol}.{param} = {value} was accepted"),
            }
        }
        // In-range values and large-but-finite schedules still build.
        let fine = ScenarioSpec::new("good-samaritan", 4, 8, 2)
            .with_protocol_param("leader_broadcast_probability", 1.0)
            .with_protocol_param("fallback_multiplier", 1e6);
        assert!(Sim::from_spec(&fine).is_ok());
    }

    #[test]
    fn batch_run_matches_serial_loop() {
        let spec = ScenarioSpec::new("wakeup", 6, 8, 1).with_adversary("random");
        let sim = Sim::from_spec(&spec).unwrap();
        let batch = BatchRunner::with_workers(4).map(3..9, |seed| sim.run_one(seed));
        let serial: Vec<_> = (3..9).map(|seed| sim.run_one(seed)).collect();
        assert_eq!(batch, serial);
        let stats = BatchStats::aggregate(
            &BatchRunner::with_workers(2).map(3..9, |seed| sim.run_one(seed)),
        );
        assert_eq!(stats.trials, 6);
    }

    #[test]
    fn sweep_expands_into_labelled_sims() {
        let base = ScenarioSpec::new("trapdoor", 6, 8, 2).with_adversary("random");
        let sweep =
            SweepSpec::new(base, 0..2).with_axis("num_nodes", vec![4u64.into(), 6u64.into()]);
        let points = sweep.expand().unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].label, "num_nodes=4");
        assert_eq!(points[0].spec.num_nodes, 4);
        assert!(Sim::from_spec(&points[0].spec).is_ok());
        assert_eq!(sweep.seeds().unwrap(), 0..2);
        // a sweep containing an invalid point fails as a whole
        let bad = SweepSpec::new(ScenarioSpec::new("trapdoor", 6, 8, 2), 0..2)
            .with_axis("disruption_bound", vec![1u64.into(), 8u64.into()]);
        let sims: Result<Vec<Sim>, SpecError> = bad
            .expand()
            .unwrap()
            .iter()
            .map(|point| Sim::from_spec(&point.spec))
            .collect();
        assert!(sims.is_err());
    }

    #[test]
    fn json_spec_runs_end_to_end() {
        let text = r#"{
            "protocol": "good-samaritan",
            "adversary": {"name": "oblivious-random", "params": {"t_actual": 2}},
            "num_nodes": 8,
            "num_frequencies": 8,
            "disruption_bound": 4
        }"#;
        let spec = ScenarioSpec::from_json(text).unwrap();
        let outcome = Sim::from_spec(&spec).unwrap().run_one(11);
        assert!(outcome.result.all_synchronized);
        assert_eq!(outcome.adversary, "oblivious-random");
    }
}
