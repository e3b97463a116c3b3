//! Integration tests of the streaming probe pipeline: equivalence of the
//! probe-composed observation channels with the engine's own accounting,
//! history retention derived from the adversary's declared lookback, the
//! declarative `"probes"` spec field, and probe outputs flowing through
//! `Sim`, `SweepRunner`, and the store.

use std::sync::Arc;

use proptest::prelude::*;

use wireless_sync::prelude::*;
use wireless_sync::radio::adversary::{Adversary, DisruptionSet};
use wireless_sync::radio::engine::Engine;
use wireless_sync::radio::frequency::FrequencyBand;
use wireless_sync::radio::history::History;
use wireless_sync::sync::registry;
use wireless_sync::sync::store::spec_digest;

type BoxedProtocol = wireless_sync::sync::registry::BoxedProtocol;

/// Builds a registry-resolved engine for `(spec, seed)` — the same wiring
/// `Sim::run_one` uses, exposed so tests can attach probes and inspect the
/// engine afterwards.
fn engine_for(spec: &ScenarioSpec, seed: u64) -> Engine<BoxedProtocol, Box<dyn Adversary>> {
    engine_with(spec, seed, |adversary| adversary)
}

/// [`engine_for`] with the registry-built adversary passed through `wrap`.
fn engine_with<A: Adversary>(
    spec: &ScenarioSpec,
    seed: u64,
    wrap: impl FnOnce(Box<dyn Adversary>) -> A,
) -> Engine<BoxedProtocol, A> {
    let ctor = registry::resolve_protocol(spec.protocol.name())
        .unwrap()
        .instantiate(spec, &spec.protocol.params)
        .unwrap();
    let adversary = registry::build_adversary(&spec.adversary, spec, seed).unwrap();
    Engine::new(
        spec.sim_config(),
        &*ctor,
        wrap(adversary),
        spec.activation.clone(),
        seed,
    )
    .unwrap()
}

const PROTOCOLS: [&str; 5] = [
    "trapdoor",
    "good-samaritan",
    "wakeup",
    "round-robin",
    "single-frequency",
];
const ADVERSARIES: [&str; 5] = ["none", "random", "fixed-band", "sweep", "adaptive-greedy"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An independently attached `SimMetrics` probe folds the identical
    /// aggregates the engine accumulates internally — the per-round tally
    /// stream carries everything the four-channel engine used to count in
    /// place.
    #[test]
    fn attached_metrics_probe_matches_engine_metrics(
        protocol_idx in 0usize..5,
        adversary_idx in 0usize..5,
        seed in 0u64..500,
    ) {
        let spec = ScenarioSpec::new(PROTOCOLS[protocol_idx], 6, 8, 2)
            .with_adversary(ADVERSARIES[adversary_idx])
            .with_max_rounds(2_000);
        let mut engine = engine_for(&spec, seed);
        let slot = engine.attach_probe(Box::new(SimMetrics::default()));
        engine.run();
        let engine_metrics = *engine.metrics();
        let probe_metrics: SimMetrics = engine
            .take_probes()
            .take(slot)
            .expect("the metrics probe is recoverable");
        prop_assert_eq!(probe_metrics, engine_metrics);
    }
}

/// Forwards `disrupt` to the wrapped adversary but keeps the trait's
/// default `max_lookback() = None`, so the engine retains the full history.
struct FullRetention<A>(A);

impl<A: Adversary> Adversary for FullRetention<A> {
    fn budget(&self) -> u32 {
        self.0.budget()
    }

    fn disrupt(
        &mut self,
        round: u64,
        band: FrequencyBand,
        history: &History,
        rng: &mut SimRng,
    ) -> DisruptionSet {
        self.0.disrupt(round, band, history, rng)
    }
}

#[test]
fn history_retention_is_derived_from_adversary_and_probe_demand() {
    let base = |adversary: &str| {
        ScenarioSpec::new("trapdoor", 6, 8, 2)
            .with_adversary(adversary)
            .with_max_rounds(500)
    };

    // History-free adversary: O(1) retained round state.
    let mut engine = engine_for(&base("random"), 1);
    assert_eq!(engine.history().window(), Some(1));
    engine.run();
    assert!(
        engine.history().len() <= 1,
        "outcome-only runs hold O(1) rounds"
    );

    // The adaptive adversary registers its 8-round lookback.
    let engine = engine_for(&base("adaptive-greedy"), 1);
    assert_eq!(engine.history().window(), Some(8));

    // An adversary with an unknown (default) lookback gets full retention.
    let mut engine = engine_with(&base("random"), 3, FullRetention);
    assert_eq!(engine.history().window(), None);
    let result = engine.run();
    assert_eq!(engine.history().len() as u64, result.rounds_executed);
}

#[test]
fn retention_policy_never_changes_outcomes() {
    // The same (spec, seed) under demand-derived and full retention
    // resolves to bit-identical outcomes: retention is invisible as long
    // as it covers the adversary's declared lookback.
    for adversary in ["random", "adaptive-greedy", "sweep"] {
        let spec = ScenarioSpec::new("trapdoor", 8, 8, 2)
            .with_adversary(adversary)
            .with_max_rounds(2_000);
        let demand = engine_for(&spec, 7).run();
        let full = engine_with(&spec, 7, FullRetention).run();
        assert_eq!(demand, full, "{adversary}");
    }
}

#[test]
fn buffer_reusing_counts_match_the_allocating_variants() {
    let band = FrequencyBand::new(5);
    let spec = ScenarioSpec::new("trapdoor", 8, 5, 1)
        .with_adversary("random")
        .with_max_rounds(300);
    let mut engine = engine_for(&spec, 11);
    // Retain plenty of history so the lookback sums are non-trivial.
    let mut history = History::with_window(64);
    // Drive the engine and mirror its history through the probe interface.
    for _ in 0..200 {
        engine.step();
    }
    for record in engine.history().iter() {
        history.push(record.clone());
    }
    let mut listeners = vec![99u64; 17]; // junk shape: must be cleared+resized
    let mut broadcasters = Vec::new();
    for lookback in [0usize, 1, 3, 64, 1000] {
        history.listener_counts_into(band, lookback, &mut listeners);
        assert_eq!(listeners, history.listener_counts(band, lookback));
        history.broadcaster_counts_into(band, lookback, &mut broadcasters);
        assert_eq!(broadcasters, history.broadcaster_counts(band, lookback));
    }
    // The buffers were reused, not reallocated, across iterations.
    assert_eq!(listeners.len(), 5);
}

#[test]
fn probed_specs_round_trip_and_validate() {
    let spec = ScenarioSpec::new("trapdoor", 8, 8, 2)
        .with_adversary("random")
        .with_probe("metrics")
        .with_probe(ComponentSpec::named("trace").with("max_rounds", 32u64));
    let text = spec.to_json();
    assert!(text.contains("\"probes\""));
    let back = ScenarioSpec::from_json(&text).expect("probed specs round-trip");
    assert_eq!(back, spec);

    // Probe-less specs keep their historical wire form: no "probes" key.
    let plain = ScenarioSpec::new("trapdoor", 8, 8, 2).with_adversary("random");
    assert!(!plain.to_json().contains("probes"));

    // Probes are excluded from the store digest: instrumented and
    // outcome-only runs of the same cell share cache entries.
    assert_eq!(spec_digest(&spec), spec_digest(&plain));

    // Unknown probe names and bad probe parameters fail at build time.
    let unknown = plain.clone().with_probe("oscilloscope");
    match Sim::from_spec(&unknown) {
        Err(SpecError::UnknownProbe { name, known }) => {
            assert_eq!(name, "oscilloscope");
            assert_eq!(known, vec!["checker", "fault-counters", "metrics", "trace"]);
        }
        other => panic!("expected UnknownProbe, got {other:?}", other = other.err()),
    }
    let mistyped = plain
        .clone()
        .with_probe(ComponentSpec::named("trace").with("max_rounds", "lots"));
    assert!(matches!(
        Sim::from_spec(&mistyped),
        Err(SpecError::BadParam { .. })
    ));
    let typo = plain.with_probe(ComponentSpec::named("checker").with("max_recroded", 5u64));
    assert!(matches!(
        Sim::from_spec(&typo),
        Err(SpecError::UnknownParam { .. })
    ));
}

#[test]
fn run_probed_carries_outputs_and_cache_hits_skip_probes() {
    let dir = std::env::temp_dir().join(format!(
        "wsync-probe-store-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let plain_spec = ScenarioSpec::new("trapdoor", 6, 8, 2).with_adversary("random");
    let probed_spec = plain_spec
        .clone()
        .with_probe("checker")
        .with_probe("metrics");
    let baseline = Sim::from_spec(&plain_spec).unwrap().run_one(5);

    // Fresh probed run: outcome identical, outputs present in order.
    let sim = Sim::from_spec(&probed_spec).unwrap();
    let probed = sim.run_probed(5);
    assert_eq!(probed.outcome, baseline);
    let outputs = probed.probes;
    assert_eq!(outputs.len(), 2);
    assert_eq!(outputs[0].name, "checker");
    assert_eq!(outputs[1].name, "metrics");

    // Store-backed: an outcome-only sweep records seed 5; the probed
    // sweep's cache hit serves it without executing (probes: None).
    let store = Arc::new(ResultStore::open(&dir).unwrap());
    let mut recorded = Vec::new();
    SweepRunner::new()
        .record_only(Arc::clone(&store))
        .run_points_each(
            vec![(String::new(), plain_spec.clone())],
            5..6,
            |_, outcome| recorded.push(outcome.clone()),
        )
        .unwrap();
    assert_eq!(recorded, vec![baseline.clone()]);
    let digest = spec_digest(&probed_spec);
    assert_eq!(
        digest,
        spec_digest(&plain_spec),
        "probed and outcome-only specs share the content digest"
    );
    let mut seen: Vec<(u64, Option<usize>)> = Vec::new();
    let report = SweepRunner::new()
        .store(Arc::clone(&store))
        .run_points_with(
            vec![(String::new(), probed_spec)],
            5..7,
            None,
            |_, outcome, outputs| {
                if outcome.seed == 5 {
                    assert_eq!(*outcome, baseline);
                }
                seen.push((outcome.seed, outputs.map(<[ProbeOutput]>::len)));
            },
        )
        .unwrap();
    assert_eq!(
        seen,
        vec![(5, None), (6, Some(2))],
        "cache hits skip the engine and probes; the uncached seed is probed"
    );
    assert_eq!((report.cached_trials(), report.executed_trials()), (1, 1));
    // The seed that was not cached executed and persisted.
    assert!(store.contains(digest, 6));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn first_only_probing_samples_one_seed_per_point() {
    // The sweep runner's probe sampling (behind the --spec probe table):
    // only each point's first seed carries probe outputs, they agree with
    // the trial's outcome, and the outcome stream and aggregates are those
    // of unprobed executions.
    let base = ScenarioSpec::new("trapdoor", 6, 8, 1)
        .with_adversary("random")
        .with_probe("metrics")
        .with_probe("checker");
    // Distinct specs per point: the points must not share a store digest,
    // or one point's executed trials would satisfy the other's cache.
    let points = vec![
        ("t=1".to_string(), base.clone()),
        ("t=3".to_string(), {
            let mut p = base.clone();
            p.disruption_bound = 3;
            p
        }),
    ];
    let mut probed_seeds: Vec<(usize, u64)> = Vec::new();
    let mut outcomes: Vec<SyncOutcome> = Vec::new();
    let report = SweepRunner::new()
        .run_points_with(points.clone(), 2..6, None, |point, outcome, outputs| {
            outcomes.push(outcome.clone());
            if let Some(outputs) = outputs {
                probed_seeds.push((point, outcome.seed));
                assert_eq!(outputs.len(), 2);
                assert_eq!(outputs[1].name, "checker");
                assert_eq!(
                    outputs[1].value.get("liveness").and_then(|v| v.as_bool()),
                    Some(outcome.properties.liveness)
                );
            }
        })
        .unwrap();
    assert_eq!(probed_seeds, vec![(0, 2), (1, 2)]);
    let plain: Vec<SyncOutcome> = points
        .iter()
        .flat_map(|(_, spec)| {
            let sim = Sim::from_spec(spec).unwrap();
            (2..6).map(move |seed| sim.run_one(seed))
        })
        .collect();
    assert_eq!(outcomes, plain);
    for (index, point) in report.points.iter().enumerate() {
        assert_eq!(
            point.stats,
            BatchStats::aggregate(&plain[index * 4..(index + 1) * 4])
        );
    }

    // With a resume store that already holds the first seed, the sample
    // moves to the first seed that actually executes.
    let dir = std::env::temp_dir().join(format!(
        "wsync-probe-first-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(ResultStore::open(&dir).unwrap());
    // pre-cache seed 2 for both points
    SweepRunner::new()
        .record_only(Arc::clone(&store))
        .run_points(points.clone(), 2..3)
        .unwrap();
    let store = Arc::new(ResultStore::open(&dir).unwrap());
    let mut probed_seeds: Vec<(usize, u64)> = Vec::new();
    SweepRunner::new()
        .store(store)
        .run_points_with(points, 2..6, None, |point, outcome, outputs| {
            if outputs.is_some() {
                probed_seeds.push((point, outcome.seed));
            }
        })
        .unwrap();
    assert_eq!(
        probed_seeds,
        vec![(0, 3), (1, 3)],
        "the probe sample lands on the first seed the cache cannot serve"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
