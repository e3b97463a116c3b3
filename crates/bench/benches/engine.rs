//! Micro-benchmarks of the simulation substrate itself: raw rounds per
//! second of the engine under different node counts and adversaries.
//!
//! The `engine_throughput` group is the tracked perf baseline of the
//! repository: its measured rounds/sec are recorded in `BENCH_engine.json`
//! (see the "Performance" section of EXPERIMENTS.md). Run it with
//!
//! ```sh
//! cargo bench -p wsync-bench --bench engine -- engine_throughput
//! ```
//!
//! and set `CRITERION_JSON_OUT=<path>` to append machine-readable results.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use wsync_core::checker::PropertyChecker;
use wsync_core::registry;
use wsync_core::spec::ScenarioSpec;
use wsync_core::trapdoor::{TrapdoorConfig, TrapdoorProtocol};
use wsync_radio::engine::Engine;
use wsync_radio::metrics::SimMetrics;

fn bench_engine_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_rounds_per_second");
    const ROUNDS: u64 = 2_000;
    group.throughput(Throughput::Elements(ROUNDS));
    for n in [16usize, 64, 256] {
        let scenario = ScenarioSpec::new("trapdoor", n, 16, 6).with_adversary("random");
        let config = TrapdoorConfig::new(scenario.upper_bound(), 16, 6);
        group.bench_with_input(BenchmarkId::from_parameter(n), &scenario, |b, s| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let adversary = registry::build_adversary(&s.adversary, s, seed).unwrap();
                let mut engine = Engine::new(
                    s.sim_config().with_max_rounds(ROUNDS),
                    |_| TrapdoorProtocol::new(config),
                    adversary,
                    s.activation.clone(),
                    seed,
                )
                .unwrap();
                for _ in 0..ROUNDS {
                    engine.step();
                }
                engine.metrics().deliveries
            })
        });
    }
    group.finish();
}

/// The tracked engine baseline: steady-state rounds/sec of the full
/// per-round pipeline (activation scan, Trapdoor action choice, random
/// adversary, frequency resolution, feedback delivery, history append) over
/// the grid N ∈ {16, 64, 256} × F ∈ {8, 32}, with the disruption bound set
/// to t = F/4.
///
/// Each timed iteration covers one engine lifetime: construction (protocol
/// instances, RNG streams, scratch buffers) plus 2000 stepped rounds, so the
/// reported rounds/sec amortize a one-time O(N) setup — well under 1% of an
/// iteration — over the steady-state dispatch the group exists to track.
/// Before/after comparisons in `BENCH_engine.json` use this same
/// methodology on both sides; the N=256/F=32 cell is the headline number.
fn bench_engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_throughput");
    const ROUNDS: u64 = 2_000;
    group.throughput(Throughput::Elements(ROUNDS));
    for n in [16usize, 64, 256] {
        for f in [8u32, 32] {
            let t = f / 4;
            let scenario = ScenarioSpec::new("trapdoor", n, f, t).with_adversary("random");
            let config = TrapdoorConfig::new(scenario.upper_bound(), f, t);
            let id = BenchmarkId::new(format!("N{n}"), format!("F{f}"));
            group.bench_with_input(id, &scenario, |b, s| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let adversary = registry::build_adversary(&s.adversary, s, seed).unwrap();
                    let mut engine = Engine::new(
                        s.sim_config().with_max_rounds(ROUNDS),
                        |_| TrapdoorProtocol::new(config),
                        adversary,
                        s.activation.clone(),
                        seed,
                    )
                    .unwrap();
                    for _ in 0..ROUNDS {
                        engine.step();
                    }
                    engine.metrics().deliveries
                })
            });
        }
    }
    group.finish();
}

/// Large-N scaling of the sparse-activity engine: N ∈ {4096, 65536,
/// 1_000_000} on F=32 / t=8 under a staggered activation schedule (gap
/// 1 — one node wakes per round), for both the Trapdoor and Good
/// Samaritan protocols. Over the same 2000-round horizon as the
/// headline grid at most 2000 nodes are ever active regardless of N, so
/// per-round cost should stay roughly flat as N grows — that flatness
/// *is* the O(active + contended frequencies) claim; the pre-sparse
/// engine scanned all N nodes every round and fell off a cliff here.
/// Engine construction (the one-time O(N) buffers and wake queue) stays
/// inside the timed iteration, exactly like `engine_throughput`.
fn bench_large_n_scaling(c: &mut Criterion) {
    use wsync_core::good_samaritan::{GoodSamaritanConfig, GoodSamaritanProtocol};
    use wsync_radio::activation::ActivationSchedule;

    let mut group = c.benchmark_group("engine_large_n");
    const ROUNDS: u64 = 2_000;
    group.throughput(Throughput::Elements(ROUNDS));
    group.sample_size(10);
    for n in [4_096usize, 65_536, 1_000_000] {
        let scenario = ScenarioSpec::new("trapdoor", n, 32, 8)
            .with_adversary("random")
            .with_activation(ActivationSchedule::Staggered { gap: 1 });
        let trapdoor = TrapdoorConfig::new(scenario.upper_bound(), 32, 8);
        let id = BenchmarkId::new("trapdoor", format!("N{n}"));
        group.bench_with_input(id, &scenario, |b, s| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let adversary = registry::build_adversary(&s.adversary, s, seed).unwrap();
                let mut engine = Engine::new(
                    s.sim_config().with_max_rounds(ROUNDS),
                    |_| TrapdoorProtocol::new(trapdoor),
                    adversary,
                    s.activation.clone(),
                    seed,
                )
                .unwrap();
                for _ in 0..ROUNDS {
                    engine.step();
                }
                engine.metrics().deliveries
            })
        });
        let samaritan = GoodSamaritanConfig::new(scenario.upper_bound(), 32, 8);
        let id = BenchmarkId::new("good-samaritan", format!("N{n}"));
        group.bench_with_input(id, &scenario, |b, s| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let adversary = registry::build_adversary(&s.adversary, s, seed).unwrap();
                let mut engine = Engine::new(
                    s.sim_config().with_max_rounds(ROUNDS),
                    |_| GoodSamaritanProtocol::new(samaritan),
                    adversary,
                    s.activation.clone(),
                    seed,
                )
                .unwrap();
                for _ in 0..ROUNDS {
                    engine.step();
                }
                engine.metrics().deliveries
            })
        });
    }
    group.finish();
}

/// The million-node acceptance cell: a *complete* engine run — the
/// public [`Engine::run`] loop with its termination checks, not a manual
/// step loop — at N=1_000_000 Trapdoor nodes under the staggered
/// schedule, to the configured 2000-round horizon. Exists to pin that a
/// full million-node engine lifetime (construction, wake-queue feed,
/// sparse rounds, completion bookkeeping) finishes in the release bench.
fn bench_million_node_full_run(c: &mut Criterion) {
    use wsync_radio::activation::ActivationSchedule;

    let mut group = c.benchmark_group("engine_million_full_run");
    const ROUNDS: u64 = 2_000;
    group.throughput(Throughput::Elements(ROUNDS));
    group.sample_size(10);
    let scenario = ScenarioSpec::new("trapdoor", 1_000_000, 32, 8)
        .with_adversary("random")
        .with_activation(ActivationSchedule::Staggered { gap: 1 });
    let config = TrapdoorConfig::new(scenario.upper_bound(), 32, 8);
    group.bench_with_input(
        BenchmarkId::from_parameter("trapdoor/N1000000"),
        &scenario,
        |b, s| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let adversary = registry::build_adversary(&s.adversary, s, seed).unwrap();
                let mut engine = Engine::new(
                    s.sim_config().with_max_rounds(ROUNDS),
                    |_| TrapdoorProtocol::new(config),
                    adversary,
                    s.activation.clone(),
                    seed,
                )
                .unwrap();
                let result = engine.run();
                (result.metrics.rounds, engine.metrics().deliveries)
            })
        },
    );
    group.finish();
}

/// Observation overhead of the probe pipeline: each workload run with an
/// empty probe stack (`none` — the engine's internal history/metrics
/// probes only) versus with an attached metrics-plus-checker stack
/// (`metrics+checker` — an independent `SimMetrics` fold plus the
/// streaming `PropertyChecker`, the default instrumentation of every `Sim`
/// run). The gap between the two cells is the marginal cost of observing
/// every resolved round.
///
/// Two workloads: the N=256/F=32 headline cell (`none` is the identical
/// workload to `engine_throughput/N256/F32`), and `N65536-staggered`, the
/// `engine_large_n/trapdoor/N65536` workload, where at most 2000 of the
/// 65536 nodes ever run. There the checker must cost O(active) per round
/// like the engine: a checker that scanned all N node views every round
/// would dwarf the engine's own work.
fn bench_observation_overhead(c: &mut Criterion) {
    use wsync_radio::activation::ActivationSchedule;

    let mut group = c.benchmark_group("engine_observation_overhead");
    const ROUNDS: u64 = 2_000;
    group.throughput(Throughput::Elements(ROUNDS));
    let workloads = [
        (
            None,
            ScenarioSpec::new("trapdoor", 256, 32, 8).with_adversary("random"),
        ),
        (
            Some("N65536-staggered"),
            ScenarioSpec::new("trapdoor", 65_536, 32, 8)
                .with_adversary("random")
                .with_activation(ActivationSchedule::Staggered { gap: 1 }),
        ),
    ];
    for (workload, scenario) in &workloads {
        let config = TrapdoorConfig::new(scenario.upper_bound(), 32, 8);
        for probed in [false, true] {
            let label = if probed { "metrics+checker" } else { "none" };
            let id = match workload {
                Some(workload) => BenchmarkId::new(*workload, label),
                None => BenchmarkId::from_parameter(label),
            };
            group.bench_with_input(id, scenario, |b, s| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let adversary = registry::build_adversary(&s.adversary, s, seed).unwrap();
                    let mut engine = Engine::new(
                        s.sim_config().with_max_rounds(ROUNDS),
                        |_| TrapdoorProtocol::new(config),
                        adversary,
                        s.activation.clone(),
                        seed,
                    )
                    .unwrap();
                    if probed {
                        engine.attach_probe(Box::new(SimMetrics::default()));
                        engine.attach_probe(Box::new(PropertyChecker::new()));
                    }
                    for _ in 0..ROUNDS {
                        engine.step();
                    }
                    engine.metrics().deliveries
                })
            });
        }
    }
    group.finish();
}

/// Fault-hook overhead on the N=256/F=32 headline cell: `none` runs with
/// an empty fault stack (the `has_faults` fast path — identical workload
/// to `engine_throughput/N256/F32`, pinning that the hooks cost ≈0 when no
/// layers are attached), `zero-intensity` attaches all four built-in
/// layers at zero intensity (per-round stack dispatch but no RNG draws and
/// no behaviour change), and `active-drop` attaches a single 25% loss
/// layer (one RNG draw per delivery) for scale.
fn bench_fault_overhead(c: &mut Criterion) {
    use wsync_radio::fault::{CaptureLayer, ChurnLayer, DropLayer, FaultLayer, PartitionLayer};

    let mut group = c.benchmark_group("engine_fault_overhead");
    const ROUNDS: u64 = 2_000;
    group.throughput(Throughput::Elements(ROUNDS));
    let scenario = ScenarioSpec::new("trapdoor", 256, 32, 8).with_adversary("random");
    let config = TrapdoorConfig::new(scenario.upper_bound(), 32, 8);
    type StackBuilder = fn(usize) -> Vec<Box<dyn FaultLayer>>;
    let stacks: [(&str, StackBuilder); 3] = [
        ("none", |_| Vec::new()),
        ("zero-intensity", |n| {
            vec![
                Box::new(DropLayer::new(0.0)),
                Box::new(CaptureLayer::new(0.0)),
                Box::new(PartitionLayer::new(n, &[], None)),
                Box::new(ChurnLayer::new(0.0, 8)),
            ]
        }),
        ("active-drop", |_| vec![Box::new(DropLayer::new(0.25))]),
    ];
    for (label, make_stack) in stacks {
        group.bench_with_input(BenchmarkId::from_parameter(label), &scenario, |b, s| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let adversary = registry::build_adversary(&s.adversary, s, seed).unwrap();
                let mut engine = Engine::new(
                    s.sim_config().with_max_rounds(ROUNDS),
                    |_| TrapdoorProtocol::new(config),
                    adversary,
                    s.activation.clone(),
                    seed,
                )
                .unwrap();
                for layer in make_stack(s.num_nodes) {
                    engine.attach_fault(layer);
                }
                for _ in 0..ROUNDS {
                    engine.step();
                }
                engine.metrics().deliveries
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engine_rounds,
    bench_engine_throughput,
    bench_large_n_scaling,
    bench_million_node_full_run,
    bench_observation_overhead,
    bench_fault_overhead
);
criterion_main!(benches);
