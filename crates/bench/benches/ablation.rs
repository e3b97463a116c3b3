//! A1 / A2 — design ablations: the Trapdoor epoch-length constant and the
//! `F′ = min(F, 2t)` frequency restriction, swept through the registry's
//! declarative protocol parameters.
//!
//! These benches measure the registry path (`Sim::run_one`, type-erased
//! protocols + per-message `DynMsg` boxing) — the path users actually
//! run — so their numbers are not comparable to records taken before the
//! registry migration. The tracked engine baseline (`BENCH_engine.json`,
//! `engine_throughput` in `engine.rs`) still measures the statically-typed
//! engine and is unaffected.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wsync_core::sim::Sim;
use wsync_core::spec::ScenarioSpec;

fn bench_epoch_constant(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_epoch_constant");
    group.sample_size(10);
    for constant in [1.0f64, 2.0, 4.0] {
        let spec = ScenarioSpec::new("trapdoor", 24, 16, 6)
            .with_adversary("random")
            .with_protocol_param("epoch_constant", constant)
            .with_protocol_param("final_epoch_constant", constant);
        let sim = Sim::from_spec(&spec).expect("valid spec");
        group.bench_with_input(BenchmarkId::from_parameter(constant), &sim, |b, sim| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                sim.run_one(seed).result.rounds_executed
            })
        });
    }
    group.finish();
}

fn bench_frequency_limit(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_frequency_limit");
    group.sample_size(10);
    let base = ScenarioSpec::new("trapdoor", 24, 32, 4).with_adversary("random");
    let paper_limit =
        wsync_core::trapdoor::TrapdoorConfig::new(base.upper_bound(), 32, 4).f_prime();
    for (name, limit) in [("paper_f_prime", paper_limit), ("full_band", 32)] {
        let spec = base
            .clone()
            .with_protocol_param("frequency_limit", u64::from(limit));
        let sim = Sim::from_spec(&spec).expect("valid spec");
        group.bench_with_input(BenchmarkId::from_parameter(name), &sim, |b, sim| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                sim.run_one(seed).result.rounds_executed
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_epoch_constant, bench_frequency_limit);
criterion_main!(benches);
