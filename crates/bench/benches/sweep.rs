//! Benchmarks of the sweep-orchestration and result-store layer.
//!
//! * `sweep_orchestration` — the same grid run as a per-point batch loop
//!   (each point drains on its own) versus one [`SweepRunner`] pass
//!   (work stealing over the whole grid-point × seed space). The runner
//!   should win whenever per-point trial costs are uneven.
//! * `store_cache` — the cost of a fully cached sweep replay (every trial
//!   served from the content-addressed store, no engine work) and of the
//!   store's record path, bounding what `--resume` saves and what `--out`
//!   costs.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wsync_core::batch::{BatchRunner, BatchStats};
use wsync_core::sim::Sim;
use wsync_core::spec::{ScenarioSpec, SweepSpec};
use wsync_core::store::ResultStore;
use wsync_core::sweep::{StopMetric, StoppingRule, SweepRunner};

fn grid(seeds: u64) -> SweepSpec {
    let base = ScenarioSpec::new("trapdoor", 16, 16, 4).with_adversary("random");
    SweepSpec::new(base, 0..seeds).with_axis(
        "disruption_bound",
        vec![0u64.into(), 4u64.into(), 8u64.into(), 12u64.into()],
    )
}

fn bench_sweep_orchestration(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_orchestration");
    group.sample_size(10);
    const SEEDS: u64 = 8;
    group.bench_with_input(
        BenchmarkId::new("per_point_loop", SEEDS),
        &grid(SEEDS),
        |b, sweep| {
            b.iter(|| {
                let runner = BatchRunner::new();
                let seeds = sweep.seeds().unwrap();
                sweep
                    .expand()
                    .unwrap()
                    .iter()
                    .map(|point| {
                        let sim = Sim::from_spec(&point.spec).unwrap();
                        let outcomes = runner.map(seeds.clone(), |seed| sim.run_one(seed));
                        BatchStats::aggregate(&outcomes).trials
                    })
                    .sum::<u64>()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("sweep_runner", SEEDS),
        &grid(SEEDS),
        |b, sweep| {
            b.iter(|| {
                SweepRunner::new()
                    .run(sweep)
                    .unwrap()
                    .points
                    .iter()
                    .map(|p| p.stats.trials)
                    .sum::<u64>()
            })
        },
    );
    group.finish();
}

fn bench_store_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_cache");
    group.sample_size(10);
    const SEEDS: u64 = 8;
    let sweep = grid(SEEDS);
    let dir = std::env::temp_dir().join(format!("wsync-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Populate once; the replay bench then serves everything from cache.
    let store = Arc::new(ResultStore::open(&dir).unwrap());
    SweepRunner::new()
        .store(Arc::clone(&store))
        .run(&sweep)
        .unwrap();

    group.bench_function(BenchmarkId::new("cached_replay", SEEDS), |b| {
        b.iter(|| {
            let report = SweepRunner::new()
                .store(Arc::clone(&store))
                .run(&sweep)
                .unwrap();
            assert_eq!(report.executed_trials(), 0);
            report.cached_trials()
        })
    });
    group.bench_function(BenchmarkId::new("record_fresh", SEEDS), |b| {
        b.iter(|| {
            let fresh = std::env::temp_dir()
                .join(format!("wsync-bench-store-fresh-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&fresh);
            let store = Arc::new(ResultStore::open(&fresh).unwrap());
            let report = SweepRunner::new().record_only(store).run(&sweep).unwrap();
            let _ = std::fs::remove_dir_all(&fresh);
            report.executed_trials()
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fixed-count versus adaptive allocation of the same grid: the adaptive
/// cell declares a loose sync-rate stopping rule that settles within the
/// first batch on this well-behaved grid, so it runs a fraction of the
/// fixed cell's trials. The cells assert their trial totals, so the bench
/// doubles as a record of the measured savings.
fn bench_sweep_adaptive(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_adaptive");
    group.sample_size(10);
    const SEEDS: u64 = 32;
    const MIN_SEEDS: u64 = 8;
    let fixed = grid(SEEDS);
    let adaptive = grid(SEEDS).with_stop(
        StoppingRule::new(StopMetric::SyncRate, 0.3)
            .with_min_seeds(MIN_SEEDS)
            .with_batch(MIN_SEEDS),
    );
    group.bench_with_input(
        BenchmarkId::new("fixed_count", SEEDS),
        &fixed,
        |b, sweep| {
            b.iter(|| {
                let report = SweepRunner::new().run(sweep).unwrap();
                assert_eq!(report.total_trials(), 4 * SEEDS);
                report.total_trials()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("adaptive_stop", SEEDS),
        &adaptive,
        |b, sweep| {
            b.iter(|| {
                let report = SweepRunner::new().run(sweep).unwrap();
                assert!(report.total_trials() < 4 * SEEDS);
                report.total_trials()
            })
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_sweep_orchestration,
    bench_store_cache,
    bench_sweep_adaptive
);
criterion_main!(benches);
