//! The seeded input generator. Every spec, seed range and request the
//! programs under test receive is derived here from the workload seed, so
//! the same seed always yields the same inputs and the same exact counts.

use std::ops::Range;

/// SplitMix64: a tiny, well-mixed, dependency-free PRNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Seeds are drawn below this bound, so generated seed ranges never wrap.
const SEED_SPACE: u64 = 1 << 40;

/// The two `SweepSpec` documents of the `sweep-grid` workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepGridInputs {
    /// Trapdoor over N∈{16,64} × t∈{2,8}, F=16, a fixed seed range.
    pub trapdoor: String,
    /// Good Samaritan over the same grid with a `"stop"` rule.
    pub samaritan: String,
}

/// Trials per grid point of the fixed-seed Trapdoor sweep.
pub const TRAPDOOR_SEEDS: u64 = 16;
/// The seed budget per grid point of the adaptive Good Samaritan sweep.
pub const SAMARITAN_BUDGET: u64 = 32;

/// Generates input set `set` of the `sweep-grid` workload. Trial cost
/// varies a lot from seed to seed (Good Samaritan's stopping point, long
/// Trapdoor trials), so a run draws a fresh set per round and averages
/// over all of them.
pub fn sweep_grid(seed: u64, set: u64) -> SweepGridInputs {
    let mut rng = SplitMix64::new(seed ^ 0x5377_6565_7047_7269);
    for _ in 0..set {
        rng.next_u64();
        rng.next_u64();
    }
    let grid = r#"[{"field": "num_nodes", "values": [16, 64]}, {"field": "disruption_bound", "values": [2, 8]}]"#;
    let base = |protocol: &str| {
        format!(
            r#"{{"protocol": "{protocol}", "adversary": "random", "activation": "simultaneous", "num_nodes": 16, "num_frequencies": 16, "disruption_bound": 2, "max_rounds": 200000}}"#
        )
    };
    let start = rng.below(SEED_SPACE);
    let trapdoor = format!(
        r#"{{"base": {}, "seeds": {{"start": {start}, "end": {}}}, "grid": {grid}}}"#,
        base("trapdoor"),
        start + TRAPDOOR_SEEDS,
    );
    let start = rng.below(SEED_SPACE);
    let samaritan = format!(
        r#"{{"base": {}, "seeds": {{"start": {start}, "end": {}}}, "grid": {grid}, "stop": {{"metric": "sync_rounds_mean", "ci_level": 0.95, "half_width": 0.2, "relative": true, "min_seeds": 8, "batch": 8}}}}"#,
        base("good-samaritan"),
        start + SAMARITAN_BUDGET,
    );
    SweepGridInputs {
        trapdoor,
        samaritan,
    }
}

/// One small scenario of the `serve-mix` workload and the seed range the
/// set-up stores for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixSpec {
    /// The `ScenarioSpec` JSON document.
    pub text: String,
    /// Seeds stored during set-up; hits fall inside, misses above.
    pub stored: Range<u64>,
}

/// One request of the `serve-mix` stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MixRequest {
    /// `POST /run` of spec `spec` over `seeds`; `hit` says whether set-up
    /// stored every seed of the range.
    Run {
        /// Index into [`ServeMixInputs::specs`].
        spec: usize,
        /// The requested seed range.
        seeds: Range<u64>,
        /// Whether every seed is stored before the stream starts.
        hit: bool,
    },
    /// `GET /metrics`.
    Metrics,
    /// `GET /healthz`.
    Healthz,
}

/// The `serve-mix` inputs: a few small specs and a fixed request stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeMixInputs {
    /// The scenarios requests refer to.
    pub specs: Vec<MixSpec>,
    /// The request stream, in send order.
    pub requests: Vec<MixRequest>,
}

/// The `serve-mix` scenarios as `(protocol, N, F, t)`. The shapes are
/// fixed so that every seed costs the same; the seed picks the seed
/// ranges and the request stream.
pub const MIX_SHAPES: [(&str, u64, u64, u64); 4] = [
    ("trapdoor", 8, 8, 2),
    ("good-samaritan", 8, 8, 2),
    ("trapdoor", 12, 16, 4),
    ("good-samaritan", 6, 8, 2),
];
/// Scenarios in the `serve-mix` workload.
pub const MIX_SPECS: usize = MIX_SHAPES.len();
/// The scenarios misses go to (the Trapdoor ones).
const MISS_SPECS: [usize; 2] = [0, 2];
/// Seeds stored per scenario during `serve-mix` set-up.
pub const MIX_STORED: u64 = 256;

/// Generates `count` `serve-mix` requests: ~2% `GET /metrics` or
/// `/healthz`, ~10% misses (1–4 fresh seeds above the stored range of a
/// Trapdoor spec), the rest hits with widths 1, 2, 4, … 256 inside the
/// stored range of any spec.
pub fn serve_mix(seed: u64, count: usize) -> ServeMixInputs {
    let mut rng = SplitMix64::new(seed ^ 0x5365_7276_654d_6978);
    let specs: Vec<MixSpec> = MIX_SHAPES
        .iter()
        .map(|&(protocol, nodes, frequencies, bound)| {
            let start = rng.below(SEED_SPACE);
            MixSpec {
                text: format!(
                    r#"{{"protocol": "{protocol}", "adversary": "random", "activation": "simultaneous", "num_nodes": {nodes}, "num_frequencies": {frequencies}, "disruption_bound": {bound}, "max_rounds": 200000}}"#
                ),
                stored: start..start + MIX_STORED,
            }
        })
        .collect();
    let mut fresh: Vec<u64> = specs.iter().map(|s| s.stored.end).collect();
    let requests = (0..count)
        .map(|_| {
            let roll = rng.unit();
            let spec = rng.below(MIX_SPECS as u64) as usize;
            if roll < 0.01 {
                MixRequest::Metrics
            } else if roll < 0.02 {
                MixRequest::Healthz
            } else if roll < 0.12 {
                // Misses run trials, so they go to the Trapdoor specs, whose
                // trial cost barely varies with the seed; Good Samaritan's
                // heavy-tailed trials would make the tail latency depend on
                // which seeds the workload seed happens to pick.
                let spec = MISS_SPECS[rng.below(MISS_SPECS.len() as u64) as usize];
                let width = 1 + rng.below(4);
                let start = fresh[spec];
                fresh[spec] += width;
                MixRequest::Run {
                    spec,
                    seeds: start..start + width,
                    hit: false,
                }
            } else {
                let width = 1u64 << rng.below(9);
                let stored = &specs[spec].stored;
                let start = stored.start + rng.below(MIX_STORED - width + 1);
                MixRequest::Run {
                    spec,
                    seeds: start..start + width,
                    hit: true,
                }
            }
        })
        .collect();
    ServeMixInputs { specs, requests }
}

/// A hits-only request stream over the same scenarios, for the
/// capacity ladder (no store writes, so every rung sees the same store).
pub fn serve_mix_hits(seed: u64, specs: &[MixSpec], count: usize) -> Vec<MixRequest> {
    let mut rng = SplitMix64::new(seed ^ 0x4c61_6464_6572);
    (0..count)
        .map(|_| {
            let spec = rng.below(specs.len() as u64) as usize;
            let width = 1u64 << rng.below(9);
            let stored = &specs[spec].stored;
            let start = stored.start + rng.below(MIX_STORED - width + 1);
            MixRequest::Run {
                spec,
                seeds: start..start + width,
                hit: true,
            }
        })
        .collect()
}

/// One single-trial request of the `large-n` workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LargeTrial {
    /// Number of nodes.
    pub nodes: u64,
    /// The `ScenarioSpec` JSON document.
    pub text: String,
    /// The one seed requested.
    pub seed: u64,
}

/// Node counts of the `large-n` workload.
pub const LARGE_SIZES: [u64; 2] = [65_536, 262_144];

/// Generates the `large-n` inputs: staggered (gap 1) Trapdoor, F=16, t=4,
/// capped at 3000 rounds, one seed per size.
pub fn large_n(seed: u64) -> Vec<LargeTrial> {
    let mut rng = SplitMix64::new(seed ^ 0x4c61_7267_654e);
    LARGE_SIZES
        .iter()
        .map(|&nodes| LargeTrial {
            nodes,
            text: format!(
                r#"{{"protocol": "trapdoor", "adversary": "random", "activation": {{"kind": "staggered", "gap": 1}}, "num_nodes": {nodes}, "num_frequencies": 16, "disruption_bound": 4, "max_rounds": 3000}}"#
            ),
            seed: rng.below(SEED_SPACE),
        })
        .collect()
}

/// The `POST /run` body for `spec_text` over `seeds`.
pub fn run_body(spec_text: &str, seeds: &Range<u64>) -> String {
    format!(
        r#"{{"spec": {spec_text}, "seeds": {{"start": {}, "end": {}}}}}"#,
        seeds.start, seeds.end
    )
}
