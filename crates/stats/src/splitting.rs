//! Multilevel splitting for rare-event probability estimation.
//!
//! Direct Monte Carlo needs ≳ `10/p` trials to even *see* an event of
//! probability `p`; the paper's w.h.p. failure probabilities (`1e-6` and
//! below) are invisible at any seed budget an experiment table can carry.
//! Importance splitting factors the rare event into a chain of more likely
//! intermediate *levels* `L₀ < L₁ < … < L_K` of a severity score `S`:
//!
//! ```text
//! P(S ≥ L_K) = P(S ≥ L₀) · ∏ₖ P(S ≥ Lₖ₊₁ | S ≥ Lₖ)
//! ```
//!
//! and spends its trial budget per factor: paths that reach level `k` are
//! *split* into several children that continue from the parent's prefix,
//! keeping the population at every level large enough to estimate its
//! conditional fraction, so the product resolves probabilities far below
//! `1/total_runs`.
//!
//! Everything is deterministic: a trial is identified by its [`SplitPath`]
//! (root seed plus branch indices), the child enumeration order is fixed,
//! and the severity closure is expected to derive all of its randomness
//! from [`SplitPath::seed`] — two calls with the same config reproduce the
//! same estimate bit for bit, on any machine.
//!
//! The estimate is only as good as "continue from the parent's prefix".
//! A branchable process consumes one branch index per level segment
//! ([`SplitPath::prefix_seed`]), so a child really shares its parent's
//! trajectory up to the level it reached: that is true trajectory
//! splitting, and the estimator is unbiased (see the tests below). A
//! replay-only model — a whole simulated execution keyed by one seed,
//! replayed from [`SplitPath::seed`] — cannot branch. Its children are
//! fresh, independent executions that do not inherit the parent's
//! progress, so each level's fraction estimates the *unconditional*
//! `P(S ≥ Lₖ)` and the product is `∏ₖ P(S ≥ Lₖ)`, biased low against
//! `P(S ≥ L_K)`. Do not feed replay-only models to this estimator.

/// The identity of one splitting trial: a root seed plus the branch index
/// taken at each completed level. Children enumerate deterministically, so
/// the whole splitting tree is a pure function of the configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SplitPath {
    /// The level-0 seed this path grew from.
    pub root: u64,
    /// The branch taken at each level boundary, outermost first.
    pub branches: Vec<u32>,
}

impl SplitPath {
    /// A root path (no branches yet).
    pub fn root(root: u64) -> Self {
        SplitPath {
            root,
            branches: Vec::new(),
        }
    }

    /// The child continuing this path through branch `branch`.
    pub fn child(&self, branch: u32) -> Self {
        let mut branches = self.branches.clone();
        branches.push(branch);
        SplitPath {
            root: self.root,
            branches,
        }
    }

    /// The path's derived seed: a splitmix-style fold of the root and each
    /// branch index. It names the path, but a model that keys a whole
    /// replay off it gets an execution unrelated to the parent's, which
    /// biases [`splitting_estimate`] (see the module docs); branchable
    /// models use [`prefix_seed`] per segment instead.
    ///
    /// [`prefix_seed`]: SplitPath::prefix_seed
    pub fn seed(&self) -> u64 {
        self.prefix_seed(self.branches.len())
    }

    /// The derived seed of this path's first `depth` branches — the seed
    /// stream governing level segment `depth`. Paths sharing a prefix
    /// share its seeds, which is exactly the "restart from the parent's
    /// prefix" the splitting estimator relies on.
    pub fn prefix_seed(&self, depth: usize) -> u64 {
        let mut z = mix(self.root ^ 0x9E37_79B9_7F4A_7C15);
        for &branch in self.branches.iter().take(depth) {
            z = mix(z ^ u64::from(branch).wrapping_mul(0xBF58_476D_1CE4_E5B9));
        }
        z
    }
}

/// One round of splitmix64 finalization.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Configuration of a multilevel splitting run.
#[derive(Debug, Clone, PartialEq)]
pub struct SplittingConfig {
    /// The increasing severity thresholds `L₀ < L₁ < … < L_K`; the
    /// estimated probability is `P(S ≥ L_K)`.
    pub levels: Vec<f64>,
    /// Root trials spawned at level 0.
    pub base_trials: u32,
    /// Children spawned per surviving path at each level boundary. Choose
    /// ≈ `1 / P(S ≥ Lₖ₊₁ | S ≥ Lₖ)` to hold the population steady.
    pub splits: u32,
    /// Survivor-population cap per level: survivors beyond it are dropped
    /// (in deterministic enumeration order) before splitting, bounding the
    /// total work when a level turns out easier than planned.
    pub max_population: u32,
    /// First root seed; roots are `seed_start..seed_start + base_trials`.
    pub seed_start: u64,
}

impl SplittingConfig {
    /// A config with the given levels and sensible defaults
    /// (`base_trials = 1024`, `splits = 8`, `max_population = 4096`,
    /// `seed_start = 0`).
    pub fn new(levels: Vec<f64>) -> Self {
        SplittingConfig {
            levels,
            base_trials: 1024,
            splits: 8,
            max_population: 4096,
            seed_start: 0,
        }
    }
}

/// What happened at one level of a splitting run.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelReport {
    /// The severity threshold of this level.
    pub threshold: f64,
    /// Paths evaluated against the threshold.
    pub spawned: u64,
    /// Paths whose severity reached the threshold.
    pub reached: u64,
    /// `reached / spawned` — the estimated conditional probability
    /// `P(S ≥ Lₖ | S ≥ Lₖ₋₁)`.
    pub conditional: f64,
}

/// The result of a multilevel splitting run.
#[derive(Debug, Clone, PartialEq)]
pub struct SplittingEstimate {
    /// The product of per-level conditional fractions: the estimate of
    /// `P(S ≥ L_K)`. Zero if any level lost its whole population.
    pub probability: f64,
    /// Per-level accounting, in threshold order. Truncated at the first
    /// extinct level (nothing ran past it).
    pub levels: Vec<LevelReport>,
    /// Severity evaluations performed — the run's total cost, typically
    /// orders of magnitude below `1 / probability`.
    pub total_runs: u64,
}

/// Runs multilevel splitting: estimates `P(severity ≥ last level)` by
/// splitting level survivors into deterministic child paths. See the
/// module docs for the estimator and its determinism contract.
///
/// `severity` must be a pure function of its [`SplitPath`] (derive all
/// randomness from [`SplitPath::seed`] / [`SplitPath::prefix_seed`]).
pub fn splitting_estimate<F>(config: &SplittingConfig, mut severity: F) -> SplittingEstimate
where
    F: FnMut(&SplitPath) -> f64,
{
    let mut levels = Vec::with_capacity(config.levels.len());
    let mut probability = if config.levels.is_empty() { 0.0 } else { 1.0 };
    let mut total_runs = 0u64;
    let mut population: Vec<SplitPath> = (0..config.base_trials)
        .map(|i| SplitPath::root(config.seed_start + u64::from(i)))
        .collect();
    for (k, &threshold) in config.levels.iter().enumerate() {
        // Level 0 evaluates the roots themselves; deeper levels evaluate
        // the children split off the previous level's survivors.
        let spawned: Vec<SplitPath> = if k == 0 {
            std::mem::take(&mut population)
        } else {
            population
                .drain(..)
                .flat_map(|parent| (0..config.splits).map(move |b| parent.child(b)))
                .collect()
        };
        if spawned.is_empty() {
            break;
        }
        let mut survivors: Vec<SplitPath> = Vec::new();
        for path in &spawned {
            total_runs += 1;
            if severity(path) >= threshold {
                survivors.push(path.clone());
            }
        }
        let conditional = survivors.len() as f64 / spawned.len() as f64;
        levels.push(LevelReport {
            threshold,
            spawned: spawned.len() as u64,
            reached: survivors.len() as u64,
            conditional,
        });
        probability *= conditional;
        survivors.truncate(config.max_population as usize);
        population = survivors;
        if population.is_empty() {
            probability = 0.0;
            break;
        }
    }
    SplittingEstimate {
        probability,
        levels,
        total_runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A branchable synthetic process with a known rare-event probability:
    /// the trajectory is a chain of segments, segment `k` drawing
    /// `seg_len` coins from the path's depth-`k` prefix seed; severity is
    /// the number of leading all-heads segments. Each segment is all-heads
    /// with probability `2^-seg_len` independently, so
    /// `P(severity ≥ K) = 2^(-K·seg_len)`.
    fn segment_severity(path: &SplitPath, seg_len: u32) -> f64 {
        let mut passed = 0usize;
        // A path with b branches carries entropy for segments 0..=b; a
        // segment beyond its entropy cannot pass (the trial never got
        // there).
        while passed <= path.branches.len() {
            let stream = path.prefix_seed(passed);
            let all_heads = (0..seg_len).all(|c| {
                // one coin per (stream, c): bit 0 of a fresh mix
                super::mix(stream ^ (u64::from(c) << 32)) & 1 == 1
            });
            if !all_heads {
                break;
            }
            passed += 1;
        }
        passed as f64
    }

    #[test]
    fn estimates_a_two_to_the_minus_twenty_event() {
        // 5 segments of 4 coins: P = 2^-20 ≈ 9.5e-7. Population ~256 per
        // level with splits = 16.
        let config = SplittingConfig {
            levels: vec![1.0, 2.0, 3.0, 4.0, 5.0],
            base_trials: 4096,
            splits: 16,
            max_population: 1024,
            seed_start: 0,
        };
        let estimate = splitting_estimate(&config, |p| segment_severity(p, 4));
        let truth = 2f64.powi(-20);
        assert!(
            estimate.probability > truth / 4.0 && estimate.probability < truth * 4.0,
            "estimate {:.3e} strayed from truth {truth:.3e}",
            estimate.probability
        );
        // the whole run costs orders of magnitude less than the ≥ 10/p
        // direct-MC budget
        assert!(estimate.total_runs < 200_000);
        assert_eq!(estimate.levels.len(), 5);
        for level in &estimate.levels {
            // each conditional is ~2^-4, never driven to extremes
            assert!(level.conditional > 0.01 && level.conditional < 0.3);
        }
    }

    #[test]
    fn splitting_is_deterministic() {
        let config = SplittingConfig {
            levels: vec![1.0, 2.0, 3.0],
            base_trials: 512,
            splits: 8,
            max_population: 512,
            seed_start: 42,
        };
        let a = splitting_estimate(&config, |p| segment_severity(p, 3));
        let b = splitting_estimate(&config, |p| segment_severity(p, 3));
        assert_eq!(a, b);
    }

    #[test]
    fn extinct_level_reports_zero() {
        // severity never reaches 1.0 → everything dies at level 0
        let config = SplittingConfig::new(vec![1.0, 2.0]);
        let estimate = splitting_estimate(&config, |_| 0.0);
        assert_eq!(estimate.probability, 0.0);
        assert_eq!(estimate.levels.len(), 1);
        assert_eq!(estimate.levels[0].reached, 0);
    }

    #[test]
    fn empty_levels_estimate_nothing() {
        let estimate = splitting_estimate(&SplittingConfig::new(Vec::new()), |_| 1.0);
        assert_eq!(estimate.probability, 0.0);
        assert_eq!(estimate.total_runs, 0);
    }

    #[test]
    fn replay_only_severity_multiplies_unconditional_fractions() {
        // A uniform severity replayed whole from each path's own seed:
        // children do not inherit their parent's severity, so level 1
        // measures P(S ≥ 0.9) = 0.1 instead of P(S ≥ 0.9 | S ≥ 0.5) = 0.2,
        // and the estimate lands near 0.5 · 0.1 = 0.05, not the true 0.1.
        let config = SplittingConfig {
            levels: vec![0.5, 0.9],
            base_trials: 20_000,
            splits: 2,
            max_population: 20_000,
            seed_start: 0,
        };
        let uniform = |path: &SplitPath| (path.seed() >> 11) as f64 / (1u64 << 53) as f64;
        let estimate = splitting_estimate(&config, uniform);
        assert!(
            (estimate.probability - 0.05).abs() < 0.005,
            "replay-only estimate {} should sit near 0.05",
            estimate.probability
        );
        assert!((estimate.levels[1].conditional - 0.1).abs() < 0.01);
        assert!(estimate.probability < 0.1 * 0.6, "far below the truth 0.1");
    }

    #[test]
    fn child_paths_share_prefix_seeds() {
        let parent = SplitPath::root(7).child(3);
        let child = parent.child(9);
        assert_eq!(parent.prefix_seed(0), child.prefix_seed(0));
        assert_eq!(parent.prefix_seed(1), child.prefix_seed(1));
        assert_ne!(parent.seed(), child.seed());
        // siblings diverge
        assert_ne!(parent.child(0).seed(), parent.child(1).seed());
    }
}
