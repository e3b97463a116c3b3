//! Resumable sweep orchestration: whole experiment grids as one
//! work-stealing batch, with streaming aggregation and an optional
//! persistent result cache.
//!
//! A [`SweepSpec`] expands into grid points × seeds — potentially far more
//! trials than fit comfortably in memory as raw outcomes, and far too
//! expensive to recompute when a long run is interrupted. [`SweepRunner`]
//! addresses both:
//!
//! * **Work stealing across the whole grid.** All `(grid point, seed)`
//!   pairs form one global index space that the
//!   [`BatchRunner`]'s worker pool drains through an atomic cursor, so a
//!   grid point with slow trials cannot leave cores idle while a cheap
//!   point finishes — unlike running the points one `run_stats` call at a
//!   time.
//! * **Streaming folds.** A collector re-orders finished trials back into
//!   deterministic (point-major, seed-ascending) order and folds each one
//!   into a [`BatchStatsFold`] the moment it arrives, then drops it.
//!   Workers stall once they run more than
//!   [`REORDER_WINDOW`](crate::batch::REORDER_WINDOW) trials ahead of the
//!   fold cursor, so aggregates hold `O(window)` outcomes regardless of
//!   sweep size, yet are bit-identical to a serial loop (see
//!   [`BatchStatsFold`]).
//! * **Content-addressed resume.** With a [`ResultStore`] attached, every
//!   completed trial is persisted under `(spec digest, seed)` and already
//!   stored trials are served from the cache without touching the engine —
//!   a killed sweep restarted against the same store re-runs only what is
//!   missing and reproduces the from-scratch aggregates bit for bit.
//! * **Adaptive trial allocation.** A sweep that declares a
//!   [`StoppingRule`] runs in fixed-size seed *batches* and retires each
//!   grid point as soon as its watched metric's confidence interval is
//!   narrow enough (or, optionally, the point is provably worse than the
//!   best one seen). Stop decisions are evaluated only at batch boundaries
//!   on seed-ordered prefixes, with every active point advancing in
//!   lockstep — so the decision sequence is a pure function of trial
//!   outcomes, bit-identical across worker counts, scheduling
//!   perturbations, fabric processes, and fresh-vs-resumed runs (cached
//!   trials count toward the rule exactly like executed ones).

use std::ops::Range;
use std::sync::Arc;

use wsync_stats::{
    dominated, quantiles, table::fmt_f64, wilson_ci, CiUndefined, ConfidenceInterval, Table,
};

use crate::batch::{BatchRunner, BatchStats, BatchStatsFold};
use crate::json::Value;
use crate::registry::ProbeOutput;
use crate::report::SyncOutcome;
use crate::sim::Sim;
use crate::spec::{field_f64, field_u64, reject_unknown_keys, ScenarioSpec, SpecError, SweepSpec};
use crate::store::{ResultStore, StoreError};

/// An error raised while orchestrating a sweep: either the spec side
/// (invalid grid, unknown names) or the persistence side (store I/O).
#[derive(Debug)]
pub enum SweepError {
    /// Spec expansion or validation failed.
    Spec(SpecError),
    /// Reading from or appending to the result store failed.
    Store(StoreError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Spec(e) => write!(f, "{e}"),
            SweepError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Spec(e) => Some(e),
            SweepError::Store(e) => Some(e),
        }
    }
}

impl From<SpecError> for SweepError {
    fn from(e: SpecError) -> Self {
        SweepError::Spec(e)
    }
}

impl From<StoreError> for SweepError {
    fn from(e: StoreError) -> Self {
        SweepError::Store(e)
    }
}

/// Aggregate result of one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointStats {
    /// The point's `"field=value"` label (empty for a gridless sweep).
    pub label: String,
    /// The fully substituted spec the point ran.
    pub spec: ScenarioSpec,
    /// The aggregate statistics, bit-identical to a serial
    /// [`BatchStats::aggregate`] over the point's seed-ordered outcomes.
    pub stats: BatchStats,
    /// Trials served from the result store without executing the engine.
    pub cached: u64,
    /// Trials executed by the engine in this run.
    pub executed: u64,
    /// Whether the point stopped before consuming the sweep's full seed
    /// budget (always `false` without a stopping rule).
    pub stopped_early: bool,
    /// Why the point stopped sampling. `None` without a stopping rule;
    /// with one every point carries a reason —
    /// [`StopReason::Exhausted`] when the budget ran out first.
    pub stop: Option<StopReason>,
}

impl PointStats {
    /// Trials this point consumed in total (cached + executed).
    pub fn seeds_used(&self) -> u64 {
        self.cached + self.executed
    }
}

/// The result of a whole sweep: per-point aggregates plus cache totals.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// One entry per grid point, in expansion order.
    pub points: Vec<PointStats>,
    /// First seed (inclusive).
    pub seed_start: u64,
    /// Last seed (exclusive).
    pub seed_end: u64,
}

impl SweepReport {
    /// The seed range every point ran.
    pub fn seeds(&self) -> Range<u64> {
        self.seed_start..self.seed_end
    }

    /// Total trials served from the result store across all points.
    pub fn cached_trials(&self) -> u64 {
        self.points.iter().map(|p| p.cached).sum()
    }

    /// Total trials executed by the engine across all points.
    pub fn executed_trials(&self) -> u64 {
        self.points.iter().map(|p| p.executed).sum()
    }

    /// Total trials (cached + executed).
    pub fn total_trials(&self) -> u64 {
        self.cached_trials() + self.executed_trials()
    }

    /// Points that stopped before consuming the full seed budget.
    pub fn stopped_early_points(&self) -> u64 {
        self.points.iter().filter(|p| p.stopped_early).count() as u64
    }
}

/// The per-point batch statistic an adaptive [`StoppingRule`] watches.
///
/// Mean metrics build a normal-approximation interval from the point's
/// Welford summary ([`ConfidenceInterval::for_summary`]); rate metrics
/// build a Wilson score interval from its success/trial counters
/// ([`wilson_ci`]). Both are incremental: the rule never retains samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopMetric {
    /// Mean of the worst per-node rounds-to-sync (over synced trials).
    SyncRoundsMean,
    /// Mean of the global completion round (over synced trials).
    CompletionRoundsMean,
    /// Fraction of trials in which every node synchronized.
    SyncRate,
    /// Fraction of trials that ended with exactly one leader.
    SingleLeaderRate,
    /// Fraction of clean trials (synced, one leader, no violation).
    CleanRate,
}

impl StopMetric {
    /// Every metric, in spec-name order (for error messages).
    pub const ALL: [StopMetric; 5] = [
        StopMetric::SyncRoundsMean,
        StopMetric::CompletionRoundsMean,
        StopMetric::SyncRate,
        StopMetric::SingleLeaderRate,
        StopMetric::CleanRate,
    ];

    /// The metric's spec-file name.
    pub fn name(self) -> &'static str {
        match self {
            StopMetric::SyncRoundsMean => "sync_rounds_mean",
            StopMetric::CompletionRoundsMean => "completion_rounds_mean",
            StopMetric::SyncRate => "sync_rate",
            StopMetric::SingleLeaderRate => "single_leader_rate",
            StopMetric::CleanRate => "clean_rate",
        }
    }

    /// Parses a spec-file name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == name)
    }

    /// The objective direction dominance testing uses: `true` when larger
    /// values win (rates), `false` when smaller values win (round counts).
    pub fn higher_is_better(self) -> bool {
        matches!(
            self,
            StopMetric::SyncRate | StopMetric::SingleLeaderRate | StopMetric::CleanRate
        )
    }

    /// The metric's confidence interval over a point's accumulated stats.
    /// A typed [`CiUndefined`] means the prefix is too short (or too
    /// degenerate) for the width to exist — the stopping rule reads every
    /// variant as "keep sampling".
    pub fn ci(self, stats: &BatchStats, level: f64) -> Result<ConfidenceInterval, CiUndefined> {
        match self {
            StopMetric::SyncRoundsMean => {
                ConfidenceInterval::for_summary(&stats.rounds_to_sync, level)
            }
            StopMetric::CompletionRoundsMean => {
                ConfidenceInterval::for_summary(&stats.completion_rounds, level)
            }
            StopMetric::SyncRate => wilson_ci(stats.synced, stats.trials, level),
            StopMetric::SingleLeaderRate => wilson_ci(stats.single_leader, stats.trials, level),
            StopMetric::CleanRate => wilson_ci(stats.clean, stats.trials, level),
        }
    }
}

/// Why an adaptive sweep stopped sampling a grid point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The metric's confidence interval reached the rule's target width.
    HalfWidth,
    /// The point is provably worse than the incumbent best point: their
    /// intervals separate strictly on the losing side.
    Dominated,
    /// The seed budget ran out before the rule was satisfied.
    Exhausted,
}

impl StopReason {
    /// The reason's wire name (job events, report notes).
    pub fn name(self) -> &'static str {
        match self {
            StopReason::HalfWidth => "half_width",
            StopReason::Dominated => "dominated",
            StopReason::Exhausted => "exhausted",
        }
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An adaptive stopping rule: when a sweep declares one (the `"stop"` key
/// of a [`SweepSpec`]), trials are allocated in fixed-size seed batches
/// and each grid point retires as soon as its answer is statistically
/// known, instead of running a fixed count.
///
/// # Determinism contract
///
/// Decisions are evaluated only at *batch boundaries* — prefix lengths
/// `batch, 2·batch, …` of the effective seed range — over each point's
/// seed-ordered outcome prefix, with every still-active point advancing in
/// lockstep. The decision sequence is therefore a pure function of the
/// sweep's outcomes: worker counts, thread scheduling, multi-process
/// sharding, and cache hits versus live execution cannot change which
/// points stop, when, or why. [`decide_batch`](Self::decide_batch) is that
/// pure function; every consumer (in-process runner, fabric workers, the
/// serving layer) calls it with identically ordered inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct StoppingRule {
    /// The watched statistic.
    pub metric: StopMetric,
    /// Confidence level of the interval the rule tests (default `0.95`).
    pub ci_level: f64,
    /// Target half-width: a point stops once its interval's half-width is
    /// `≤` this (absolute, or relative to `|estimate|` when
    /// [`relative`](Self::relative) is set).
    pub half_width: f64,
    /// Interpret [`half_width`](Self::half_width) as a fraction of the
    /// point estimate's magnitude instead of an absolute width.
    pub relative: bool,
    /// Smallest prefix length at which stopping is allowed (default `64`):
    /// guards against lucky early widths on tiny samples.
    pub min_seeds: u64,
    /// Seed budget per point. `None` means the sweep's declared seed count
    /// is the budget.
    pub max_seeds: Option<u64>,
    /// Seeds per allocation batch (default `64`). Decisions happen only at
    /// multiples of this prefix length.
    pub batch: u64,
    /// Also retire points strictly *dominated* by the incumbent best point
    /// on the watched metric (their intervals separate on the losing
    /// side). Off by default: it changes the semantics from "every point
    /// measured to width ε" to "the winner measured, losers identified".
    pub dominance: bool,
}

impl StoppingRule {
    /// A rule watching `metric` with the given absolute target half-width
    /// and the documented defaults (`ci_level = 0.95`, `min_seeds = 64`,
    /// `batch = 64`, no budget override, no dominance).
    pub fn new(metric: StopMetric, half_width: f64) -> Self {
        StoppingRule {
            metric,
            ci_level: 0.95,
            half_width,
            relative: false,
            min_seeds: 64,
            max_seeds: None,
            batch: 64,
            dominance: false,
        }
    }

    /// Builder-style confidence level.
    pub fn with_ci_level(mut self, level: f64) -> Self {
        self.ci_level = level;
        self
    }

    /// Builder-style relative-width interpretation.
    pub fn relative(mut self) -> Self {
        self.relative = true;
        self
    }

    /// Builder-style minimum prefix length.
    pub fn with_min_seeds(mut self, min_seeds: u64) -> Self {
        self.min_seeds = min_seeds;
        self
    }

    /// Builder-style seed budget.
    pub fn with_max_seeds(mut self, max_seeds: u64) -> Self {
        self.max_seeds = Some(max_seeds);
        self
    }

    /// Builder-style batch size.
    pub fn with_batch(mut self, batch: u64) -> Self {
        self.batch = batch;
        self
    }

    /// Builder-style dominance-based early retirement.
    pub fn with_dominance(mut self) -> Self {
        self.dominance = true;
        self
    }

    /// Validates the rule's numeric ranges.
    pub fn validate(&self) -> Result<(), SpecError> {
        let bad = |message: String| SpecError::Malformed {
            context: "stop".to_string(),
            message,
        };
        if !(self.half_width.is_finite() && self.half_width > 0.0) {
            return Err(bad(format!(
                "\"half_width\" must be a positive finite number, got {}",
                self.half_width
            )));
        }
        if !(self.ci_level > 0.5 && self.ci_level < 1.0) {
            return Err(bad(format!(
                "\"ci_level\" must lie in (0.5, 1), got {}",
                self.ci_level
            )));
        }
        if self.min_seeds == 0 {
            return Err(bad("\"min_seeds\" must be at least 1".to_string()));
        }
        if self.batch == 0 {
            return Err(bad("\"batch\" must be at least 1".to_string()));
        }
        if let Some(max) = self.max_seeds {
            if max < self.min_seeds {
                return Err(bad(format!(
                    "\"max_seeds\" ({max}) must be at least \"min_seeds\" ({})",
                    self.min_seeds
                )));
            }
        }
        Ok(())
    }

    /// The width the interval must reach for `estimate`.
    pub fn target_half_width(&self, estimate: f64) -> f64 {
        if self.relative {
            self.half_width * estimate.abs()
        } else {
            self.half_width
        }
    }

    /// Whether a point's accumulated stats satisfy the width criterion. A
    /// width-undefined interval ([`CiUndefined`]) never satisfies it.
    pub fn satisfied(&self, stats: &BatchStats) -> bool {
        match self.metric.ci(stats, self.ci_level) {
            Err(_) => false,
            Ok(ci) => ci.half_width() <= self.target_half_width(ci.estimate),
        }
    }

    /// The shared batch-boundary decision: given every point's stats over
    /// the seed-ordered prefix of length `prefix_len` (stopped points keep
    /// the stats frozen at their stop boundary), marks newly stopped
    /// points in `stopped`. Pure — same inputs, same marks — and shared by
    /// the in-process runner and the fabric workers, so all consumers
    /// agree on the decision sequence by construction.
    ///
    /// The width pass runs first (in point order), then the dominance pass
    /// if enabled: the incumbent is the best defined interval across *all*
    /// points (stopped ones included — a retired winner still retires
    /// losers), and an active point is marked [`StopReason::Dominated`]
    /// when its interval separates strictly on the losing side.
    pub fn decide_batch(
        &self,
        stats: &[BatchStats],
        stopped: &mut [Option<StopReason>],
        prefix_len: u64,
    ) {
        debug_assert_eq!(stats.len(), stopped.len());
        if prefix_len < self.min_seeds {
            return;
        }
        for (point, point_stats) in stats.iter().enumerate() {
            if stopped[point].is_none() && self.satisfied(point_stats) {
                stopped[point] = Some(StopReason::HalfWidth);
            }
        }
        if !self.dominance {
            return;
        }
        let higher = self.metric.higher_is_better();
        let cis: Vec<Option<ConfidenceInterval>> = stats
            .iter()
            .map(|s| self.metric.ci(s, self.ci_level).ok())
            .collect();
        // The incumbent: best defended bound among defined intervals —
        // smallest upper when minimizing, largest lower when maximizing.
        // Strict comparison keeps the earliest point on ties, so the
        // choice is deterministic in point order.
        let incumbent = cis.iter().flatten().copied().reduce(|best, ci| {
            let wins = if higher {
                ci.lower > best.lower
            } else {
                ci.upper < best.upper
            };
            if wins {
                ci
            } else {
                best
            }
        });
        if let Some(incumbent) = incumbent {
            for (point, ci) in cis.iter().enumerate() {
                if stopped[point].is_none() {
                    if let Some(ci) = ci {
                        if dominated(ci, &incumbent, higher) {
                            stopped[point] = Some(StopReason::Dominated);
                        }
                    }
                }
            }
        }
    }

    /// Serializes to a JSON [`Value`] (the `"stop"` member of a sweep
    /// spec). `relative`/`dominance` are emitted only when set and
    /// `max_seeds` only when present, so round-tripping preserves the
    /// written form.
    pub fn to_value(&self) -> Value {
        let mut members = vec![
            (
                "metric".to_string(),
                Value::Str(self.metric.name().to_string()),
            ),
            ("ci_level".to_string(), self.ci_level.into()),
            ("half_width".to_string(), self.half_width.into()),
        ];
        if self.relative {
            members.push(("relative".to_string(), Value::Bool(true)));
        }
        members.push(("min_seeds".to_string(), self.min_seeds.into()));
        if let Some(max) = self.max_seeds {
            members.push(("max_seeds".to_string(), max.into()));
        }
        members.push(("batch".to_string(), self.batch.into()));
        if self.dominance {
            members.push(("dominance".to_string(), Value::Bool(true)));
        }
        Value::Object(members)
    }

    /// Decodes from a JSON [`Value`], rejecting unknown keys. Numeric
    /// ranges are *not* checked here — [`SweepSpec::from_value`] (and
    /// every execution entry point) calls [`validate`](Self::validate).
    pub fn from_value(value: &Value) -> Result<Self, SpecError> {
        let malformed = |context: &str, message: String| SpecError::Malformed {
            context: context.to_string(),
            message,
        };
        if value.as_object().is_none() {
            return Err(malformed(
                "stop",
                format!("expected an object, found {}", value.type_name()),
            ));
        }
        reject_unknown_keys(
            value,
            "stop",
            &[
                "metric",
                "ci_level",
                "half_width",
                "relative",
                "min_seeds",
                "max_seeds",
                "batch",
                "dominance",
            ],
        )?;
        let metric_name = value
            .get("metric")
            .and_then(Value::as_str)
            .ok_or_else(|| malformed("stop", "missing string key \"metric\"".to_string()))?;
        let metric = StopMetric::parse(metric_name).ok_or_else(|| {
            let known: Vec<&str> = StopMetric::ALL.iter().map(|m| m.name()).collect();
            malformed(
                "stop",
                format!(
                    "unknown metric \"{metric_name}\"; known metrics: {}",
                    known.join(", ")
                ),
            )
        })?;
        let half_width = field_f64(
            value
                .get("half_width")
                .ok_or_else(|| malformed("stop", "missing key \"half_width\"".to_string()))?,
            "stop.half_width",
        )?;
        let opt_f64 = |key: &str, default: f64| -> Result<f64, SpecError> {
            match value.get(key) {
                None => Ok(default),
                Some(v) => field_f64(v, &format!("stop.{key}")),
            }
        };
        let opt_u64 = |key: &str, default: u64| -> Result<u64, SpecError> {
            match value.get(key) {
                None => Ok(default),
                Some(v) => field_u64(v, &format!("stop.{key}")),
            }
        };
        let flag = |key: &str| -> Result<bool, SpecError> {
            match value.get(key) {
                None => Ok(false),
                Some(v) => v.as_bool().ok_or_else(|| {
                    malformed(
                        &format!("stop.{key}"),
                        format!("expected a bool, found {}", v.type_name()),
                    )
                }),
            }
        };
        Ok(StoppingRule {
            metric,
            ci_level: opt_f64("ci_level", 0.95)?,
            half_width,
            relative: flag("relative")?,
            min_seeds: opt_u64("min_seeds", 64)?,
            max_seeds: match value.get("max_seeds") {
                None => None,
                Some(v) => Some(field_u64(v, "stop.max_seeds")?),
            },
            batch: opt_u64("batch", 64)?,
            dominance: flag("dominance")?,
        })
    }
}

/// The batch schedule every sweep driver walks: the seed windows trials
/// run in, each grid point's seed cap, and the stop decisions taken at
/// window boundaries.
///
/// With a [`StoppingRule`] the range is cut into `rule.batch`-seed windows
/// and [`decide`](Self::decide) applies [`StoppingRule::decide_batch`] at
/// each boundary. Without one the plan is degenerate: a single window over
/// the whole range, no decision and no stop fields — a fixed seed count is
/// a plan that never stops. The in-process runner and the fabric workers
/// both drive this one plan, so they agree on windows and verdicts by
/// construction.
#[derive(Debug)]
pub(crate) struct TrialPlan<'a> {
    rule: Option<&'a StoppingRule>,
    seeds: Range<u64>,
    next: u64,
    /// Per-point seed cap (exclusive): the range end until a verdict
    /// tightens it to the boundary the point stopped at.
    limit: Vec<u64>,
    stopped: Vec<Option<StopReason>>,
}

impl<'a> TrialPlan<'a> {
    /// A plan for `points` grid points over `seeds` (the *effective* range,
    /// see [`SweepSpec::effective_seeds`]).
    pub(crate) fn new(points: usize, seeds: Range<u64>, rule: Option<&'a StoppingRule>) -> Self {
        TrialPlan {
            rule,
            next: seeds.start,
            limit: vec![seeds.end; points],
            stopped: vec![None; points],
            seeds,
        }
    }

    /// The next seed window, or `None` once the range is exhausted or
    /// every point has stopped.
    pub(crate) fn next_window(&mut self) -> Option<Range<u64>> {
        if self.next >= self.seeds.end || self.stopped.iter().all(Option::is_some) {
            return None;
        }
        let end = match self.rule {
            None => self.seeds.end,
            Some(rule) => self.seeds.end.min(self.next + rule.batch),
        };
        let window = self.next..end;
        self.next = end;
        Some(window)
    }

    /// The seeds of `window` that `point` still owes (empty once its cap
    /// lies at or below the window start).
    pub(crate) fn seeds_in(&self, point: usize, window: &Range<u64>) -> Range<u64> {
        let end = window.end.min(self.limit[point]);
        window.start.min(end)..end
    }

    /// The seed-ordered prefix of `point` the decision at the end of
    /// `window` folds.
    fn prefix(&self, point: usize, window: &Range<u64>) -> Range<u64> {
        self.seeds.start..window.end.min(self.limit[point])
    }

    /// Why `point` stopped, if it has.
    pub(crate) fn stopped(&self, point: usize) -> Option<StopReason> {
        self.stopped[point]
    }

    /// Seeds `point` may consume in total: the budget, or the prefix length
    /// its verdict fixed.
    pub(crate) fn seeds_used(&self, point: usize) -> u64 {
        self.limit[point] - self.seeds.start
    }

    /// Records a verdict published by a peer process: `point` stopped for
    /// `reason` after `seeds_used` seeds, and its cap moves there.
    pub(crate) fn stop_at(&mut self, point: usize, reason: StopReason, seeds_used: u64) {
        self.stopped[point] = Some(reason);
        self.limit[point] = self.seeds.start + seeds_used;
    }

    /// The decision at the end of `window`: folds every point's prefix with
    /// `fold(point, prefix)`, applies the rule and caps the newly stopped
    /// points at the window end. Returns those points, in point order.
    /// Without a rule nothing is folded and nothing stops.
    pub(crate) fn decide<F>(&mut self, window: &Range<u64>, mut fold: F) -> Vec<usize>
    where
        F: FnMut(usize, Range<u64>) -> BatchStats,
    {
        let Some(rule) = self.rule else {
            return Vec::new();
        };
        let stats: Vec<BatchStats> = (0..self.limit.len())
            .map(|point| fold(point, self.prefix(point, window)))
            .collect();
        let before = self.stopped.clone();
        rule.decide_batch(&stats, &mut self.stopped, window.end - self.seeds.start);
        let newly: Vec<usize> = (0..before.len())
            .filter(|&point| before[point].is_none() && self.stopped[point].is_some())
            .collect();
        for &point in &newly {
            self.limit[point] = window.end;
        }
        newly
    }

    /// The report fields of a point that consumed `seeds_used` seeds:
    /// `(stopped_early, stop)`. A plan without a rule reports
    /// `(false, None)`; with one, every point carries a reason —
    /// [`StopReason::Exhausted`] when the budget ran out first.
    pub(crate) fn verdict(&self, point: usize, seeds_used: u64) -> (bool, Option<StopReason>) {
        match self.rule {
            None => (false, None),
            Some(_) => (
                seeds_used < self.seeds.end - self.seeds.start,
                Some(self.stopped[point].unwrap_or(StopReason::Exhausted)),
            ),
        }
    }
}

/// Streams sweep grids through a [`BatchRunner`] worker pool with optional
/// content-addressed persistence. See the module docs for the execution
/// model.
#[derive(Debug, Clone, Default)]
pub struct SweepRunner {
    runner: BatchRunner,
    store: Option<Arc<ResultStore>>,
    reuse: bool,
}

impl SweepRunner {
    /// A runner on the default worker pool, with no store.
    pub fn new() -> Self {
        SweepRunner {
            runner: BatchRunner::new(),
            store: None,
            reuse: false,
        }
    }

    /// A runner on an explicit worker pool.
    pub fn with_runner(runner: BatchRunner) -> Self {
        SweepRunner {
            runner,
            store: None,
            reuse: false,
        }
    }

    /// Attaches a result store: completed trials are persisted, and
    /// already-stored trials are served from the cache without executing
    /// the engine (the `--resume` behaviour).
    pub fn store(mut self, store: Arc<ResultStore>) -> Self {
        self.store = Some(store);
        self.reuse = true;
        self
    }

    /// Attaches a result store in record-only mode: completed trials are
    /// persisted but existing records are *not* reused — every trial
    /// executes (a fresh `--out` run that still leaves a resumable store
    /// behind).
    pub fn record_only(mut self, store: Arc<ResultStore>) -> Self {
        self.store = Some(store);
        self.reuse = false;
        self
    }

    /// Expands `sweep` and runs every (grid point × seed) trial — or, when
    /// the sweep declares a [`StoppingRule`], allocates trials adaptively
    /// over [`SweepSpec::effective_seeds`] and stops each point as soon as
    /// its rule is satisfied.
    pub fn run(&self, sweep: &SweepSpec) -> Result<SweepReport, SweepError> {
        let points: Vec<(String, ScenarioSpec)> = sweep
            .expand()?
            .into_iter()
            .map(|point| (point.label, point.spec))
            .collect();
        self.run_points_with(
            points,
            sweep.effective_seeds()?,
            sweep.stop.as_ref(),
            |_, _, _| {},
        )
    }

    /// Runs an explicit list of labelled grid points over a seed range.
    /// This is the form the experiment modules use for grids that are not
    /// an axis cross product (paired parameters, per-point protocols).
    pub fn run_points(
        &self,
        points: Vec<(String, ScenarioSpec)>,
        seeds: Range<u64>,
    ) -> Result<SweepReport, SweepError> {
        self.run_points_with(points, seeds, None, |_, _, _| {})
    }

    /// Like [`run_points`](Self::run_points), additionally invoking `each`
    /// for every outcome — in deterministic (point index, seed) order,
    /// exactly once, before the outcome is dropped. Use this for bespoke
    /// folds that need more than [`BatchStats`] without collecting
    /// outcomes.
    pub fn run_points_each<F>(
        &self,
        points: Vec<(String, ScenarioSpec)>,
        seeds: Range<u64>,
        mut each: F,
    ) -> Result<SweepReport, SweepError>
    where
        F: FnMut(usize, &SyncOutcome),
    {
        self.run_points_with(points, seeds, None, |point, outcome, _| {
            each(point, outcome)
        })
    }

    /// [`run_points_each`](Self::run_points_each) under a stopping rule:
    /// see [`run_points_with`](Self::run_points_with).
    pub fn run_points_adaptive_each<F>(
        &self,
        points: Vec<(String, ScenarioSpec)>,
        seeds: Range<u64>,
        rule: &StoppingRule,
        mut each: F,
    ) -> Result<SweepReport, SweepError>
    where
        F: FnMut(usize, &SyncOutcome),
    {
        self.run_points_with(points, seeds, Some(rule), |point, outcome, _| {
            each(point, outcome)
        })
    }

    /// Runs labelled grid points over `seeds`, invoking `each` for every
    /// outcome exactly once, before it is dropped.
    ///
    /// Without a `stop` rule every (point, seed) trial runs and `each` sees
    /// them in point-major, seed-ascending order. With one, seeds are
    /// consumed in lockstep windows of `rule.batch` from `seeds` (the
    /// *effective* range — pass [`SweepSpec::effective_seeds`]), each point
    /// retires at the first window boundary where the rule is satisfied on
    /// its seed-ordered prefix, and `each` sees outcomes window-major, then
    /// point-major, then by seed. Points still active when the budget runs
    /// out report [`StopReason::Exhausted`].
    ///
    /// Each point's first *executed* seed runs with the spec's declared
    /// probes attached, and `each` receives their outputs for that trial
    /// (`None` for every other trial). Trials served from an attached store
    /// skip the engine and therefore the probes, so with a resume store the
    /// sampled seed is the first one not already cached, and a point that
    /// stops before reaching it reports no probe output. Caveat: two points
    /// whose specs canonicalize to the same store digest share cache
    /// entries, so one such point's freshly persisted trial can serve the
    /// other's sampled seed from cache and cost it its probe sample — give
    /// duplicate points distinct parameters if each must report probe
    /// output.
    pub fn run_points_with<F>(
        &self,
        points: Vec<(String, ScenarioSpec)>,
        seeds: Range<u64>,
        stop: Option<&StoppingRule>,
        mut each: F,
    ) -> Result<SweepReport, SweepError>
    where
        F: FnMut(usize, &SyncOutcome, Option<&[ProbeOutput]>),
    {
        if let Some(rule) = stop {
            rule.validate()?;
        }
        let sims: Vec<Sim> = points
            .iter()
            .map(|(_, spec)| Sim::from_spec(spec))
            .collect::<Result<_, SpecError>>()?;
        // Each Sim already computed its canonical spec digest at build time.
        let digests: Vec<u64> = sims.iter().map(Sim::digest).collect();
        // Pick each probed point's sample seed up front: the first seed the
        // store cannot serve (cache hits skip the engine, and probes
        // observe live executions only). The scan sees the store as it was
        // before the run; a point sharing its digest with another point can
        // still lose its sample to the other's mid-run put.
        let probe_seed: Vec<Option<u64>> = sims
            .iter()
            .zip(&digests)
            .map(|(sim, &digest)| {
                if !sim.has_probes() {
                    return None;
                }
                match (&self.store, self.reuse) {
                    (Some(store), true) => seeds.clone().find(|&s| !store.contains(digest, s)),
                    _ => Some(seeds.start),
                }
            })
            .collect();
        let mut folds: Vec<BatchStatsFold> = points.iter().map(|_| BatchStatsFold::new()).collect();
        let mut cached: Vec<u64> = vec![0; points.len()];
        let mut executed: Vec<u64> = vec![0; points.len()];
        let mut plan = TrialPlan::new(points.len(), seeds.clone(), stop);

        // Within a window, the (active point, seed) pairs form one queue
        // drained by the BatchRunner's streaming core: workers steal trials
        // globally (atomic cursor, bounded reorder window) and the
        // collector hands results back here in deterministic (point, seed)
        // order — each outcome is folded and dropped immediately, so memory
        // stays O(reorder window) regardless of sweep size, and folds (and
        // therefore stop decisions) are independent of worker count and
        // scheduling. Nothing here calls `stop_at`, so every point owes
        // either the whole window or none of it.
        while let Some(window) = plan.next_window() {
            let active: Vec<usize> = (0..points.len())
                .filter(|&point| !plan.seeds_in(point, &window).is_empty())
                .collect();
            let span = window.end - window.start;
            self.runner
                .try_map_each(
                    0..active.len() as u64 * span,
                    |idx| -> Result<Trial, StoreError> {
                        let point = active[(idx / span) as usize];
                        let seed = window.start + idx % span;
                        let probe_this = probe_seed[point] == Some(seed);
                        self.run_trial(&sims[point], digests[point], seed, probe_this)
                    },
                    |idx, (outcome, probes, hit)| {
                        let point = active[(idx / span) as usize];
                        if hit {
                            cached[point] += 1;
                        } else {
                            executed[point] += 1;
                        }
                        each(point, &outcome, probes.as_deref());
                        folds[point].push(&outcome);
                    },
                )
                .map_err(SweepError::Store)?;
            plan.decide(&window, |point, _| folds[point].finish());
        }

        let points = points
            .into_iter()
            .zip(folds)
            .zip(cached.into_iter().zip(executed))
            .enumerate()
            .map(|(index, (((label, spec), fold), (cached, executed)))| {
                let (stopped_early, stop) = plan.verdict(index, cached + executed);
                PointStats {
                    label,
                    spec,
                    stats: fold.finish(),
                    cached,
                    executed,
                    stopped_early,
                    stop,
                }
            })
            .collect();
        Ok(SweepReport {
            points,
            seed_start: seeds.start,
            seed_end: seeds.end,
        })
    }

    /// One trial: serve from the attached store if possible (reuse mode),
    /// otherwise execute the engine (with probes when asked) and persist.
    /// The returned flag is `true` for a cache hit.
    fn run_trial(
        &self,
        sim: &Sim,
        digest: u64,
        seed: u64,
        probe_this: bool,
    ) -> Result<Trial, StoreError> {
        if self.reuse {
            if let Some(store) = &self.store {
                if let Some(hit) = store.get(digest, seed) {
                    return Ok((hit, None, true));
                }
            }
        }
        let (outcome, probes) = if probe_this {
            let probed_outcome = sim.run_probed(seed);
            (probed_outcome.outcome, probed_outcome.probes)
        } else {
            (sim.run_one(seed), None)
        };
        if let Some(store) = &self.store {
            store.put(digest, seed, &outcome)?;
        }
        Ok((outcome, probes, false))
    }
}

/// The unit of work the trial loop streams through the worker pool: an
/// outcome, its probe outputs (live probed executions only), and whether
/// it was served from the result store.
type Trial = (SyncOutcome, Option<Vec<ProbeOutput>>, bool);

/// Renders the sync-time quantile table of a seed-ordered outcome slice:
/// one row for the worst per-node rounds-to-sync, one for the global
/// completion round, with the standard quantile columns. Shared by the
/// statistical golden tests and the wrapper-equivalence tests so both pin
/// the same rendering.
pub fn sync_time_quantile_table(title: &str, outcomes: &[SyncOutcome]) -> Table {
    const PROBS: [f64; 6] = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0];
    let mut table = Table::new(
        title,
        &["metric", "trials", "q0", "q25", "q50", "q75", "q90", "q100"],
    );
    let rows: [(&str, Vec<f64>); 2] = [
        (
            "rounds to sync",
            outcomes
                .iter()
                .filter_map(|o| o.max_rounds_to_sync().map(|r| r as f64))
                .collect(),
        ),
        (
            "completion round",
            outcomes
                .iter()
                .filter_map(|o| o.completion_round().map(|r| r as f64))
                .collect(),
        ),
    ];
    for (metric, samples) in rows {
        let qs = quantiles(&samples, &PROBS);
        let mut cells = vec![metric.to_string(), samples.len().to_string()];
        cells.extend(qs.iter().map(|&q| fmt_f64(q)));
        table.push_row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sweep() -> SweepSpec {
        let base = ScenarioSpec::new("trapdoor", 6, 8, 1).with_adversary("random");
        SweepSpec::new(base, 0..5).with_axis("disruption_bound", vec![1u64.into(), 3u64.into()])
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wsync-sweep-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sweep_runner_matches_per_point_run_stats() {
        let sweep = sweep();
        let report = SweepRunner::with_runner(BatchRunner::with_workers(4))
            .run(&sweep)
            .unwrap();
        assert_eq!(report.points.len(), 2);
        assert_eq!(report.seeds(), 0..5);
        assert_eq!(report.executed_trials(), 10);
        assert_eq!(report.cached_trials(), 0);
        for (point, (label, sim)) in report.points.iter().zip(Sim::from_sweep(&sweep).unwrap()) {
            assert_eq!(point.label, label);
            assert_eq!(point.stats, sim.run_stats(&BatchRunner::serial()));
        }
    }

    #[test]
    fn parallel_and_serial_sweeps_agree_bit_for_bit() {
        let sweep = sweep();
        let serial = SweepRunner::with_runner(BatchRunner::serial())
            .run(&sweep)
            .unwrap();
        let parallel = SweepRunner::with_runner(BatchRunner::with_workers(8))
            .run(&sweep)
            .unwrap();
        for (a, b) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn each_callback_sees_every_outcome_in_order() {
        let sweep = sweep();
        let points: Vec<(String, ScenarioSpec)> = sweep
            .expand()
            .unwrap()
            .into_iter()
            .map(|p| (p.label, p.spec))
            .collect();
        let mut seen: Vec<(usize, u64)> = Vec::new();
        SweepRunner::with_runner(BatchRunner::with_workers(4))
            .run_points_each(points, 0..5, |point, outcome| {
                seen.push((point, outcome.seed));
            })
            .unwrap();
        let expected: Vec<(usize, u64)> = (0..2usize)
            .flat_map(|p| (0..5u64).map(move |s| (p, s)))
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn resumed_sweep_executes_nothing_and_reproduces_aggregates() {
        let dir = temp_dir("resume");
        let sweep = sweep();
        let fresh = SweepRunner::new().run(&sweep).unwrap();
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        let recorded = SweepRunner::new()
            .store(Arc::clone(&store))
            .run(&sweep)
            .unwrap();
        assert_eq!(recorded.executed_trials(), 10);
        // reopen: everything is served from the store, aggregates identical
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        assert_eq!(store.loaded_records(), 10);
        let resumed = SweepRunner::new().store(store).run(&sweep).unwrap();
        assert_eq!(resumed.executed_trials(), 0);
        assert_eq!(resumed.cached_trials(), 10);
        for ((a, b), c) in fresh
            .points
            .iter()
            .zip(&recorded.points)
            .zip(&resumed.points)
        {
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.stats, c.stats);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_only_mode_ignores_existing_records() {
        let dir = temp_dir("record-only");
        let sweep = sweep();
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        SweepRunner::new()
            .store(Arc::clone(&store))
            .run(&sweep)
            .unwrap();
        let again = SweepRunner::new().record_only(store).run(&sweep).unwrap();
        assert_eq!(again.cached_trials(), 0);
        assert_eq!(again.executed_trials(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn rate_stats(synced: u64, trials: u64) -> BatchStats {
        BatchStats {
            trials,
            synced,
            single_leader: 0,
            clean: 0,
            total_violations: 0,
            all_hold: 0,
            rounds_to_sync: wsync_stats::Summary::from_slice(&[]),
            completion_rounds: wsync_stats::Summary::from_slice(&[]),
        }
    }

    #[test]
    fn stopping_rule_round_trips_through_json() {
        let full = StoppingRule::new(StopMetric::SyncRoundsMean, 2.0)
            .with_ci_level(0.99)
            .relative()
            .with_min_seeds(32)
            .with_max_seeds(4096)
            .with_batch(16)
            .with_dominance();
        let minimal = StoppingRule::new(StopMetric::CleanRate, 0.05);
        for rule in [full, minimal] {
            let decoded = StoppingRule::from_value(&rule.to_value()).unwrap();
            assert_eq!(decoded, rule);
        }
        // the ISSUE-style spec syntax decodes with defaults filled in
        let sweep = SweepSpec::from_json(
            r#"{"base": {"protocol": "trapdoor", "num_nodes": 6, "num_frequencies": 8,
                         "disruption_bound": 1, "adversary": "random"},
                "seeds": {"start": 0, "end": 256},
                "stop": {"metric": "sync_rounds_mean", "ci_level": 0.95, "half_width": 2.0,
                         "min_seeds": 64, "max_seeds": 65536, "batch": 64}}"#,
        )
        .unwrap();
        let rule = sweep.stop.as_ref().unwrap();
        assert_eq!(rule.metric, StopMetric::SyncRoundsMean);
        assert!(!rule.relative && !rule.dominance);
        assert_eq!(sweep.effective_seeds().unwrap(), 0..65536);
        // and the sweep's own JSON round-trips byte for byte
        let json = sweep.to_json();
        assert_eq!(SweepSpec::from_json(&json).unwrap().to_json(), json);
    }

    #[test]
    fn stopping_rule_rejects_bad_specs() {
        for (json, needle) in [
            (
                r#"{"metric": "typo_metric", "half_width": 1.0}"#,
                "unknown metric",
            ),
            (r#"{"metric": "sync_rate"}"#, "half_width"),
            (
                r#"{"metric": "sync_rate", "half_width": 0.1, "batc": 4}"#,
                "unknown key",
            ),
            (r#"[1, 2]"#, "expected an object"),
        ] {
            let err = StoppingRule::from_value(&crate::json::parse(json).unwrap())
                .expect_err(json)
                .to_string();
            assert!(err.contains(needle), "{json}: {err}");
        }
        // range validation (applied by SweepSpec decoding and every entry point)
        for rule in [
            StoppingRule::new(StopMetric::SyncRate, 0.0),
            StoppingRule::new(StopMetric::SyncRate, f64::NAN),
            StoppingRule::new(StopMetric::SyncRate, 0.1).with_ci_level(0.4),
            StoppingRule::new(StopMetric::SyncRate, 0.1).with_min_seeds(0),
            StoppingRule::new(StopMetric::SyncRate, 0.1).with_batch(0),
            StoppingRule::new(StopMetric::SyncRate, 0.1)
                .with_min_seeds(8)
                .with_max_seeds(4),
        ] {
            assert!(rule.validate().is_err(), "{rule:?} should not validate");
        }
    }

    #[test]
    fn width_undefined_means_keep_sampling() {
        let rule = StoppingRule::new(StopMetric::SyncRate, 0.5);
        assert!(!rule.satisfied(&rate_stats(0, 0)));
        // one synced trial: rounds_to_sync has a single sample — the mean
        // rule must keep sampling, not read the degenerate width as done
        let sweep = sweep();
        let sim = Sim::from_sweep(&sweep).unwrap().remove(0).1;
        let stats = BatchStats::aggregate(&[sim.run_one(0)]);
        assert!(!StoppingRule::new(StopMetric::SyncRoundsMean, 1e6).satisfied(&stats));
    }

    #[test]
    fn decide_batch_gates_on_min_seeds_and_marks_dominated_points() {
        let rule = StoppingRule::new(StopMetric::SyncRate, 1e-9)
            .with_min_seeds(50)
            .with_dominance();
        let stats = vec![rate_stats(95, 100), rate_stats(5, 100)];
        let mut stopped = vec![None, None];
        // below min_seeds: no verdicts at all
        rule.decide_batch(&stats, &mut stopped, 49);
        assert_eq!(stopped, vec![None, None]);
        // at min_seeds: the far-worse point is dominated, the incumbent runs on
        rule.decide_batch(&stats, &mut stopped, 100);
        assert_eq!(stopped, vec![None, Some(StopReason::Dominated)]);
    }

    #[test]
    fn adaptive_sweep_stops_early_and_matches_fixed_prefix() {
        let base = sweep();
        // sync_rate converges fast on this grid (every trial syncs): a
        // loose width stops both points at the first eligible boundary.
        let rule = StoppingRule::new(StopMetric::SyncRate, 0.3)
            .with_min_seeds(6)
            .with_batch(2)
            .with_max_seeds(40);
        let adaptive = SweepRunner::with_runner(BatchRunner::with_workers(4))
            .run(&base.clone().with_stop(rule))
            .unwrap();
        assert_eq!(adaptive.seeds(), 0..40);
        for point in &adaptive.points {
            // stopped at the first boundary past min_seeds, not at 2 or 4
            assert_eq!(point.seeds_used(), 6);
            assert!(point.stopped_early);
            assert_eq!(point.stop, Some(StopReason::HalfWidth));
            assert!(point.stats.trials == 6);
        }
        // the adaptive prefix aggregates are bit-identical to a fixed
        // sweep over the same seeds
        let fixed = SweepRunner::new()
            .run(&SweepSpec {
                seed_end: 6,
                ..sweep()
            })
            .unwrap();
        for (a, f) in adaptive.points.iter().zip(&fixed.points) {
            assert_eq!(a.stats, f.stats);
        }
    }

    #[test]
    fn adaptive_sweep_exhausts_budget_when_rule_never_satisfied() {
        let rule = StoppingRule::new(StopMetric::SyncRoundsMean, 1e-12)
            .with_min_seeds(2)
            .with_batch(3);
        let report = SweepRunner::new().run(&sweep().with_stop(rule)).unwrap();
        for point in &report.points {
            assert_eq!(point.seeds_used(), 5);
            assert!(!point.stopped_early);
            assert_eq!(point.stop, Some(StopReason::Exhausted));
        }
        assert_eq!(report.stopped_early_points(), 0);
    }

    #[test]
    fn adaptive_decisions_are_identical_across_worker_counts() {
        let spec = sweep().with_stop(
            StoppingRule::new(StopMetric::SyncRoundsMean, 0.5)
                .with_min_seeds(2)
                .with_batch(2)
                .with_max_seeds(64),
        );
        let reference = SweepRunner::with_runner(BatchRunner::serial())
            .run(&spec)
            .unwrap();
        for workers in [1, 2, 8] {
            let report = SweepRunner::with_runner(BatchRunner::with_workers(workers))
                .run(&spec)
                .unwrap();
            for (a, b) in reference.points.iter().zip(&report.points) {
                assert_eq!(a.stats, b.stats);
                assert_eq!(a.stop, b.stop);
                assert_eq!(a.executed, b.executed);
                assert_eq!(a.stopped_early, b.stopped_early);
            }
        }
    }

    #[test]
    fn adaptive_resume_reproduces_fresh_decisions_from_cache() {
        let dir = temp_dir("adaptive-resume");
        let spec = sweep().with_stop(
            StoppingRule::new(StopMetric::SyncRate, 0.3)
                .with_min_seeds(4)
                .with_batch(4)
                .with_max_seeds(32),
        );
        let fresh = SweepRunner::new().run(&spec).unwrap();
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        let recorded = SweepRunner::new()
            .store(Arc::clone(&store))
            .run(&spec)
            .unwrap();
        let store = Arc::new(ResultStore::open(&dir).unwrap());
        let resumed = SweepRunner::new().store(store).run(&spec).unwrap();
        assert_eq!(resumed.executed_trials(), 0);
        assert_eq!(resumed.cached_trials(), fresh.total_trials());
        for ((a, b), c) in fresh
            .points
            .iter()
            .zip(&recorded.points)
            .zip(&resumed.points)
        {
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.stats, c.stats);
            assert_eq!(a.stop, c.stop);
            assert_eq!(a.stopped_early, c.stopped_early);
            assert_eq!(a.seeds_used(), c.seeds_used());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adaptive_each_sees_outcomes_in_batch_major_order() {
        let points: Vec<(String, ScenarioSpec)> = sweep()
            .expand()
            .unwrap()
            .into_iter()
            .map(|p| (p.label, p.spec))
            .collect();
        let rule = StoppingRule::new(StopMetric::SyncRoundsMean, 1e-12)
            .with_min_seeds(2)
            .with_batch(2);
        let mut seen: Vec<(usize, u64)> = Vec::new();
        SweepRunner::with_runner(BatchRunner::with_workers(4))
            .run_points_adaptive_each(points, 0..4, &rule, |point, outcome| {
                seen.push((point, outcome.seed));
            })
            .unwrap();
        // batch [0, 2) point-major, then batch [2, 4) point-major
        let expected = vec![
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
        ];
        assert_eq!(seen, expected);
    }

    #[test]
    fn plan_without_a_rule_is_one_window_that_never_stops() {
        let mut plan = TrialPlan::new(3, 10..50, None);
        let window = plan.next_window().unwrap();
        assert_eq!(window, 10..50);
        for point in 0..3 {
            assert_eq!(plan.seeds_in(point, &window), 10..50);
        }
        // no rule: nothing is folded, nothing stops
        let newly = plan.decide(&window, |_, _| {
            unreachable!("a plan without a rule never folds")
        });
        assert!(newly.is_empty());
        assert_eq!(plan.next_window(), None);
        for point in 0..3 {
            assert_eq!(plan.stopped(point), None);
            assert_eq!(plan.verdict(point, 40), (false, None));
        }
        // an empty grid or seed range has no window at all
        assert_eq!(TrialPlan::new(0, 0..5, None).next_window(), None);
        assert_eq!(TrialPlan::new(2, 5..5, None).next_window(), None);
    }

    #[test]
    fn plan_windows_are_batch_aligned_and_cut_off_at_the_budget() {
        let rule = StoppingRule::new(StopMetric::SyncRate, 1e-9)
            .with_min_seeds(1)
            .with_batch(4);
        let mut plan = TrialPlan::new(2, 3..13, Some(&rule));
        let mut windows = Vec::new();
        while let Some(window) = plan.next_window() {
            // the decision folds each point's whole seed-ordered prefix
            let mut prefixes = Vec::new();
            let newly = plan.decide(&window, |point, prefix| {
                prefixes.push((point, prefix.clone()));
                rate_stats(0, prefix.end - prefix.start)
            });
            assert!(newly.is_empty(), "an unsatisfiable width never stops");
            assert_eq!(prefixes, vec![(0, 3..window.end), (1, 3..window.end)]);
            windows.push(window);
        }
        assert_eq!(windows, vec![3..7, 7..11, 11..13]);
        assert_eq!(
            plan.verdict(0, 10),
            (false, Some(StopReason::Exhausted)),
            "a point that ran its whole budget is exhausted"
        );
    }

    #[test]
    fn plan_caps_a_stopped_point_and_a_peer_marker_caps_its_limit() {
        let rule = StoppingRule::new(StopMetric::SyncRate, 0.3)
            .with_min_seeds(2)
            .with_batch(2);
        let mut plan = TrialPlan::new(3, 0..8, Some(&rule));
        let first = plan.next_window().unwrap();
        // a peer already published point 2's verdict at six seeds
        plan.stop_at(2, StopReason::HalfWidth, 6);
        assert_eq!(plan.seeds_used(2), 6);
        // point 0's narrow interval stops it at the first boundary
        let newly = plan.decide(&first, |point, _| {
            if point == 0 {
                rate_stats(1000, 1000)
            } else {
                rate_stats(1, 2)
            }
        });
        assert_eq!(newly, vec![0]);
        assert_eq!(plan.seeds_used(0), 2);
        let second = plan.next_window().unwrap();
        assert_eq!(second, 2..4);
        assert!(plan.seeds_in(0, &second).is_empty());
        assert_eq!(plan.seeds_in(1, &second), 2..4);
        assert_eq!(plan.seeds_in(2, &second), 2..4);
        // past the marker's cap the peer-stopped point owes nothing more
        assert!(plan.seeds_in(2, &(6..8)).is_empty());
        assert_eq!(plan.prefix(2, &(6..8)), 0..6);
        assert_eq!(plan.verdict(0, 2), (true, Some(StopReason::HalfWidth)));
        assert_eq!(plan.verdict(2, 6), (true, Some(StopReason::HalfWidth)));
    }

    #[test]
    fn quantile_table_has_stable_shape() {
        let sim = Sim::from_spec(&ScenarioSpec::new("trapdoor", 6, 8, 1).with_adversary("random"))
            .unwrap();
        let outcomes: Vec<SyncOutcome> = (0..4).map(|s| sim.run_one(s)).collect();
        let table = sync_time_quantile_table("demo", &outcomes);
        assert_eq!(table.len(), 2);
        assert_eq!(table.rows()[0][0], "rounds to sync");
        assert_eq!(table.rows()[1][0], "completion round");
    }
}
