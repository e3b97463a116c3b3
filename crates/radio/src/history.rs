//! Public execution history made available to adaptive adversaries.
//!
//! Per the model (Section 2), the adversary "chooses its behavior for round
//! `r` based only on knowledge of the protocol being executed and the
//! completed execution up to the end of round `r − 1`". [`History`] is the
//! engine's record of completed rounds in a form adversaries can query.

use std::collections::VecDeque;

use crate::frequency::{Frequency, FrequencyBand};
use crate::probe::Probe;
use crate::trace::RoundObservation;

/// Per-frequency activity observed in one completed round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrequencyActivity {
    /// Number of nodes that broadcast on the frequency.
    pub broadcasters: u32,
    /// Number of nodes that listened on the frequency.
    pub listeners: u32,
    /// Whether the adversary disrupted the frequency.
    pub disrupted: bool,
    /// Whether a message was delivered on the frequency (exactly one
    /// broadcaster, not disrupted, at least zero listeners — delivery is
    /// counted even if nobody was listening, since the lone broadcast was
    /// receivable).
    pub delivered: bool,
}

/// Everything the adversary may know about one completed round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRecord {
    /// The global round number.
    pub round: u64,
    /// Per-frequency activity, indexed by 0-based frequency index.
    pub activity: Vec<FrequencyActivity>,
    /// Number of nodes that were active (activated and not crashed) during
    /// the round.
    pub active_nodes: u32,
    /// Number of nodes newly activated at the beginning of the round.
    pub newly_activated: u32,
}

impl RoundRecord {
    /// Activity on frequency `f`.
    pub fn activity_on(&self, f: Frequency) -> &FrequencyActivity {
        &self.activity[f.as_zero_based()]
    }

    /// Total number of broadcasters across all frequencies.
    pub fn total_broadcasters(&self) -> u32 {
        self.activity.iter().map(|a| a.broadcasters).sum()
    }

    /// Total number of listeners across all frequencies.
    pub fn total_listeners(&self) -> u32 {
        self.activity.iter().map(|a| a.listeners).sum()
    }

    /// Number of frequencies on which a message was delivered.
    pub fn deliveries(&self) -> u32 {
        self.activity.iter().filter(|a| a.delivered).count() as u32
    }

    /// Number of frequencies with two or more broadcasters (collisions).
    pub fn collisions(&self) -> u32 {
        self.activity.iter().filter(|a| a.broadcasters >= 2).count() as u32
    }
}

/// The completed-round history of an execution.
///
/// The engine appends one [`RoundRecord`] per completed round. To keep
/// long executions cheap it retains only the most recent `w` rounds (see
/// [`History::with_window`]), where `w` is the adversary's declared
/// [`max_lookback`](crate::adversary::Adversary::max_lookback); all
/// adversaries in this crate only look a bounded number of rounds back.
///
/// Records are stored in a ring buffer, so windowed retention is O(1) per
/// round, and the engine appends through
/// [`push_recycled`](History::push_recycled), which reuses the evicted
/// record's per-frequency buffer — in steady state the history performs no
/// heap allocation at all.
#[derive(Debug, Clone, Default)]
pub struct History {
    records: VecDeque<RoundRecord>,
    window: Option<usize>,
    dropped: u64,
}

impl History {
    /// Creates an empty, unbounded history.
    pub fn new() -> Self {
        History::default()
    }

    /// Creates an empty history that retains only the last `window` rounds.
    pub fn with_window(window: usize) -> Self {
        History {
            records: VecDeque::new(),
            window: Some(window.max(1)),
            dropped: 0,
        }
    }

    /// The retention window, if bounded.
    pub fn window(&self) -> Option<usize> {
        self.window
    }

    /// Evicts the oldest record if the retention window is full, returning
    /// its cleared per-frequency buffer for reuse.
    fn evict_for_push(&mut self) -> Option<Vec<FrequencyActivity>> {
        match self.window {
            Some(w) if self.records.len() >= w => {
                let old = self.records.pop_front()?;
                self.dropped += 1;
                let mut buffer = old.activity;
                buffer.clear();
                Some(buffer)
            }
            _ => None,
        }
    }

    /// Appends the record of a completed round.
    pub fn push(&mut self, record: RoundRecord) {
        self.evict_for_push();
        self.records.push_back(record);
    }

    /// Appends a completed round assembled from the engine's reusable
    /// per-round buffers.
    ///
    /// `activity` is taken by swap: on return it holds an *empty* buffer —
    /// the evicted record's recycled allocation once the retention window
    /// has filled — ready to be refilled next round. This is the engine's
    /// steady-state append path; it never allocates once the window is full.
    pub fn push_recycled(
        &mut self,
        round: u64,
        activity: &mut Vec<FrequencyActivity>,
        active_nodes: u32,
        newly_activated: u32,
    ) {
        let mut storage = self
            .evict_for_push()
            .unwrap_or_else(|| Vec::with_capacity(activity.len()));
        std::mem::swap(&mut storage, activity);
        self.records.push_back(RoundRecord {
            round,
            activity: storage,
            active_nodes,
            newly_activated,
        });
    }

    /// Appends a completed round by copying a borrowed per-frequency slice
    /// into the evicted record's recycled buffer (a memcpy of `F` small
    /// `Copy` records — no steady-state allocation once the retention
    /// window has filled).
    ///
    /// This is the [`Probe`] append path: probe observations borrow the
    /// engine's scratch, so the activity cannot be taken by swap the way
    /// [`push_recycled`](History::push_recycled) does.
    pub fn push_copied(
        &mut self,
        round: u64,
        activity: &[FrequencyActivity],
        active_nodes: u32,
        newly_activated: u32,
    ) {
        let mut storage = self
            .evict_for_push()
            .unwrap_or_else(|| Vec::with_capacity(activity.len()));
        storage.extend_from_slice(activity);
        self.records.push_back(RoundRecord {
            round,
            activity: storage,
            active_nodes,
            newly_activated,
        });
    }

    /// Number of rounds recorded (and still retained).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no rounds are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total number of rounds that have been recorded, including any that
    /// were dropped by the retention window.
    pub fn total_rounds(&self) -> u64 {
        self.dropped + self.records.len() as u64
    }

    /// The most recently completed round, if any.
    pub fn last(&self) -> Option<&RoundRecord> {
        self.records.back()
    }

    /// The `i`-th retained record, oldest first.
    pub fn get(&self, i: usize) -> Option<&RoundRecord> {
        self.records.get(i)
    }

    /// Iterates over the retained records from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &RoundRecord> {
        self.records.iter()
    }

    /// Sums, per frequency, the number of listeners over the last
    /// `lookback` retained rounds. Useful for adversaries that target the
    /// historically busiest frequencies.
    ///
    /// Allocates a fresh vector per call; callers that query every round
    /// (adaptive adversaries) should hold a buffer and use
    /// [`listener_counts_into`](History::listener_counts_into) instead.
    pub fn listener_counts(&self, band: FrequencyBand, lookback: usize) -> Vec<u64> {
        let mut counts = Vec::new();
        self.listener_counts_into(band, lookback, &mut counts);
        counts
    }

    /// Buffer-reusing variant of [`listener_counts`](History::listener_counts):
    /// clears `counts` and fills it with one per-frequency sum, reusing its
    /// allocation.
    pub fn listener_counts_into(
        &self,
        band: FrequencyBand,
        lookback: usize,
        counts: &mut Vec<u64>,
    ) {
        counts.clear();
        counts.resize(band.count() as usize, 0);
        for rec in self.records.iter().rev().take(lookback) {
            for (i, act) in rec.activity.iter().enumerate().take(counts.len()) {
                counts[i] += u64::from(act.listeners);
            }
        }
    }

    /// Sums, per frequency, the number of broadcasters over the last
    /// `lookback` retained rounds.
    ///
    /// Allocates a fresh vector per call; callers that query every round
    /// should hold a buffer and use
    /// [`broadcaster_counts_into`](History::broadcaster_counts_into) instead.
    pub fn broadcaster_counts(&self, band: FrequencyBand, lookback: usize) -> Vec<u64> {
        let mut counts = Vec::new();
        self.broadcaster_counts_into(band, lookback, &mut counts);
        counts
    }

    /// Buffer-reusing variant of
    /// [`broadcaster_counts`](History::broadcaster_counts): clears `counts`
    /// and fills it with one per-frequency sum, reusing its allocation.
    pub fn broadcaster_counts_into(
        &self,
        band: FrequencyBand,
        lookback: usize,
        counts: &mut Vec<u64>,
    ) {
        counts.clear();
        counts.resize(band.count() as usize, 0);
        for rec in self.records.iter().rev().take(lookback) {
            for (i, act) in rec.activity.iter().enumerate().take(counts.len()) {
                counts[i] += u64::from(act.broadcasters);
            }
        }
    }
}

/// A [`History`] is itself a probe: it folds each observed round into its
/// ring through [`push_copied`](History::push_copied). The engine composes
/// one ahead of the user stack to maintain the adversary-visible history;
/// attaching an *additional* `History` probe with its own window is how a
/// caller records a private retained view of the execution.
impl Probe for History {
    fn observe(&mut self, observation: &RoundObservation<'_>) {
        self.push_copied(
            observation.round,
            observation.activity,
            observation.tally.active_nodes,
            observation.tally.newly_activated,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(round: u64, per_freq: &[(u32, u32, bool, bool)]) -> RoundRecord {
        RoundRecord {
            round,
            activity: per_freq
                .iter()
                .map(|&(b, l, d, del)| FrequencyActivity {
                    broadcasters: b,
                    listeners: l,
                    disrupted: d,
                    delivered: del,
                })
                .collect(),
            active_nodes: per_freq.iter().map(|&(b, l, _, _)| b + l).sum(),
            newly_activated: 0,
        }
    }

    #[test]
    fn record_aggregates() {
        let r = record(
            3,
            &[
                (1, 2, false, true),
                (2, 0, true, false),
                (0, 1, false, false),
            ],
        );
        assert_eq!(r.total_broadcasters(), 3);
        assert_eq!(r.total_listeners(), 3);
        assert_eq!(r.deliveries(), 1);
        assert_eq!(r.collisions(), 1);
        assert_eq!(r.activity_on(Frequency::new(2)).broadcasters, 2);
    }

    #[test]
    fn history_push_and_query() {
        let mut h = History::new();
        assert!(h.is_empty());
        h.push(record(0, &[(1, 0, false, true)]));
        h.push(record(1, &[(0, 2, false, false)]));
        assert_eq!(h.len(), 2);
        assert_eq!(h.total_rounds(), 2);
        assert_eq!(h.last().unwrap().round, 1);
        assert_eq!(h.iter().count(), 2);
    }

    #[test]
    fn window_retention_drops_old_rounds() {
        let mut h = History::with_window(2);
        for r in 0..5 {
            h.push(record(r, &[(0, 0, false, false)]));
        }
        assert_eq!(h.len(), 2);
        assert_eq!(h.total_rounds(), 5);
        assert_eq!(h.get(0).unwrap().round, 3);
        assert_eq!(h.last().unwrap().round, 4);
    }

    #[test]
    fn push_recycled_matches_push_and_reuses_buffers() {
        let mut plain = History::with_window(3);
        let mut recycled = History::with_window(3);
        let mut scratch: Vec<FrequencyActivity> = Vec::new();
        for r in 0..8 {
            let rec = record(r, &[(1, r as u32, false, false), (0, 2, r % 2 == 0, false)]);
            scratch.extend(rec.activity.iter().cloned());
            let active = rec.active_nodes;
            plain.push(rec);
            recycled.push_recycled(r, &mut scratch, active, 0);
            assert!(scratch.is_empty(), "buffer is returned empty for reuse");
        }
        assert_eq!(plain.len(), recycled.len());
        assert_eq!(plain.total_rounds(), recycled.total_rounds());
        for (a, b) in plain.iter().zip(recycled.iter()) {
            assert_eq!(a, b);
        }
        // Once the window is full the recycled buffer keeps its capacity.
        assert!(scratch.capacity() >= 2);
    }

    #[test]
    fn listener_and_broadcaster_counts() {
        let band = FrequencyBand::new(2);
        let mut h = History::new();
        h.push(record(0, &[(1, 3, false, false), (0, 1, false, false)]));
        h.push(record(1, &[(2, 1, false, false), (1, 4, false, false)]));
        assert_eq!(h.listener_counts(band, 10), vec![4, 5]);
        assert_eq!(h.broadcaster_counts(band, 10), vec![3, 1]);
        // lookback of 1 only sees the last round
        assert_eq!(h.listener_counts(band, 1), vec![1, 4]);
    }

    #[test]
    fn counts_with_empty_history_are_zero() {
        let band = FrequencyBand::new(3);
        let h = History::new();
        assert_eq!(h.listener_counts(band, 5), vec![0, 0, 0]);
        assert_eq!(h.broadcaster_counts(band, 5), vec![0, 0, 0]);
    }
}
