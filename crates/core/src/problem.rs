//! The wireless synchronization problem (Section 3).
//!
//! Wireless synchronization is achieved when the activated nodes share a
//! consistent round numbering scheme. The problem has five requirements:
//!
//! 1. **Validity** — in every round, every activated node outputs a value in
//!    `ℕ ∪ {⊥}` (`⊥` meaning "not yet determined").
//! 2. **Synch commit** — once a node outputs a non-`⊥` value, it never
//!    outputs `⊥` again.
//! 3. **Correctness** — if a node outputs `i` in round `r`, it outputs
//!    `i + 1` in round `r + 1`.
//! 4. **Agreement** — in every round, all non-`⊥` outputs are the same
//!    (with high probability).
//! 5. **Liveness** — eventually every active node stops outputting `⊥`
//!    (with probability 1).
//!
//! An algorithm *solves the problem in time `T`* iff liveness is achieved by
//! round `T` with high probability.
//!
//! In this workspace, a node's output is represented as `Option<u64>`
//! (`None` is `⊥`); [`SyncOutput`] is a convenience wrapper that formats and
//! compares outputs, and [`ProblemInstance`] carries the problem parameters
//! `(N, F, t)` shared by every protocol.

use std::fmt;

/// The parameters a wireless synchronization instance is defined over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProblemInstance {
    /// Known upper bound `N` on the number of participants.
    pub upper_bound_n: u64,
    /// Number of frequencies `F ≥ 1`.
    pub num_frequencies: u32,
    /// Known bound `t < F` on the number of frequencies the adversary can
    /// disrupt per round.
    pub disruption_bound: u32,
}

impl ProblemInstance {
    /// Creates a problem instance.
    pub fn new(upper_bound_n: u64, num_frequencies: u32, disruption_bound: u32) -> Self {
        ProblemInstance {
            upper_bound_n,
            num_frequencies,
            disruption_bound,
        }
    }

    /// Whether the parameters satisfy the model's constraints
    /// (`F ≥ 1`, `t < F`, `N ≥ 2`).
    pub fn is_valid(&self) -> bool {
        self.num_frequencies >= 1
            && self.disruption_bound < self.num_frequencies
            && self.upper_bound_n >= 2
    }

    /// Fraction of the band the adversary can disrupt, `t / F`.
    pub fn disruption_fraction(&self) -> f64 {
        f64::from(self.disruption_bound) / f64::from(self.num_frequencies)
    }
}

impl From<wsync_radio::node::ActivationInfo> for ProblemInstance {
    fn from(info: wsync_radio::node::ActivationInfo) -> Self {
        ProblemInstance::new(
            info.upper_bound_n,
            info.num_frequencies,
            info.disruption_bound,
        )
    }
}

/// A node's output for one round: the paper's `ℕ ∪ {⊥}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncOutput {
    /// The node has not yet determined a round number (`⊥`).
    Bottom,
    /// The node claims the current round has this number.
    Round(u64),
}

impl SyncOutput {
    /// Converts from the engine-level representation.
    pub fn from_option(output: Option<u64>) -> Self {
        match output {
            None => SyncOutput::Bottom,
            Some(i) => SyncOutput::Round(i),
        }
    }

    /// Converts to the engine-level representation.
    pub fn to_option(self) -> Option<u64> {
        match self {
            SyncOutput::Bottom => None,
            SyncOutput::Round(i) => Some(i),
        }
    }

    /// Whether the output is `⊥`.
    pub fn is_bottom(self) -> bool {
        matches!(self, SyncOutput::Bottom)
    }

    /// The expected output one round later under the correctness property.
    pub fn successor(self) -> Self {
        match self {
            SyncOutput::Bottom => SyncOutput::Bottom,
            SyncOutput::Round(i) => SyncOutput::Round(i + 1),
        }
    }
}

impl fmt::Display for SyncOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncOutput::Bottom => write!(f, "⊥"),
            SyncOutput::Round(i) => write!(f, "{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_validity() {
        assert!(ProblemInstance::new(16, 8, 3).is_valid());
        assert!(!ProblemInstance::new(16, 8, 8).is_valid());
        assert!(!ProblemInstance::new(16, 0, 0).is_valid());
        assert!(!ProblemInstance::new(1, 8, 3).is_valid());
    }

    #[test]
    fn disruption_fraction_computation() {
        let p = ProblemInstance::new(16, 8, 2);
        assert!((p.disruption_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn instance_from_activation_info() {
        let info = wsync_radio::node::ActivationInfo::new(32, 12, 5);
        let p: ProblemInstance = info.into();
        assert_eq!(p.upper_bound_n, 32);
        assert_eq!(p.num_frequencies, 12);
        assert_eq!(p.disruption_bound, 5);
    }

    #[test]
    fn sync_output_conversions_and_display() {
        assert_eq!(SyncOutput::from_option(None), SyncOutput::Bottom);
        assert_eq!(SyncOutput::from_option(Some(3)), SyncOutput::Round(3));
        assert_eq!(SyncOutput::Round(3).to_option(), Some(3));
        assert_eq!(SyncOutput::Bottom.to_option(), None);
        assert!(SyncOutput::Bottom.is_bottom());
        assert_eq!(format!("{}", SyncOutput::Bottom), "⊥");
        assert_eq!(format!("{}", SyncOutput::Round(9)), "9");
    }

    #[test]
    fn successor_follows_correctness() {
        assert_eq!(SyncOutput::Round(4).successor(), SyncOutput::Round(5));
        assert_eq!(SyncOutput::Bottom.successor(), SyncOutput::Bottom);
    }
}
