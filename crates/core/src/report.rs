//! Outcome summary of one protocol execution.

use wsync_radio::engine::ExecutionResult;

use crate::checker::PropertyReport;

/// Everything an experiment needs to know about one execution: the engine's
/// result, the property-checker verdict, and how many nodes ended the run
/// believing they are the leader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncOutcome {
    /// The engine's per-node and aggregate result.
    pub result: ExecutionResult,
    /// The property-checker verdict (validity, synch commit, correctness,
    /// agreement, liveness).
    pub properties: PropertyReport,
    /// Number of nodes that consider themselves leader at the end of the
    /// run. The paper's protocols guarantee exactly one w.h.p.
    pub leaders: usize,
    /// Name of the adversary used (for experiment tables).
    pub adversary: String,
    /// The seed the execution was run with.
    pub seed: u64,
}

impl SyncOutcome {
    /// The global round by which every node had synchronized, if all did.
    pub fn completion_round(&self) -> Option<u64> {
        self.result.completion_round()
    }

    /// The worst per-node time from activation to synchronization, if all
    /// nodes synchronized. This is the quantity the paper's time bounds are
    /// about.
    pub fn max_rounds_to_sync(&self) -> Option<u64> {
        self.result.max_rounds_to_sync()
    }

    /// `true` iff the run synchronized everyone, elected exactly one leader,
    /// and no safety property was violated.
    pub fn is_clean(&self) -> bool {
        self.result.all_synchronized && self.leaders == 1 && self.properties.safety_holds()
    }

    /// A one-line human-readable summary.
    pub fn summary_line(&self) -> String {
        format!(
            "adversary={} seed={} rounds={} synced={} leaders={} violations={} max_to_sync={}",
            self.adversary,
            self.seed,
            self.result.rounds_executed,
            self.result.all_synchronized,
            self.leaders,
            self.properties.total_violations,
            self.max_rounds_to_sync()
                .map(|r| r.to_string())
                .unwrap_or_else(|| "-".to_string()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsync_radio::engine::NodeSummary;
    use wsync_radio::metrics::SimMetrics;
    use wsync_radio::node::NodeId;

    fn outcome(all_synced: bool, leaders: usize, violations: u64) -> SyncOutcome {
        SyncOutcome {
            result: ExecutionResult {
                rounds_executed: 100,
                all_synchronized: all_synced,
                nodes: vec![NodeSummary {
                    id: NodeId::new(0),
                    activation_round: 2,
                    sync_round: if all_synced { Some(42) } else { None },
                    final_output: if all_synced { Some(99) } else { None },
                }],
                metrics: SimMetrics::default(),
            },
            properties: PropertyReport {
                violations: Vec::new(),
                total_violations: violations,
                rounds_observed: 100,
                liveness: all_synced,
                completion_round: if all_synced { Some(42) } else { None },
            },
            leaders,
            adversary: "none".to_string(),
            seed: 7,
        }
    }

    #[test]
    fn clean_outcome_requires_everything() {
        assert!(outcome(true, 1, 0).is_clean());
        assert!(!outcome(false, 1, 0).is_clean());
        assert!(!outcome(true, 2, 0).is_clean());
        assert!(!outcome(true, 1, 3).is_clean());
    }

    #[test]
    fn derived_quantities() {
        let o = outcome(true, 1, 0);
        assert_eq!(o.completion_round(), Some(42));
        assert_eq!(o.max_rounds_to_sync(), Some(40));
        assert!(o.summary_line().contains("leaders=1"));
        let unfinished = outcome(false, 0, 0);
        assert_eq!(unfinished.max_rounds_to_sync(), None);
        assert!(unfinished.summary_line().contains("max_to_sync=-"));
    }
}
