//! Message and state accounting.
//!
//! The costs the paper quantifies (§I and Corollary 1) are all counts:
//!
//! * **group communication** — `Θ(|G|²)` messages per intra-group protocol,
//! * **secure routing** — `O(D·|G|²)` messages per search,
//! * **state maintenance** — group-membership and neighbor-link entries
//!   each ID must track.
//!
//! [`Metrics`] is a plain mergeable struct (no atomics: each simulation
//! component owns its instance and merges on join, which keeps parallel
//! sweeps deterministic and cheap, per the HPC guide's "share by merging"
//! idiom).

/// Mergeable counters for one simulation (or one component of one).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Messages exchanged inside groups (agreement rounds).
    pub group_msgs: u64,
    /// Messages exchanged between groups during secure routing
    /// (all-to-all per hop).
    pub routing_msgs: u64,
    /// Messages for protocol control (membership/neighbor requests,
    /// verification searches, string propagation).
    pub control_msgs: u64,
    /// Searches initiated.
    pub searches: u64,
    /// Searches that failed (search path hit a red group).
    pub failed_searches: u64,
    /// Total hops traversed by search paths (truncated at first red group).
    pub hops: u64,
    /// Group-membership state entries held by good IDs.
    pub membership_state: u64,
    /// Neighbor-link state entries held by good IDs.
    pub link_state: u64,
}

impl Metrics {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merge another component's counters into this one.
    pub fn merge(&mut self, other: &Metrics) {
        self.group_msgs += other.group_msgs;
        self.routing_msgs += other.routing_msgs;
        self.control_msgs += other.control_msgs;
        self.searches += other.searches;
        self.failed_searches += other.failed_searches;
        self.hops += other.hops;
        self.membership_state += other.membership_state;
        self.link_state += other.link_state;
    }

    /// All messages, of any category.
    pub fn total_msgs(&self) -> u64 {
        self.group_msgs + self.routing_msgs + self.control_msgs
    }

    /// Fraction of initiated searches that failed (0 if none initiated).
    pub fn failure_rate(&self) -> f64 {
        if self.searches == 0 {
            0.0
        } else {
            self.failed_searches as f64 / self.searches as f64
        }
    }

    /// Mean routing messages per search (0 if none initiated).
    pub fn routing_msgs_per_search(&self) -> f64 {
        if self.searches == 0 {
            0.0
        } else {
            self.routing_msgs as f64 / self.searches as f64
        }
    }

    /// Mean hops per search (0 if none initiated).
    pub fn hops_per_search(&self) -> f64 {
        if self.searches == 0 {
            0.0
        } else {
            self.hops as f64 / self.searches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = Metrics { group_msgs: 1, routing_msgs: 2, searches: 3, ..Default::default() };
        let b = Metrics { group_msgs: 10, failed_searches: 2, searches: 4, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.group_msgs, 11);
        assert_eq!(a.routing_msgs, 2);
        assert_eq!(a.searches, 7);
        assert_eq!(a.failed_searches, 2);
    }

    #[test]
    fn rates() {
        let m = Metrics {
            searches: 8,
            failed_searches: 2,
            routing_msgs: 80,
            hops: 24,
            ..Default::default()
        };
        assert!((m.failure_rate() - 0.25).abs() < 1e-12);
        assert!((m.routing_msgs_per_search() - 10.0).abs() < 1e-12);
        assert!((m.hops_per_search() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_rates_are_zero() {
        let m = Metrics::new();
        assert_eq!(m.failure_rate(), 0.0);
        assert_eq!(m.routing_msgs_per_search(), 0.0);
        assert_eq!(m.hops_per_search(), 0.0);
        assert_eq!(m.total_msgs(), 0);
    }
}
