//! A replicated key→value store over the group graph — the paper's
//! motivating application (§I-A: "decentralized storage and retrieval of
//! data… all but an ε-fraction of data is reachable and maintained
//! reliably"; footnote 2: "data may also be redundantly stored at
//! multiple group members").
//!
//! An item with key `k` lives at the group of `suc(k)`: every good live
//! member keeps a replica. A read routes to that group and
//! majority-filters the members' claims, so a good-majority owner group
//! serves correct data no matter what its Byzantine members answer; the
//! `ε`-fraction of keys owned by red groups is what Theorem 3's bound is
//! about, and [`SecureDht::measure_availability`] measures it directly.

use crate::graph::GroupGraphView;
use crate::routing::{search_path, SearchOutcome};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use tg_ba::{majority_filter, AdversaryMode};
use tg_idspace::Id;
use tg_sim::Metrics;

/// A replicated store over one group graph (anything implementing
/// [`GroupGraphView`] — a static graph or one side of an epoch's).
pub struct SecureDht<'g, G: GroupGraphView> {
    gg: &'g G,
    /// Replicas: `(pool member index, key) → value`. Only good members
    /// store faithfully; Byzantine members answer reads via the
    /// adversary mode instead of this map.
    replicas: HashMap<(u32, u64), u64>,
    /// What Byzantine members answer on reads.
    pub adversary: AdversaryMode,
}

/// Result of a read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GetOutcome {
    /// Majority of the owner group's claims agreed on this value.
    Value(u64),
    /// The route to the owner group failed (red group on the path).
    RouteFailed,
    /// The owner group had no usable majority claim (item missing or
    /// owner compromised).
    NoMajority,
}

impl<'g, G: GroupGraphView> SecureDht<'g, G> {
    /// A DHT over the given group graph.
    pub fn new(gg: &'g G, adversary: AdversaryMode) -> Self {
        SecureDht { gg, replicas: HashMap::new(), adversary }
    }

    /// The leader-ring index of the group owning `key`.
    pub fn owner_group(&self, key: Id) -> usize {
        self.gg.leaders().ring().successor_index(key)
    }

    /// Store `value` under `key`, initiating from the group of
    /// `from_leader`. Returns `false` if the route failed (the write
    /// never reached the owner group).
    pub fn put(&mut self, from_leader: usize, key: Id, value: u64, metrics: &mut Metrics) -> bool {
        if !search_path(self.gg, from_leader, key, metrics).is_success() {
            return false;
        }
        let owner = self.owner_group(key);
        // Byzantine members accept the write and store nothing useful —
        // their read answers come from the adversary.
        let pool = self.gg.pool();
        for m in self.gg.live_members(owner).filter(|&m| !pool.is_bad(m)) {
            self.replicas.insert((m as u32, key.raw()), value);
        }
        // Replication is one all-to-all burst into the owner group.
        let size = self.gg.group_size(owner);
        metrics.control_msgs += (size * size) as u64;
        true
    }

    /// Read `key`, initiating from the group of `from_leader`.
    pub fn get(&self, from_leader: usize, key: Id, metrics: &mut Metrics) -> GetOutcome {
        match search_path(self.gg, from_leader, key, metrics) {
            SearchOutcome::Fail { .. } => GetOutcome::RouteFailed,
            SearchOutcome::Success { .. } => {
                let owner = self.owner_group(key);
                let members = self.gg.group_members(owner);
                let mut claims: Vec<Option<u64>> = Vec::new();
                for (i, &m) in members.iter().enumerate() {
                    if !self.gg.pool().is_live(m as usize) {
                        continue;
                    }
                    if self.gg.pool().is_bad(m as usize) {
                        claims.push(self.adversary.send(i, from_leader, key.raw(), None));
                    } else {
                        claims.push(self.replicas.get(&(m, key.raw())).copied());
                    }
                }
                for j in 0..self.gg.captured_slots(owner) {
                    claims.push(self.adversary.send(
                        members.len() + j as usize,
                        from_leader,
                        key.raw(),
                        None,
                    ));
                }
                metrics.control_msgs += claims.len() as u64;
                match majority_filter(&claims) {
                    (Some(v), true) => GetOutcome::Value(v),
                    _ => GetOutcome::NoMajority,
                }
            }
        }
    }

    /// Store `items` and report the fraction retrievable with the
    /// correct value from random initiators — the §I-A availability
    /// measure. Returns `(stored_fraction, retrievable_fraction)`.
    pub fn measure_availability(
        &mut self,
        items: &[(Id, u64)],
        rng: &mut StdRng,
        metrics: &mut Metrics,
    ) -> (f64, f64) {
        let mut stored = 0usize;
        for &(key, value) in items {
            let from = rng.gen_range(0..self.gg.len());
            if self.put(from, key, value, metrics) {
                stored += 1;
            }
        }
        let mut ok = 0usize;
        for &(key, value) in items {
            let from = rng.gen_range(0..self.gg.len());
            if self.get(from, key, metrics) == GetOutcome::Value(value) {
                ok += 1;
            }
        }
        (stored as f64 / items.len().max(1) as f64, ok as f64 / items.len().max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_initial_graph;
    use crate::graph::GroupGraph;
    use crate::params::Params;
    use crate::population::Population;
    use rand::SeedableRng;
    use tg_crypto::OracleFamily;
    use tg_overlay::GraphKind;

    fn graph(n_good: usize, n_bad: usize, seed: u64) -> GroupGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = Population::uniform(n_good, n_bad, &mut rng);
        build_initial_graph(
            pop,
            GraphKind::Chord,
            OracleFamily::new(seed).h1,
            &Params::paper_defaults(),
        )
    }

    #[test]
    fn put_get_roundtrip() {
        let gg = graph(500, 0, 1);
        let mut dht = SecureDht::new(&gg, AdversaryMode::Honest);
        let mut m = Metrics::new();
        let key = Id::from_f64(0.42);
        assert!(dht.put(3, key, 777, &mut m));
        assert_eq!(dht.get(9, key, &mut m), GetOutcome::Value(777));
        assert!(m.control_msgs > 0, "replication and reads cost messages");
    }

    #[test]
    fn missing_key_gives_no_majority() {
        let gg = graph(500, 0, 2);
        let dht = SecureDht::new(&gg, AdversaryMode::Honest);
        let mut m = Metrics::new();
        assert_eq!(dht.get(0, Id::from_f64(0.9), &mut m), GetOutcome::NoMajority);
    }

    #[test]
    fn byzantine_minority_cannot_corrupt_reads() {
        let gg = graph(1900, 100, 3); // β = 5%
        let mut rng = StdRng::seed_from_u64(4);
        for mode in [
            AdversaryMode::Silent,
            AdversaryMode::Equivocate { seed: 5 },
            AdversaryMode::Collude { value: 666 },
        ] {
            let mut dht = SecureDht::new(&gg, mode);
            let mut m = Metrics::new();
            let items: Vec<(Id, u64)> = (0..120).map(|i| (Id(rng.gen()), 1000 + i)).collect();
            let (_, available) = dht.measure_availability(&items, &mut rng, &mut m);
            assert!(available > 0.95, "mode {mode:?}: availability {available:.3}");
            // And no read ever returned a *wrong* value: re-check every
            // item individually.
            for &(key, value) in &items {
                // Unavailable is allowed (the ε-fraction); corrupt is not.
                if let GetOutcome::Value(v) = dht.get(0, key, &mut m) {
                    assert_eq!(v, value, "corrupted read under {mode:?}");
                }
            }
        }
    }

    #[test]
    fn availability_tracks_red_fraction() {
        // Force a chunk of groups red: keys owned by them become
        // unavailable, everything else stays served.
        let mut gg = graph(800, 0, 6);
        for i in 0..gg.len() / 10 {
            gg.mark_confused(i * 10);
        }
        gg.recolor();
        let mut rng = StdRng::seed_from_u64(7);
        let mut dht = SecureDht::new(&gg, AdversaryMode::Honest);
        let mut m = Metrics::new();
        let items: Vec<(Id, u64)> = (0..300).map(|i| (Id(rng.gen()), i)).collect();
        let (stored, available) = dht.measure_availability(&items, &mut rng, &mut m);
        assert!(stored < 1.0, "some writes must fail through red groups");
        assert!(available < stored + 1e-9);
        // Rough correspondence with the red mass (each route crosses
        // several groups, so unavailability exceeds frac_red).
        assert!(available > 1.0 - 8.0 * gg.frac_red(), "availability {available:.3}");
    }

    #[test]
    fn replicas_survive_partial_churn() {
        let mut gg = graph(600, 0, 8);
        let mut m = Metrics::new();
        let key = Id::from_f64(0.31);
        // Write first, then churn.
        {
            let mut dht = SecureDht::new(&gg, AdversaryMode::Honest);
            dht.put(5, key, 4242, &mut m);
            // Move the replica map out before gg is mutated.
            let replicas = dht.replicas;
            let mut rng = StdRng::seed_from_u64(9);
            gg.pool.depart_good_fraction(0.3, &mut rng);
            gg.recolor();
            let mut dht = SecureDht::new(&gg, AdversaryMode::Honest);
            dht.replicas = replicas;
            assert_eq!(dht.get(7, key, &mut m), GetOutcome::Value(4242));
        }
    }
}
