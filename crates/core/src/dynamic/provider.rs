//! Where each epoch's IDs come from.
//!
//! §II–III *assume* the adversary holds at most `βn` IDs distributed
//! u.a.r. ([`UniformProvider`]; justified by Lemma 5 + Lemma 11). §IV
//! *enforces* this with proof-of-work; the `tg-pow` crate implements
//! providers backed by the actual puzzle pipeline. Adversaries that can
//! *choose* their ID values (no PoW) are modelled by
//! [`crate::dynamic::adversary::StrategicProvider`] composed with an
//! [`crate::dynamic::adversary::AdversaryStrategy`] — the pluggable
//! placement engine experiment E10 sweeps.
//!
//! A provider is one statement of an epoch's mint step, which
//! [`DynamicSystem::mint_epoch`](crate::dynamic::DynamicSystem::mint_epoch)
//! takes as a closure. Each driver writes that step out in order: the
//! provider call, the network's announcement phase
//! ([`EpochNet::announce_phase`](crate::runtime::EpochNet::announce_phase)),
//! and the census of the population — taken before the announcements
//! by [`DynamicDriver`](crate::scenario::DynamicDriver), after them by
//! `tg_pow`'s `FullSystem`.

use crate::dynamic::adversary::AdversaryView;
use rand::rngs::StdRng;
use rand::Rng;
use tg_idspace::{Id, SortedRing};

/// The IDs that will be active in one epoch.
#[derive(Clone, Debug)]
pub struct EpochIds {
    /// Good IDs (u.a.r. — good participants follow the minting protocol).
    pub good: Vec<Id>,
    /// The adversary's IDs.
    pub bad: Vec<Id>,
}

impl EpochIds {
    /// Whether the window minted no identity at all.
    pub fn is_empty(&self) -> bool {
        self.good.is_empty() && self.bad.is_empty()
    }

    /// The fraction of the key space owned by bad IDs under the
    /// successor rule — the adversary's recruitment probability per
    /// membership draw. Uniform placement gives `≈ β`; placement
    /// strategies amplify it (E10's `bad_share` column).
    pub fn bad_ring_share(&self) -> f64 {
        if self.bad.is_empty() {
            return 0.0;
        }
        let all: Vec<Id> = self.good.iter().chain(self.bad.iter()).copied().collect();
        let ring = SortedRing::new(all);
        let bad_set: std::collections::HashSet<Id> = self.bad.iter().copied().collect();
        (0..ring.len())
            .filter(|&i| bad_set.contains(&ring.at(i)))
            .map(|i| ring.responsibility_of(i).len().as_f64())
            .sum()
    }
}

/// A source of per-epoch ID populations.
///
/// `view` is what a state-observing adversary inside the provider may
/// inspect before committing its placement: the previous epoch's
/// operational graphs and (under PoW) the current epoch string. Honest
/// providers ignore it.
pub trait IdentityProvider {
    /// The IDs for epoch `epoch` (called once per epoch, in order).
    ///
    /// An empty set is allowed — a minting window can yield no ID. The
    /// epoch system then carries its serving generation over, except at
    /// genesis (`epoch` 0), where it calls again until an ID arrives.
    fn ids_for_epoch(&mut self, epoch: u64, view: &AdversaryView<'_>, rng: &mut StdRng)
        -> EpochIds;
}

/// A minted population is its own provider: every call hands out the
/// same IDs (how a system that mints its genesis window itself boots a
/// [`DynamicSystem`](crate::dynamic::DynamicSystem)).
impl IdentityProvider for EpochIds {
    fn ids_for_epoch(&mut self, _: u64, _: &AdversaryView<'_>, _: &mut StdRng) -> EpochIds {
        self.clone()
    }
}

/// The §II–III standing assumption: `n_good` good and `n_bad` bad IDs,
/// all u.a.r. in `[0,1)`.
#[derive(Clone, Debug)]
pub struct UniformProvider {
    /// Good IDs per epoch.
    pub n_good: usize,
    /// Bad IDs per epoch (≈ `βn`).
    pub n_bad: usize,
}

impl IdentityProvider for UniformProvider {
    fn ids_for_epoch(
        &mut self,
        _epoch: u64,
        _view: &AdversaryView<'_>,
        rng: &mut StdRng,
    ) -> EpochIds {
        EpochIds {
            good: (0..self.n_good).map(|_| Id(rng.gen())).collect(),
            bad: (0..self.n_bad).map(|_| Id(rng.gen())).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::adversary::{GapFilling, IntervalTargeting, StrategicProvider};
    use rand::SeedableRng;

    #[test]
    fn uniform_counts() {
        let mut p = UniformProvider { n_good: 100, n_bad: 7 };
        let mut rng = StdRng::seed_from_u64(1);
        let ids = p.ids_for_epoch(1, &AdversaryView::genesis(1), &mut rng);
        assert_eq!(ids.good.len(), 100);
        assert_eq!(ids.bad.len(), 7);
    }

    #[test]
    fn epochs_differ() {
        let mut p = UniformProvider { n_good: 10, n_bad: 0 };
        let mut rng = StdRng::seed_from_u64(2);
        let a = p.ids_for_epoch(1, &AdversaryView::genesis(1), &mut rng);
        let b = p.ids_for_epoch(2, &AdversaryView::genesis(2), &mut rng);
        assert_ne!(a.good, b.good, "fresh IDs every epoch");
    }

    #[test]
    fn gap_filling_amplifies_responsibility() {
        let mut p = StrategicProvider::new(2000, 100, GapFilling);
        let mut rng = StdRng::seed_from_u64(5);
        let ids = p.ids_for_epoch(1, &AdversaryView::genesis(1), &mut rng);
        // Total responsibility of bad IDs: each owns the arc from its
        // predecessor; gap-filling should hold far more than β of the
        // key space.
        let beta = ids.bad.len() as f64 / (ids.good.len() + ids.bad.len()) as f64;
        let bad_share = ids.bad_ring_share();
        assert!(
            bad_share > 2.0 * beta,
            "gap filling must amplify: share {bad_share:.4} vs β {beta:.4}"
        );
    }

    #[test]
    fn targeted_ids_land_in_interval() {
        let mut p = StrategicProvider::new(
            10,
            50,
            IntervalTargeting { victim: Id::from_f64(0.26), width: 0.01 },
        );
        let mut rng = StdRng::seed_from_u64(3);
        let ids = p.ids_for_epoch(1, &AdversaryView::genesis(1), &mut rng);
        for id in &ids.bad {
            let f = id.as_f64();
            assert!((0.25..0.26).contains(&f), "bad ID {f} outside target interval");
        }
    }

    #[test]
    fn uniform_bad_share_tracks_beta() {
        let mut p = UniformProvider { n_good: 1900, n_bad: 100 };
        let mut rng = StdRng::seed_from_u64(9);
        let ids = p.ids_for_epoch(1, &AdversaryView::genesis(1), &mut rng);
        let share = ids.bad_ring_share();
        assert!((0.025..0.10).contains(&share), "uniform share {share:.4} vs β = 0.05");
    }
}
