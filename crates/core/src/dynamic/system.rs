//! What one epoch reports: [`EpochObservation`], the one per-epoch
//! record. The loop that fills it — churn, build, measure, swap (§III)
//! — is [`crate::dynamic::DynamicSystem`]; its behavioural tests live
//! here.

use crate::dynamic::build::BuildStats;
use tg_sim::Metrics;

/// Everything one epoch produced, across both system layers, each field
/// filled once by the layer that measures it:
///
/// * [`DynamicSystem::build_epoch`](crate::dynamic::DynamicSystem::build_epoch)
///   (the second half of
///   [`advance_epoch`](crate::dynamic::DynamicSystem::advance_epoch))
///   — the §III measurements and the group counts, taken on the freshly
///   built graphs (the ones the next epoch operates on);
/// * the census in the driver's mint step — `bad_ids` and `bad_share`;
/// * `tg_pow`'s `FullSystem` — the §IV string/minting fields (`None`
///   when the scenario runs without the PoW layer or with synthesized
///   strings);
/// * [`EpochNet::finish_epoch`](crate::runtime::EpochNet::finish_epoch)
///   — the probe-phase scaling of search success, and `late`.
#[derive(Clone, Debug, Default)]
pub struct EpochObservation {
    /// Epoch index the freshly built graphs serve.
    pub epoch: u64,
    /// Red fraction per side.
    pub frac_red: Vec<f64>,
    /// Good-majority fraction per side.
    pub frac_good_majority: Vec<f64>,
    /// Confused fraction per side.
    pub frac_confused: Vec<f64>,
    /// Paper-invariant fraction per side.
    pub frac_paper_invariant: Vec<f64>,
    /// Search success using a single side (the `q_f` realization).
    pub search_success_single: f64,
    /// Search success using both sides (what the protocol achieves).
    pub search_success_dual: f64,
    /// Construction counters.
    pub build: BuildStats,
    /// Per-good-pool-ID group memberships (Lemma 10): mean.
    pub mean_memberships: f64,
    /// Maximum memberships held by one good pool ID.
    pub max_memberships: usize,
    /// Messages spent on construction searches this epoch.
    pub metrics: Metrics,
    /// Adversarial IDs that entered the dynamic layer this epoch (under
    /// PoW: the minted bad count). The adversary bypasses the network,
    /// so faults never change this.
    pub bad_ids: usize,
    /// Key-space fraction those IDs own under the successor rule — the
    /// adversary's recruitment probability per membership draw. Under
    /// a faulty network the two drivers disagree on the denominator:
    /// `tg_pow`'s `FullSystem` measures the ring the network
    /// *delivered*, [`DynamicDriver`](crate::scenario::DynamicDriver)
    /// the ring as *minted* (before good announcements are dropped) —
    /// one statement apart in their mint steps; see ROADMAP item 5.
    pub bad_share: f64,
    /// Groups without a good majority, summed over all sides, measured
    /// on the freshly built graphs.
    pub captured_groups: usize,
    /// Total groups across all sides.
    pub total_groups: usize,
    /// The epoch string minting bound to (PoW only).
    pub epoch_string: Option<u64>,
    /// Whether the string protocol reached Lemma 12 agreement
    /// (`StringMode::Protocol` only).
    pub strings_agreement: Option<bool>,
    /// Fraction of good giant-component pairs able to verify each
    /// other's signing strings (`StringMode::Protocol` only).
    pub verification_coverage: Option<f64>,
    /// Good IDs minted for the epoch (PoW only).
    pub minted_good: Option<usize>,
    /// Good participants who missed the minting window (PoW only; always
    /// `0` on the strategic pipeline, which mints idealized good IDs).
    pub good_misses: Option<usize>,
    /// Protocol messages whose delivery tick fell past the phase-window
    /// deadline this epoch (`tg_sim::net::NetStats::late`, as a
    /// per-epoch delta). Always `0` under `RuntimeChoice::Sync` —
    /// there is no network — and under the actor runtime's perfect
    /// transport, which keeps the sync/actor observation equivalence
    /// exact.
    pub late: u64,
}

impl EpochObservation {
    /// Captured groups as a fraction of all groups (the frontier
    /// engines' cell metric).
    pub fn captured_frac(&self) -> f64 {
        self.captured_groups as f64 / self.total_groups.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use crate::dynamic::provider::UniformProvider;
    use crate::dynamic::{BuildMode, DynamicSystem};
    use crate::params::Params;
    use tg_overlay::GraphKind;

    fn small_system(mode: BuildMode, seed: u64) -> (DynamicSystem, UniformProvider) {
        let mut params = Params::paper_defaults();
        params.attack_requests_per_id = 1;
        // Gentler churn than the worst-case bound keeps the small-n test
        // fast and stable.
        params.churn_rate = 0.1;
        let mut provider = UniformProvider { n_good: 380, n_bad: 20 };
        let sys = DynamicSystem::new(params, GraphKind::D2B, mode, &mut provider, seed);
        (sys, provider)
    }

    #[test]
    fn epochs_advance_and_swap() {
        let (mut sys, mut provider) = small_system(BuildMode::DualGraph, 1);
        assert_eq!(sys.epoch(), 1);
        let r = sys.advance_epoch(&mut provider);
        assert_eq!(r.epoch, 2);
        assert_eq!(sys.epoch(), 2);
        assert_eq!(sys.graphs().sides(), 2);
        // New leaders are a fresh generation.
        let r2 = sys.advance_epoch(&mut provider);
        assert_eq!(r2.epoch, 3);
    }

    #[test]
    fn dual_mode_stays_robust_over_epochs() {
        let (mut sys, mut provider) = small_system(BuildMode::DualGraph, 2);
        let reports = sys.run(&mut provider, 5);
        for r in &reports {
            assert!(
                r.search_success_dual > 0.85,
                "epoch {}: dual success {:.3}",
                r.epoch,
                r.search_success_dual
            );
            for (s, &fr) in r.frac_red.iter().enumerate() {
                assert!(fr < 0.15, "epoch {} side {s}: frac_red {fr:.3}", r.epoch);
            }
        }
        // No compounding: the last epoch is no worse than ~the first.
        let first = reports.first().unwrap().frac_red[0];
        let last = reports.last().unwrap().frac_red[0];
        assert!(last <= first + 0.1, "red fraction compounded: {first:.3} -> {last:.3}");
    }

    #[test]
    fn membership_state_is_small() {
        let (mut sys, mut provider) = small_system(BuildMode::DualGraph, 3);
        let r = sys.advance_epoch(&mut provider);
        // Each ID serves in O(log log n) groups per side in expectation
        // (Lemma 10): with draws ≈ 9 and two sides, the mean is ≈ 18–20
        // and the max is a small multiple.
        assert!(r.mean_memberships < 40.0, "mean memberships {:.1}", r.mean_memberships);
        assert!(r.max_memberships < 120, "max memberships {}", r.max_memberships);
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut a, mut pa) = small_system(BuildMode::DualGraph, 7);
        let (mut b, mut pb) = small_system(BuildMode::DualGraph, 7);
        let ra = a.advance_epoch(&mut pa);
        let rb = b.advance_epoch(&mut pb);
        assert_eq!(ra.frac_red, rb.frac_red);
        assert_eq!(ra.search_success_dual, rb.search_success_dual);
        assert_eq!(ra.build.captured_slots, rb.build.captured_slots);
    }

    #[test]
    fn single_graph_mode_runs() {
        let (mut sys, mut provider) = small_system(BuildMode::SingleGraph, 4);
        let r = sys.advance_epoch(&mut provider);
        assert_eq!(r.frac_red.len(), 1);
        assert_eq!(r.search_success_single, r.search_success_dual);
    }
}
