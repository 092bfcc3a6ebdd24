//! The driving half of the scenario API: the [`EpochDriver`] trait, the
//! no-PoW [`DynamicDriver`], and the core-layer builders that turn a
//! [`ScenarioSpec`] into one.

use super::observation::ObsRow;
use super::spec::{Defense, ScenarioError, ScenarioSpec, StrategySpec};
use crate::dynamic::adversary::{
    AdaptiveMajorityFlipper, AdversaryStrategy, ChurnTimed, GapFilling, IntervalTargeting,
    StrategicProvider, Uniform,
};
use crate::dynamic::provider::{Census, IdentityProvider, UniformProvider};
use crate::dynamic::{DynamicSystem, EpochObservation};
use crate::graph::GraphsView;
use crate::runtime::{build_epoch, EpochNet, NetFilter};
use tg_idspace::Id;

/// The one verb every simulated system understands: advance one epoch,
/// observe it. `ScenarioSpec::build` (or `tg_pow::scenario::build`)
/// erases which concrete system sits behind the trait.
pub trait EpochDriver {
    /// Advance one epoch. The returned observation is the record the
    /// epoch system returned, held by the driver until the next call.
    fn step(&mut self) -> &EpochObservation;

    /// The last observation (all-zero before the first
    /// [`EpochDriver::step`]).
    fn observation(&self) -> &EpochObservation;

    /// The operational group graphs (for measurements the observation
    /// does not pre-aggregate, e.g. victim-arc probes).
    fn graphs(&self) -> GraphsView<'_>;

    /// The epoch the operational graphs serve.
    fn epoch(&self) -> u64;

    /// Advance `epochs` epochs and return one [`ObsRow`] per epoch, in
    /// epoch order — the sweep-loop entry point.
    fn run(&mut self, epochs: usize) -> Vec<ObsRow> {
        (0..epochs).map(|_| ObsRow::of(self.step())).collect()
    }
}

/// The [`EpochDriver`] over the §III dynamic layer alone
/// ([`Defense::NoPow`], or any minting pipeline composed as a provider),
/// with the membership and probe phases optionally routed over a
/// network.
pub struct DynamicDriver {
    sys: DynamicSystem,
    provider: Census<Box<dyn IdentityProvider>>,
    /// The actor-runtime network; `None` under [`RuntimeChoice::Sync`](crate::runtime::RuntimeChoice::Sync).
    net: Option<EpochNet>,
    obs: EpochObservation,
}

impl DynamicDriver {
    /// Build the driver for `spec` around an explicit identity provider
    /// (how `tg_pow::scenario` composes minting providers with this
    /// driver; core-only callers should use [`ScenarioSpec::build`]).
    /// The spec's `runtime` knob decides whether the driver carries a
    /// network; the genesis build is trusted bootstrap either way.
    pub fn with_provider(spec: &ScenarioSpec, inner: Box<dyn IdentityProvider>) -> DynamicDriver {
        let mut provider = Census::new(inner);
        let mut sys =
            DynamicSystem::new(spec.params, spec.kind, spec.mode, &mut provider, spec.seed);
        sys.set_searches_per_epoch(spec.searches);
        DynamicDriver {
            sys,
            provider,
            net: EpochNet::for_runtime(spec),
            obs: EpochObservation::default(),
        }
    }
}

impl EpochDriver for DynamicDriver {
    fn step(&mut self) -> &EpochObservation {
        // Census inside the net filter: `bad_ids`/`bad_share` are taken
        // before the network drops good announcements. That order is
        // pinned by the goldens and `benchmark/expected/net_faulty.sha256`.
        let mut filtered = NetFilter { inner: &mut self.provider, net: self.net.as_mut() };
        let minted = self.sys.mint_epoch(&mut filtered);
        self.obs = build_epoch(&mut self.sys, minted, self.net.as_mut());
        self.obs.bad_ids = self.provider.bad;
        self.obs.bad_share = self.provider.bad_share;
        &self.obs
    }

    fn observation(&self) -> &EpochObservation {
        &self.obs
    }

    fn graphs(&self) -> GraphsView<'_> {
        self.sys.graphs()
    }

    fn epoch(&self) -> u64 {
        self.sys.epoch()
    }
}

impl StrategySpec {
    /// Build the runtime strategy object, or `None` for the variants the
    /// core layer cannot construct ([`StrategySpec::Honest`] is a
    /// provider, not a strategy; the hoarder needs `tg-pow`).
    pub fn build_strategy(&self) -> Option<Box<dyn AdversaryStrategy>> {
        Some(match *self {
            StrategySpec::Honest | StrategySpec::PrecomputeHoarder { .. } => return None,
            StrategySpec::Uniform => Box::new(Uniform),
            StrategySpec::GapFilling => Box::new(GapFilling),
            StrategySpec::IntervalTargeting { victim, width } => {
                Box::new(IntervalTargeting { victim: Id::from_f64(victim), width })
            }
            StrategySpec::AdaptiveMajorityFlipper { margin } => {
                Box::new(AdaptiveMajorityFlipper { margin })
            }
            StrategySpec::ChurnTimed { trigger, retainer } => {
                Box::new(ChurnTimed { trigger, retainer })
            }
        })
    }
}

impl ScenarioSpec {
    /// Build the scenario's driver, for every spec the core layer can
    /// express ([`Defense::NoPow`] with a non-PoW strategy).
    ///
    /// Specs that need the minting pipeline return
    /// [`ScenarioError::NeedsPowLayer`]; build those through the total
    /// builder, `tg_pow::scenario::build`.
    pub fn build(&self) -> Result<Box<dyn EpochDriver>, ScenarioError> {
        self.check_transport()?;
        if self.defense != Defense::NoPow {
            return Err(ScenarioError::NeedsPowLayer("the defense mints through puzzles"));
        }
        let inner: Box<dyn IdentityProvider> = match self.strategy {
            StrategySpec::Honest => {
                Box::new(UniformProvider { n_good: self.n_good, n_bad: self.n_bad })
            }
            StrategySpec::PrecomputeHoarder { .. } => {
                return Err(ScenarioError::NeedsPowLayer("the hoarder grinds real puzzles"));
            }
            _ => {
                let strategy = self.strategy.build_strategy().expect("non-PoW strategy");
                Box::new(StrategicProvider::boxed(self.n_good, self.n_bad, strategy))
            }
        };
        Ok(Box::new(DynamicDriver::with_provider(self, inner)))
    }
}
