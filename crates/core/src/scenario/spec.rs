//! The declarative half of the scenario API: [`ScenarioSpec`], the axis
//! enums it is made of, its builder methods, and [`ScenarioError`].
//! Pure data — the string forms live in [`super::codec`], the systems a
//! spec builds in [`super::driver`].

use crate::dynamic::build::BuildMode;
use crate::dynamic::kernel::KernelChoice;
use crate::params::Params;
use crate::runtime::RuntimeChoice;
use tg_overlay::GraphKind;
use tg_sim::net::{FaultPlan, TransportChoice};

/// Which minting scheme a PoW pipeline runs (§IV-A). Lives here (rather
/// than in `tg-pow`, which re-exports it) so the defense axis of a
/// [`ScenarioSpec`] is expressible without the minting crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MintScheme {
    /// The paper's two-hash composition: minted IDs are u.a.r.
    /// regardless of the solver's σ choice (Lemma 11).
    TwoHash,
    /// The single-hash variant (`ID = σ` when `g(σ) ≤ τ`): the solver
    /// chooses the ID's location, so placement strategies go through.
    SingleHash,
}

impl MintScheme {
    /// Stable label for tables.
    pub fn name(&self) -> &'static str {
        match self {
            MintScheme::TwoHash => "f∘g",
            MintScheme::SingleHash => "single-hash",
        }
    }
}

/// The identity-pipeline defense of a scenario (the frontier's defense
/// column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Defense {
    /// No PoW: chosen ID values go straight into the dynamic layer.
    NoPow,
    /// Puzzle minting under the given scheme. `fresh_strings: false`
    /// freezes minting to the genesis string — the §IV-B defense
    /// disabled.
    Pow {
        /// Minting scheme (placement realized vs discarded).
        scheme: MintScheme,
        /// Whether minting binds to a freshly agreed string each epoch.
        fresh_strings: bool,
    },
}

/// Where a PoW scenario's epoch strings come from. Irrelevant (and
/// ignored) under [`Defense::NoPow`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StringMode {
    /// The real Appendix VIII protocol runs over the operational graphs
    /// each epoch and minting binds to the agreed string (`tg-pow`'s
    /// `FullSystem`).
    Protocol,
    /// A synthesized per-epoch string stands in for the protocol (the
    /// provider-level shortcut the E10 sweep uses: same fresh-vs-frozen
    /// policy, no string-agreement simulation).
    Synthesized,
}

/// The adversary's placement policy, as declarative data (the runtime
/// [`AdversaryStrategy`](crate::dynamic::adversary::AdversaryStrategy)
/// objects are built from this).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StrategySpec {
    /// No adversary strategy at all: the whole population (good and bad)
    /// follows the honest minting model
    /// ([`UniformProvider`](crate::dynamic::provider::UniformProvider) — distinct
    /// from [`StrategySpec::Uniform`], whose bad IDs go through the
    /// strategy engine's dedup path and therefore draw differently).
    Honest,
    /// The paper's standing assumption: bad IDs u.a.r.
    Uniform,
    /// Midpoints of the widest good-ID gaps.
    GapFilling,
    /// Concentrate on the arc ending at a victim key.
    IntervalTargeting {
        /// The victim key, as a ring fraction in `[0, 1)`.
        victim: f64,
        /// Width of the claimed arc, as a ring fraction.
        width: f64,
    },
    /// End-on gap claims whenever near-tied groups are observed.
    AdaptiveMajorityFlipper {
        /// Near-tie margin (members short of losing a good majority).
        margin: usize,
    },
    /// Camouflage in quiet epochs, full-budget end-on strike right
    /// after heavy good-ID departure.
    ChurnTimed {
        /// Observed departure fraction that triggers the strike.
        trigger: f64,
        /// Budget fraction spent uniformly in quiet epochs.
        retainer: f64,
    },
    /// Grind real puzzles each epoch and present the whole hoard
    /// (§IV-B). Needs the PoW layer — buildable only through
    /// `tg_pow::scenario::build`.
    PrecomputeHoarder {
        /// Seed of the oracle family the hoarder grinds with.
        fam_seed: u64,
        /// Grinding budget per epoch, in puzzle attempts.
        attempts: u64,
    },
}

impl StrategySpec {
    /// Stable strategy name for tables (the E10/E11/E12 sweep labels).
    pub fn name(&self) -> &'static str {
        match self {
            StrategySpec::Honest => "honest",
            StrategySpec::Uniform => "uniform",
            StrategySpec::GapFilling => "gap-filling",
            StrategySpec::IntervalTargeting { .. } => "interval-targeting",
            StrategySpec::AdaptiveMajorityFlipper { .. } => "adaptive-majority-flipper",
            StrategySpec::ChurnTimed { .. } => "churn-timed",
            StrategySpec::PrecomputeHoarder { .. } => "precompute-hoarder",
        }
    }
}

/// The string-layer adversary of a PoW scenario — what the adversary
/// does with its (genuinely computed) strings in `tg_pow`'s
/// `run_string_protocol`, which takes this very type (re-exported there
/// as `tg_pow::StringAdversary`). Living in the spec makes the §IV-B
/// attacks addressable through the codec — sweepable, storable, and
/// round-trippable like every other axis.
///
/// Codec key: `stradv=` (the natural name `strings=` is taken by
/// [`StringMode`], the string-*source* axis; the two are orthogonal —
/// source says where epoch strings come from, adversary says who
/// tampers with their release).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum StringAdversarySpec {
    /// No adversarial strings (the default).
    #[default]
    None,
    /// Compute `strings` strings with its `βn` budget and release them
    /// from red groups at `release_frac` of the Phase 2+3 timeline
    /// (0.5 = the last moment of Phase 2 — the hardest instant).
    ///
    /// Note the honest-compute reality (measured by E7): with a small
    /// `β`, the adversary's best outputs are usually *worse* than the
    /// good global minimum, so its strings are not record-breakers and
    /// barely propagate — the attack has teeth only in its lucky tail.
    DelayedRelease {
        /// Number of small-output strings released.
        strings: usize,
        /// Release time as a fraction of the flooding timeline.
        release_frac: f64,
        /// Adversary compute in units (for output-magnitude sampling).
        units: f64,
    },
    /// The worst case Lemma 12 must survive: the adversary got lucky and
    /// holds `strings` strings whose outputs beat the good global
    /// minimum. Released at `release_frac` like `DelayedRelease`. A
    /// release at the last Phase-2 step makes them some nodes' `s^{i*}`
    /// with minimal time left to spread.
    ForcedRecords {
        /// Number of record-beating strings released.
        strings: usize,
        /// Release time as a fraction of the flooding timeline.
        release_frac: f64,
    },
}

/// Everything that defines one simulated scenario. See the module docs
/// for the shape of the API; see [`ScenarioSpec::new`] for defaults.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Construction constants (β, δ, d₁/d₂, size rule, churn, the
    /// join-request attack intensity, link retries).
    pub params: Params,
    /// Input-graph topology family.
    pub kind: GraphKind,
    /// Dual-graph (paper) or single-graph (ablation) construction.
    pub mode: BuildMode,
    /// Identity-pipeline defense in force.
    pub defense: Defense,
    /// Epoch-string source under PoW (ignored for [`Defense::NoPow`]).
    pub strings: StringMode,
    /// The adversary's placement policy.
    pub strategy: StrategySpec,
    /// Good IDs per epoch.
    pub n_good: usize,
    /// The adversary's identity budget per epoch (`≈ βn`; under PoW this
    /// is its compute in units, one expected solution per unit per
    /// window).
    pub n_bad: usize,
    /// Idealized good minting (paper assumption) vs realistic
    /// missed-window losses — PoW statistical pipeline only.
    pub idealized_good: bool,
    /// Robustness searches sampled per epoch.
    pub searches: usize,
    /// Master seed; every labelled RNG stream of the run derives from
    /// it.
    pub seed: u64,
    /// The retired `kernel=` codec token. It selects nothing: the epoch
    /// picks its own schedule from its size
    /// ([`crate::dynamic::kernel`]). It is kept so that labels carrying
    /// it, which are store keys, still parse and re-encode unchanged.
    pub kernel: KernelChoice,
    /// Whether the driver carries a network: none — one synchronous
    /// in-process step per epoch ([`RuntimeChoice::Sync`], the
    /// conformance oracle) — or per-node actors over an injectable
    /// transport ([`RuntimeChoice::Actor`]). Over a perfect transport
    /// both produce identical observations.
    pub runtime: RuntimeChoice,
    /// Fault plan for the actor runtime's transport (drops, latency,
    /// partitions — all seeded, see `tg_sim::net`). Ignored under
    /// [`RuntimeChoice::Sync`]. Three codec keys: `drop=`, `lat=`,
    /// `part=`.
    pub faults: FaultPlan,
    /// Which transport implementation carries the actor runtime's
    /// messages: the deterministic in-memory network or real loopback
    /// TCP sockets. `transport=socket` requires
    /// [`RuntimeChoice::Actor`] — the combination with `runtime=sync`
    /// is rejected at parse/build time
    /// ([`ScenarioError::NeedsActorRuntime`]).
    pub transport: TransportChoice,
    /// Pin the actor runtime's phase-window deadline to exactly this
    /// many ticks instead of adapting it to observed latency. `None`
    /// (the default) selects the adaptive window.
    pub window: Option<u64>,
    /// The string-layer adversary (§IV-B hoarding attacks). Applied by
    /// `tg_pow::scenario::build` when the spec runs the real string
    /// protocol; inert under [`Defense::NoPow`]. Codec key `stradv=`.
    pub string_adversary: StringAdversarySpec,
}

impl ScenarioSpec {
    /// A scenario with the paper's defaults: honest identities, no PoW,
    /// Chord topology, dual-graph construction, `Params::paper_defaults`
    /// (β = 0.05 — `n_bad` is derived as `round(β/(1−β)·n_good)`), 400
    /// searches per epoch.
    pub fn new(n_good: usize, seed: u64) -> ScenarioSpec {
        let params = Params::paper_defaults();
        ScenarioSpec {
            params,
            kind: GraphKind::Chord,
            mode: BuildMode::DualGraph,
            defense: Defense::NoPow,
            strings: StringMode::Protocol,
            strategy: StrategySpec::Honest,
            n_good,
            n_bad: budget_for(params.beta, n_good),
            idealized_good: true,
            searches: 400,
            seed,
            kernel: KernelChoice::default(),
            runtime: RuntimeChoice::default(),
            faults: FaultPlan::default(),
            transport: TransportChoice::default(),
            window: None,
            string_adversary: StringAdversarySpec::default(),
        }
    }

    /// Set β and re-derive the adversary budget from it.
    pub fn beta(mut self, beta: f64) -> Self {
        self.params.beta = beta;
        self.n_bad = budget_for(beta, self.n_good);
        self
    }

    /// Set the adversary budget explicitly (overrides the β-derived
    /// count).
    pub fn budget(mut self, n_bad: usize) -> Self {
        self.n_bad = n_bad;
        self
    }

    /// Set the group-size factor `d₂` (and `d₁ = d₂/2`, the sweep
    /// convention).
    pub fn group_factor(mut self, d2: f64) -> Self {
        self.params.d2 = d2;
        self.params.d1 = d2 / 2.0;
        self
    }

    /// Set the per-epoch good-departure fraction.
    pub fn churn(mut self, churn: f64) -> Self {
        self.params.churn_rate = churn;
        self
    }

    /// Set the join-request attack intensity (Lemma 10's state attack).
    pub fn attack_requests(mut self, per_id: usize) -> Self {
        self.params.attack_requests_per_id = per_id;
        self
    }

    /// Set the link-update retry budget (E4's ablation knob).
    pub fn link_retries(mut self, retries: usize) -> Self {
        self.params.link_retries = retries;
        self
    }

    /// Replace the construction parameters wholesale.
    pub fn params(mut self, params: Params) -> Self {
        self.params = params;
        self
    }

    /// Set the input-graph topology family.
    pub fn topology(mut self, kind: GraphKind) -> Self {
        self.kind = kind;
        self
    }

    /// Set dual-graph vs single-graph construction.
    pub fn build_mode(mut self, mode: BuildMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the identity-pipeline defense.
    pub fn defense(mut self, defense: Defense) -> Self {
        self.defense = defense;
        self
    }

    /// Set the epoch-string source under PoW.
    pub fn strings(mut self, strings: StringMode) -> Self {
        self.strings = strings;
        self
    }

    /// Set the adversary's placement policy.
    pub fn strategy(mut self, strategy: StrategySpec) -> Self {
        self.strategy = strategy;
        self
    }

    /// Set the robustness searches sampled per epoch.
    pub fn searches(mut self, searches: usize) -> Self {
        self.searches = searches;
        self
    }

    /// Set idealized vs realistic good minting (PoW statistical
    /// pipeline).
    pub fn idealized(mut self, idealized_good: bool) -> Self {
        self.idealized_good = idealized_good;
        self
    }

    /// Select the epoch runtime (synchronous in-process vs per-node
    /// actors over a transport).
    pub fn runtime(mut self, runtime: RuntimeChoice) -> Self {
        self.runtime = runtime;
        self
    }

    /// Replace the transport fault plan wholesale.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Set the transport's per-message drop probability.
    pub fn drop_rate(mut self, drop_rate: f64) -> Self {
        self.faults.drop_rate = drop_rate;
        self
    }

    /// Set the transport's maximum per-message latency (ticks).
    pub fn latency(mut self, latency_max: u64) -> Self {
        self.faults.latency_max = latency_max;
        self
    }

    /// Set the per-phase partition window (ticks).
    pub fn partition(mut self, partition_ticks: u64) -> Self {
        self.faults.partition_ticks = partition_ticks;
        self
    }

    /// Select the transport implementation (in-memory vs loopback TCP).
    /// `transport=socket` needs [`RuntimeChoice::Actor`]; the build
    /// rejects the sync combination.
    pub fn transport(mut self, transport: TransportChoice) -> Self {
        self.transport = transport;
        self
    }

    /// Pin the actor runtime's phase-window deadline (ticks) instead of
    /// adapting it to observed latency.
    pub fn window(mut self, ticks: u64) -> Self {
        self.window = Some(ticks);
        self
    }

    /// Set the string-layer adversary (§IV-B hoarding attacks).
    pub fn string_adversary(mut self, adversary: StringAdversarySpec) -> Self {
        self.string_adversary = adversary;
        self
    }

    /// Reject what no driver can run: an empty population (there is no
    /// ring to build an overlay over), one whose identities a ring's
    /// `u32` indices cannot address, a churn rate that is not a
    /// fraction of the good IDs, a size rule, retry count or attack
    /// request count past 65 536, more than 2²⁰ robustness searches
    /// (far above any sweep; the kernels' sizing arithmetic overflows
    /// near `usize::MAX`, and the searches are pre-drawn into one
    /// buffer), a hoarder grinding more than 2²⁴ attempts per epoch (it
    /// keeps every solution), a string adversary whose strings the flood
    /// cannot rank (negative or non-finite compute `units`, or more than
    /// 65 536 strings), and axis combinations no transport can
    /// serve — a socket transport without an actor runtime has nobody
    /// to move bytes for. Called by every builder (core and `tg_pow`)
    /// *and* by the codec, so none is representable from any entry
    /// point.
    pub fn check_transport(&self) -> Result<(), ScenarioError> {
        if self.n_good == 0 && self.n_bad == 0 {
            return Err(ScenarioError::Unsupported("an empty population: n and bad are both 0"));
        }
        if self.n_good.checked_add(self.n_bad).is_none_or(|n| n > MAX_POPULATION) {
            return Err(ScenarioError::Unsupported(
                "a population past 2^32 - 2 identities (n + bad)",
            ));
        }
        if !(0.0..=1.0).contains(&self.params.churn_rate) {
            return Err(ScenarioError::Unsupported("a churn rate outside [0, 1]"));
        }
        // `draws` is monotone in `n`, so the largest `n` bounds every epoch.
        if self.params.draws(usize::MAX) > MAX_DRAWS {
            return Err(ScenarioError::Unsupported("a size rule drawing more than 65536 members"));
        }
        if self.params.link_retries > MAX_LINK_RETRIES {
            return Err(ScenarioError::Unsupported("more than 65536 link retries"));
        }
        if self.params.attack_requests_per_id > MAX_ATTACK_REQUESTS {
            return Err(ScenarioError::Unsupported("more than 65536 attack requests per identity"));
        }
        if self.searches > MAX_SEARCHES {
            return Err(ScenarioError::Unsupported("more than 2^20 searches per epoch"));
        }
        if let StrategySpec::PrecomputeHoarder { attempts, .. } = self.strategy {
            if attempts > MAX_HOARDER_ATTEMPTS {
                return Err(ScenarioError::Unsupported("a hoarder grinding past 2^24 attempts"));
            }
        }
        let (strings, units) = match self.string_adversary {
            StringAdversarySpec::None => (0, 0.0),
            StringAdversarySpec::DelayedRelease { strings, units, .. } => (strings, units),
            StringAdversarySpec::ForcedRecords { strings, .. } => (strings, 0.0),
        };
        if !(units.is_finite() && units >= 0.0) {
            return Err(ScenarioError::Unsupported(
                "a string adversary with negative or non-finite compute units",
            ));
        }
        if strings > MAX_ADVERSARY_STRINGS {
            return Err(ScenarioError::Unsupported("more than 65536 adversary strings"));
        }
        if self.transport == TransportChoice::Socket && self.runtime != RuntimeChoice::Actor {
            return Err(ScenarioError::NeedsActorRuntime(
                "transport=socket moves actor protocol messages; pair it with runtime=actor",
            ));
        }
        Ok(())
    }
}

/// Most membership draws per group a spec may ask for under any size
/// rule (`d2=`, `rule=classic:c`, `rule=fixed:k`). Three orders of
/// magnitude above the largest group any sweep builds (`classic-logn`
/// at n = 10⁶ draws ≈ 28), and small enough that the kernels' `draws + 1`
/// and `n · draws` sizing cannot overflow for any ring whose member
/// indices fit the `u32` columns.
const MAX_DRAWS: usize = 1 << 16;

/// Most link retries (`retries=`) a spec may ask for; sweeps use 0–4.
/// Keeps `1 + retries` from overflowing and a link that can never be
/// established from retrying forever.
const MAX_LINK_RETRIES: usize = 1 << 16;

/// Most spurious membership requests per good identity (`attack=`); e5
/// uses at most 16. Keeps `good IDs · requests` from overflowing.
const MAX_ATTACK_REQUESTS: usize = 1 << 16;

/// Most robustness searches per epoch (`searches=`), each measurement
/// pre-drawn into one buffer; the largest in use is 2 000.
const MAX_SEARCHES: usize = 1 << 20;

/// Most puzzle attempts a `precompute-hoarder` may grind per epoch; it
/// runs every one and keeps every solution it finds. The largest budget
/// in use is e11 `--full`'s β = 0.45 cell, ≈ 1 636 / 0.02 ≈ 8.2·10⁴
/// attempts, so the cap leaves ≈ 200× headroom.
const MAX_HOARDER_ATTEMPTS: u64 = 1 << 24;

/// Most identities a spec may ask for (`n + bad`): every ring indexes its
/// IDs with `u32`s (`SortedRing` holds fewer than `u32::MAX`). The
/// largest population in use is 10⁶.
const MAX_POPULATION: usize = u32::MAX as usize - 1;

/// Most strings a string adversary (`stradv=`) may release; E7 uses 8.
/// The flood ranks every string in a `u32`, and pushes one injection
/// per adversary string.
const MAX_ADVERSARY_STRINGS: usize = 1 << 16;

/// `round(β/(1−β) · n_good)` — the adversary budget every sweep derives
/// from β (bad IDs are a β-fraction of the *total* population).
pub fn budget_for(beta: f64, n_good: usize) -> usize {
    (beta / (1.0 - beta) * n_good as f64).round() as usize
}

/// Why a scenario could not be built or parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScenarioError {
    /// The spec needs `tg-pow` (use `tg_pow::scenario::build`).
    NeedsPowLayer(&'static str),
    /// The spec selects a transport that only the actor runtime can
    /// drive (`transport=socket` with `runtime=sync`). Caught at
    /// parse/build time so no run ever starts on an unserviceable
    /// network.
    NeedsActorRuntime(&'static str),
    /// The spec combines axes no driver implements (e.g. the real
    /// string protocol over a single-graph construction), names an
    /// empty population, a churn rate outside `[0, 1]`, a group size,
    /// retry count, attack request count, search count or string
    /// adversary past the supported bounds.
    Unsupported(&'static str),
    /// A label/JSON form did not decode.
    Parse(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::NeedsPowLayer(why) => {
                write!(f, "scenario needs the PoW layer ({why}); build it via tg_pow::scenario")
            }
            ScenarioError::NeedsActorRuntime(why) => {
                write!(f, "scenario needs the actor runtime ({why})")
            }
            ScenarioError::Unsupported(why) => write!(f, "unsupported scenario: {why}"),
            ScenarioError::Parse(msg) => write!(f, "scenario parse error: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}
