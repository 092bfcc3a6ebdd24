//! The actor runtime's epoch schedule is observation-free.
//!
//! Below `FAN_OUT_MIN_IDS` identities an epoch over a network runs its
//! routing-probe phase beside the build and measurement, on the pool's
//! spare thread; inside a sweep worker (or with one CPU) the probe runs
//! after them. The probe touches nothing the build reads, so both
//! schedules must report the same epochs, over both transports and
//! through every pipeline that carries a network: the no-PoW
//! `DynamicDriver`, and `FullSystem`'s statistical (honest) and
//! strategic (gap-filling) minting.

use tg_core::scenario::{
    Defense, MintScheme, RuntimeChoice, ScenarioSpec, StrategySpec, TransportChoice,
};
use tg_sim::parallel_map;

const EPOCHS: usize = 4;

/// `n = 300` over a lossy, slow, partitioned network.
fn spec(defense: Defense, strategy: StrategySpec, transport: TransportChoice) -> ScenarioSpec {
    ScenarioSpec::new(300, 5)
        .churn(0.2)
        .searches(400)
        .defense(defense)
        .strategy(strategy)
        .runtime(RuntimeChoice::Actor)
        .drop_rate(0.05)
        .latency(8)
        .partition(16)
        .transport(transport)
}

/// `EPOCHS` observations of `spec`, as one string.
fn observe(spec: &ScenarioSpec) -> String {
    let mut driver = tg_pow::scenario::build(spec).expect("the spec builds");
    (0..EPOCHS).map(|_| format!("{:?}\n", driver.step())).collect()
}

/// Stepped on the test thread (the probe beside the build) and inside a
/// `parallel_map` worker (the probe after it), `spec` must report the
/// same epochs.
fn assert_schedules_agree(spec: &ScenarioSpec) {
    let beside = observe(spec);
    let mut serial = parallel_map(vec![true, false], |run| run.then(|| observe(spec)));
    let serial = serial.swap_remove(0).expect("the first item runs");
    assert_eq!(beside, serial, "{}", spec.label());
}

#[test]
fn probes_beside_the_build_change_no_observation() {
    let fg = Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true };
    for transport in [TransportChoice::Mem, TransportChoice::Socket] {
        assert_schedules_agree(&spec(Defense::NoPow, StrategySpec::Honest, transport));
        assert_schedules_agree(&spec(fg, StrategySpec::Honest, transport));
        assert_schedules_agree(&spec(fg, StrategySpec::GapFilling, transport));
    }
}
