//! The complete paper, one epoch at a time.
//!
//! ```text
//! cargo run --release --example full_system
//! ```
//!
//! Drives [`FullSystem`]: every epoch the network agrees on a fresh
//! random string (Appendix VIII), all participants mint new identities
//! against it (§IV), and the two group graphs rebuild themselves through
//! the old pair (§III) — with a string-release adversary, realistic
//! honest-miner misses, and churn, all at once.

use tiny_groups::core::{EpochDriver, Params};
use tiny_groups::overlay::GraphKind;
use tiny_groups::pow::{FullSystem, PuzzleParams, StringAdversary, StringParams};

fn main() {
    let mut params = Params::paper_defaults();
    params.churn_rate = 0.15;
    params.attack_requests_per_id = 2;

    let mut sys = FullSystem::new(
        params,
        GraphKind::Chord,
        PuzzleParams::calibrated(16, 2048),
        StringParams::default(),
        1200, // good participants
        60.0, // adversary compute units (β = 5%)
        true, // idealized good minting (set false for 1/e misses)
        2026,
    );
    sys.string_adversary = StringAdversary::ForcedRecords { strings: 4, release_frac: 0.49 };
    sys.dynamics.set_searches_per_epoch(400);

    println!("epoch  string      agree  minted(good/bad)  red%   search(dual)");
    for _ in 0..6 {
        let r = sys.step();
        println!(
            "{:>5}  {:016x}  {:>5}  {:>7}/{:<6} {:>5.2}  {:>10.1}%",
            r.epoch,
            r.epoch_string.unwrap(),
            r.strings_agreement.unwrap(),
            r.minted_good.unwrap(),
            r.bad_ids,
            100.0 * r.frac_red[0],
            100.0 * r.search_success_dual,
        );
    }
    println!("\nEach line is one epoch of the full pipeline: string agreement under a");
    println!("worst-case delayed release, fresh PoW identities (adversary held to ≈ βn,");
    println!("all u.a.r.), and a complete rebuild of both group graphs through dual");
    println!("searches — with Θ(log log n) groups throughout.");
}
