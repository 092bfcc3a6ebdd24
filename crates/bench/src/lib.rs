//! # tg-bench
//!
//! Criterion benchmarks, one target per reproduced table/figure family
//! (see DESIGN.md §5). The benches time the *generating kernels* of each
//! experiment — group-graph construction, secure search, epoch
//! construction, puzzle attempts, string propagation, cuckoo events —
//! so regressions in the reproduction pipeline are caught and the cost
//! claims of Corollary 1 are visible as wall-clock too.
//!
//! Run with `cargo bench --workspace`; shared fixtures live here. The
//! machine-readable, baselined numbers come from the repository
//! benchmark (`benchmark/`, `BENCHMARK.json`), not from this crate.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tg_core::{build_initial_graph, GroupGraph, Params, Population};
use tg_crypto::OracleFamily;
use tg_overlay::GraphKind;

/// A standard benchmark fixture: a group graph with `n` total IDs at
/// β = 0.05 over the given topology.
pub fn fixture(n: usize, kind: GraphKind, seed: u64) -> (GroupGraph, Params) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_bad = n / 20;
    let pop = Population::uniform(n - n_bad, n_bad, &mut rng);
    let params = Params::paper_defaults();
    let gg = build_initial_graph(pop, kind, OracleFamily::new(seed).h1, &params);
    (gg, params)
}

/// The `Θ(log n)` baseline fixture over the same population shape.
pub fn fixture_logn(n: usize, kind: GraphKind, seed: u64) -> (GroupGraph, Params) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_bad = n / 20;
    let pop = Population::uniform(n - n_bad, n_bad, &mut rng);
    let params = Params::paper_defaults().with_classic_groups(1.5);
    let gg = build_initial_graph(pop, kind, OracleFamily::new(seed).h1, &params);
    (gg, params)
}
