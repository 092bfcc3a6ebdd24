//! **E3 — the Corollary 1 cost comparison.**
//!
//! For each `n`, build the tiny-groups construction and the `Θ(log n)`
//! baseline over the same population and measure:
//!
//! * **group communication** — messages for one Byzantine-agreement run
//!   (Phase King) inside an average-size group: `Θ(|G|²)` per round, so
//!   `Θ((log log n)²)` vs `Θ(log²n)`,
//! * **secure routing** — all-to-all messages per search:
//!   `O(D·|G|²)`,
//! * **state** — entries a good ID tracks: co-members of its groups plus
//!   members of neighboring groups,
//! * plus the single-ID strawman's success rate (cheap and broken —
//!   §I-A's "not trivial" argument).
//!
//! Paper shape: tiny-group costs grow like `poly(log log n)` — nearly
//! flat — while the baseline grows like `log²n`; the ratio widens with
//! `n`.

use crate::args::Options;
use crate::table::{f, Table};
use tg_ba::{phase_king, AdversaryMode};
use tg_baselines::measure_single_id_routing;
use tg_core::{
    build_initial_graph, measure_robustness, GroupGraph, GroupGraphView, Params, Population,
};
use tg_crypto::OracleFamily;
use tg_overlay::GraphKind;
use tg_sim::stream_rng;

/// Mean state entries per good ID: co-members of every group the ID
/// belongs to, plus members of the leader's neighboring groups.
fn mean_state_per_id(gg: &GroupGraph) -> f64 {
    let pool_len = gg.pool.len();
    let mut membership_state = vec![0usize; pool_len];
    for gi in 0..gg.len() {
        let size = gg.group_size(gi);
        for &m in gg.group_members(gi) {
            membership_state[m as usize] += size.saturating_sub(1);
        }
    }
    let mut link_state = vec![0usize; gg.len()];
    for (w, state) in link_state.iter_mut().enumerate() {
        for u in gg.topology.neighbor_indices(w) {
            *state += gg.group_size(u);
        }
    }
    // Leaders and pool share the ring in static builds: combine.
    let good: Vec<usize> = (0..pool_len).filter(|&i| !gg.pool.is_bad(i)).collect();
    let total: usize = good.iter().map(|&i| membership_state[i] + link_state[i]).sum();
    total as f64 / good.len().max(1) as f64
}

/// Costs for one construction.
struct Costs {
    group_size: f64,
    ba_msgs: u64,
    routing_msgs: f64,
    hops: f64,
    state: f64,
    success: f64,
}

fn measure(gg: &GroupGraph, params: &Params, searches: usize, seed: u64) -> Costs {
    let mut rng = stream_rng(seed, "e3-measure", gg.len() as u64);
    let rep = measure_robustness(gg, params, searches, &mut rng);
    let m = rep.mean_group_size.round().max(1.0) as usize;
    let ba = phase_king(&vec![1u64; m], &vec![false; m], AdversaryMode::Honest);
    Costs {
        group_size: rep.mean_group_size,
        ba_msgs: ba.msgs,
        routing_msgs: rep.mean_msgs,
        hops: rep.mean_hops,
        state: mean_state_per_id(gg),
        success: rep.search_success,
    }
}

/// Run E3 and return the result table.
pub fn run(opts: &Options) -> Table {
    let ns: Vec<usize> = if opts.full {
        vec![1 << 10, 1 << 12, 1 << 14, 1 << 16]
    } else {
        vec![1 << 10, 1 << 12, 1 << 14]
    };
    let beta = 0.05;
    let searches = if opts.full { 1500 } else { 600 };

    let mut table = Table::new(
        "e3_costs",
        &["n", "scheme", "|G|", "ba_msgs", "route_msgs", "hops", "state_per_id", "search_success"],
    );

    for &n in &ns {
        let mut rng = stream_rng(opts.seed, "e3-pop", n as u64);
        let n_bad = (n as f64 * beta).round() as usize;
        let pop = Population::uniform(n - n_bad, n_bad, &mut rng);
        let fam = OracleFamily::new(opts.seed ^ n as u64);

        // Tiny groups (the paper) on a constant-degree graph — the
        // configuration Corollary 1 is stated for.
        let tiny_params = Params::paper_defaults();
        let tiny = build_initial_graph(pop.clone(), GraphKind::D2B, fam.h1, &tiny_params);
        let c = measure(&tiny, &tiny_params, searches, opts.seed);
        table.push(vec![
            n.to_string(),
            "tiny-loglog".into(),
            f(c.group_size),
            c.ba_msgs.to_string(),
            f(c.routing_msgs),
            f(c.hops),
            f(c.state),
            f(c.success),
        ]);

        // The Θ(log n) baseline.
        let base_params = Params::paper_defaults().with_classic_groups(1.5);
        let base = build_initial_graph(pop.clone(), GraphKind::D2B, fam.h1, &base_params);
        let c = measure(&base, &base_params, searches, opts.seed);
        table.push(vec![
            n.to_string(),
            "classic-logn".into(),
            f(c.group_size),
            c.ba_msgs.to_string(),
            f(c.routing_msgs),
            f(c.hops),
            f(c.state),
            f(c.success),
        ]);

        // The single-ID strawman.
        let graph = GraphKind::D2B.build(pop.ring().clone());
        let mut rng = stream_rng(opts.seed, "e3-single", n as u64);
        let s = measure_single_id_routing(&pop, graph.as_ref(), searches, &mut rng);
        table.push(vec![
            n.to_string(),
            "single-id".into(),
            "1".into(),
            "0".into(),
            f(s.mean_route_len),
            f(s.mean_route_len),
            "1".into(),
            f(s.success_rate),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_core::GroupGraphView;

    #[test]
    fn tiny_groups_cost_less_and_route_as_well() {
        let opts = Options { seed: 5, out_dir: "/tmp".into(), quiet: true, ..Options::default() };
        let mut rng = stream_rng(opts.seed, "e3-test", 0);
        let pop = Population::uniform(2000, 100, &mut rng);
        let fam = OracleFamily::new(9);
        let tiny_params = Params::paper_defaults();
        let tiny = build_initial_graph(pop.clone(), GraphKind::D2B, fam.h1, &tiny_params);
        let base_params = Params::paper_defaults().with_classic_groups(1.5);
        let base = build_initial_graph(pop, GraphKind::D2B, fam.h1, &base_params);
        let ct = measure(&tiny, &tiny_params, 300, 1);
        let cb = measure(&base, &base_params, 300, 1);
        assert!(ct.ba_msgs < cb.ba_msgs, "BA: {} vs {}", ct.ba_msgs, cb.ba_msgs);
        assert!(ct.routing_msgs < cb.routing_msgs);
        assert!(ct.state < cb.state);
        assert!(ct.success > 0.85, "tiny groups still route: {:.3}", ct.success);
    }

    #[test]
    fn state_metric_counts_comember_and_links() {
        let mut rng = stream_rng(1, "e3-test2", 0);
        let pop = Population::uniform(300, 0, &mut rng);
        let gg = build_initial_graph(
            pop,
            GraphKind::D2B,
            OracleFamily::new(2).h1,
            &Params::paper_defaults(),
        );
        let s = mean_state_per_id(&gg);
        let g = gg.mean_group_size();
        // Each ID belongs to ≈ |G| groups of size |G| and links to a few
        // neighbor groups: state = Θ(|G|²).
        assert!(s > 0.5 * g * g, "state {s:.1} vs |G|² ≈ {:.1}", g * g);
        assert!(s < 10.0 * g * g, "state {s:.1} vs |G|² ≈ {:.1}", g * g);
    }
}
