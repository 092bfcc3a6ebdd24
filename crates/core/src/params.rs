//! Tunable constants of the construction (§I-C, §III).

/// How many membership draws a group makes, as a function of `n`.
///
/// The paper's construction draws `d2·ln ln n` members per group
/// ([`GroupSizeRule::TinyLogLog`]); the prior-work baseline uses
/// `Θ(log n)` ([`GroupSizeRule::ClassicLog`]); `Fixed` supports
/// threshold-sweep experiments (E2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GroupSizeRule {
    /// The paper: `d2 · ln ln n` draws, good size range
    /// `[d1·ln ln n, d2·ln ln n]`.
    TinyLogLog,
    /// Prior work: `c · ln n` draws.
    ClassicLog {
        /// The constant `c` in `c · ln n`.
        c: f64,
    },
    /// A fixed number of draws, for sweeps.
    Fixed(usize),
}

/// All tunable constants of the construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Params {
    /// The adversary's fraction of computational power; "a sufficiently
    /// small positive constant less than 1/2" (§I-C).
    pub beta: f64,
    /// The slack `δ` in the good-group invariant: a group that starts
    /// with more than a `(1+δ)β` fraction of bad IDs is bad (§I-C).
    pub delta: f64,
    /// Lower group-size factor `d1` (good size ≥ `d1·ln ln n`).
    pub d1: f64,
    /// Upper group-size factor `d2` (draws = `d2·ln ln n`).
    pub d2: f64,
    /// Group-size rule (paper vs baseline vs sweep).
    pub size_rule: GroupSizeRule,
    /// Fraction of good member-pool IDs departing per epoch in dynamic
    /// runs. The paper allows up to `ε'/2` with `ε' = 1 − 2(1+δ)β`; the
    /// default uses exactly that bound.
    pub churn_rate: f64,
    /// Spurious membership/neighbor requests the adversary sends per good
    /// ID per epoch (the state attack of Lemma 10).
    pub attack_requests_per_id: usize,
    /// Additional dual-search attempts when locating/verifying a neighbor
    /// link. The paper's "Updating Links" re-runs the update on every
    /// relevant join event and only the *final* selection matters
    /// (Lemma 8's proof), so a link effectively gets many chances; we
    /// model a bounded number — how far apart those chances really are
    /// is stated on `dynamic::build`'s `establish_link`, the one place
    /// that spends them. Setting 0 gives the strict one-shot
    /// reading, which at finite `n` puts the confusion feedback loop
    /// above unit gain (one red group ⇒ `q_f ≈ D/n` ⇒
    /// `2L·q_f² > 1/n` new confused groups) — experiment E4 charts this.
    pub link_retries: usize,
}

impl Params {
    /// Paper defaults: `β = 0.05`, `δ = 0.25`, `d1 = 2, d2 = 4`, tiny
    /// groups, churn at the allowed bound, a mild state attack.
    pub fn paper_defaults() -> Self {
        let beta = 0.05;
        let delta = 0.25;
        Params {
            beta,
            delta,
            d1: 2.0,
            d2: 4.0,
            size_rule: GroupSizeRule::TinyLogLog,
            churn_rate: Params::max_churn(beta, delta),
            attack_requests_per_id: 4,
            link_retries: 2,
        }
    }

    /// The paper's maximum allowed per-epoch good-departure fraction
    /// `ε'/2` where `ε' = 1 − 2(1+δ)β` (§III).
    pub fn max_churn(beta: f64, delta: f64) -> f64 {
        (1.0 - 2.0 * (1.0 + delta) * beta) / 2.0
    }

    /// Switch to the `Θ(log n)` baseline sizing with constant `c`.
    pub fn with_classic_groups(mut self, c: f64) -> Self {
        self.size_rule = GroupSizeRule::ClassicLog { c };
        self
    }

    /// Switch to a fixed number of draws (sweep support).
    pub fn with_fixed_groups(mut self, draws: usize) -> Self {
        self.size_rule = GroupSizeRule::Fixed(draws);
        self
    }

    /// Number of membership draws per group for a system of size `n`.
    pub fn draws(&self, n: usize) -> usize {
        let lnln = ((n.max(16) as f64).ln()).ln();
        match self.size_rule {
            GroupSizeRule::TinyLogLog => (self.d2 * lnln).ceil() as usize,
            GroupSizeRule::ClassicLog { c } => (c * (n.max(3) as f64).ln()).ceil() as usize,
            GroupSizeRule::Fixed(k) => k,
        }
        .max(1)
    }

    /// Minimum size a good group may have (the `d1·ln ln n` bound, scaled
    /// appropriately for the other rules).
    pub fn min_good_size(&self, n: usize) -> usize {
        let lnln = ((n.max(16) as f64).ln()).ln();
        match self.size_rule {
            GroupSizeRule::TinyLogLog => (self.d1 * lnln).floor() as usize,
            GroupSizeRule::ClassicLog { c } => (0.5 * c * (n.max(3) as f64).ln()).floor() as usize,
            GroupSizeRule::Fixed(k) => k / 2,
        }
        .max(1)
    }

    /// The maximum number of bad members a good group may contain:
    /// `(1+δ)·β·|G|` (§I-C). Note this is an *analysis* invariant — the
    /// operational property that makes routing work is a good majority,
    /// which `(1+δ)β < 1/2` implies with room for churn.
    pub fn max_bad_members(&self, group_size: usize) -> f64 {
        (1.0 + self.delta) * self.beta * group_size as f64
    }
}

impl Default for Params {
    fn default() -> Self {
        Params::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_grow_doubly_logarithmically() {
        let p = Params::paper_defaults();
        let d10 = p.draws(1 << 10);
        let d20 = p.draws(1 << 20);
        assert!(d10 >= 4, "1k IDs still need a nontrivial group: {d10}");
        assert!(d20 > d10, "draws must grow with n");
        // Doubling the exponent grows draws by ~d2·ln 2 ≈ 2.8, far less
        // than the 2× a log-n rule would give.
        assert!(d20 - d10 <= 4, "log log growth is slow: {d10} -> {d20}");
    }

    #[test]
    fn classic_rule_is_logarithmic() {
        let p = Params::paper_defaults().with_classic_groups(2.0);
        let d10 = p.draws(1 << 10);
        let d20 = p.draws(1 << 20);
        assert!((d20 as f64 / d10 as f64 - 2.0).abs() < 0.15, "{d10} -> {d20}");
    }

    #[test]
    fn tiny_groups_are_exponentially_smaller() {
        let tiny = Params::paper_defaults();
        let classic = Params::paper_defaults().with_classic_groups(2.0);
        let n = 1 << 16;
        assert!(classic.draws(n) as f64 / tiny.draws(n) as f64 > 2.0);
    }

    #[test]
    fn churn_bound_matches_paper_formula() {
        // ε' = 1 − 2(1+δ)β; with β=0.05, δ=0.25: ε' = 0.875, bound 0.4375.
        let b = Params::max_churn(0.05, 0.25);
        assert!((b - 0.4375).abs() < 1e-12);
    }

    #[test]
    fn min_size_below_draws() {
        let p = Params::paper_defaults();
        for n in [1 << 10, 1 << 14, 1 << 20] {
            assert!(p.min_good_size(n) <= p.draws(n));
            assert!(p.min_good_size(n) >= 1);
        }
    }

    #[test]
    fn fixed_rule_is_flat() {
        let p = Params::paper_defaults().with_fixed_groups(7);
        assert_eq!(p.draws(1 << 10), 7);
        assert_eq!(p.draws(1 << 20), 7);
    }
}
