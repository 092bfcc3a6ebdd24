//! Adaptive **frontier refinement**: find each row's capture threshold
//! by bisection instead of sweeping the whole β ladder, and pour extra
//! seeds only into the two cells that straddle it.
//!
//! The paper's guarantee is a *threshold*, not a surface: per
//! (strategy, defense, d₂, churn, topology) row there is one β where
//! capture begins, and every multi-seed epoch run a uniform grid spends
//! far from that β buys nothing. This engine replaces the row's uniform
//! β sweep with three moves:
//!
//! 1. **bracket** — probe the ladder's top rung: does the row capture
//!    anywhere in range at all? Most of a uniform grid's wasted work
//!    disappears right here — a row that never captures costs one cell
//!    instead of the whole ladder, and a row that does is bracketed
//!    into `(below-range, top]`.
//! 2. **bisect** — capture is monotone in β (more budget never hurts
//!    the adversary), so binary refinement inside the bracket locates
//!    the first-capturing rung in `⌈log₂ K⌉` evaluations instead of
//!    `O(K)`.
//! 3. **confidence** — at the two bracket cells (last quiet rung, first
//!    captured rung) run extra trials, round by round, until the
//!    [`tg_sim::binomial_wilson`] bands on the two capture rates
//!    separate — or a round cap stops the spend. Seeds concentrate
//!    exactly where the statistical question lives.
//!
//! **Engine equivalence.** Cells are addressed through
//! [`crate::frontier::eval_cell`] with the same [`RowKey::label`]
//! namespace and (rung, trial) coordinates the uniform engine uses, so
//! any cell both engines touch is byte-identical, and the frontier
//! *decision* at a cell uses only the base trials (the extra confidence
//! seeds sharpen the reported band — they never move the frontier).
//! Consequently a refinement sweep over a uniform sweep's exact grid
//! reproduces its frontier map cell-for-cell while running a fraction
//! of the cells — the E12 acceptance property, pinned by
//! `exp::e12_refine`'s tests with the measured saving.
//!
//! The worked cost story at seed 42 lands in `e12_refine_cost.csv`
//! (and the golden snapshot): evaluated cell-runs and trial-runs
//! against the full-grid equivalents, with the saving as a fraction.

use crate::frontier::{eval_cell, key_cells, CellStats, FrontierConfig, RowKey, CAPTURE_EPS};
use crate::table::{f, Table};
use std::collections::BTreeMap;
use tg_sim::{binomial_wilson, parallel_map};

/// One adaptive refinement sweep: the grid whose frontier is wanted
/// (its `betas` ladder fixes the resolution the threshold is located
/// at) plus the confidence-band policy.
#[derive(Clone, Debug)]
pub struct RefineConfig {
    /// The axes, ladder, and per-cell trial/epoch budget. `betas` plays
    /// the role of the uniform grid's β axis: refinement returns the
    /// same rung a uniform sweep of this grid would, it just evaluates
    /// fewer of them.
    pub grid: FrontierConfig,
    /// z-score of the Wilson bands used for the separation test
    /// (1.645 ≈ one-sided 95%).
    pub z: f64,
    /// Maximum extra-seed rounds per bracket cell; each round adds the
    /// grid's per-cell trial count to both bracket cells.
    pub max_extra_rounds: usize,
}

/// Locate the first index in `0..k` where a monotone predicate turns
/// true: probe the top rung (monotonicity makes it decisive — false
/// there means false everywhere, the bracket-existence check), then
/// bisect down against a *virtual* quiet floor at index −1, so a
/// threshold sitting on rung 0 is found without a dedicated bottom
/// probe.
///
/// `eval` is called at most `1 + ⌈log₂ k⌉` times; on a *monotone*
/// predicate the result equals an exhaustive first-true scan (pinned by
/// this module's tests over every threshold position), and whenever the
/// result is positive its predecessor has been evaluated — the quiet
/// side of the bracket the confidence phase needs.
pub fn bisect_first_true(k: usize, mut eval: impl FnMut(usize) -> bool) -> Option<usize> {
    if k == 0 || !eval(k - 1) {
        return None;
    }
    let (mut lo, mut hi) = (-1isize, (k - 1) as isize);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if eval(mid as usize) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi as usize)
}

/// Why a cell was evaluated.
fn phase_of(bi: usize, k: usize, order: usize) -> &'static str {
    if order == 0 && bi + 1 == k {
        "probe-hi"
    } else {
        "bisect"
    }
}

/// One evaluated cell of a row: its trials (base first, confidence
/// extras appended) and the bookkeeping for the tables.
struct RowCell {
    bi: usize,
    phase: &'static str,
    trials: Vec<crate::frontier::TrialStats>,
    /// How many of `trials` were simulated live rather than replayed
    /// from the grid's result store (all of them without a store).
    live_trials: usize,
}

impl RowCell {
    /// Captured-trial count for the Wilson band.
    fn successes(&self) -> usize {
        self.trials.iter().filter(|t| t.captured_frac > CAPTURE_EPS).count()
    }

    fn band(&self, z: f64) -> (f64, f64) {
        binomial_wilson(self.successes(), self.trials.len(), z)
    }
}

/// Everything refinement learned about one row.
struct RowOutcome {
    key: RowKey,
    cells: Vec<RowCell>,
    /// Index into the ladder of the first-capturing rung.
    frontier: Option<usize>,
    /// Base-trial mean captured fraction at the frontier rung (the
    /// uniform-grid-comparable estimate).
    captured_at: f64,
    /// Whether the bracket bands separated ( `None` when the frontier
    /// sits on the bottom rung — there is no quiet side to separate
    /// from — or the row never captures).
    separated: Option<bool>,
    extra_trials: usize,
}

/// Refine one row over the ladder.
fn refine_row(cfg: &RefineConfig, key: RowKey) -> RowOutcome {
    let grid = &cfg.grid;
    let k = grid.betas.len();
    let base = grid.trials.max(1);

    // Memoized cell evaluation: the frontier decision reads only the
    // base trials, so it is bit-identical to the uniform engine's.
    let mut memo: BTreeMap<usize, RowCell> = BTreeMap::new();
    let mut order = 0usize;
    let mut eval = |bi: usize| -> bool {
        let cell = memo.entry(bi).or_insert_with(|| {
            let phase = phase_of(bi, k, order);
            let (trials, live_trials) = eval_cell(grid, &key, bi, grid.betas[bi], 0, base);
            RowCell { bi, phase, trials, live_trials }
        });
        order += 1;
        CellStats::of(&cell.trials[..base]).captured_frac > CAPTURE_EPS
    };
    let frontier = bisect_first_true(k, &mut eval);

    // Confidence phase: extra seeds at the bracket cells only.
    let mut extra_trials = 0usize;
    let mut separated = None;
    let mut captured_at = 0.0;
    if let Some(fi) = frontier {
        captured_at = CellStats::of(&memo[&fi].trials[..base]).captured_frac;
        let below = fi.checked_sub(1);
        if let Some(bl) = below {
            debug_assert!(memo.contains_key(&bl), "bisection leaves the quiet side evaluated");
            let mut rounds = 0;
            loop {
                let quiet_hi = memo[&bl].band(cfg.z).1;
                let captured_lo = memo[&fi].band(cfg.z).0;
                if quiet_hi < captured_lo {
                    separated = Some(true);
                    break;
                }
                if rounds == cfg.max_extra_rounds {
                    separated = Some(false);
                    break;
                }
                for &bi in &[bl, fi] {
                    let cell = memo.get_mut(&bi).expect("bracket cells evaluated");
                    let t0 = cell.trials.len();
                    let (extra, live) = eval_cell(grid, &key, bi, grid.betas[bi], t0, base);
                    cell.trials.extend(extra);
                    cell.live_trials += live;
                    extra_trials += base;
                }
                rounds += 1;
            }
        }
    }

    let mut cells: Vec<RowCell> = memo.into_values().collect();
    cells.sort_by_key(|c| c.bi);
    RowOutcome { key, cells, frontier, captured_at, separated, extra_trials }
}

/// Everything one refinement sweep emits.
#[derive(Clone, Debug)]
pub struct RefineOutcome {
    /// Every evaluated cell (`e12_refine_cells.csv`).
    pub cells: Table,
    /// The refined frontier with confidence bands
    /// (`e12_refine_map.csv`).
    pub frontier: Table,
    /// The cost ledger vs the full uniform grid
    /// (`e12_refine_cost.csv`).
    pub cost: Table,
    /// Cells actually simulated (the uniform grid would run
    /// `rows × ladder` of them).
    pub cell_runs: usize,
    /// Seeded trials actually simulated, confidence extras included.
    pub trial_runs: usize,
    /// Cells with at least one **live** (not store-replayed) trial.
    /// Equals `cell_runs` without a store; a fully warm run reports 0 —
    /// the strictly-fewer-live-cell-runs acceptance number.
    pub live_cell_runs: usize,
    /// Trials simulated live; the remaining `trial_runs` were replayed
    /// from the grid's result store.
    pub live_trial_runs: usize,
}

impl RefineOutcome {
    /// The CSV-persisted tables, in emission order.
    pub fn tables(&self) -> [&Table; 3] {
        [&self.cells, &self.frontier, &self.cost]
    }

    /// The refined frontier β for the row matching `(strategy, defense,
    /// d2, churn, kind)` labels, or `None` when that row never captured
    /// in range.
    pub fn frontier_beta(&self, row: &[&str; 5]) -> Option<f64> {
        self.frontier
            .rows
            .iter()
            .find(|r| (0..5).all(|i| r[i] == row[i]))
            .and_then(|r| r[5].parse().ok())
    }
}

/// Run the adaptive sweep. Rows fan out in parallel exactly like the
/// uniform engine's; within a row the ladder is bracketed, bisected,
/// and confidence-banded as described in the module docs.
pub fn run_refine(cfg: &RefineConfig) -> RefineOutcome {
    let rows: Vec<RowOutcome> = parallel_map(cfg.grid.rows(), |key| refine_row(cfg, key));

    let cell_runs: usize = rows.iter().map(|r| r.cells.len()).sum();
    let trial_runs: usize = rows.iter().flat_map(|r| &r.cells).map(|c| c.trials.len()).sum();
    let live_cell_runs: usize =
        rows.iter().flat_map(|r| &r.cells).filter(|c| c.live_trials > 0).count();
    let live_trial_runs: usize = rows.iter().flat_map(|r| &r.cells).map(|c| c.live_trials).sum();
    RefineOutcome {
        cells: cells_table(cfg, &rows),
        frontier: frontier_table(cfg, &rows),
        cost: cost_table(cfg, &rows, cell_runs, trial_runs, live_cell_runs, live_trial_runs),
        cell_runs,
        trial_runs,
        live_cell_runs,
        live_trial_runs,
    }
}

fn cells_table(cfg: &RefineConfig, rows: &[RowOutcome]) -> Table {
    let mut t = Table::new(
        "e12_refine_cells",
        &[
            "strategy",
            "defense",
            "d2",
            "churn",
            "kind",
            "beta",
            "phase",
            "trials",
            "captured_frac",
            "capture_rate",
            "ci_lo",
            "ci_hi",
        ],
    );
    for row in rows {
        for cell in &row.cells {
            let pooled = CellStats::of(&cell.trials);
            let (lo, hi) = cell.band(cfg.z);
            let mut cells = key_cells(&row.key);
            cells.extend([
                f(cfg.grid.betas[cell.bi]),
                cell.phase.to_string(),
                cell.trials.len().to_string(),
                f(pooled.captured_frac),
                f(pooled.capture_rate),
                f(lo),
                f(hi),
            ]);
            t.push(cells);
        }
    }
    t
}

fn frontier_table(cfg: &RefineConfig, rows: &[RowOutcome]) -> Table {
    let mut t = Table::new(
        "e12_refine_map",
        &[
            "strategy",
            "defense",
            "d2",
            "churn",
            "kind",
            "frontier_beta",
            "captured_at_frontier",
            "capture_rate",
            "ci_lo",
            "ci_hi",
            "quiet_ci_hi",
            "separated",
            "cell_runs",
            "trials_spent",
        ],
    );
    for row in rows {
        let mut cells = key_cells(&row.key);
        match row.frontier {
            Some(fi) => {
                let at = row.cells.iter().find(|c| c.bi == fi).expect("frontier cell evaluated");
                let pooled = CellStats::of(&at.trials);
                let (lo, hi) = at.band(cfg.z);
                let quiet_hi = fi
                    .checked_sub(1)
                    .and_then(|bl| row.cells.iter().find(|c| c.bi == bl))
                    .map(|c| f(c.band(cfg.z).1))
                    .unwrap_or_else(|| "-".to_string());
                let separated = match row.separated {
                    Some(true) => "yes",
                    Some(false) => "no",
                    None => "-",
                };
                cells.extend([
                    f(cfg.grid.betas[fi]),
                    f(row.captured_at),
                    f(pooled.capture_rate),
                    f(lo),
                    f(hi),
                    quiet_hi,
                    separated.to_string(),
                ]);
            }
            None => cells.extend(std::iter::repeat_n("-".to_string(), 7)),
        }
        let trials: usize = row.cells.iter().map(|c| c.trials.len()).sum();
        cells.extend([row.cells.len().to_string(), trials.to_string()]);
        t.push(cells);
    }
    t
}

fn cost_table(
    cfg: &RefineConfig,
    rows: &[RowOutcome],
    cell_runs: usize,
    trial_runs: usize,
    live_cell_runs: usize,
    live_trial_runs: usize,
) -> Table {
    let mut t = Table::new(
        "e12_refine_cost",
        &[
            "rows",
            "ladder",
            "trials_per_cell",
            "cell_runs",
            "trial_runs",
            "extra_trials",
            "live_cell_runs",
            "live_trial_runs",
            "store_trial_hits",
            "grid_cell_runs",
            "grid_trial_runs",
            "cell_saving",
            "trial_saving",
        ],
    );
    let (n_rows, k, base) = (rows.len(), cfg.grid.betas.len(), cfg.grid.trials.max(1));
    let grid_cells = n_rows * k;
    let grid_trials = grid_cells * base;
    let extra: usize = rows.iter().map(|r| r.extra_trials).sum();
    let saving = |spent: usize, full: usize| {
        if full == 0 {
            "-".to_string()
        } else {
            f(1.0 - spent as f64 / full as f64)
        }
    };
    t.push(vec![
        n_rows.to_string(),
        k.to_string(),
        base.to_string(),
        cell_runs.to_string(),
        trial_runs.to_string(),
        extra.to_string(),
        live_cell_runs.to_string(),
        live_trial_runs.to_string(),
        (trial_runs - live_trial_runs).to_string(),
        grid_cells.to_string(),
        grid_trials.to_string(),
        saving(cell_runs, grid_cells),
        saving(trial_runs, grid_trials),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The refinement-correctness contract: on every monotone capture
    /// function over every ladder length, bisection returns exactly
    /// what an exhaustive first-true scan returns — and within its
    /// evaluation budget.
    #[test]
    fn bisection_matches_exhaustive_search_on_monotone_predicates() {
        for k in 0..40usize {
            // threshold == k means "never captures".
            for threshold in 0..=k {
                let mut evals = 0usize;
                let got = bisect_first_true(k, |i| {
                    evals += 1;
                    i >= threshold
                });
                let expect = (0..k).find(|&i| i >= threshold);
                assert_eq!(got, expect, "k={k} threshold={threshold}");
                let budget = 1 + (k.max(1) as f64).log2().ceil() as usize;
                assert!(evals <= budget, "k={k} threshold={threshold}: {evals} evals > {budget}");
            }
        }
    }

    /// The quiet side of the bracket is always evaluated when the
    /// frontier is not on the bottom rung — the confidence phase
    /// depends on it.
    #[test]
    fn bisection_evaluates_the_last_quiet_rung() {
        for k in 2..24usize {
            for threshold in 1..k {
                let mut seen = std::collections::HashSet::new();
                let got = bisect_first_true(k, |i| {
                    seen.insert(i);
                    i >= threshold
                });
                assert_eq!(got, Some(threshold));
                assert!(seen.contains(&(threshold - 1)), "k={k} threshold={threshold}: {seen:?}");
            }
        }
    }
}
