//! The adversary-vs-defense **frontier engine**: capture heatmaps over
//! the real protocols, on an N-D parameter grid.
//!
//! Every result before this module was a point sample — one β, one
//! group-size factor. The paper's core claim is a *boundary*: tiny
//! groups of `d₂·ln ln n` members survive every placement strategy a
//! `β < 1/2` adversary can mount, **provided** §IV's minting defenses
//! are in force. This engine maps that boundary empirically. A grid of
//! cells
//!
//! ```text
//! (β, d₂, churn, topology, strategy, defense, fresh-vs-frozen strings)
//! ```
//!
//! each runs a multi-seed epoch simulation and reports how much of the
//! group population lost its good majority (*capture*). The β and d₂
//! axes are the classic pair; `churn_rate` and [`GraphKind`] joined as
//! first-class axes for the churn-timed adversary and the
//! topology-sensitivity question (capture thresholds shift with the
//! input-graph family, the tree-networks observation of Kailkhura et
//! al. transplanted to overlay families). Every cell is simulated
//! through the unified scenario API — [`RowKey::scenario`] turns the
//! cell coordinate into a [`ScenarioSpec`], and
//! `tg_pow::scenario::build` erases which system runs behind the
//! [`tg_core::scenario::EpochDriver`]:
//!
//! * [`Defense::NoPow`] — the adversary's chosen ID values go straight
//!   into the §III dynamic layer (`tg_core::dynamic::DynamicSystem` +
//!   `StrategicProvider`): the world §IV exists to prevent,
//! * [`Defense::Pow`] — the **full §IV protocol**
//!   (`tg_pow::FullSystem` with a `StrategicPowProvider`): the
//!   epoch-string agreement runs for real, minting binds to the agreed
//!   string (or to a frozen genesis string when the §IV-B defense is
//!   switched off), and the strategy's desired placement survives only
//!   as far as the minting scheme allows (realized under `single-hash`,
//!   discarded under `f∘g`).
//!
//! The **frontier** of a row — one [`RowKey`], i.e. one (strategy,
//! defense, d₂, churn, topology) combination — is the smallest β whose
//! cell captures more than [`CAPTURE_EPS`] of the groups: the β at
//! which that strategy first breaks through that defense at that
//! operating point. Expected shape, and what E11's acceptance test
//! pins: the `f∘g` frontier sits at strictly higher β than the no-PoW
//! frontier for every adaptive placement strategy, and both frontiers
//! rise with d₂ (bigger groups buy β headroom).
//!
//! The sweep is embarrassingly parallel and fully deterministic: rows
//! fan out through [`tg_sim::parallel_map`], and every trial draws from
//! a [`tg_sim::derive_seed_grid`] stream keyed by the cell's coordinate
//! — results are byte-identical regardless of thread count. The cell
//! key is the row's [`RowKey::label`] (the categorical part) plus a
//! (β index, trial) grid coordinate; the label format for rows on the
//! legacy axes (churn [`LEGACY_CHURN`], Chord) is frozen so the
//! committed golden corpus — and any cell the adaptive refinement
//! engine ([`crate::refine`]) re-addresses — replays bit-for-bit.
//! Within a row, β is swept ascending with an early exit: once a cell
//! captures at least [`OVERRUN`] of the groups, higher-β cells are
//! emitted as `skipped-overrun` instead of simulated (capture is
//! monotone in β, so the simulation would only spend time confirming a
//! lost system).

use crate::exec::Exec;
use crate::table::{f, Table};
use tg_core::scenario::{budget_for, ObsRow, ScenarioSpec, StrategySpec};
use tg_overlay::GraphKind;
use tg_sim::{derive_seed_grid, parallel_map};

pub use tg_core::scenario::Defense;

/// A cell counts as **captured** when the mean fraction of groups
/// without a good majority exceeds this (an absolute noise floor — at
/// small n a handful of binomial-tail captures is background, not a
/// broken defense).
pub const CAPTURE_EPS: f64 = 0.01;

/// Early-exit threshold: once a cell's captured fraction reaches this,
/// the system is overrun and higher β in the same row are skipped.
pub const OVERRUN: f64 = 0.5;

/// The churn rate of the original 2-D (β × d₂) sweeps, frozen into the
/// legacy cell-label format (see [`RowKey::label`]).
pub const LEGACY_CHURN: f64 = 0.1;

/// The victim key for the `interval-targeting` strategy.
const VICTIM: f64 = 0.40;

/// The categorical coordinate of one frontier row: everything about a
/// cell except its β rung and trial index.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RowKey {
    /// Strategy name (see [`strategy_spec`]).
    pub strategy: &'static str,
    /// Defense column.
    pub defense: Defense,
    /// Group-size factor (`draws = d₂·ln ln n`; `d₁ = d₂/2`).
    pub d2: f64,
    /// Per-epoch good-departure fraction.
    pub churn: f64,
    /// Input-graph topology family.
    pub kind: GraphKind,
}

impl RowKey {
    /// Whether this row sits on the frozen legacy axes of the original
    /// 2-D sweep (churn [`LEGACY_CHURN`], Chord topology).
    pub fn is_legacy_axes(&self) -> bool {
        self.churn == LEGACY_CHURN && self.kind == GraphKind::Chord
    }

    /// The seed-stream label of this row's cells. **This string is a
    /// persistence format**: both sweep engines (uniform grid and
    /// adaptive refinement) and the golden corpus address cells through
    /// it, so rows on the legacy axes keep the exact pre-N-D spelling
    /// and the extended axes append rather than reorder.
    pub fn label(&self) -> String {
        let (strategy, defense, d2) = (self.strategy, self.defense.label(), self.d2);
        if self.is_legacy_axes() {
            format!("e11/{strategy}/{defense}/{d2}")
        } else {
            format!("e11/{strategy}/{defense}/{d2}/c{}/{}", self.churn, self.kind.name())
        }
    }

    /// The complete [`ScenarioSpec`] of one trial of one cell on this
    /// row: the paper's defaults with the swept (β, d₂, churn, topology,
    /// defense, strategy) installed and the sweep conventions (no
    /// join-request attack — capture is the measured variable; the
    /// adversary budget re-derived from β). This is the one place a
    /// frontier coordinate becomes a buildable scenario; both sweep
    /// engines construct their systems exclusively through it.
    pub fn scenario(&self, cfg: &FrontierConfig, beta: f64, trial_seed: u64) -> ScenarioSpec {
        let budget = budget_for(beta, cfg.n_good);
        let spec = ScenarioSpec::new(cfg.n_good, trial_seed)
            .beta(beta)
            .group_factor(self.d2)
            .churn(self.churn)
            .attack_requests(0)
            .topology(self.kind)
            .defense(self.defense)
            .strategy(strategy_spec(self.strategy, trial_seed, budget))
            .searches(cfg.searches);
        cfg.exec.install(spec)
    }
}

/// The grid one frontier sweep covers.
#[derive(Clone, Debug)]
pub struct FrontierConfig {
    /// Good IDs per epoch.
    pub n_good: usize,
    /// Adversary budget fractions, **ascending** (early exit walks up).
    pub betas: Vec<f64>,
    /// Group-size factors swept.
    pub d2s: Vec<f64>,
    /// Per-epoch good-departure fractions swept.
    pub churns: Vec<f64>,
    /// Input-graph topology families swept.
    pub kinds: Vec<GraphKind>,
    /// Strategy names (see [`strategy_spec`]).
    pub strategies: Vec<&'static str>,
    /// Defense columns.
    pub defenses: Vec<Defense>,
    /// Epochs simulated per trial.
    pub epochs: usize,
    /// Independent trials (seeds) per cell.
    pub trials: usize,
    /// Robustness searches per epoch.
    pub searches: usize,
    /// Master seed; every trial derives its own grid stream from it.
    pub seed: u64,
    /// How each trial is executed (runtime, transport, invariant
    /// checking, result store) — observation-free, so it never
    /// moves a frontier. With a store, every trial's observation stream
    /// is replayed through the identical statistics path, so a warm
    /// sweep's tables are byte-for-byte the live run's.
    pub exec: Exec,
}

impl FrontierConfig {
    /// Every row of the grid, in sweep order (strategy-major, then
    /// defense, d₂, churn, topology). Shared with the refinement engine
    /// so both sweeps enumerate identical rows.
    pub fn rows(&self) -> Vec<RowKey> {
        let mut specs = Vec::new();
        for &strategy in &self.strategies {
            for &defense in &self.defenses {
                for &d2 in &self.d2s {
                    for &churn in &self.churns {
                        for &kind in &self.kinds {
                            specs.push(RowKey { strategy, defense, d2, churn, kind });
                        }
                    }
                }
            }
        }
        specs
    }
}

/// The declarative strategy of a sweep column, by name. The hoarder
/// grinds real puzzles against the epoch string its view carries, so
/// its spec carries an oracle-family seed derived from the trial seed
/// and an attempt budget sized to yield ≈ `budget` solutions per epoch.
pub fn strategy_spec(name: &str, trial_seed: u64, budget: usize) -> StrategySpec {
    match name {
        "uniform" => StrategySpec::Uniform,
        "gap-filling" => StrategySpec::GapFilling,
        "interval-targeting" => StrategySpec::IntervalTargeting { victim: VICTIM, width: 0.01 },
        "adaptive-majority-flipper" => StrategySpec::AdaptiveMajorityFlipper { margin: 2 },
        "churn-timed" => StrategySpec::ChurnTimed { trigger: 0.12, retainer: 0.2 },
        "precompute-hoarder" => {
            let success = tg_pow::scenario::hoarder_puzzle().success_prob();
            let attempts = (budget.max(1) as f64 / success).round() as u64;
            StrategySpec::PrecomputeHoarder { fam_seed: trial_seed ^ 0xE11, attempts }
        }
        other => panic!("unknown strategy {other}"),
    }
}

/// Mean per-epoch measurements of one trial.
#[derive(Clone, Copy, Debug)]
pub struct TrialStats {
    /// Mean fraction of groups without a good majority.
    pub captured_frac: f64,
    /// Mean adversarial IDs entering the dynamic layer per epoch.
    pub bad_ids: f64,
    /// Mean key-space share those IDs own.
    pub bad_share: f64,
    /// Mean side-0 red fraction.
    pub frac_red: f64,
    /// Mean dual-search success.
    pub success_dual: f64,
}

/// Reduce a trial's observation rows to its mean statistics. Both the
/// live path and the store-warm path funnel through here, so a
/// replayed stream yields bit-identical stats to the run that wrote it.
fn trial_stats(rows: &[ObsRow]) -> TrialStats {
    TrialStats {
        captured_frac: ObsRow::mean(rows, ObsRow::captured_frac),
        bad_ids: ObsRow::mean(rows, |r| r.bad_ids as f64),
        bad_share: ObsRow::mean(rows, |r| r.bad_share),
        frac_red: ObsRow::mean(rows, |r| r.frac_red_s0),
        success_dual: ObsRow::mean(rows, |r| r.search_success_dual),
    }
}

/// Evaluate one cell — `trials` seeded simulations of row `key` at β
/// rung `bi`, starting at trial index `t0`: each trial's scenario is
/// driven through [`Exec::trial`] (live or replayed from the store) and
/// its per-epoch observations averaged. Which system runs (the bare
/// dynamic layer or the full epoch-string protocol) is the spec's
/// business, not this loop's.
///
/// This is the one place cell randomness is derived: both the uniform
/// grid and the adaptive refinement engine evaluate cells through here,
/// so a cell addressed by the same `(row, rung, trial)` coordinate is
/// byte-identical across engines — the structural fact behind E12's
/// "same frontier, fewer cell-runs" acceptance claim. `t0 > 0` lets the
/// refinement engine pour *extra* seeds into a cell by extending the
/// same trial stream rather than re-drawing it.
///
/// The second value is how many of the trials ran **live** (were
/// simulated) rather than replayed from the configured store — the
/// number the refinement cost ledger and the warm-start acceptance test
/// count. Without a store every trial is live.
pub fn eval_cell(
    cfg: &FrontierConfig,
    key: &RowKey,
    bi: usize,
    beta: f64,
    t0: usize,
    trials: usize,
) -> (Vec<TrialStats>, usize) {
    let label = key.label();
    let mut live = 0usize;
    let stats = (t0..t0 + trials)
        .map(|t| {
            let trial_seed = derive_seed_grid(cfg.seed, &label, bi as u64, t as u64);
            let spec = key.scenario(cfg, beta, trial_seed);
            let (rows, was_live) = cfg.exec.trial(&spec, cfg.epochs.max(1));
            live += usize::from(was_live);
            trial_stats(&rows)
        })
        .collect();
    (stats, live)
}

/// One cell of the grid, aggregated over trials (`None` when skipped by
/// the early exit).
#[derive(Clone, Debug)]
struct Cell {
    key: RowKey,
    beta: f64,
    stats: Option<CellStats>,
}

/// Trial-aggregated cell measurements.
#[derive(Clone, Copy, Debug)]
pub struct CellStats {
    /// Mean captured-group fraction over the trials.
    pub captured_frac: f64,
    /// Fraction of trials whose captured fraction exceeded
    /// [`CAPTURE_EPS`] — the Bernoulli rate confidence bands are built
    /// on.
    pub capture_rate: f64,
    /// Mean adversarial IDs per epoch.
    pub bad_ids: f64,
    /// Mean adversarial key-space share.
    pub bad_share: f64,
    /// Mean side-0 red fraction.
    pub frac_red: f64,
    /// Mean dual-search success.
    pub success_dual: f64,
}

impl CellStats {
    /// Aggregate per-trial measurements.
    pub fn of(trials: &[TrialStats]) -> CellStats {
        let n = trials.len().max(1) as f64;
        CellStats {
            captured_frac: trials.iter().map(|t| t.captured_frac).sum::<f64>() / n,
            capture_rate: trials.iter().filter(|t| t.captured_frac > CAPTURE_EPS).count() as f64
                / n,
            bad_ids: trials.iter().map(|t| t.bad_ids).sum::<f64>() / n,
            bad_share: trials.iter().map(|t| t.bad_share).sum::<f64>() / n,
            frac_red: trials.iter().map(|t| t.frac_red).sum::<f64>() / n,
            success_dual: trials.iter().map(|t| t.success_dual).sum::<f64>() / n,
        }
    }
}

/// Everything one frontier sweep emits.
#[derive(Clone, Debug)]
pub struct FrontierOutcome {
    /// The per-cell heatmap table (`e11_frontier.csv`).
    pub cells: Table,
    /// The capture frontier per row (`e11_frontier_map.csv`).
    pub frontier: Table,
    /// Text-rendered β × d₂ heatmap panes, one per (strategy, defense,
    /// churn, topology).
    pub heatmaps: String,
}

impl FrontierOutcome {
    /// The CSV-persisted tables, in emission order.
    pub fn tables(&self) -> [&Table; 2] {
        [&self.cells, &self.frontier]
    }

    /// The frontier β for a (strategy, defense, d₂) row, or `None` when
    /// the strategy never captured within the swept range. With multiple
    /// churn/topology axis values this returns the first matching row in
    /// sweep order; disambiguate through the table directly when those
    /// axes are swept.
    pub fn frontier_beta(&self, strategy: &str, defense: &str, d2: &str) -> Option<f64> {
        self.frontier
            .rows
            .iter()
            .find(|r| r[0] == strategy && r[1] == defense && r[2] == d2)
            .and_then(|r| r[5].parse().ok())
    }
}

/// Run the full grid. Rows — one per [`RowKey`] — fan out in parallel;
/// each row walks β ascending with the overrun early exit.
pub fn run_frontier(cfg: &FrontierConfig) -> FrontierOutcome {
    let rows: Vec<Vec<Cell>> = parallel_map(cfg.rows(), |key| {
        // The grid stream for this row: coordinates are (β index, trial),
        // the label carries the row identity — early exits never shift
        // another cell's randomness.
        let mut out = Vec::with_capacity(cfg.betas.len());
        let mut overrun = false;
        for (bi, &beta) in cfg.betas.iter().enumerate() {
            if overrun {
                out.push(Cell { key, beta, stats: None });
                continue;
            }
            let stats = CellStats::of(&eval_cell(cfg, &key, bi, beta, 0, cfg.trials).0);
            overrun = stats.captured_frac >= OVERRUN;
            out.push(Cell { key, beta, stats: Some(stats) });
        }
        out
    });

    FrontierOutcome {
        cells: cells_table(cfg, &rows),
        frontier: frontier_table(&rows),
        heatmaps: heatmaps(cfg, &rows),
    }
}

/// The axis columns every sweep table leads with. Shared with the
/// refinement engine so the two engines' maps stay byte-comparable
/// column for column.
pub(crate) fn key_cells(key: &RowKey) -> Vec<String> {
    vec![
        key.strategy.to_string(),
        key.defense.label().to_string(),
        f(key.d2),
        f(key.churn),
        key.kind.name().to_string(),
    ]
}

fn cells_table(cfg: &FrontierConfig, rows: &[Vec<Cell>]) -> Table {
    let mut t = Table::new(
        "e11_frontier",
        &[
            "strategy",
            "defense",
            "d2",
            "churn",
            "kind",
            "beta",
            "status",
            "trials",
            "epochs",
            "bad_ids",
            "bad_share",
            "captured_frac",
            "capture_rate",
            "frac_red_s0",
            "success_dual",
        ],
    );
    for cell in rows.iter().flatten() {
        let mut row = key_cells(&cell.key);
        row.push(f(cell.beta));
        match cell.stats {
            Some(s) => row.extend([
                "run".to_string(),
                cfg.trials.to_string(),
                cfg.epochs.to_string(),
                f(s.bad_ids),
                f(s.bad_share),
                f(s.captured_frac),
                f(s.capture_rate),
                f(s.frac_red),
                f(s.success_dual),
            ]),
            None => row.extend([
                "skipped-overrun".to_string(),
                cfg.trials.to_string(),
                cfg.epochs.to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]),
        }
        t.push(row);
    }
    t
}

fn frontier_table(rows: &[Vec<Cell>]) -> Table {
    let mut t = Table::new(
        "e11_frontier_map",
        &["strategy", "defense", "d2", "churn", "kind", "frontier_beta", "captured_at_frontier"],
    );
    for row in rows {
        if row.is_empty() {
            continue;
        }
        let first =
            row.iter().find(|c| c.stats.map(|s| s.captured_frac > CAPTURE_EPS).unwrap_or(false));
        let (beta, at) = match first {
            Some(c) => (f(c.beta), f(c.stats.expect("found by stats").captured_frac)),
            None => ("-".to_string(), "-".to_string()),
        };
        let mut cells = key_cells(&row[0].key);
        cells.extend([beta, at]);
        t.push(cells);
    }
    t
}

/// One glyph per cell: `·` below the noise floor, `+` captured, `#`
/// overrun, `»` skipped (the row already overran at lower β).
fn glyph(cell: &Cell) -> char {
    match cell.stats {
        None => '»',
        Some(s) if s.captured_frac >= OVERRUN => '#',
        Some(s) if s.captured_frac > CAPTURE_EPS => '+',
        Some(_) => '·',
    }
}

/// Render the β × d₂ panes, d₂ descending (large groups on top — the
/// frontier reads as a coastline rising to the right). With swept churn
/// or topology axes, each (churn, topology) combination gets its own
/// pane; on a single legacy-axes sweep the pane headers keep the
/// original two-part form.
fn heatmaps(cfg: &FrontierConfig, rows: &[Vec<Cell>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for &strategy in &cfg.strategies {
        for &defense in &cfg.defenses {
            for &churn in &cfg.churns {
                for &kind in &cfg.kinds {
                    let legacy_pane = cfg.churns.len() == 1
                        && cfg.kinds.len() == 1
                        && churn == LEGACY_CHURN
                        && kind == GraphKind::Chord;
                    if legacy_pane {
                        let _ = writeln!(out, "[{strategy} vs {}]", defense.label());
                    } else {
                        let _ = writeln!(
                            out,
                            "[{strategy} vs {} | churn={} {}]",
                            defense.label(),
                            f(churn),
                            kind.name()
                        );
                    }
                    let header: Vec<String> = cfg.betas.iter().map(|&b| f(b)).collect();
                    let _ = writeln!(out, "  {:>7}  β= {}", "", header.join("  "));
                    let mut d2s = cfg.d2s.clone();
                    d2s.sort_by(|a, b| b.partial_cmp(a).expect("finite d2"));
                    for d2 in d2s {
                        let row = rows.iter().flatten().filter(|c| {
                            c.key.strategy == strategy
                                && c.key.defense == defense
                                && c.key.d2 == d2
                                && c.key.churn == churn
                                && c.key.kind == kind
                        });
                        let glyphs: Vec<String> = cfg
                            .betas
                            .iter()
                            .map(|&beta| {
                                let cell = row.clone().find(|c| c.beta == beta).expect("full grid");
                                format!("{:^width$}", glyph(cell), width = f(beta).len())
                            })
                            .collect();
                        let _ = writeln!(out, "  d2={:<4}     {}", f(d2), glyphs.join("  "));
                    }
                    let _ = writeln!(out);
                }
            }
        }
    }
    out.push_str("·  quiet (< 1% groups captured)   +  captured   #  overrun (≥ 50%)   »  skipped after overrun\n");
    out
}
