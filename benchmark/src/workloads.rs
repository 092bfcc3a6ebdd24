//! The four workloads, as data: each is a list of `tg1;…` scenario
//! labels generated from the benchmark seed. The program under test
//! only ever sees `ScenarioSpec::parse(label)`.

use tg_sim::derive_seed_grid;

/// How a workload's trials are driven, and therefore what one *op* is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// Trials run one after another; an op is one epoch
    /// (`EpochDriver::step`).
    Scenario,
    /// Trials are sweep cells fanned out through `tg_sim::parallel_map`
    /// with a `ResultStore` round trip each; an op is one cell.
    Sweep,
}

/// One named workload. The names are fixed: later issues cite them.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists, in one line (`BENCHMARK.json` `why`).
    pub why: &'static str,
    pub shape: Shape,
    /// Epochs stepped per trial. At most 8 — a regime guard: the honest
    /// n = 5 000 scenario collapses to full capture after a dozen
    /// epochs and becomes a different program (see the README).
    pub epochs: usize,
    /// Trials (or cells) per round.
    pub trials: usize,
    /// The label of trial `t` on scenario seed `s`.
    label: fn(t: usize, s: u64) -> String,
}

impl Workload {
    /// Ops one round attempts.
    pub fn ops_per_round(&self) -> usize {
        match self.shape {
            Shape::Scenario => self.trials * self.epochs,
            Shape::Sweep => self.trials,
        }
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "scale_honest",
        why: "n=5000 honest d2b arena epochs: the steady-state kernel (arena, oracles, ring, \
              overlay) does all the work; pow, net and store idle",
        shape: Shape::Scenario,
        epochs: 5,
        trials: 1,
        label: |_, s| ladder_label(5000, s),
    },
    Workload {
        name: "pow_protocol",
        why: "full section-IV system at n=1000 on the default kernel: string agreement and \
              minting dominate, the kernel is the minority share",
        shape: Shape::Scenario,
        epochs: 4,
        trials: 4,
        label: pow_protocol_label,
    },
    Workload {
        name: "net_faulty",
        why: "n=316 actor runtime over loopback TCP with drops, latency and a partition: \
              runtime and socket transport at their largest share, both drivers on the path",
        shape: Shape::Scenario,
        epochs: 6,
        trials: 16,
        label: net_faulty_label,
    },
    Workload {
        name: "sweep_cells",
        why: "60 two-epoch frontier cells through parallel_map and the result store: \
              construction-dominated, the same kernel used the other way round",
        shape: Shape::Sweep,
        epochs: 2,
        trials: 60,
        label: sweep_cells_label,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The fields of a label that vary between workloads; the rest are the
/// paper defaults every experiment uses.
struct Label<'a> {
    n: usize,
    bad: usize,
    seed: u64,
    searches: usize,
    kind: &'a str,
    defense: &'a str,
    strategy: &'a str,
    beta: f64,
    churn: f64,
    attack: usize,
    /// Codec-optional fields, in canonical order, each with its `;`.
    optional: &'a str,
}

impl Label<'_> {
    fn render(&self) -> String {
        format!(
            "tg1;n={};bad={};seed={};searches={};kind={};mode=dual;defense={};strings=protocol;\
             strategy={};idealized=true;beta={};delta=0.25;d1=2;d2=4;rule=loglog;churn={};\
             attack={};retries=2{}",
            self.n,
            self.bad,
            self.seed,
            self.searches,
            self.kind,
            self.defense,
            self.strategy,
            self.beta,
            self.churn,
            self.attack,
            self.optional
        )
    }
}

const SWEEP_BETAS: [f64; 6] = [0.02, 0.04, 0.06, 0.09, 0.13, 0.19];
const SWEEP_STRATEGIES: [&str; 5] =
    ["honest", "uniform", "gap-filling", "adaptive-majority-flipper:2", "churn-timed:0.12:0.2"];
const DEFENSES: [&str; 2] = ["none", "f∘g"];

/// The labels of one round of `w`, in trial order. Trial `t` of round
/// `r` runs on `derive_seed_grid(seed, name, r, t)`; everything else
/// about the mix is the same in every round.
pub fn labels(w: &Workload, seed: u64, round: u32) -> Vec<String> {
    (0..w.trials)
        .map(|t| (w.label)(t, derive_seed_grid(seed, w.name, u64::from(round), t as u64)))
        .collect()
}

fn pow_protocol_label(t: usize, s: u64) -> String {
    let hoarder = format!("precompute-hoarder:{s}:2500");
    Label {
        n: 950,
        bad: 50,
        seed: s,
        searches: 60,
        kind: "chord",
        defense: "f∘g",
        strategy: ["honest", "gap-filling", "churn-timed:0.12:0.2", hoarder.as_str()][t % 4],
        beta: 0.05,
        churn: 0.2,
        attack: 4,
        optional: "",
    }
    .render()
}

/// Every third trial runs `f∘g` (`FullDriver` + `EpochNet`), the rest
/// `none` (`ActorDriver`): the two drivers share the time about evenly,
/// while the pooled median op sits inside the `none` cluster. An even
/// split puts it on the gap between the clusters, where it wandered by
/// 9 % from seed to seed.
fn net_faulty_label(t: usize, s: u64) -> String {
    Label {
        n: 300,
        bad: 16,
        seed: s,
        searches: 2000,
        kind: "chord",
        defense: DEFENSES[usize::from(t % 3 == 2)],
        strategy: "honest",
        beta: 0.05,
        churn: 0.2,
        attack: 4,
        optional: ";runtime=actor;drop=0.02;lat=8;part=16;transport=socket",
    }
    .render()
}

/// Defense varies fastest, then strategy, then β.
fn sweep_cells_label(t: usize, s: u64) -> String {
    let beta = SWEEP_BETAS[t / 10 % 6];
    Label {
        n: 300,
        bad: (beta / (1.0 - beta) * 300.0).round() as usize,
        seed: s,
        searches: 60,
        kind: "chord",
        defense: DEFENSES[t % 2],
        strategy: SWEEP_STRATEGIES[t / 2 % 5],
        beta,
        churn: 0.2,
        attack: 4,
        optional: "",
    }
    .render()
}

/// The `scale_honest` scenario at `n` identities in total — the rungs
/// of the `kernel.us_per_id_n*` ladder probe.
pub fn ladder_label(n: usize, seed: u64) -> String {
    Label {
        n: n - n / 20,
        bad: n / 20,
        seed,
        searches: 16,
        kind: "d2b",
        defense: "none",
        strategy: "honest",
        beta: 0.05,
        churn: 0.1,
        attack: 0,
        optional: ";kernel=arena",
    }
    .render()
}

/// Set (`Some`) or remove (`None`) one `key=value` field of a label —
/// how the equivalence twins derive their variant from a workload
/// label without touching a `ScenarioSpec`. A new key is appended.
pub fn edit_label(label: &str, key: &str, value: Option<&str>) -> String {
    let prefix = format!("{key}=");
    let mut fields: Vec<String> =
        label.split(';').filter(|f| !f.starts_with(&prefix)).map(str::to_string).collect();
    if let Some(v) = value {
        match label.split(';').position(|f| f.starts_with(&prefix)) {
            Some(at) => fields.insert(at, format!("{prefix}{v}")),
            None => fields.push(format!("{prefix}{v}")),
        }
    }
    fields.join(";")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tg_core::ScenarioSpec;

    /// Catches codec drift before it shifts a workload: every generated
    /// label parses, and the spec re-encodes to the identical string.
    #[test]
    fn every_generated_label_is_canonical() {
        for w in &WORKLOADS {
            for (seed, round) in [(42, 0), (42, 7), (7, 3)] {
                let labels = labels(w, seed, round);
                assert_eq!(labels.len(), w.trials);
                for label in &labels {
                    let spec = ScenarioSpec::parse(label)
                        .unwrap_or_else(|e| panic!("{}: `{label}`: {e}", w.name));
                    assert_eq!(&spec.label(), label, "{} label is not canonical", w.name);
                }
            }
        }
    }

    #[test]
    fn labels_depend_on_seed_and_round_only_through_the_seed_field() {
        for w in &WORKLOADS {
            let a = labels(w, 42, 0);
            assert_eq!(a, labels(w, 42, 0), "same seed, same inputs");
            let b = labels(w, 42, 1);
            let c = labels(w, 43, 0);
            for t in 0..w.trials {
                assert_ne!(a[t], b[t]);
                assert_ne!(a[t], c[t]);
                let strip = |l: &str| {
                    let mut l = edit_label(l, "seed", None);
                    if l.contains("precompute-hoarder") {
                        l = edit_label(&l, "strategy", None);
                    }
                    l
                };
                assert_eq!(strip(&a[t]), strip(&b[t]), "the mix is identical in every round");
            }
        }
    }

    #[test]
    fn the_mixes_cover_what_the_workloads_claim() {
        let sweep = labels(find("sweep_cells").unwrap(), 42, 0);
        let distinct: std::collections::BTreeSet<String> =
            sweep.iter().map(|l| edit_label(l, "seed", None)).collect();
        assert_eq!(distinct.len(), 60, "6 betas x 5 strategies x 2 defenses");
        let net = labels(find("net_faulty").unwrap(), 42, 0);
        assert_eq!(net.iter().filter(|l| l.contains("defense=f∘g")).count(), 5);
        assert!(net[0].contains("defense=none") && net[2].contains("defense=f∘g"));
        assert!(net.iter().all(|l| l.ends_with("transport=socket")));
        assert!(WORKLOADS.iter().all(|w| w.epochs <= 8), "the regime guard");
    }

    #[test]
    fn edit_label_sets_replaces_and_removes() {
        let l = "tg1;n=3;strings=protocol;retries=2;kernel=arena";
        assert_eq!(edit_label(l, "kernel", None), "tg1;n=3;strings=protocol;retries=2");
        assert_eq!(
            edit_label(l, "strings", Some("synthesized")),
            "tg1;n=3;strings=synthesized;retries=2;kernel=arena"
        );
        assert_eq!(edit_label("tg1;n=3", "kernel", Some("arena")), "tg1;n=3;kernel=arena");
    }
}
