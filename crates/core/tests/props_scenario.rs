//! Property-based tests for the scenario codec: every expressible
//! [`ScenarioSpec`] survives the round trip through both serialized
//! forms — canonical label and flat JSON — field-for-field identical.
//! Float axes use the full `f64` range of each parameter (Rust's
//! shortest-roundtrip Display is part of the codec's contract).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tg_core::dynamic::BuildMode;
use tg_core::params::GroupSizeRule;
use tg_core::runtime::RuntimeChoice;
use tg_core::scenario::{
    Defense, FaultPlan, KernelChoice, MintScheme, ObsRow, ScenarioError, ScenarioSpec,
    StrategySpec, StringAdversarySpec, StringMode, TransportChoice, AXES,
};
use tg_core::Params;
use tg_overlay::GraphKind;

/// Decode an index pair into one of the strategy variants, with
/// parameters driven by the raw inputs.
fn strategy(tag: u8, a: f64, b: f64, n: u64) -> StrategySpec {
    match tag % 7 {
        0 => StrategySpec::Honest,
        1 => StrategySpec::Uniform,
        2 => StrategySpec::GapFilling,
        3 => StrategySpec::IntervalTargeting { victim: a, width: b },
        4 => StrategySpec::AdaptiveMajorityFlipper { margin: (n % 9) as usize },
        5 => StrategySpec::ChurnTimed { trigger: a, retainer: b },
        // Attempts stay below the codec's 2^24 hoarder cap.
        _ => StrategySpec::PrecomputeHoarder { fam_seed: n, attempts: n.rotate_left(17) >> 40 },
    }
}

fn defense(tag: u8) -> Defense {
    match tag % 5 {
        0 => Defense::NoPow,
        1 => Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true },
        2 => Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: false },
        3 => Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: true },
        _ => Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: false },
    }
}

fn rule(tag: u8, c: f64, k: u64) -> GroupSizeRule {
    match tag % 3 {
        0 => GroupSizeRule::TinyLogLog,
        1 => GroupSizeRule::ClassicLog { c },
        _ => GroupSizeRule::Fixed(k as usize),
    }
}

fn string_adversary(tag: u8, a: f64, n: u64) -> StringAdversarySpec {
    match tag % 3 {
        0 => StringAdversarySpec::None,
        1 => StringAdversarySpec::DelayedRelease {
            strings: (n % 17) as usize,
            release_frac: a,
            units: a * 3.0,
        },
        _ => StringAdversarySpec::ForcedRecords { strings: (n % 17) as usize, release_frac: a },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// spec → label → parse ⇒ the identical spec, and the same through
    /// the JSON form (satellite contract of the scenario API).
    #[test]
    fn spec_round_trips_through_label_and_json(
        n_good in 1usize..100_000,
        n_bad in 0usize..50_000,
        seed in any::<u64>(),
        searches in 0usize..10_000,
        beta in 0.0f64..0.5,
        delta in 0.0f64..1.0,
        d2 in 0.5f64..16.0,
        churn in 0.0f64..0.45,
        attack in 0usize..32,
        retries in 0usize..8,
        kind_tag in 0..GraphKind::ALL.len(),
        mode_tag in 0u8..2,
        defense_tag in any::<u8>(),
        strings_tag in 0u8..2,
        strategy_tag in any::<u8>(),
        sa in 0.0f64..1.0,
        sb in 0.0f64..1.0,
        sn in any::<u64>(),
        rule_tag in any::<u8>(),
        rule_c in 0.1f64..8.0,
        rule_k in 1u64..64,
        idealized in any::<bool>(),
        kernel_tag in 0u8..2,
        runtime_tag in 0u8..2,
        drop in 0.0f64..1.0,
        lat in 0u64..1024,
        part in 0u64..1024,
        transport_tag in 0u8..2,
        window in proptest::option::of(1u64..8192),
        stradv_tag in any::<u8>(),
        stradv_frac in 0.0f64..1.0,
        stradv_n in any::<u64>(),
    ) {
        // `transport=socket` is only expressible with the actor
        // runtime — the codec rejects the sync combination (pinned
        // separately below), so the generator honors the constraint.
        let runtime = if runtime_tag == 0 && transport_tag == 0 {
            RuntimeChoice::Sync
        } else {
            RuntimeChoice::Actor
        };
        let transport = if transport_tag == 0 { TransportChoice::Mem } else { TransportChoice::Socket };
        let mut spec = ScenarioSpec::new(n_good, seed)
            .beta(beta)
            .budget(n_bad)
            .group_factor(d2)
            .churn(churn)
            .attack_requests(attack)
            .link_retries(retries)
            .topology(GraphKind::ALL[kind_tag])
            .build_mode(if mode_tag == 0 { BuildMode::DualGraph } else { BuildMode::SingleGraph })
            .defense(defense(defense_tag))
            .strings(if strings_tag == 0 { StringMode::Protocol } else { StringMode::Synthesized })
            .strategy(strategy(strategy_tag, sa, sb, sn))
            .searches(searches)
            .idealized(idealized)
            .runtime(runtime)
            .drop_rate(drop)
            .latency(lat)
            .partition(part)
            .transport(transport)
            .string_adversary(string_adversary(stradv_tag, stradv_frac, stradv_n));
        if let Some(w) = window {
            spec = spec.window(w);
        }
        spec.kernel = if kernel_tag == 0 { KernelChoice::Legacy } else { KernelChoice::Arena };
        spec.params.delta = delta;
        spec.params.size_rule = rule(rule_tag, rule_c, rule_k);

        let label = spec.label();
        let reparsed = ScenarioSpec::parse(&label);
        prop_assert_eq!(reparsed.as_ref(), Ok(&spec), "label: {}", label);

        let json = spec.to_json();
        let reparsed = ScenarioSpec::from_json(&json);
        prop_assert_eq!(reparsed.as_ref(), Ok(&spec), "json: {}", json);

        // The label is canonical: re-serializing the parsed spec yields
        // the same bytes (fit for cache keys / seed-stream labels).
        prop_assert_eq!(ScenarioSpec::parse(&label).unwrap().label(), label);
    }

    /// Corrupting any single field value of a label either fails to
    /// parse or parses to a *different* spec — no two distinct field
    /// values alias one spec (the cell-key property).
    #[test]
    fn distinct_seeds_and_axes_never_alias(
        n_good in 1usize..10_000,
        seed in any::<u64>(),
        other_seed in any::<u64>(),
        churn in 0.0f64..0.45,
        other_churn in 0.0f64..0.45,
    ) {
        let base = ScenarioSpec::new(n_good, seed).churn(churn);
        let seed_changed = ScenarioSpec::new(n_good, other_seed).churn(churn);
        let churn_changed = ScenarioSpec::new(n_good, seed).churn(other_churn);
        if seed != other_seed {
            prop_assert_ne!(base.label(), seed_changed.label());
        }
        if churn != other_churn {
            prop_assert_ne!(base.label(), churn_changed.label());
        }
    }

    /// The scale knobs are versioned *optional* fields: a default-knob
    /// spec emits a label without them (committed labels stay valid and
    /// byte-identical), and appending them to any label round-trips.
    #[test]
    fn scale_knobs_are_backward_compatible(
        n_good in 1usize..10_000,
        seed in any::<u64>(),
        churn in 0.0f64..0.45,
    ) {
        let base = ScenarioSpec::new(n_good, seed).churn(churn);
        let label = base.label();
        prop_assert!(!label.contains("kernel="), "default kernel is elided: {}", label);
        for knob in ["runtime=", "drop=", "lat=", "part=", "transport=", "window=", "stradv="] {
            prop_assert!(!label.contains(knob), "default {} is elided: {}", knob, label);
        }

        // A pre-knob consumer's label parses to the default knobs.
        let parsed = ScenarioSpec::parse(&label).unwrap();
        prop_assert_eq!(parsed.kernel, KernelChoice::Legacy);
        prop_assert_eq!(parsed.runtime, RuntimeChoice::Sync);
        prop_assert_eq!(parsed.faults, tg_core::scenario::FaultPlan::default());
        prop_assert_eq!(parsed.transport, TransportChoice::Mem);
        prop_assert_eq!(parsed.window, None);
        prop_assert_eq!(parsed.string_adversary, StringAdversarySpec::None);

        // And the knobs themselves round-trip through both codecs.
        let scaled = ScenarioSpec { kernel: KernelChoice::Arena, ..base };
        prop_assert!(scaled.label().ends_with(";kernel=arena"), "label: {}", scaled.label());
        prop_assert_eq!(&ScenarioSpec::parse(&scaled.label()).unwrap(), &scaled);
        prop_assert_eq!(&ScenarioSpec::from_json(&scaled.to_json()).unwrap(), &scaled);

        // The retired `cap=` hint is an unknown field, not a silent no-op.
        let retired = ScenarioSpec::parse(&format!("{};cap=4096", label));
        prop_assert!(retired.is_err(), "cap= accepted: {:?}", retired);
    }

    /// Every key of a label — required or optional — is accepted at
    /// most once: appending a duplicate of *any* field makes the parse
    /// fail loudly instead of silently letting one value win. (The
    /// canonical-label property above makes aliasing impossible for
    /// emitted labels; this pins the behavior for hand-built ones.)
    #[test]
    fn duplicate_label_keys_are_rejected(
        n_good in 1usize..10_000,
        seed in any::<u64>(),
        churn in 0.0f64..0.45,
        drop in 0.001f64..1.0,
        lat in 1u64..1024,
        part in 1u64..1024,
        dup_value_from_label in any::<bool>(),
    ) {
        // Every optional knob is non-default, so all 26 codec keys
        // appear in the label and each one gets a duplication trial.
        let mut spec = ScenarioSpec::new(n_good, seed)
            .churn(churn)
            .runtime(RuntimeChoice::Actor)
            .drop_rate(drop)
            .latency(lat)
            .partition(part)
            .transport(TransportChoice::Socket)
            .window(lat + 1)
            .string_adversary(StringAdversarySpec::ForcedRecords {
                strings: 3,
                release_frac: drop,
            });
        spec.kernel = KernelChoice::Arena;
        let label = spec.label();
        let fields: Vec<(&str, &str)> = label
            .split(';')
            .skip(1) // the `tg1` version tag
            .map(|f| f.split_once('=').expect("every label field is key=value"))
            .collect();
        prop_assert_eq!(fields.len(), 26, "label: {}", label);
        for (key, value) in &fields {
            // Duplicating with the same value must fail exactly like a
            // conflicting one — duplicates are rejected, not merged.
            let dup = if dup_value_from_label { value } else { "0" };
            let poisoned = format!("{label};{key}={dup}");
            let parsed = ScenarioSpec::parse(&poisoned);
            prop_assert!(parsed.is_err(), "duplicate `{}` accepted: {}", key, poisoned);
            let msg = format!("{:?}", parsed.unwrap_err());
            prop_assert!(
                msg.contains("duplicate field"),
                "duplicate `{}` rejected for the wrong reason: {}",
                key,
                msg
            );
        }
    }

    /// `transport=socket` without `runtime=actor` is rejected at parse
    /// time — through both codec forms and through `build()` — with the
    /// typed [`ScenarioError::NeedsActorRuntime`], never at run time.
    #[test]
    fn socket_without_actor_runtime_is_rejected(
        n_good in 1usize..10_000,
        seed in any::<u64>(),
        churn in 0.0f64..0.45,
    ) {
        let base = ScenarioSpec::new(n_good, seed).churn(churn);

        // A hand-built label naming the socket transport but no (or the
        // sync) runtime: the codec refuses to produce the spec at all.
        let sync_label = format!("{};transport=socket", base.label());
        let parsed = ScenarioSpec::parse(&sync_label);
        prop_assert!(
            matches!(parsed, Err(ScenarioError::NeedsActorRuntime(_))),
            "parse accepted a sync socket spec: {:?}",
            parsed
        );
        let explicit = format!("{};runtime=sync;transport=socket", base.label());
        prop_assert!(matches!(
            ScenarioSpec::parse(&explicit),
            Err(ScenarioError::NeedsActorRuntime(_))
        ));

        // Same through the JSON form.
        let json = base.clone()
            .runtime(RuntimeChoice::Actor)
            .transport(TransportChoice::Socket)
            .to_json()
            .replace("\"runtime\": \"actor\",\n  ", "");
        prop_assert!(matches!(
            ScenarioSpec::from_json(&json),
            Err(ScenarioError::NeedsActorRuntime(_))
        ));

        // A builder-composed spec fails at build(), before any driver
        // (or socket) exists.
        let built = base.clone().transport(TransportChoice::Socket).build();
        prop_assert!(matches!(built, Err(ScenarioError::NeedsActorRuntime(_))));

        // The valid pairing parses and round-trips.
        let ok = base.runtime(RuntimeChoice::Actor).transport(TransportChoice::Socket);
        prop_assert_eq!(&ScenarioSpec::parse(&ok.label()).unwrap(), &ok);
    }

    /// The `stradv=` codec arm round-trips every variant and rejects
    /// malformed encodings (wrong arity, unknown name, junk numbers).
    #[test]
    fn string_adversary_codec_round_trips_and_rejects(
        strings in 0usize..1000,
        frac in 0.0f64..1.0,
        units in 0.0f64..64.0,
    ) {
        for adv in [
            StringAdversarySpec::None,
            StringAdversarySpec::DelayedRelease { strings, release_frac: frac, units },
            StringAdversarySpec::ForcedRecords { strings, release_frac: frac },
        ] {
            prop_assert_eq!(StringAdversarySpec::decode(&adv.encode()), Some(adv));
        }
        for bad in [
            "delayed",
            "delayed:1:0.5",
            "delayed:1:0.5:2:9",
            "records:1",
            "records:1:0.5:9",
            "hoard:1:0.5",
            "records:x:0.5",
            "",
        ] {
            prop_assert_eq!(StringAdversarySpec::decode(bad), None, "accepted `{}`", bad);
        }
    }
}

/// An empty population (`n=0;bad=0`) is rejected with a typed error by
/// both codec forms and by `build()` — there is no ring to build an
/// overlay over, and the overlay constructors panic on one. The smallest
/// population still builds and steps.
#[test]
fn empty_population_is_rejected() {
    let one = ScenarioSpec::new(1, 42);
    assert_eq!((one.n_good, one.n_bad), (1, 0));
    let empty_label = one.label().replace(";n=1;", ";n=0;");
    assert_ne!(empty_label, one.label());
    assert!(matches!(ScenarioSpec::parse(&empty_label), Err(ScenarioError::Unsupported(_))));
    let empty_json = one.to_json().replace("\"n\": 1,", "\"n\": 0,");
    assert_ne!(empty_json, one.to_json());
    assert!(matches!(ScenarioSpec::from_json(&empty_json), Err(ScenarioError::Unsupported(_))));
    for kind in GraphKind::ALL {
        let built = ScenarioSpec::new(0, 42).topology(kind).build();
        assert!(matches!(built, Err(ScenarioError::Unsupported(_))), "{kind:?}");
        let mut driver = one.clone().topology(kind).build().expect("n=1 builds");
        assert_eq!(driver.step().epoch, 2, "{kind:?}");
    }
}

/// Well-formed but hostile labels — every value lexes, none is a
/// scenario anyone meant: each is refused with a typed error or builds
/// and steps twice, never a panic. (`churn` outside `[0, 1]` used to
/// reach `Population::depart_good_fraction`'s assert, or run silently;
/// a `window` near `u64::MAX` overflowed the send-tick spread mid-step,
/// and a `lat` of `u64::MAX` wrapped the fault fate's divisor to zero;
/// a huge `d2` / `retries` / flipper margin overflowed `draws + 1`,
/// `1 + retries` and `bad + 2·margin`; a string adversary's negative or
/// infinite `units` put its outputs outside the flood's `(0, 1)`,
/// `u64::MAX` records would all have been pushed as injections, and a
/// `u64::MAX`-attempt hoarder ground and hoarded without end.)
#[test]
fn hostile_labels_are_refused_or_run() {
    use Verdict::*;
    let label = ScenarioSpec::new(40, 42).searches(10).label();
    let base: Vec<(&str, &str)> =
        label.split(';').skip(1).map(|f| f.split_once('=').expect("key=value")).collect();
    // (edits to the base label, what the codec must do with them)
    let cases: [(&[(&str, &str)], Verdict); 31] = [
        (&[("runtime", "actor"), ("window", "18446744073709551615")], Runs),
        (&[("runtime", "actor"), ("lat", "18446744073709551615")], Runs),
        // A window pinned at `u64::MAX` admits latencies up to
        // `u64::MAX`; their total must not overflow.
        (
            &[
                ("runtime", "actor"),
                ("window", "18446744073709551615"),
                ("lat", "18446744073709551615"),
            ],
            Runs,
        ),
        (&[("churn", "2")], Unsupported),
        (&[("churn", "inf")], Unsupported),
        (&[("churn", "-1")], Unsupported),
        (&[("churn", "NaN")], Unsupported),
        (&[("churn", "1")], Runs),
        (&[("d2", "0")], Runs),
        (&[("rule", "fixed:0")], Runs),
        (&[("searches", "0")], Runs),
        (&[("n", "2"), ("bad", "500")], Runs),
        (&[("strategy", "interval-targeting:0.4:5")], Runs),
        (&[("d2", "1e308")], Unsupported),
        (&[("retries", "18446744073709551615")], Unsupported),
        (&[("attack", "18446744073709551615")], Unsupported),
        (&[("searches", "18446744073709551615")], Unsupported),
        // Populations no ring's u32 indices address, refused before
        // anything is allocated for them.
        (&[("n", "18446744073709551615")], Unsupported),
        (&[("bad", "18446744073709551615")], Unsupported),
        (&[("n", "4294967296")], Unsupported),
        (&[("strategy", "adaptive-majority-flipper:18446744073709551615")], Runs),
        (&[("stradv", "delayed:3:0.49:-1")], Unsupported),
        (&[("stradv", "delayed:3:0.49:inf")], Unsupported),
        (&[("stradv", "delayed:3:0.49:NaN")], Unsupported),
        (&[("stradv", "delayed:65537:0.49:1")], Unsupported),
        (&[("stradv", "records:18446744073709551615:0.49")], Unsupported),
        (&[("stradv", "delayed:3:0.49:0")], Runs),
        // A hoarder that would grind and hoard for `u64::MAX` attempts.
        (
            &[("strategy", "precompute-hoarder:1:18446744073709551615"), ("defense", "f∘g")],
            Unsupported,
        ),
        // Realistic minting over one or two participants: some windows
        // yield no identity at all, at genesis or in a later epoch.
        (&[("n", "1"), ("bad", "0"), ("defense", "f∘g"), ("idealized", "false")], Runs),
        (&[("n", "2"), ("bad", "0"), ("defense", "f∘g"), ("idealized", "false")], Runs),
        // A retired topology's name is no topology.
        (&[("kind", "viceroy")], Malformed),
    ];
    for (edits, verdict) in cases {
        let mut fields: Vec<(&str, &str)> =
            base.iter().copied().filter(|f| edits.iter().all(|e| e.0 != f.0)).collect();
        fields.extend_from_slice(edits);
        let hostile = join(&fields);
        match ScenarioSpec::parse(&hostile) {
            Err(e) => assert!(
                matches!(
                    (verdict, &e),
                    (Unsupported, ScenarioError::Unsupported(_))
                        | (Malformed, ScenarioError::Parse(_))
                ),
                "{hostile}: {e}"
            ),
            Ok(spec) => {
                assert!(verdict == Runs, "{hostile} must not parse");
                let mut driver =
                    tg_pow::scenario::build(&spec).unwrap_or_else(|e| panic!("{hostile}: {e}"));
                driver.step();
                assert_eq!(driver.step().epoch, 3, "{hostile}");
            }
        }
    }
    let built = ScenarioSpec::new(40, 42).churn(2.0).build();
    assert!(matches!(built, Err(ScenarioError::Unsupported(_))), "build() shares the check");
}

/// What the codec must do with one hostile label.
#[derive(Clone, Copy, PartialEq)]
enum Verdict {
    /// Parse, build and step.
    Runs,
    /// Refuse as [`ScenarioError::Unsupported`].
    Unsupported,
    /// Refuse as [`ScenarioError::Parse`].
    Malformed,
}

/// One shared store for the observation round-trip cases (a fresh
/// directory per test process; keys are unique per case).
fn prop_store() -> &'static tg_sim::ResultStore {
    use std::sync::OnceLock;
    static STORE: OnceLock<tg_sim::ResultStore> = OnceLock::new();
    STORE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("tg-core-props-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        tg_sim::ResultStore::open(dir).expect("open proptest store")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random `EpochObservation`s survive the full persistence path —
    /// projection to `ObsRow`, the versioned line codec, and a real
    /// store round trip through the hash-chained stream — bit-for-bit
    /// (floats compared as raw bits, so NaN/−0.0/∞ all count).
    #[test]
    fn observation_round_trips_through_the_store(
        case in 0u64..u64::MAX,
        epoch in any::<u64>(),
        frac_red in any::<f64>(),
        sss in any::<f64>(),
        ssd in any::<f64>(),
        mean_memberships in any::<f64>(),
        bad_ids in any::<u32>(),
        bad_share in any::<f64>(),
        captured in any::<u32>(),
        total in any::<u32>(),
        has_pow in any::<bool>(),
        minted_good in any::<u16>(),
        good_misses in any::<u16>(),
        late in any::<u64>(),
    ) {
        use tg_core::scenario::{EpochObservation, ObsRow};
        let obs = EpochObservation {
            epoch,
            frac_red: vec![frac_red],
            search_success_single: sss,
            search_success_dual: ssd,
            mean_memberships,
            bad_ids: bad_ids as usize,
            bad_share,
            captured_groups: captured as usize,
            total_groups: total as usize,
            minted_good: has_pow.then_some(minted_good as usize),
            good_misses: has_pow.then_some(good_misses as usize),
            late,
            ..Default::default()
        };
        let row = ObsRow::of(&obs);
        let store = prop_store();
        let key = format!("prop;case={case};epoch={epoch}");
        store.put(&key, &[row.encode_line()]).expect("store put");
        let records = store.get(&key).expect("store get").expect("stream present");
        prop_assert_eq!(records.len(), 1);
        let back = ObsRow::decode_line(&records[0]).expect("decode");
        prop_assert_eq!(back.epoch, row.epoch);
        prop_assert_eq!(back.search_success_single.to_bits(), row.search_success_single.to_bits());
        prop_assert_eq!(back.search_success_dual.to_bits(), row.search_success_dual.to_bits());
        prop_assert_eq!(back.frac_red_s0.to_bits(), row.frac_red_s0.to_bits());
        prop_assert_eq!(back.captured_groups, row.captured_groups);
        prop_assert_eq!(back.total_groups, row.total_groups);
        prop_assert_eq!(back.bad_ids, row.bad_ids);
        prop_assert_eq!(back.bad_share.to_bits(), row.bad_share.to_bits());
        prop_assert_eq!(back.mean_memberships.to_bits(), row.mean_memberships.to_bits());
        prop_assert_eq!(back.minted_good.to_bits(), row.minted_good.to_bits());
        prop_assert_eq!(back.good_misses.to_bits(), row.good_misses.to_bits());
        prop_assert_eq!(back.late, row.late);
    }
}

/// A spec with every axis off its default. Written as struct literals
/// (no `..`) on purpose: a new `ScenarioSpec` or `Params` field does not
/// compile until it is set here — and then the table test below demands
/// its `AXES` row.
fn every_axis_set() -> ScenarioSpec {
    ScenarioSpec {
        params: Params {
            beta: 0.11,
            delta: 0.3,
            d1: 3.0,
            d2: 6.5,
            size_rule: GroupSizeRule::Fixed(9),
            churn_rate: 0.07,
            attack_requests_per_id: 3,
            link_retries: 5,
        },
        kind: GraphKind::DistanceHalving,
        mode: BuildMode::SingleGraph,
        defense: Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: false },
        strings: StringMode::Synthesized,
        strategy: StrategySpec::ChurnTimed { trigger: 0.12, retainer: 0.2 },
        n_good: 777,
        n_bad: 55,
        idealized_good: false,
        searches: 123,
        seed: 99,
        kernel: KernelChoice::Arena,
        runtime: RuntimeChoice::Actor,
        faults: FaultPlan { drop_rate: 0.25, latency_max: 7, partition_ticks: 11 },
        transport: TransportChoice::Socket,
        window: Some(96),
        string_adversary: StringAdversarySpec::ForcedRecords { strings: 3, release_frac: 0.5 },
    }
}

fn parse_error(label: &str) -> String {
    match ScenarioSpec::parse(label) {
        Ok(spec) => panic!("`{label}` must not parse, got {spec:?}"),
        Err(e) => e.to_string(),
    }
}

fn join(fields: &[(&str, &str)]) -> String {
    fields.iter().fold(String::from("tg1"), |label, (k, v)| format!("{label};{k}={v}"))
}

/// The codec contract, checked per [`AXES`] row instead of per
/// hand-listed key: the all-set spec's label *is* the table (so a field
/// without a row cannot round-trip, and a row cannot go missing), and
/// every row answers missing / duplicate / elided / alone the same way.
#[test]
fn every_axis_obeys_the_codec_contract() {
    let full = every_axis_set();
    let label = full.label();
    let fields: Vec<(&str, &str)> =
        label.split(';').skip(1).map(|f| f.split_once('=').expect("key=value")).collect();
    let keys: Vec<&str> = fields.iter().map(|&(k, _)| k).collect();
    assert_eq!(keys, AXES.iter().map(|a| a.key).collect::<Vec<_>>(), "label: {label}");
    assert_eq!(ScenarioSpec::parse(&label).as_ref(), Ok(&full));
    assert_eq!(ScenarioSpec::from_json(&full.to_json()).as_ref(), Ok(&full));
    assert!(parse_error(&format!("{label};nope=1")).contains("unknown field `nope`"));

    // Optional axes are elided at the default, so the required fields
    // alone are a canonical label.
    let required: Vec<(&str, &str)> =
        AXES.iter().zip(&fields).filter(|(a, _)| a.required).map(|(_, &f)| f).collect();
    let base = ScenarioSpec::parse(&join(&required)).expect("required fields suffice");
    assert_eq!(base.label(), join(&required));

    for (axis, &(key, value)) in AXES.iter().zip(&fields) {
        let repeated = parse_error(&format!("{label};{key}={value}"));
        assert!(repeated.contains(&format!("duplicate field `{key}`")), "{key}: {repeated}");

        let without: Vec<(&str, &str)> = fields.iter().copied().filter(|f| f.0 != key).collect();
        if axis.required {
            let missing = parse_error(&join(&without));
            assert!(missing.contains(&format!("missing field `{key}`")), "{key}: {missing}");
            continue;
        }
        // Absent means default: what parses re-labels without the key.
        // (Dropping `runtime` leaves `transport=socket` on the default
        // sync runtime, which is the one combination the codec refuses.)
        match ScenarioSpec::parse(&join(&without)) {
            Ok(spec) => assert_eq!(spec.label(), join(&without), "dropped {key}"),
            Err(e) => assert!(
                key == "runtime" && matches!(e, ScenarioError::NeedsActorRuntime(_)),
                "dropped {key}: {e}"
            ),
        }

        // Set alone, the axis shows up exactly once and round-trips.
        let mut alone = required.clone();
        if key == "transport" {
            alone.push(("runtime", "actor"));
        }
        alone.push((key, value));
        let spec = ScenarioSpec::parse(&join(&alone)).expect("one optional axis set");
        assert_ne!(spec, base, "{key}={value} must differ from the default");
        assert_eq!(spec.label(), join(&alone));
        assert_eq!(spec.label().matches(&format!(";{key}=")).count(), 1);
        assert_eq!(ScenarioSpec::from_json(&spec.to_json()).as_ref(), Ok(&spec));
    }
}

/// What a decoder accepted is in canonical reach: re-encoding it gives
/// a form that decodes, and re-encodes, to the same bytes. (Compared as
/// text, not as values — an accepted `NaN` is not equal to itself — and
/// not against the input, since `+5`, `05` and `5` all read as 5.)
fn check_decoders(text: &str) -> Result<(), TestCaseError> {
    if let Ok(spec) = ScenarioSpec::parse(text) {
        let again = ScenarioSpec::parse(&spec.label()).map(|s| s.label());
        prop_assert_eq!(again, Ok(spec.label()), "label input: {:?}", text);
    }
    if let Ok(spec) = ScenarioSpec::from_json(text) {
        let again = ScenarioSpec::from_json(&spec.to_json()).map(|s| s.to_json());
        prop_assert_eq!(again, Ok(spec.to_json()), "json input: {:?}", text);
    }
    if let Ok(row) = ObsRow::decode_line(text) {
        let again = ObsRow::decode_line(&row.encode_line()).map(|r| r.encode_line());
        prop_assert_eq!(again, Ok(row.encode_line()), "row input: {:?}", text);
    }
    Ok(())
}

/// Fragments the three decoders give meaning to, for inputs that get
/// past the first check more often than raw bytes do.
const SOUP: [&str; 39] = [
    "tg1",
    "o2",
    ";",
    ";",
    "=",
    "=",
    ",",
    ",",
    ":",
    ".",
    "-",
    "+",
    "e",
    "{",
    "}",
    "\"",
    " ",
    "\n",
    "0",
    "1",
    "7",
    "0.5",
    "NaN",
    "inf",
    "1e400",
    "18446744073709551616",
    "true",
    "codec",
    "n",
    "seed",
    "drop",
    "window",
    "kind",
    "chord",
    "strategy",
    "honest",
    "delayed",
    "f∘g",
    "∘",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Decoder totality, part 1: arbitrary bytes (read as lossy UTF-8)
    /// and arbitrary codec-flavoured token soup are decoded or rejected
    /// by `parse`, `from_json` and `decode_line` — never a panic.
    #[test]
    fn decoders_are_total_on_arbitrary_text(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        picks in prop::collection::vec(0usize..SOUP.len(), 0..60),
    ) {
        check_decoders(&String::from_utf8_lossy(&bytes))?;
        check_decoders(&picks.iter().map(|&i| SOUP[i]).collect::<String>())?;
    }

    /// Decoder totality, part 2: every truncation and a single-byte
    /// substitution at every position of valid `label()`, `to_json()`
    /// and `encode_line()` output — the damage a torn write or a flipped
    /// byte does to a stored key or record.
    #[test]
    fn decoders_are_total_on_damaged_valid_forms(
        all_axes in any::<bool>(),
        n_good in 1usize..100_000,
        seed in any::<u64>(),
        beta in 0.0f64..0.5,
        frac in 0.0f64..1.0,
        counts in any::<u32>(),
        has_pow in any::<bool>(),
        noise in prop::collection::vec(any::<u8>(), 64..65),
    ) {
        let spec = if all_axes { every_axis_set() } else { ScenarioSpec::new(n_good, seed) };
        let spec = spec.beta(beta).churn(frac);
        let row = ObsRow {
            epoch: seed,
            search_success_single: frac,
            search_success_dual: beta,
            frac_red_s0: frac * beta,
            captured_groups: counts % 1000,
            total_groups: counts,
            bad_ids: counts / 7,
            bad_share: beta,
            mean_memberships: frac * 9.0,
            minted_good: if has_pow { f64::from(counts) } else { f64::NAN },
            good_misses: if has_pow { 0.0 } else { f64::NAN },
            late: seed >> 40,
        };
        for valid in [spec.label(), spec.to_json(), row.encode_line()] {
            check_decoders(&valid)?;
            let bytes = valid.as_bytes();
            for i in 0..bytes.len() {
                check_decoders(&String::from_utf8_lossy(&bytes[..i]))?;
                // Half the substitutions are codec punctuation or
                // digits, which keep more of the line decodable.
                const MARKS: &[u8] = b";=,:.-+eN019\"{}";
                let pick = noise[i % noise.len()];
                let mut damaged = bytes.to_vec();
                damaged[i] =
                    if pick % 2 == 0 { MARKS[usize::from(pick / 2) % MARKS.len()] } else { pick };
                check_decoders(&String::from_utf8_lossy(&damaged))?;
            }
        }
    }
}
