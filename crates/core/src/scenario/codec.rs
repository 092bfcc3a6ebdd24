//! Every string form of a scenario: the per-enum tokens, the [`AXES`]
//! table, and the label / JSON entry points walked from it.

use super::spec::{
    Defense, MintScheme, ScenarioError, ScenarioSpec, StrategySpec, StringAdversarySpec, StringMode,
};
use crate::dynamic::build::BuildMode;
use crate::dynamic::kernel::KernelChoice;
use crate::params::GroupSizeRule;
use crate::runtime::RuntimeChoice;
use std::str::FromStr;
use tg_overlay::GraphKind;
use tg_sim::net::TransportChoice;

impl Defense {
    /// Stable column label for tables, CSVs, and the scenario codec.
    pub fn label(&self) -> &'static str {
        match self {
            Defense::NoPow => "none",
            Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: true } => "single-hash",
            Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: false } => {
                "single-hash-frozen"
            }
            Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true } => "f∘g",
            Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: false } => "f∘g-frozen",
        }
    }

    /// Parse a label produced by [`Defense::label`].
    pub fn parse(s: &str) -> Option<Defense> {
        Some(match s {
            "none" => Defense::NoPow,
            "single-hash" => Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: true },
            "single-hash-frozen" => {
                Defense::Pow { scheme: MintScheme::SingleHash, fresh_strings: false }
            }
            "f∘g" => Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: true },
            "f∘g-frozen" => Defense::Pow { scheme: MintScheme::TwoHash, fresh_strings: false },
            _ => return None,
        })
    }
}

impl StringMode {
    /// Stable label for the scenario codec.
    pub fn label(&self) -> &'static str {
        match self {
            StringMode::Protocol => "protocol",
            StringMode::Synthesized => "synthesized",
        }
    }

    /// Parse a label produced by [`StringMode::label`].
    pub fn parse(s: &str) -> Option<StringMode> {
        Some(match s {
            "protocol" => StringMode::Protocol,
            "synthesized" => StringMode::Synthesized,
            _ => return None,
        })
    }
}

impl StrategySpec {
    /// Codec form: the name plus `:`-separated parameters.
    pub fn encode(&self) -> String {
        match *self {
            StrategySpec::IntervalTargeting { victim, width } => {
                format!("interval-targeting:{victim}:{width}")
            }
            StrategySpec::AdaptiveMajorityFlipper { margin } => {
                format!("adaptive-majority-flipper:{margin}")
            }
            StrategySpec::ChurnTimed { trigger, retainer } => {
                format!("churn-timed:{trigger}:{retainer}")
            }
            StrategySpec::PrecomputeHoarder { fam_seed, attempts } => {
                format!("precompute-hoarder:{fam_seed}:{attempts}")
            }
            _ => self.name().to_string(),
        }
    }

    /// Parse the form produced by [`StrategySpec::encode`].
    pub fn decode(s: &str) -> Option<StrategySpec> {
        let mut parts = s.split(':');
        let name = parts.next()?;
        let mut arg = || parts.next();
        Some(match name {
            "honest" => StrategySpec::Honest,
            "uniform" => StrategySpec::Uniform,
            "gap-filling" => StrategySpec::GapFilling,
            "interval-targeting" => StrategySpec::IntervalTargeting {
                victim: arg()?.parse().ok()?,
                width: arg()?.parse().ok()?,
            },
            "adaptive-majority-flipper" => {
                StrategySpec::AdaptiveMajorityFlipper { margin: arg()?.parse().ok()? }
            }
            "churn-timed" => StrategySpec::ChurnTimed {
                trigger: arg()?.parse().ok()?,
                retainer: arg()?.parse().ok()?,
            },
            "precompute-hoarder" => StrategySpec::PrecomputeHoarder {
                fam_seed: arg()?.parse().ok()?,
                attempts: arg()?.parse().ok()?,
            },
            _ => return None,
        })
    }
}

impl StringAdversarySpec {
    /// Codec form: `none`, `delayed:{strings}:{release_frac}:{units}`,
    /// or `records:{strings}:{release_frac}`.
    pub fn encode(&self) -> String {
        match *self {
            StringAdversarySpec::None => "none".to_string(),
            StringAdversarySpec::DelayedRelease { strings, release_frac, units } => {
                format!("delayed:{strings}:{release_frac}:{units}")
            }
            StringAdversarySpec::ForcedRecords { strings, release_frac } => {
                format!("records:{strings}:{release_frac}")
            }
        }
    }

    /// Parse the form produced by [`StringAdversarySpec::encode`].
    pub fn decode(s: &str) -> Option<StringAdversarySpec> {
        let mut parts = s.split(':');
        let name = parts.next()?;
        let mut arg = || parts.next();
        let spec = match name {
            "none" => StringAdversarySpec::None,
            "delayed" => StringAdversarySpec::DelayedRelease {
                strings: arg()?.parse().ok()?,
                release_frac: arg()?.parse().ok()?,
                units: arg()?.parse().ok()?,
            },
            "records" => StringAdversarySpec::ForcedRecords {
                strings: arg()?.parse().ok()?,
                release_frac: arg()?.parse().ok()?,
            },
            _ => return None,
        };
        if arg().is_some() {
            return None;
        }
        Some(spec)
    }
}

/// Codec version tag leading every label (and stored in the JSON form):
/// parsing rejects anything else, so the format can evolve without
/// silently misreading old keys.
const CODEC_VERSION: &str = "tg1";

fn encode_rule(rule: GroupSizeRule) -> String {
    match rule {
        GroupSizeRule::TinyLogLog => "loglog".to_string(),
        GroupSizeRule::ClassicLog { c } => format!("log:{c}"),
        GroupSizeRule::Fixed(k) => format!("fixed:{k}"),
    }
}

fn decode_rule(s: &str) -> Option<GroupSizeRule> {
    if s == "loglog" {
        return Some(GroupSizeRule::TinyLogLog);
    }
    if let Some(c) = s.strip_prefix("log:") {
        return Some(GroupSizeRule::ClassicLog { c: c.parse().ok()? });
    }
    if let Some(k) = s.strip_prefix("fixed:") {
        return Some(GroupSizeRule::Fixed(k.parse().ok()?));
    }
    None
}

fn encode_mode(mode: BuildMode) -> &'static str {
    match mode {
        BuildMode::DualGraph => "dual",
        BuildMode::SingleGraph => "single",
    }
}

fn decode_mode(s: &str) -> Option<BuildMode> {
    match s {
        "dual" => Some(BuildMode::DualGraph),
        "single" => Some(BuildMode::SingleGraph),
        _ => None,
    }
}

/// Whether a codec value is numeric or boolean (emitted bare in JSON)
/// rather than a string (quoted).
fn bare_json_value(v: &str) -> bool {
    v == "true" || v == "false" || v.parse::<f64>().is_ok()
}

/// One codec axis: a key of the label / JSON forms and how its value is
/// read from and written into a [`ScenarioSpec`]. [`AXES`] lists them
/// all; the codec has no other per-key code.
pub struct Axis {
    /// The field name in both serialized forms.
    pub key: &'static str,
    /// Required axes (the ones `tg1` froze with) are always emitted and
    /// must be present. Optional axes were added later: they are
    /// emitted only when their encoding differs from the default
    /// spec's, and absent means default — so every label or JSON form
    /// written before they existed parses unchanged, byte-compatible
    /// both ways.
    pub required: bool,
    encode: fn(&ScenarioSpec) -> String,
    decode: fn(&mut ScenarioSpec, &str) -> Result<(), ScenarioError>,
}

const REQUIRED: bool = true;
const OPTIONAL: bool = false;

/// One [`AXES`] row: `axis!(required, "key", field.path, |x| text, read)`
/// — `text` renders the field's value `x`, `read(key, text)` parses it
/// back or says why not.
macro_rules! axis {
    ($required:expr, $key:literal, $($field:ident).+, |$x:ident| $text:expr, $read:expr) => {
        Axis {
            key: $key,
            required: $required,
            encode: |s| {
                let $x = s.$($field).+;
                $text.into()
            },
            decode: |s, v| {
                s.$($field).+ = $read($key, v)?;
                Ok(())
            },
        }
    };
}

/// The codec, in emission order: one row per key, shared by both
/// directions and both serialized forms. Adding an axis to the codec is
/// adding its row here.
pub static AXES: [Axis; 26] = [
    axis!(REQUIRED, "n", n_good, |n| n.to_string(), int),
    axis!(REQUIRED, "bad", n_bad, |n| n.to_string(), int),
    axis!(REQUIRED, "seed", seed, |n| n.to_string(), int),
    axis!(REQUIRED, "searches", searches, |n| n.to_string(), int),
    axis!(REQUIRED, "kind", kind, |k| k.name(), token(GraphKind::parse)),
    axis!(REQUIRED, "mode", mode, |m| encode_mode(m), token(decode_mode)),
    axis!(REQUIRED, "defense", defense, |d| d.label(), token(Defense::parse)),
    axis!(REQUIRED, "strings", strings, |m| m.label(), token(StringMode::parse)),
    axis!(REQUIRED, "strategy", strategy, |p| p.encode(), token(StrategySpec::decode)),
    axis!(REQUIRED, "idealized", idealized_good, |b| b.to_string(), boolean),
    axis!(REQUIRED, "beta", params.beta, |x| x.to_string(), num),
    axis!(REQUIRED, "delta", params.delta, |x| x.to_string(), num),
    axis!(REQUIRED, "d1", params.d1, |x| x.to_string(), num),
    axis!(REQUIRED, "d2", params.d2, |x| x.to_string(), num),
    axis!(REQUIRED, "rule", params.size_rule, |r| encode_rule(r), token(decode_rule)),
    axis!(REQUIRED, "churn", params.churn_rate, |x| x.to_string(), num),
    axis!(REQUIRED, "attack", params.attack_requests_per_id, |n| n.to_string(), int),
    axis!(REQUIRED, "retries", params.link_retries, |n| n.to_string(), int),
    axis!(OPTIONAL, "kernel", kernel, |k| k.label(), token(KernelChoice::parse)),
    axis!(OPTIONAL, "runtime", runtime, |r| r.label(), token(RuntimeChoice::parse)),
    axis!(OPTIONAL, "drop", faults.drop_rate, |p| p.to_string(), probability),
    axis!(OPTIONAL, "lat", faults.latency_max, |n| n.to_string(), int),
    axis!(OPTIONAL, "part", faults.partition_ticks, |n| n.to_string(), int),
    axis!(OPTIONAL, "transport", transport, |t| t.label(), token(TransportChoice::parse)),
    axis!(OPTIONAL, "window", window, |w| maybe(w), positive),
    axis!(OPTIONAL, "stradv", string_adversary, |a| a.encode(), token(StringAdversarySpec::decode)),
];

fn err(msg: impl Into<String>) -> ScenarioError {
    ScenarioError::Parse(msg.into())
}

fn not(key: &str, what: &str) -> ScenarioError {
    err(format!("field `{key}` {what}"))
}

fn int<T: FromStr>(key: &str, v: &str) -> Result<T, ScenarioError> {
    v.parse().map_err(|_| not(key, "is not an integer"))
}

fn num(key: &str, v: &str) -> Result<f64, ScenarioError> {
    v.parse().map_err(|_| not(key, "is not a number"))
}

fn boolean(key: &str, v: &str) -> Result<bool, ScenarioError> {
    v.parse().map_err(|_| not(key, "is not a bool"))
}

fn probability(key: &str, v: &str) -> Result<f64, ScenarioError> {
    let p = num(key, v)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(not(key, "is not a probability"));
    }
    Ok(p)
}

fn positive(key: &str, v: &str) -> Result<Option<u64>, ScenarioError> {
    let ticks: u64 = int(key, v)?;
    if ticks == 0 {
        return Err(not(key, "must be positive"));
    }
    Ok(Some(ticks))
}

/// A reader for an enum axis, from the enum's own token parser.
fn token<T>(parse: fn(&str) -> Option<T>) -> impl Fn(&str, &str) -> Result<T, ScenarioError> {
    move |key, v| parse(v).ok_or_else(|| err(format!("bad `{key}`")))
}

/// An unset `Option` knob encodes as the empty string — which no set
/// value does, so it is elided exactly when unset.
fn maybe<T: ToString>(v: Option<T>) -> String {
    v.map_or(String::new(), |v| v.to_string())
}

impl ScenarioSpec {
    /// The spec as ordered `(key, value)` codec fields — the single
    /// source both serialized forms are generated from.
    fn fields(&self) -> impl Iterator<Item = (&'static str, String)> + '_ {
        let default = ScenarioSpec::new(0, 0);
        AXES.iter().filter_map(move |axis| {
            let v = (axis.encode)(self);
            (axis.required || v != (axis.encode)(&default)).then_some((axis.key, v))
        })
    }

    /// Rebuild a spec from codec fields (order-insensitive; every key
    /// at most once, every required key exactly once).
    fn from_fields(pairs: &[(&str, &str)]) -> Result<ScenarioSpec, ScenarioError> {
        let mut values = [None; AXES.len()];
        for &(k, v) in pairs {
            let i = AXES
                .iter()
                .position(|axis| axis.key == k)
                .ok_or_else(|| err(format!("unknown field `{k}`")))?;
            if values[i].replace(v).is_some() {
                return Err(err(format!("duplicate field `{k}`")));
            }
        }
        let mut spec = ScenarioSpec::new(0, 0);
        for (axis, value) in AXES.iter().zip(values) {
            match value {
                Some(v) => (axis.decode)(&mut spec, v)?,
                None if axis.required => {
                    return Err(err(format!("missing field `{}`", axis.key)));
                }
                None => {}
            }
        }
        spec.check_transport()?;
        Ok(spec)
    }

    /// The canonical one-line label: `tg1;key=value;…`. Stable across
    /// releases (versioned by the leading tag) and exactly invertible by
    /// [`ScenarioSpec::parse`] — fit for file names, cache keys, and
    /// seed-stream labels.
    pub fn label(&self) -> String {
        let mut out = String::from(CODEC_VERSION);
        for (k, v) in self.fields() {
            out.push(';');
            out.push_str(k);
            out.push('=');
            out.push_str(&v);
        }
        out
    }

    /// Parse a label produced by [`ScenarioSpec::label`].
    pub fn parse(label: &str) -> Result<ScenarioSpec, ScenarioError> {
        let mut parts = label.split(';');
        if parts.next() != Some(CODEC_VERSION) {
            return Err(err(format!("label must start with `{CODEC_VERSION};`")));
        }
        let pairs: Vec<(&str, &str)> = parts
            .map(|p| p.split_once('=').ok_or_else(|| err(format!("field `{p}` has no `=`"))))
            .collect::<Result<_, _>>()?;
        ScenarioSpec::from_fields(&pairs)
    }

    /// The spec as a flat JSON object (hand-rolled; the workspace
    /// vendors no serde). Numbers and booleans are bare, everything else
    /// is a quoted string; a `"codec"` field carries the version tag.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"codec\": \"{CODEC_VERSION}\""));
        for (k, v) in self.fields() {
            out.push_str(",\n");
            if bare_json_value(&v) {
                out.push_str(&format!("  \"{k}\": {v}"));
            } else {
                out.push_str(&format!("  \"{k}\": \"{v}\""));
            }
        }
        out.push_str("\n}\n");
        out
    }

    /// Parse the flat JSON form produced by [`ScenarioSpec::to_json`].
    ///
    /// This is a scanner for exactly that shape — one object of
    /// string/number/boolean fields, no nesting, no escapes (no codec
    /// value contains `"`, `,`, or `\`) — not a general JSON parser.
    pub fn from_json(json: &str) -> Result<ScenarioSpec, ScenarioError> {
        let body = json
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| err("not a JSON object"))?;
        let mut pairs = Vec::new();
        for field in body.split(',') {
            let field = field.trim();
            if field.is_empty() {
                continue;
            }
            let (k, v) = field.split_once(':').ok_or_else(|| err("field without `:`"))?;
            let k = k.trim().strip_prefix('"').and_then(|s| s.strip_suffix('"'));
            let k = k.ok_or_else(|| err("key is not a string"))?;
            let v = v.trim();
            let v = v.strip_prefix('"').and_then(|s| s.strip_suffix('"')).unwrap_or(v);
            pairs.push((k, v));
        }
        match pairs.iter().position(|&(k, _)| k == "codec") {
            Some(i) if pairs[i].1 == CODEC_VERSION => {
                pairs.remove(i);
            }
            _ => return Err(err(format!("JSON form must carry codec `{CODEC_VERSION}`"))),
        }
        ScenarioSpec::from_fields(&pairs)
    }
}
