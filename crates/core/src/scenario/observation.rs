//! The scalar projection [`ObsRow`] of one [`EpochObservation`] (the
//! record itself lives in [`crate::dynamic::system`]), and the row's
//! versioned line codec.

use crate::dynamic::system::EpochObservation;
use std::fmt::Display;
use std::str::FromStr;

/// The scalar projection of one [`EpochObservation`] — the `Copy` row
/// [`EpochDriver::run`](super::EpochDriver::run) returns per epoch and
/// the result store keeps. Optional PoW counts are encoded as
/// `f64::NAN` when the scenario has no minting layer, keeping every
/// column plainly numeric.
#[derive(Clone, Copy, Debug)]
pub struct ObsRow {
    /// Epoch index the freshly built graphs serve.
    pub epoch: u64,
    /// Search success using a single side.
    pub search_success_single: f64,
    /// Search success using both sides.
    pub search_success_dual: f64,
    /// Side-0 red fraction.
    pub frac_red_s0: f64,
    /// Groups without a good majority, all sides.
    pub captured_groups: u32,
    /// Total groups, all sides.
    pub total_groups: u32,
    /// Adversarial IDs that entered the dynamic layer.
    pub bad_ids: u32,
    /// Key-space fraction those IDs own.
    pub bad_share: f64,
    /// Mean per-good-pool-ID memberships.
    pub mean_memberships: f64,
    /// Good IDs minted (PoW only; `NAN` otherwise).
    pub minted_good: f64,
    /// Good minting-window misses (PoW statistical pipeline; `NAN`
    /// otherwise).
    pub good_misses: f64,
    /// Messages past the phase-window deadline this epoch (`0` outside
    /// the actor runtime).
    pub late: u64,
}

impl ObsRow {
    /// Project an observation onto the row's columns.
    pub fn of(o: &EpochObservation) -> ObsRow {
        ObsRow {
            epoch: o.epoch,
            search_success_single: o.search_success_single,
            search_success_dual: o.search_success_dual,
            frac_red_s0: o.frac_red.first().copied().unwrap_or(0.0),
            captured_groups: o.captured_groups as u32,
            total_groups: o.total_groups as u32,
            bad_ids: o.bad_ids as u32,
            bad_share: o.bad_share,
            mean_memberships: o.mean_memberships,
            minted_good: o.minted_good.map(|v| v as f64).unwrap_or(f64::NAN),
            good_misses: o.good_misses.map(|v| v as f64).unwrap_or(f64::NAN),
            late: o.late,
        }
    }

    /// Version tag leading every encoded row line. `o2` appended the
    /// `late` column; `o1` streams in old stores no longer decode (the
    /// store is a local cache, so a stale stream re-simulates).
    pub const LINE_VERSION: &'static str = "o2";

    /// Encode the row as one versioned, comma-separated text line, the
    /// record payload the result store keeps per epoch. Floats are
    /// rendered with `Display`, whose shortest-round-trip guarantee
    /// makes [`ObsRow::decode_line`] bit-exact — a warm sweep recomputes
    /// the same statistics as the live run that wrote the stream.
    pub fn encode_line(&self) -> String {
        format!(
            "{};{},{},{},{},{},{},{},{},{},{},{},{}",
            Self::LINE_VERSION,
            self.epoch,
            self.search_success_single,
            self.search_success_dual,
            self.frac_red_s0,
            self.captured_groups,
            self.total_groups,
            self.bad_ids,
            self.bad_share,
            self.mean_memberships,
            self.minted_good,
            self.good_misses,
            self.late,
        )
    }

    /// Decode one [`ObsRow::encode_line`] line; rejects unknown
    /// versions and malformed fields with a description.
    pub fn decode_line(line: &str) -> Result<ObsRow, String> {
        let (version, body) =
            line.split_once(';').ok_or_else(|| format!("missing version tag in `{line}`"))?;
        if version != Self::LINE_VERSION {
            return Err(format!(
                "unsupported row version `{version}` (want {})",
                Self::LINE_VERSION
            ));
        }
        let fields: Vec<&str> = body.split(',').collect();
        if fields.len() != 12 {
            return Err(format!("expected 12 fields, found {} in `{line}`", fields.len()));
        }
        fn field<T: FromStr<Err: Display>>(fields: &[&str], i: usize) -> Result<T, String> {
            fields[i].parse().map_err(|e| format!("field {i} `{}`: {e}", fields[i]))
        }
        Ok(ObsRow {
            epoch: field(&fields, 0)?,
            search_success_single: field(&fields, 1)?,
            search_success_dual: field(&fields, 2)?,
            frac_red_s0: field(&fields, 3)?,
            captured_groups: field(&fields, 4)?,
            total_groups: field(&fields, 5)?,
            bad_ids: field(&fields, 6)?,
            bad_share: field(&fields, 7)?,
            mean_memberships: field(&fields, 8)?,
            minted_good: field(&fields, 9)?,
            good_misses: field(&fields, 10)?,
            late: field(&fields, 11)?,
        })
    }

    /// Captured groups as a fraction of all groups.
    pub fn captured_frac(&self) -> f64 {
        self.captured_groups as f64 / self.total_groups.max(1) as f64
    }

    /// The mean of one column over a run's rows (`0` for no rows),
    /// summed in epoch order — so a stream replayed from the store
    /// reduces to bit-identical statistics.
    pub fn mean(rows: &[ObsRow], column: impl Fn(&ObsRow) -> f64) -> f64 {
        rows.iter().map(column).sum::<f64>() / rows.len().max(1) as f64
    }
}
