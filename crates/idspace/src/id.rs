//! Points on the unit ring `[0,1)` with exact fixed-point arithmetic.

use std::fmt;

/// Clockwise distance between two ring points, in ring units.
///
/// A `RingDistance` of `u` represents the fraction `u / 2^64` of the full
/// ring. Distances are always in `[0, 1)`: the distance from a point to
/// itself is zero and the maximal distance is one ulp short of a full turn.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RingDistance(pub u64);

impl RingDistance {
    /// The zero distance.
    pub const ZERO: RingDistance = RingDistance(0);
    /// The largest representable distance (one ulp less than a full turn).
    pub const MAX: RingDistance = RingDistance(u64::MAX);

    /// The distance as a fraction of the full ring, in `[0, 1)`.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / 2.0f64.powi(64)
    }

    /// Construct from a fraction of the ring. Values outside `[0,1)` are
    /// reduced modulo 1.
    #[inline]
    pub fn from_f64(frac: f64) -> Self {
        let f = frac.rem_euclid(1.0);
        RingDistance((f * 2.0f64.powi(64)) as u64)
    }

    /// Half of this distance (rounding down).
    #[inline]
    pub fn halved(self) -> Self {
        RingDistance(self.0 >> 1)
    }
}

impl fmt::Debug for RingDistance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RingDistance({:.6})", self.as_f64())
    }
}

/// A virtual participant identifier: a point on the unit ring `[0,1)`.
///
/// Internally a 64-bit fixed-point value `v`, denoting the real number
/// `v / 2^64`. All arithmetic wraps around the ring, mirroring the paper's
/// convention that moving clockwise from a point near `1` continues at `0`.
///
/// `Ord` on `Id` is the natural order of the underlying fixed-point values,
/// i.e. position on the ring starting at `0`. For *clockwise* comparisons
/// relative to a base point use [`Id::distance_cw`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Id(pub u64);

impl Id {
    /// The ring origin, `0.0`.
    pub const ZERO: Id = Id(0);

    /// Construct from a fraction in `[0,1)`; out-of-range inputs are reduced
    /// modulo 1.
    #[inline]
    pub fn from_f64(frac: f64) -> Self {
        let f = frac.rem_euclid(1.0);
        Id((f * 2.0f64.powi(64)) as u64)
    }

    /// The point as a fraction of the ring, in `[0,1)`.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / 2.0f64.powi(64)
    }

    /// The raw fixed-point representation.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Clockwise distance from `self` to `other`: the fraction of the ring
    /// swept when moving clockwise (increasing direction, wrapping) from
    /// `self` until reaching `other`. Zero iff the points coincide.
    #[inline]
    pub fn distance_cw(self, other: Id) -> RingDistance {
        RingDistance(other.0.wrapping_sub(self.0))
    }

    /// The minimum of the clockwise and counter-clockwise distances.
    #[inline]
    pub fn distance_min(self, other: Id) -> RingDistance {
        let cw = other.0.wrapping_sub(self.0);
        let ccw = self.0.wrapping_sub(other.0);
        RingDistance(cw.min(ccw))
    }

    /// Move clockwise by `d`.
    #[inline]
    #[allow(clippy::should_implement_trait)] // ring motion, not numeric +
    pub fn add(self, d: RingDistance) -> Id {
        Id(self.0.wrapping_add(d.0))
    }

    /// Move counter-clockwise by `d`.
    #[inline]
    #[allow(clippy::should_implement_trait)] // ring motion, not numeric -
    pub fn sub(self, d: RingDistance) -> Id {
        Id(self.0.wrapping_sub(d.0))
    }

    /// Move clockwise by the fraction `1 / 2^i` of the ring — the Chord
    /// finger offset `Δ(i)` (§I-C footnote 11). `i` must be in `1..=64`.
    #[inline]
    pub fn add_pow2_fraction(self, i: u32) -> Id {
        debug_assert!((1..=64).contains(&i));
        let offset = if i == 64 { 1u64 } else { 1u64 << (64 - i) };
        Id(self.0.wrapping_add(offset))
    }

    /// The image of this point under the doubling map `x ↦ 2x mod 1`
    /// (de Bruijn / distance-halving constructions, \[19\], \[39\]).
    #[inline]
    pub fn double(self) -> Id {
        Id(self.0.wrapping_shl(1))
    }

    /// The left preimage of the doubling map: `x ↦ x/2` (the `ℓ` edge of
    /// the continuous-discrete construction \[39\]).
    #[inline]
    pub fn half_left(self) -> Id {
        Id(self.0 >> 1)
    }

    /// The right preimage of the doubling map: `x ↦ x/2 + 1/2` (the `r`
    /// edge of the continuous-discrete construction \[39\]).
    #[inline]
    pub fn half_right(self) -> Id {
        Id((self.0 >> 1) | (1u64 << 63))
    }

    /// Whether `self` lies in the clockwise half-open arc `(from, to]`.
    ///
    /// This is the Chord routing predicate: key `k` is owned by `suc(k)`
    /// and a node forwards while the key is outside `(current, successor]`.
    /// When `from == to` the arc is the full ring and everything matches.
    #[inline]
    pub fn in_arc_open_closed(self, from: Id, to: Id) -> bool {
        if from == to {
            return true;
        }
        // Shift coordinates so `from` is the origin; then the arc is (0, t].
        let x = self.0.wrapping_sub(from.0);
        let t = to.0.wrapping_sub(from.0);
        x != 0 && x <= t
    }

    /// Bit `j` of the clockwise position, with `j = 0` the most significant
    /// bit. Used to feed target bits into de Bruijn style routing.
    #[inline]
    pub fn bit(self, j: u32) -> bool {
        debug_assert!(j < 64);
        (self.0 >> (63 - j)) & 1 == 1
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Id({:.6})", self.as_f64())
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.as_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_cw_wraps() {
        let a = Id::from_f64(0.9);
        let b = Id::from_f64(0.1);
        let d = a.distance_cw(b);
        assert!((d.as_f64() - 0.2).abs() < 1e-9, "wrap distance: {d:?}");
        let back = b.distance_cw(a);
        assert!((back.as_f64() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let a = Id::from_f64(0.37);
        assert_eq!(a.distance_cw(a), RingDistance::ZERO);
        assert_eq!(a.distance_min(a), RingDistance::ZERO);
    }

    #[test]
    fn min_distance_is_symmetric_and_bounded() {
        let a = Id::from_f64(0.95);
        let b = Id::from_f64(0.05);
        assert_eq!(a.distance_min(b), b.distance_min(a));
        assert!(a.distance_min(b).as_f64() <= 0.5 + 1e-12);
        assert!((a.distance_min(b).as_f64() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Id::from_f64(0.75);
        let d = RingDistance::from_f64(0.5);
        assert_eq!(a.add(d).sub(d), a);
        assert!((a.add(d).as_f64() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn pow2_fraction_offsets() {
        let a = Id::ZERO;
        assert!((a.add_pow2_fraction(1).as_f64() - 0.5).abs() < 1e-12);
        assert!((a.add_pow2_fraction(2).as_f64() - 0.25).abs() < 1e-12);
        assert!((a.add_pow2_fraction(3).as_f64() - 0.125).abs() < 1e-12);
        // The smallest finger is a single ulp.
        assert_eq!(a.add_pow2_fraction(64), Id(1));
    }

    #[test]
    fn doubling_and_halving() {
        let x = Id::from_f64(0.3);
        assert!((x.double().as_f64() - 0.6).abs() < 1e-9);
        let y = Id::from_f64(0.7);
        assert!((y.double().as_f64() - 0.4).abs() < 1e-9, "2*0.7 mod 1 = 0.4");
        // half_left and half_right are the two preimages of doubling.
        assert_eq!(x.half_left().double(), Id(x.0 & !1)); // up to the lost low bit
        assert!((x.half_left().as_f64() - 0.15).abs() < 1e-9);
        assert!((x.half_right().as_f64() - 0.65).abs() < 1e-9);
    }

    #[test]
    fn arc_membership() {
        let a = Id::from_f64(0.8);
        let b = Id::from_f64(0.2);
        // Arc (0.8, 0.2] wraps through zero.
        assert!(Id::from_f64(0.9).in_arc_open_closed(a, b));
        assert!(Id::from_f64(0.1).in_arc_open_closed(a, b));
        assert!(b.in_arc_open_closed(a, b), "closed at the far end");
        assert!(!a.in_arc_open_closed(a, b), "open at the near end");
        assert!(!Id::from_f64(0.5).in_arc_open_closed(a, b));
        // Degenerate arc = full ring.
        assert!(Id::from_f64(0.5).in_arc_open_closed(a, a));
    }

    #[test]
    fn bits_msb_first() {
        let x = Id(0b1010u64 << 60);
        assert!(x.bit(0));
        assert!(!x.bit(1));
        assert!(x.bit(2));
        assert!(!x.bit(3));
    }
}
