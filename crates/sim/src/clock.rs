//! Phase-window sizing for the actor runtime's protocol phases.

/// Latency-adaptive phase-window sizing for the actor runtime.
///
/// A protocol phase gives the transport a tick **deadline** (the
/// `window` argument of `Transport::begin_phase`): messages whose
/// delivery tick lands past it are late and lost. A fixed deadline
/// wastes budget on fast networks and starves slow ones, so the
/// runtime sizes it adaptively: after each phase it feeds the observed
/// delivery latency back through [`PhaseWindow::observe`], and the next
/// deadline becomes `base + 4 × mean_latency`, clamped to
/// `[base, max]`.
///
/// Two properties matter for reproducibility:
///
/// * **zero-latency fixpoint** — on a perfect network the observed mean
///   is 0, so the window stays exactly `base` forever; golden replays
///   over loopback sockets are byte-identical to the fixed-window
///   runs they were recorded under;
/// * **pinning** — a spec-level `window=` knob constructs a
///   [`PhaseWindow::pinned`] window that ignores observations, so
///   sweeps can hold the deadline constant across an axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseWindow {
    /// Floor (and zero-latency fixpoint) of the deadline, in ticks.
    base: u64,
    /// Ceiling of the deadline, in ticks.
    max: u64,
    /// The deadline currently in force.
    current: u64,
    /// Pinned windows ignore [`PhaseWindow::observe`].
    pinned: bool,
}

impl PhaseWindow {
    /// An adaptive window starting at (and floored by) `base`, capped
    /// at `max`.
    ///
    /// # Panics
    /// Panics if `base == 0` or `base > max` — a phase needs at least
    /// one tick, and the clamp range must be non-empty.
    pub fn adaptive(base: u64, max: u64) -> Self {
        assert!(base > 0, "phase window base must be positive");
        assert!(base <= max, "phase window base must not exceed max");
        PhaseWindow { base, max, current: base, pinned: false }
    }

    /// A window pinned to exactly `ticks`, never adapting.
    ///
    /// # Panics
    /// Panics if `ticks == 0`.
    pub fn pinned(ticks: u64) -> Self {
        assert!(ticks > 0, "phase window must be positive");
        PhaseWindow { base: ticks, max: ticks, current: ticks, pinned: true }
    }

    /// The deadline currently in force, in ticks.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// Whether this window ignores observations.
    pub fn is_pinned(&self) -> bool {
        self.pinned
    }

    /// Feed back one phase's delivery observation: `delivered` messages
    /// with `lat_ticks` total latency (as accumulated by
    /// `NetStats::lat_ticks`). The next deadline becomes
    /// `base + 4 × ⌈mean latency⌉`, clamped to `[base, max]`. A phase
    /// that delivered nothing leaves the window unchanged — there is no
    /// signal, and in particular no division by zero.
    pub fn observe(&mut self, delivered: u64, lat_ticks: u64) {
        if self.pinned || delivered == 0 {
            return;
        }
        let mean = lat_ticks.div_ceil(delivered);
        self.current = (self.base + 4 * mean).clamp(self.base, self.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_window_tracks_latency_within_bounds() {
        let mut w = PhaseWindow::adaptive(64, 4096);
        assert_eq!(w.current(), 64, "starts at base");
        // Zero observed latency is a fixpoint: the window never moves.
        w.observe(100, 0);
        assert_eq!(w.current(), 64);
        // Mean latency 3 → 64 + 12.
        w.observe(10, 30);
        assert_eq!(w.current(), 76);
        // Huge latency clamps at max.
        w.observe(2, 1_000_000);
        assert_eq!(w.current(), 4096);
        // Recovery: latency subsides, window falls back toward base.
        w.observe(10, 0);
        assert_eq!(w.current(), 64);
    }

    #[test]
    fn empty_phase_leaves_window_unchanged() {
        let mut w = PhaseWindow::adaptive(64, 4096);
        w.observe(10, 40);
        let before = w.current();
        w.observe(0, 0);
        assert_eq!(w.current(), before, "no deliveries, no signal, no change");
    }

    #[test]
    fn pinned_window_ignores_observations() {
        let mut w = PhaseWindow::pinned(128);
        assert!(w.is_pinned());
        w.observe(10, 10_000);
        assert_eq!(w.current(), 128);
    }

    #[test]
    fn mean_rounds_up() {
        // 3 deliveries, 4 total ticks → mean ⌈4/3⌉ = 2 → 64 + 8.
        let mut w = PhaseWindow::adaptive(64, 4096);
        w.observe(3, 4);
        assert_eq!(w.current(), 72);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_pinned_window_rejected() {
        let _ = PhaseWindow::pinned(0);
    }
}
