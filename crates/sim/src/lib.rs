//! Simulation foundation for the T3 reproduction.
//!
//! This crate holds everything the rest of the workspace agrees on:
//!
//! * [`config`] — the simulated system configuration (Table 1 of the
//!   paper), with unit conversions between wall-clock quantities
//!   (GB/s, ns) and the simulator's cycle domain.
//! * [`stats`] — DRAM traffic accounting by category, which drives the
//!   paper's data-movement results (Figure 18).
//! * [`timeseries`] — bucketed traffic-over-time recording, which
//!   drives the paper's DRAM-traffic timelines (Figure 17).
//! * [`rng`] — a deterministic SplitMix64 generator for randomized
//!   tests and workloads (the workspace builds offline, with no
//!   external crates).
//!
//! The timing simulator is *cycle-stepped*: components expose
//! `step(now)`-style methods and exchange work in units of 256-byte
//! memory transactions. All cycle arithmetic uses [`Cycle`] (a plain
//! `u64` alias) so that times stay exact and deterministic.
//!
//! # Examples
//!
//! ```
//! use t3_sim::config::SystemConfig;
//!
//! let cfg = SystemConfig::paper_default();
//! assert_eq!(cfg.gpu.num_cus, 80);
//! // 1 TB/s HBM at a 1.4 GHz controller clock is ~714 bytes/cycle.
//! assert!((cfg.mem.bytes_per_cycle() - 714.28).abs() < 1.0);
//! ```

pub mod config;
pub mod rng;
pub mod stats;
pub mod timeseries;

/// Simulator time, in GPU core cycles (1.4 GHz by default).
pub type Cycle = u64;

/// A size or traffic volume, in bytes.
pub type Bytes = u64;

/// How an orchestrating engine loop advances simulated time.
///
/// Both modes produce byte-identical results — cycle counts, traces,
/// metrics, timeseries. [`SimMode::FastForward`] merely leaps `now`
/// over provably-idle gaps: whenever no component has work before the
/// minimum `next_event` cycle, the loop replays the skipped cycles'
/// bookkeeping in closed form and jumps. [`SimMode::Stepped`] is the
/// original cycle-by-cycle reference path, kept behind this flag as
/// the equivalence oracle for the determinism tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimMode {
    /// Advance one cycle at a time (the reference engine).
    Stepped,
    /// Leap over idle gaps to the next interesting cycle.
    #[default]
    FastForward,
}

impl SimMode {
    /// Canonical label for reports and fingerprints.
    pub fn label(self) -> &'static str {
        match self {
            SimMode::Stepped => "stepped",
            SimMode::FastForward => "fast-forward",
        }
    }
}

/// Simulated time past which [`drive`] declares a run non-convergent.
/// Every engine loop shares this one guard.
pub const CONVERGENCE_GUARD: Cycle = 4_000_000_000;

/// A composed simulation that [`drive`] can advance through time.
///
/// Implementors own their components (GEMM engine, memory controller,
/// DMA, links, tracker) and describe one cycle of work; the driver
/// owns `now`, the fast-forward leap and the convergence guard.
pub trait Clocked {
    /// Advances every component through cycle `now`.
    fn step(&mut self, now: Cycle);

    /// The earliest cycle strictly after `now` (already stepped) at
    /// which stepping can change observable state; `None` when nothing
    /// is pending. Must be `Some(now + 1)` whenever any memory
    /// controller is busy — the controller's own `next_event` says so —
    /// which is what confines leaps to quiescent cycles. The default
    /// predicts the very next cycle: the engine steps every cycle.
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        Some(now + 1)
    }

    /// Replays the side effects of the quiescent cycles `[from, to)`
    /// in closed form instead of stepping them. Only called after
    /// `next_event` predicted `to`, so an engine that keeps the default
    /// prediction never sees it.
    fn skip_idle(&mut self, _from: Cycle, _to: Cycle) {}

    /// True once the run is complete after stepping `now`.
    fn is_done(&self, now: Cycle) -> bool;
}

/// Minimum of two optional event cycles (`None` = no event).
pub fn min_event(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Advances `sim` from cycle `start` until it reports done, and
/// returns the last stepped cycle. With a `horizon`, also stops once
/// time reaches it (without stepping it) and returns the horizon.
///
/// Every cycle is stepped in [`SimMode::Stepped`]. In
/// [`SimMode::FastForward`] the loop leaps to `sim.next_event`, clamped
/// to the horizon (no prediction before a horizon leaps straight to
/// it), replaying the skipped cycles through `sim.skip_idle`. An early
/// prediction only costs one idle step; a late one would skip a real
/// event, which is why predictors must be exact or early.
///
/// # Panics
///
/// Panics if time reaches [`CONVERGENCE_GUARD`] (an engine bug).
pub fn drive<C: Clocked + ?Sized>(
    sim: &mut C,
    mode: SimMode,
    start: Cycle,
    horizon: Option<Cycle>,
) -> Cycle {
    let mut now = start;
    loop {
        sim.step(now);
        if sim.is_done(now) {
            return now;
        }
        let mut next = now + 1;
        if mode == SimMode::FastForward {
            let target = match sim.next_event(now) {
                Some(t) => horizon.map_or(t, |h| t.min(h)),
                None => horizon.unwrap_or(next),
            };
            if target > next {
                sim.skip_idle(next, target);
                next = target;
            }
        }
        if let Some(h) = horizon.filter(|&h| next >= h) {
            return h;
        }
        now = next;
        assert!(now < CONVERGENCE_GUARD, "simulation failed to converge");
    }
}

/// Converts a bandwidth in GB/s (decimal: 1e9 bytes/s) into bytes per
/// core cycle at the given clock.
///
/// # Examples
///
/// ```
/// let bpc = t3_sim::gb_s_to_bytes_per_cycle(150.0, 1.4);
/// assert!((bpc - 107.14).abs() < 0.01);
/// ```
pub fn gb_s_to_bytes_per_cycle(gb_s: f64, clock_ghz: f64) -> f64 {
    gb_s / clock_ghz
}

/// Converts a latency in nanoseconds into (rounded-up) core cycles at
/// the given clock.
///
/// # Examples
///
/// ```
/// assert_eq!(t3_sim::ns_to_cycles(500.0, 1.4), 700);
/// ```
pub fn ns_to_cycles(ns: f64, clock_ghz: f64) -> Cycle {
    (ns * clock_ghz).ceil() as Cycle // t3-lint: allow(float-cycles) -- config-time unit conversion, evaluated once; explicit ceil
}

/// Converts cycles back to microseconds at the given clock, for
/// human-readable reporting.
///
/// # Examples
///
/// ```
/// let us = t3_sim::cycles_to_us(1_400_000, 1.4);
/// assert!((us - 1000.0).abs() < 1e-9);
/// ```
pub fn cycles_to_us(cycles: Cycle, clock_ghz: f64) -> f64 {
    cycles as f64 / (clock_ghz * 1e3)
}

/// Geometric mean of a non-empty slice of positive values.
///
/// The paper reports most aggregate results as geomeans; keeping the
/// helper here lets every experiment use the identical definition.
///
/// # Panics
///
/// Panics if `values` is empty or contains a non-positive value.
///
/// # Examples
///
/// ```
/// let g = t3_sim::geomean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_conversion_round_trip() {
        let bpc = gb_s_to_bytes_per_cycle(1000.0, 1.4);
        assert!((bpc * 1.4 - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn latency_conversion_rounds_up() {
        assert_eq!(ns_to_cycles(1.0, 1.4), 2);
        assert_eq!(ns_to_cycles(0.0, 1.4), 0);
    }

    #[test]
    fn geomean_basic() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "geomean of empty slice")]
    fn geomean_empty_panics() {
        geomean(&[]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_nonpositive_panics() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn cycles_to_us_at_one_ghz() {
        assert!((cycles_to_us(1000, 1.0) - 1.0).abs() < 1e-12);
    }

    /// A toy engine whose state changes at fixed cycles. Its predictor
    /// can report each event `early` cycles ahead of time.
    struct Toy {
        events: Vec<Cycle>,
        fired: usize,
        early: Cycle,
        steps: Vec<Cycle>,
        skips: Vec<(Cycle, Cycle)>,
    }

    impl Toy {
        fn new(events: &[Cycle], early: Cycle) -> Self {
            Toy {
                events: events.to_vec(),
                fired: 0,
                early,
                steps: Vec::new(),
                skips: Vec::new(),
            }
        }
    }

    impl Clocked for Toy {
        fn step(&mut self, now: Cycle) {
            self.steps.push(now);
            if self.events.get(self.fired) == Some(&now) {
                self.fired += 1;
            }
        }

        fn next_event(&self, now: Cycle) -> Option<Cycle> {
            let t = *self.events.get(self.fired)?;
            let early = t.saturating_sub(self.early);
            Some(if early > now + 1 {
                early
            } else {
                t.max(now + 1)
            })
        }

        fn skip_idle(&mut self, from: Cycle, to: Cycle) {
            self.skips.push((from, to));
        }

        fn is_done(&self, _now: Cycle) -> bool {
            self.fired == self.events.len()
        }
    }

    #[test]
    fn drive_steps_every_cycle_or_leaps_to_the_next_event() {
        let mut stepped = Toy::new(&[10, 30], 0);
        assert_eq!(drive(&mut stepped, SimMode::Stepped, 0, None), 30);
        assert_eq!(stepped.steps, (0..=30).collect::<Vec<_>>());
        assert!(stepped.skips.is_empty());

        let mut fast = Toy::new(&[10, 30], 0);
        assert_eq!(drive(&mut fast, SimMode::FastForward, 0, None), 30);
        assert_eq!(fast.steps, vec![0, 10, 30]);
        assert_eq!(fast.skips, vec![(1, 10), (11, 30)]);
    }

    #[test]
    fn drive_clamps_a_leap_to_the_horizon() {
        let mut fast = Toy::new(&[100], 0);
        assert_eq!(drive(&mut fast, SimMode::FastForward, 0, Some(50)), 50);
        assert_eq!(fast.steps, vec![0]);
        assert_eq!(fast.skips, vec![(1, 50)]);

        // The horizon itself is never stepped, in either mode.
        let mut stepped = Toy::new(&[100], 0);
        assert_eq!(drive(&mut stepped, SimMode::Stepped, 40, Some(50)), 50);
        assert_eq!(stepped.steps, (40..50).collect::<Vec<_>>());
    }

    #[test]
    fn an_early_prediction_costs_exactly_one_extra_step() {
        let mut exact = Toy::new(&[10], 0);
        let mut early = Toy::new(&[10], 3);
        assert_eq!(drive(&mut exact, SimMode::FastForward, 0, None), 10);
        assert_eq!(drive(&mut early, SimMode::FastForward, 0, None), 10);
        assert_eq!(exact.steps, vec![0, 10]);
        assert_eq!(early.steps, vec![0, 7, 10]);
        assert_eq!(early.skips, vec![(1, 7), (8, 10)]);
    }

    #[test]
    #[should_panic(expected = "failed to converge")]
    fn drive_guards_against_a_run_that_never_finishes() {
        let mut stuck = Toy::new(&[Cycle::MAX], 0);
        drive(&mut stuck, SimMode::Stepped, CONVERGENCE_GUARD - 3, None);
    }

    #[test]
    #[should_panic(expected = "failed to converge")]
    fn a_leap_cannot_jump_past_the_guard() {
        let mut stuck = Toy::new(&[Cycle::MAX], 0);
        drive(&mut stuck, SimMode::FastForward, 0, None);
    }

    #[test]
    fn sim_mode_defaults_to_fast_forward() {
        assert_eq!(SimMode::default(), SimMode::FastForward);
        assert_eq!(SimMode::Stepped.label(), "stepped");
        assert_eq!(SimMode::FastForward.label(), "fast-forward");
    }
}
