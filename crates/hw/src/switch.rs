//! SPDT RF switch model (ADRF5020-class).
//!
//! Each FSA port is connected through an SPDT switch to either the FSA
//! ground plane (reflective mode) or an envelope detector (absorptive
//! mode) — paper §4. The switch model captures the three properties that
//! matter to the system:
//!
//! * reflection coefficient in each throw position (this is what modulates
//!   the backscatter),
//! * a maximum toggle rate (this is what caps the uplink at 160 Mbps,
//!   paper §9.5),
//! * energy per transition (this is why uplink draws more power than
//!   downlink, paper §9.6).

use milback_dsp::num::Cpx;
use std::cell::Cell;

/// Throw position of the SPDT switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchState {
    /// Port shorted to the FSA ground plane → beam reflects (|Γ| ≈ 1).
    Reflective,
    /// Port routed to the matched envelope detector → beam absorbs
    /// (|Γ| ≈ 0).
    Absorptive,
}

impl SwitchState {
    /// The opposite throw.
    pub fn toggled(self) -> Self {
        match self {
            SwitchState::Reflective => SwitchState::Absorptive,
            SwitchState::Absorptive => SwitchState::Reflective,
        }
    }
}

/// An SPDT RF switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpdtSwitch {
    /// Insertion loss in the signal path, dB (positive).
    pub insertion_loss_db: f64,
    /// Return loss looking into the matched (absorptive) throw, dB
    /// (positive; higher = better match).
    pub return_loss_db: f64,
    /// Maximum toggle rate, Hz. Toggling faster than this is rejected.
    pub max_toggle_hz: f64,
    /// Static power draw, mW.
    pub static_power_mw: f64,
    /// Energy per state transition, nJ.
    pub toggle_energy_nj: f64,
}

impl SpdtSwitch {
    /// The ADRF5020-class switch used in the MilBack prototype.
    ///
    /// `max_toggle_hz` is set so that two-port OAQFM (2 bits/symbol) tops
    /// out at the paper's 160 Mbps uplink limit (80 Msym/s).
    pub fn adrf5020() -> Self {
        Self {
            insertion_loss_db: 1.0,
            return_loss_db: 22.0,
            max_toggle_hz: 80e6,
            static_power_mw: 0.5,
            toggle_energy_nj: 0.33,
        }
    }

    /// Complex voltage reflection coefficient presented to the FSA port in
    /// the given state.
    ///
    /// * Reflective: a short circuit reflects with Γ = −1, attenuated by
    ///   the round-trip insertion loss.
    /// * Absorptive: the matched detector leaves only the residual return
    ///   loss.
    pub fn gamma(&self, state: SwitchState) -> Cpx {
        match state {
            SwitchState::Reflective => {
                // Signal passes the switch twice (in and back out).
                let a = 10f64.powf(-2.0 * self.insertion_loss_db / 20.0);
                Cpx::new(-a, 0.0)
            }
            SwitchState::Absorptive => {
                let a = 10f64.powf(-self.return_loss_db / 20.0);
                Cpx::new(a, 0.0)
            }
        }
    }

    /// Both throws' reflection coefficients, each times `scale`, for a
    /// render that evaluates Γ per sample: every lookup returns exactly
    /// `self.gamma(state) * scale`, without the per-call `powf`.
    pub fn port_gammas(&self, scale: f64) -> PortGammas {
        PortGammas {
            reflective: self.gamma(SwitchState::Reflective) * scale,
            absorptive: self.gamma(SwitchState::Absorptive) * scale,
        }
    }

    /// Power transmission into the detector path in the absorptive state
    /// (one-way through the switch): `(1 − |Γ|²)·10^(−IL/10)`.
    pub fn through_gain(&self) -> f64 {
        let g = self.gamma(SwitchState::Absorptive).norm_sq();
        (1.0 - g) * 10f64.powf(-self.insertion_loss_db / 10.0)
    }

    /// Whether a toggle rate (Hz) is within the switch's capability.
    pub fn supports_rate(&self, rate_hz: f64) -> bool {
        rate_hz <= self.max_toggle_hz
    }

    /// Average switching power at `toggle_rate` transitions per second, mW.
    pub fn power_mw(&self, toggle_rate: f64) -> f64 {
        assert!(toggle_rate >= 0.0, "toggle rate must be non-negative");
        self.static_power_mw + self.toggle_energy_nj * 1e-9 * toggle_rate * 1e3
    }
}

/// A port's reflection coefficient in each throw, precomputed once per
/// render by [`SpdtSwitch::port_gammas`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortGammas {
    reflective: Cpx,
    absorptive: Cpx,
}

impl PortGammas {
    /// Γ presented in `state`.
    #[inline]
    pub fn of(&self, state: SwitchState) -> Cpx {
        match state {
            SwitchState::Reflective => self.reflective,
            SwitchState::Absorptive => self.absorptive,
        }
    }
}

/// A time-stamped switch-state schedule, used to drive the channel's
/// reflection-coefficient waveform.
#[derive(Debug, Clone, PartialEq)]
pub enum SwitchSchedule {
    /// The state never changes.
    Constant(SwitchState),
    /// Square-wave modulation at `freq_hz` full cycles per second (two
    /// state transitions per cycle), starting in state `first` at t = 0.
    /// The paper's localization modulation is a 10 kHz square wave.
    SquareWave {
        /// Modulation frequency in Hz (cycles per second).
        freq_hz: f64,
        /// State during the first half-cycle.
        first: SwitchState,
    },
    /// Explicit `(start_time_s, state)` entries, time-sorted; each state
    /// holds until the next entry. Used for data symbols.
    Events(Vec<(f64, SwitchState)>),
}

/// The parked node: both ports absorbing, forever.
impl Default for SwitchSchedule {
    fn default() -> Self {
        SwitchSchedule::Constant(SwitchState::Absorptive)
    }
}

impl SwitchSchedule {
    /// A 10 kHz localization square wave starting reflective (paper §5.1).
    pub fn milback_localization() -> Self {
        SwitchSchedule::SquareWave {
            freq_hz: 10e3,
            first: SwitchState::Reflective,
        }
    }

    /// Builds an event schedule, validating time order.
    pub fn from_events(events: Vec<(f64, SwitchState)>) -> Self {
        assert!(!events.is_empty(), "schedule needs at least one event");
        assert!(is_time_sorted(&events), "events must be time-sorted");
        SwitchSchedule::Events(events)
    }

    /// State at time `t` seconds (times before the first event get the
    /// first event's state). Event lists are binary-searched; per-sample
    /// callers use [`Self::cursor`] instead.
    pub fn state_at(&self, t: f64) -> SwitchState {
        match self {
            SwitchSchedule::Constant(s) => *s,
            SwitchSchedule::SquareWave { freq_hz, first } => {
                let half_period = 0.5 / freq_hz;
                let phase = (t / half_period).floor() as i64;
                if phase.rem_euclid(2) == 0 {
                    *first
                } else {
                    first.toggled()
                }
            }
            SwitchSchedule::Events(events) => in_force(events, events_until(events, t)),
        }
    }

    /// A lookup for one render's per-sample queries. It answers exactly
    /// as [`Self::state_at`] for any query order, but remembers where the
    /// last event query landed: increasing times cost one or two
    /// comparisons, and a query that goes back in time (the next render
    /// pass) falls back to a binary search.
    ///
    /// `Events` is a public variant, so a list can bypass
    /// [`Self::from_events`]; its time order is checked here in debug
    /// builds, once per render rather than once per sample.
    pub fn cursor(&self) -> StateCursor<'_> {
        if let SwitchSchedule::Events(events) = self {
            debug_assert!(is_time_sorted(events), "events must be time-sorted");
        }
        StateCursor {
            schedule: self,
            end: Cell::new(0),
        }
    }

    /// Number of state transitions in `[0, duration)`.
    pub fn transitions_in(&self, duration: f64) -> usize {
        match self {
            SwitchSchedule::Constant(_) => 0,
            SwitchSchedule::SquareWave { freq_hz, .. } => {
                (duration * 2.0 * freq_hz).floor().max(0.0) as usize
            }
            SwitchSchedule::Events(events) => events
                .windows(2)
                .filter(|w| w[1].0 < duration && w[1].1 != w[0].1)
                .count(),
        }
    }
}

/// Whether event timestamps never decrease.
fn is_time_sorted(events: &[(f64, SwitchState)]) -> bool {
    events.windows(2).all(|w| w[0].0 <= w[1].0)
}

/// Number of leading events that start at or before `t` (0 for a NaN
/// `t`).
fn events_until(events: &[(f64, SwitchState)], t: f64) -> usize {
    events.partition_point(|(ts, _)| *ts <= t)
}

/// State in force once the first `end` events have started: the last
/// started event's, or the first event's when none has.
fn in_force(events: &[(f64, SwitchState)], end: usize) -> SwitchState {
    events[end.saturating_sub(1)].1
}

/// Per-render state lookup over a [`SwitchSchedule`]; see
/// [`SwitchSchedule::cursor`].
#[derive(Debug)]
pub struct StateCursor<'a> {
    schedule: &'a SwitchSchedule,
    /// `events_until` of the last event query.
    end: Cell<usize>,
}

impl StateCursor<'_> {
    /// State at time `t` seconds; equal to
    /// [`SwitchSchedule::state_at`]`(t)`.
    #[inline]
    pub fn state_at(&self, t: f64) -> SwitchState {
        let SwitchSchedule::Events(events) = self.schedule else {
            return self.schedule.state_at(t);
        };
        let mut end = self.end.get();
        if end == 0 || events[end - 1].0 <= t {
            // Every event before `end` has started by `t`: walk forward.
            while end < events.len() && events[end].0 <= t {
                end += 1;
            }
        } else {
            end = events_until(events, t);
        }
        self.end.set(end);
        in_force(events, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_reflective_is_near_minus_one() {
        let sw = SpdtSwitch::adrf5020();
        let g = sw.gamma(SwitchState::Reflective);
        assert!(g.re < -0.7 && g.re > -1.0, "{g:?}");
        assert_eq!(g.im, 0.0);
    }

    #[test]
    fn gamma_absorptive_is_small() {
        let sw = SpdtSwitch::adrf5020();
        let g = sw.gamma(SwitchState::Absorptive);
        assert!(g.abs() < 0.1, "{g:?}");
    }

    #[test]
    fn through_gain_below_unity() {
        let sw = SpdtSwitch::adrf5020();
        let g = sw.through_gain();
        assert!(g > 0.5 && g < 1.0, "{g}");
    }

    #[test]
    fn rate_capability() {
        let sw = SpdtSwitch::adrf5020();
        assert!(sw.supports_rate(20e6));
        assert!(sw.supports_rate(80e6));
        assert!(!sw.supports_rate(100e6));
    }

    #[test]
    fn power_grows_with_rate() {
        let sw = SpdtSwitch::adrf5020();
        let idle = sw.power_mw(0.0);
        assert_eq!(idle, sw.static_power_mw);
        let fast = sw.power_mw(20e6);
        assert!(fast > idle + 5.0, "fast {fast}");
    }

    #[test]
    fn toggled_flips() {
        assert_eq!(SwitchState::Reflective.toggled(), SwitchState::Absorptive);
        assert_eq!(SwitchState::Absorptive.toggled(), SwitchState::Reflective);
    }

    #[test]
    fn constant_schedule() {
        let s = SwitchSchedule::Constant(SwitchState::Absorptive);
        assert_eq!(s.state_at(0.0), SwitchState::Absorptive);
        assert_eq!(s.state_at(1.0), SwitchState::Absorptive);
        assert_eq!(s.transitions_in(1.0), 0);
    }

    #[test]
    fn square_wave_schedule_10khz() {
        let s = SwitchSchedule::milback_localization();
        // Half-period is 50 µs.
        assert_eq!(s.state_at(0.0), SwitchState::Reflective);
        assert_eq!(s.state_at(49e-6), SwitchState::Reflective);
        assert_eq!(s.state_at(51e-6), SwitchState::Absorptive);
        assert_eq!(s.state_at(101e-6), SwitchState::Reflective);
        // 10 kHz → 20k transitions per second.
        assert_eq!(s.transitions_in(1.0), 20_000);
    }

    #[test]
    fn event_schedule_lookup() {
        let s = SwitchSchedule::from_events(vec![
            (0.0, SwitchState::Absorptive),
            (1e-6, SwitchState::Reflective),
            (3e-6, SwitchState::Absorptive),
        ]);
        assert_eq!(s.state_at(0.5e-6), SwitchState::Absorptive);
        assert_eq!(s.state_at(2e-6), SwitchState::Reflective);
        assert_eq!(s.state_at(10e-6), SwitchState::Absorptive);
        assert_eq!(s.transitions_in(10e-6), 2);
        assert_eq!(s.transitions_in(2e-6), 1);
    }

    /// The original linear scan: the contract both event lookups keep.
    fn scan_reference(events: &[(f64, SwitchState)], t: f64) -> SwitchState {
        let mut state = events[0].1;
        for (ts, s) in events {
            if *ts <= t {
                state = *s;
            } else {
                break;
            }
        }
        state
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `state_at` and a cursor agree with the linear scan on sorted
        /// event lists with duplicate timestamps, for queries before the
        /// first event, exactly on each event, between events and after
        /// the last, asked in increasing and in shuffled order.
        #[test]
        fn event_lookup_matches_linear_scan(
            raw in proptest::collection::vec((0u64..6, proptest::prelude::any::<bool>()), 1..12),
            random_t in proptest::collection::vec(-2e-6f64..8e-6, 0..8),
            shuffle_seed in proptest::prelude::any::<u64>(),
        ) {
            let mut raw = raw;
            // Stable sort: equal slots keep their generated state order.
            raw.sort_by_key(|(slot, _)| *slot);
            let events: Vec<(f64, SwitchState)> = raw
                .iter()
                .map(|&(slot, refl)| {
                    let state = if refl { SwitchState::Reflective } else { SwitchState::Absorptive };
                    (slot as f64 * 1e-6, state)
                })
                .collect();
            let sched = SwitchSchedule::from_events(events.clone());

            let mut queries = random_t;
            queries.extend([events[0].0 - 1e-6, events[events.len() - 1].0 + 1e-6]);
            queries.extend([f64::NEG_INFINITY, f64::INFINITY, f64::NAN]);
            for (ts, _) in &events {
                queries.extend([*ts, ts + 0.5e-6]);
            }

            // Increasing order (NaN sorts last under total_cmp).
            queries.sort_by(f64::total_cmp);
            let cursor = sched.cursor();
            for &t in &queries {
                let want = scan_reference(&events, t);
                proptest::prop_assert_eq!(sched.state_at(t), want, "state_at({})", t);
                proptest::prop_assert_eq!(cursor.state_at(t), want, "monotone cursor at {}", t);
            }

            // Shuffled order through a fresh cursor (Fisher-Yates on a
            // splitmix stream).
            let mut x = shuffle_seed;
            for i in (1..queries.len()).rev() {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                queries.swap(i, (z ^ (z >> 31)) as usize % (i + 1));
            }
            let cursor = sched.cursor();
            for &t in &queries {
                proptest::prop_assert_eq!(
                    cursor.state_at(t),
                    scan_reference(&events, t),
                    "shuffled cursor at {}",
                    t
                );
            }
        }
    }

    #[test]
    fn cursor_follows_square_wave_and_constant() {
        let sq = SwitchSchedule::milback_localization();
        let c = SwitchSchedule::Constant(SwitchState::Reflective);
        let (sq_cur, c_cur) = (sq.cursor(), c.cursor());
        for t in [0.0, 49e-6, 51e-6, 101e-6, 20e-6] {
            assert_eq!(sq_cur.state_at(t), sq.state_at(t));
            assert_eq!(c_cur.state_at(t), SwitchState::Reflective);
        }
    }

    #[test]
    fn port_gammas_equal_per_call_gamma() {
        let sw = SpdtSwitch::adrf5020();
        let scale = 10f64.powf(-2.0 * 6.0 / 20.0);
        let g = sw.port_gammas(scale);
        for s in [SwitchState::Reflective, SwitchState::Absorptive] {
            let want = sw.gamma(s) * scale;
            assert_eq!(g.of(s).re.to_bits(), want.re.to_bits());
            assert_eq!(g.of(s).im.to_bits(), want.im.to_bits());
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time-sorted")]
    fn cursor_rejects_unsorted_events_in_debug() {
        let sched = SwitchSchedule::Events(vec![
            (1.0, SwitchState::Absorptive),
            (0.0, SwitchState::Reflective),
        ]);
        let _ = sched.cursor();
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn event_schedule_rejects_unsorted() {
        SwitchSchedule::from_events(vec![
            (1.0, SwitchState::Absorptive),
            (0.0, SwitchState::Reflective),
        ]);
    }
}
