//! Power-management firmware: frequency ramping, power-cap throttling.
//!
//! The paper observes (Section V-C1, Fig. 6) that the first executions of a
//! compute-heavy GEMM "considerably stress power, invoking the power
//! management firmware to throttle frequency in order to manage power
//! excursions". This module reproduces that control loop: a periodic tick
//! reads a short rolling average of total power and steps the core clock
//! down when the cap is exceeded, up (fast ramp, then slow restore) when
//! there is headroom, and parks it at the idle frequency when the device
//! has been quiet for a while.

use std::cmp::Ordering;

use crate::time::SimDuration;

/// Power-management firmware parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmConfig {
    /// Control-loop period (MI300X-class firmware runs sub-millisecond).
    pub control_period: SimDuration,
    /// Rolling window over which power is averaged for cap decisions.
    pub power_window: SimDuration,
    /// Socket power cap in watts.
    pub power_cap_w: f64,
    /// Frequency step when throttling down, MHz per tick.
    pub throttle_step_mhz: f64,
    /// Control ticks to wait after a throttle step before throttling again,
    /// letting the slow power window refresh (prevents over-reaction to a
    /// stale average).
    pub throttle_cooldown_ticks: u32,
    /// Frequency step during the initial ramp out of idle, MHz per tick.
    pub ramp_step_mhz: f64,
    /// Frequency step when creeping back up under the cap, MHz per tick.
    pub restore_step_mhz: f64,
    /// After a throttle event, the firmware waits this many consecutive
    /// under-cap ticks before each restore step — the slow recovery that
    /// produces the paper's Fig. 6 trough between the initial power
    /// excursion and the steady-state-power plateau.
    pub restore_patience: u32,
    /// Fraction of the cap below which the firmware raises frequency.
    pub restore_headroom: f64,
    /// Frequency the clock parks at when idle, MHz.
    pub idle_f_mhz: f64,
    /// How long the device must be idle before the clock parks.
    pub idle_park_delay: SimDuration,
    /// Lowest allowed frequency under throttling, MHz.
    pub f_min_mhz: f64,
    /// Highest (boost) frequency, MHz.
    pub f_max_mhz: f64,
}

impl Default for PmConfig {
    fn default() -> Self {
        PmConfig {
            control_period: SimDuration::from_micros(100),
            // Slow-PPT-style averaging: short boost excursions above the
            // cap are tolerated until the window average catches up, which
            // is what makes the paper's Fig. 6 power spike observable even
            // through a 1 ms logging window.
            power_window: SimDuration::from_millis(2),
            power_cap_w: 750.0,
            throttle_step_mhz: 110.0,
            throttle_cooldown_ticks: 10,
            // Modern GPUs boost to peak clock within microseconds of work
            // arriving; one control tick reaches f_max from idle. Power
            // shaping then comes from the cap/throttle logic, not the ramp.
            ramp_step_mhz: 1600.0,
            restore_step_mhz: 30.0,
            restore_patience: 18,
            restore_headroom: 0.96,
            idle_f_mhz: 500.0,
            idle_park_delay: SimDuration::from_micros(500),
            f_min_mhz: 700.0,
            f_max_mhz: 2100.0,
        }
    }
}

/// The firmware's decision input for one control tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmInput {
    /// Average total power over the trailing [`PmConfig::power_window`], watts.
    pub avg_power_w: f64,
    /// True if the device executed anything during the window.
    pub busy_in_window: bool,
    /// Time since the device last finished an execution (zero if running now).
    pub idle_for: SimDuration,
}

/// A window-average power reading known to lie within `err_w` watts of the
/// exact oldest-first fold the firmware's decisions are defined on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerEstimate {
    /// The estimated average, watts.
    pub avg_w: f64,
    /// Bound on the distance from the exact average, watts.
    pub err_w: f64,
}

impl PowerEstimate {
    /// An estimate that is the exact value.
    pub fn exact(avg_w: f64) -> Self {
        PowerEstimate { avg_w, err_w: 0.0 }
    }

    /// False only when every value within the bound lies strictly on the
    /// estimate's side of `threshold` (NaN-safe: a NaN estimate may cross).
    fn may_cross(self, threshold: f64) -> bool {
        (self.avg_w - threshold).abs().partial_cmp(&self.err_w) != Some(Ordering::Greater)
    }
}

/// Power-management firmware state.
///
/// # Examples
///
/// ```
/// use fingrav_sim::dvfs::{PmConfig, PmFirmware, PmInput};
/// use fingrav_sim::time::SimDuration;
///
/// let mut pm = PmFirmware::new(PmConfig::default());
/// // Busy and far under the cap: the clock ramps up.
/// let f0 = pm.f_mhz();
/// pm.tick(PmInput { avg_power_w: 300.0, busy_in_window: true, idle_for: SimDuration::ZERO });
/// assert!(pm.f_mhz() > f0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PmFirmware {
    cfg: PmConfig,
    f_mhz: f64,
    /// Set once the cap has been hit since the last idle park; switches the
    /// firmware from the aggressive ramp to the patient restore policy.
    throttled_since_park: bool,
    /// Consecutive under-cap ticks since the last frequency change.
    under_cap_ticks: u32,
    /// Ticks remaining before another throttle step is allowed.
    cooldown: u32,
}

impl PmFirmware {
    /// Creates firmware parked at the idle frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency limits are inconsistent.
    pub fn new(cfg: PmConfig) -> Self {
        assert!(
            cfg.f_min_mhz > 0.0 && cfg.f_min_mhz < cfg.f_max_mhz,
            "invalid frequency limits"
        );
        assert!(cfg.power_cap_w > 0.0, "power cap must be positive");
        assert!(
            (0.5..1.0).contains(&cfg.restore_headroom),
            "restore headroom must be in [0.5, 1.0)"
        );
        PmFirmware {
            f_mhz: cfg.idle_f_mhz,
            throttled_since_park: false,
            under_cap_ticks: 0,
            cooldown: 0,
            cfg,
        }
    }

    /// The firmware configuration.
    pub fn config(&self) -> &PmConfig {
        &self.cfg
    }

    /// Current core frequency in MHz.
    #[inline]
    pub fn f_mhz(&self) -> f64 {
        self.f_mhz
    }

    /// Runs one control tick and returns the (possibly unchanged) frequency.
    ///
    /// Contract relied on by the engine's hot loop: when
    /// `input.busy_in_window` is false, `avg_power_w` is **never read** —
    /// the idle path only consults `idle_for`. The engine exploits this to
    /// skip the power window on idle control ticks, passing NaN as a
    /// poison value so any future read of the average on the idle path
    /// would surface immediately (see the idle-path poison test below).
    pub fn tick(&mut self, input: PmInput) -> f64 {
        if !input.busy_in_window {
            let c = self.cfg;
            if input.idle_for >= c.idle_park_delay {
                self.f_mhz = c.idle_f_mhz;
                self.throttled_since_park = false;
                self.under_cap_ticks = 0;
                self.cooldown = 0;
            }
            return self.f_mhz;
        }
        self.tick_busy(PowerEstimate::exact(input.avg_power_w), || {
            input.avg_power_w
        })
    }

    /// Runs one busy control tick from an estimate of the window average
    /// and returns the (possibly unchanged) frequency.
    ///
    /// `exact` yields the exact average. It is called at most once, and
    /// only when the estimate cannot settle a decision on its own: when
    /// its bound straddles the cap or the restore threshold, or when the
    /// tick takes a proportional throttle step, whose size depends on the
    /// value. Every decision is therefore the one the exact average makes.
    pub fn tick_busy(&mut self, estimate: PowerEstimate, exact: impl FnOnce() -> f64) -> f64 {
        let c = self.cfg;
        let restore_below = c.power_cap_w * c.restore_headroom;
        let mut exact = Some(exact);
        let mut exact_avg = |avg: f64| exact.take().map_or(avg, |fold| fold());
        let mut avg = estimate.avg_w;
        if estimate.may_cross(c.power_cap_w) || estimate.may_cross(restore_below) {
            avg = exact_avg(avg);
        }

        self.cooldown = self.cooldown.saturating_sub(1);
        if avg > c.power_cap_w {
            self.under_cap_ticks = 0;
            if self.cooldown == 0 {
                // Proportional throttle: deeper overshoot, bigger step.
                avg = exact_avg(avg);
                let overshoot = (avg / c.power_cap_w - 1.0) / 0.05;
                let step = c.throttle_step_mhz * overshoot.clamp(1.0, 4.0);
                self.f_mhz = (self.f_mhz - step).max(c.f_min_mhz);
                self.throttled_since_park = true;
                self.cooldown = c.throttle_cooldown_ticks;
            }
        } else if avg < restore_below {
            if self.throttled_since_park {
                // Patient recovery after an excursion: one small step every
                // `restore_patience` consecutive under-cap ticks.
                self.under_cap_ticks += 1;
                if self.under_cap_ticks > c.restore_patience {
                    self.f_mhz = (self.f_mhz + c.restore_step_mhz).min(c.f_max_mhz);
                    self.under_cap_ticks = 0;
                }
            } else {
                self.f_mhz = (self.f_mhz + c.ramp_step_mhz).min(c.f_max_mhz);
            }
        } else {
            self.under_cap_ticks = 0;
        }
        self.f_mhz
    }
}

impl Default for PmFirmware {
    fn default() -> Self {
        PmFirmware::new(PmConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(p: f64) -> PmInput {
        PmInput {
            avg_power_w: p,
            busy_in_window: true,
            idle_for: SimDuration::ZERO,
        }
    }

    fn idle(idle_for_us: u64) -> PmInput {
        PmInput {
            avg_power_w: 150.0,
            busy_in_window: false,
            idle_for: SimDuration::from_micros(idle_for_us),
        }
    }

    #[test]
    fn ramps_to_boost_under_light_load() {
        let mut pm = PmFirmware::default();
        for _ in 0..20 {
            pm.tick(busy(300.0));
        }
        assert_eq!(pm.f_mhz(), PmConfig::default().f_max_mhz);
    }

    #[test]
    fn throttles_above_cap() {
        let mut pm = PmFirmware::default();
        for _ in 0..20 {
            pm.tick(busy(300.0));
        }
        let boost = pm.f_mhz();
        pm.tick(busy(950.0));
        assert!(pm.f_mhz() < boost);
    }

    #[test]
    fn deep_overshoot_throttles_harder() {
        let mut a = PmFirmware::default();
        let mut b = PmFirmware::default();
        for _ in 0..20 {
            a.tick(busy(300.0));
            b.tick(busy(300.0));
        }
        a.tick(busy(760.0));
        b.tick(busy(1100.0));
        assert!(b.f_mhz() < a.f_mhz());
    }

    #[test]
    fn never_exceeds_limits() {
        let mut pm = PmFirmware::default();
        let cfg = PmConfig::default();
        for _ in 0..100 {
            pm.tick(busy(100.0));
            assert!(pm.f_mhz() <= cfg.f_max_mhz);
        }
        for _ in 0..100 {
            pm.tick(busy(5000.0));
            assert!(pm.f_mhz() >= cfg.f_min_mhz);
        }
    }

    #[test]
    fn restore_is_patient_after_throttle() {
        let cfg = PmConfig::default();
        let mut pm = PmFirmware::default();
        for _ in 0..20 {
            pm.tick(busy(300.0));
        }
        // Throttle once, then observe: no restore until the patience count
        // of consecutive under-cap ticks elapses, then one small step.
        pm.tick(busy(1000.0));
        let f_throttled = pm.f_mhz();
        for _ in 0..cfg.restore_patience {
            pm.tick(busy(500.0));
            assert_eq!(pm.f_mhz(), f_throttled, "must hold during patience window");
        }
        pm.tick(busy(500.0));
        let restore = pm.f_mhz() - f_throttled;
        assert!(
            (restore - cfg.restore_step_mhz).abs() < 1e-9,
            "restore step {restore}"
        );
    }

    #[test]
    fn over_cap_tick_resets_patience() {
        let cfg = PmConfig::default();
        let mut pm = PmFirmware::default();
        for _ in 0..20 {
            pm.tick(busy(300.0));
        }
        pm.tick(busy(1000.0));
        let f_throttled = pm.f_mhz();
        // Almost through the patience window, then another excursion.
        for _ in 0..cfg.restore_patience {
            pm.tick(busy(500.0));
        }
        pm.tick(busy(1000.0));
        assert!(pm.f_mhz() < f_throttled, "second excursion throttles again");
        // Patience restarts from zero.
        let f2 = pm.f_mhz();
        for _ in 0..cfg.restore_patience {
            pm.tick(busy(500.0));
            assert_eq!(pm.f_mhz(), f2);
        }
    }

    #[test]
    fn parks_after_idle_delay() {
        let mut pm = PmFirmware::default();
        for _ in 0..20 {
            pm.tick(busy(300.0));
        }
        // Idle but not long enough: stays up.
        pm.tick(idle(100));
        assert!(pm.f_mhz() > PmConfig::default().idle_f_mhz);
        // Long idle: parks.
        pm.tick(idle(1_000));
        assert_eq!(pm.f_mhz(), PmConfig::default().idle_f_mhz);
    }

    #[test]
    fn hysteresis_band_holds_frequency() {
        let mut pm = PmFirmware::default();
        for _ in 0..20 {
            pm.tick(busy(300.0));
        }
        pm.tick(busy(1000.0)); // throttle once
        let f = pm.f_mhz();
        // In the band between restore-threshold and cap: frequency holds.
        let in_band = PmConfig::default().power_cap_w * 0.97;
        pm.tick(busy(in_band));
        assert_eq!(pm.f_mhz(), f);
    }

    #[test]
    fn idle_path_never_reads_the_power_average() {
        // The engine skips the O(window) power fold on idle control ticks
        // and passes NaN for the average. The idle path must behave
        // identically whether the average is a real number or poison:
        // park decisions depend only on `idle_for`.
        let run = |avg: f64| {
            let mut pm = PmFirmware::default();
            for _ in 0..20 {
                pm.tick(busy(300.0));
            }
            let mut fs = Vec::new();
            for idle_us in [0, 100, 400, 600, 5_000] {
                fs.push(pm.tick(PmInput {
                    avg_power_w: avg,
                    busy_in_window: false,
                    idle_for: SimDuration::from_micros(idle_us),
                }));
            }
            (fs, pm)
        };
        let (fs_real, pm_real) = run(150.0);
        let (fs_nan, pm_nan) = run(f64::NAN);
        assert_eq!(fs_real, fs_nan);
        assert_eq!(pm_real, pm_nan);
        assert_eq!(
            *fs_nan.last().unwrap(),
            PmConfig::default().idle_f_mhz,
            "long idle still parks"
        );
    }

    #[test]
    fn estimate_asks_for_the_exact_average_only_near_a_threshold() {
        let cfg = PmConfig::default();
        let estimate = |avg_w: f64| PowerEstimate { avg_w, err_w: 1e-9 };
        // Ticks a throttled firmware (cooling down, so no throttle step)
        // with `estimate`, answering `exact` if asked; returns whether it
        // asked and whether it ended where the exact tick does.
        let run = |estimate: PowerEstimate, exact: f64| {
            let mut pm = PmFirmware::default();
            for _ in 0..20 {
                pm.tick(busy(300.0));
            }
            pm.tick(busy(1000.0));
            let mut reference = pm.clone();
            reference.tick(busy(exact));
            let mut asked = false;
            pm.tick_busy(estimate, || {
                asked = true;
                exact
            });
            (asked, pm == reference)
        };
        assert_eq!(run(estimate(500.0), 500.0), (false, true));
        // The bound straddles the cap, or the restore threshold: the exact
        // value decides.
        let cap = cfg.power_cap_w;
        assert_eq!(run(estimate(cap - 5e-10), cap + 1e-10), (true, true));
        let restore_below = cap * cfg.restore_headroom;
        assert_eq!(
            run(estimate(restore_below - 5e-10), restore_below),
            (true, true)
        );
        // A proportional throttle step sizes itself from the exact value.
        let mut pm = PmFirmware::default();
        let mut asked = false;
        pm.tick_busy(estimate(800.0), || {
            asked = true;
            800.0 + 1e-10
        });
        let mut reference = PmFirmware::default();
        reference.tick(busy(800.0 + 1e-10));
        assert!(asked);
        assert_eq!(pm, reference);
    }

    #[test]
    #[should_panic(expected = "frequency limits")]
    fn rejects_bad_limits() {
        let _ = PmFirmware::new(PmConfig {
            f_min_mhz: 3000.0,
            ..PmConfig::default()
        });
    }
}
