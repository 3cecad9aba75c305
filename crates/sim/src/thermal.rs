//! A first-order RC thermal model of the GPU package.
//!
//! Die temperature relaxes toward `ambient + R_th · P` with time constant
//! `tau`. Temperature feeds back into leakage power ([`crate::power`]) and
//! is one of the reasons the paper's *steady-state power* (SSP) profile sits
//! slightly above the *steady-state execution* (SSE) profile for long
//! kernels: the die keeps warming across executions after timing has
//! already stabilized.

/// Thermal model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalConfig {
    /// Thermal resistance junction-to-ambient, °C per watt.
    pub r_th_c_per_w: f64,
    /// Relaxation time constant, seconds.
    pub tau_s: f64,
    /// Ambient (coolant) temperature, °C.
    pub ambient_c: f64,
    /// Die temperature at simulation start, °C.
    pub initial_c: f64,
}

impl Default for ThermalConfig {
    fn default() -> Self {
        ThermalConfig {
            r_th_c_per_w: 0.055,
            tau_s: 1.2,
            ambient_c: 35.0,
            initial_c: 45.0,
        }
    }
}

/// Integrates die temperature over time.
///
/// # Examples
///
/// ```
/// use fingrav_sim::thermal::{ThermalConfig, ThermalState};
///
/// let mut t = ThermalState::new(ThermalConfig::default());
/// let before = t.temp_c();
/// // 100 ms at 700 W warms the die measurably.
/// for _ in 0..5000 {
///     t.step(20e-6, 700.0);
/// }
/// assert!(t.temp_c() > before);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalState {
    cfg: ThermalConfig,
    temp_c: f64,
}

impl ThermalState {
    /// Creates a thermal state at the configured initial temperature.
    ///
    /// # Panics
    ///
    /// Panics if `tau_s` or `r_th_c_per_w` are not strictly positive.
    pub fn new(cfg: ThermalConfig) -> Self {
        assert!(cfg.tau_s > 0.0, "thermal time constant must be positive");
        assert!(
            cfg.r_th_c_per_w > 0.0,
            "thermal resistance must be positive"
        );
        ThermalState {
            temp_c: cfg.initial_c,
            cfg,
        }
    }

    /// Current die temperature in °C.
    #[inline]
    pub fn temp_c(&self) -> f64 {
        self.temp_c
    }

    /// The temperature the die would settle at under constant `power_w`.
    pub fn steady_state_c(&self, power_w: f64) -> f64 {
        self.cfg.ambient_c + self.cfg.r_th_c_per_w * power_w
    }

    /// Advances the model by `dt_s` seconds under `power_w` watts, using the
    /// exact solution of the first-order ODE so that step size does not
    /// change the trajectory.
    pub fn step(&mut self, dt_s: f64, power_w: f64) {
        debug_assert!(dt_s >= 0.0);
        self.step_decayed(self.decay_for(dt_s), power_w);
    }

    /// The relaxation factor for a step of `dt_s` seconds, split out so a
    /// fixed-cadence caller (the engine's sensor tick) can evaluate the
    /// exponential once and reuse it: `step_decayed(decay_for(dt), p)` is
    /// bit-identical to `step(dt, p)` — it *is* that call.
    pub fn decay_for(&self, dt_s: f64) -> f64 {
        (-dt_s / self.cfg.tau_s).exp()
    }

    /// Advances the model by one step with a precomputed relaxation factor
    /// (see [`ThermalState::decay_for`]).
    pub fn step_decayed(&mut self, decay: f64, power_w: f64) {
        let target = self.steady_state_c(power_w);
        self.temp_c = target + (self.temp_c - target) * decay;
    }

    /// Resets the die to the configured initial temperature.
    pub fn reset(&mut self) {
        self.temp_c = self.cfg.initial_c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ThermalState {
        ThermalState::new(ThermalConfig::default())
    }

    #[test]
    fn relaxes_toward_steady_state() {
        let mut t = state();
        let target = t.steady_state_c(750.0);
        for _ in 0..100_000 {
            t.step(1e-3, 750.0);
        }
        assert!(
            (t.temp_c() - target).abs() < 0.01,
            "{} vs {target}",
            t.temp_c()
        );
    }

    #[test]
    fn cooling_when_idle() {
        let mut t = state();
        // Heat up first.
        for _ in 0..10_000 {
            t.step(1e-3, 750.0);
        }
        let hot = t.temp_c();
        for _ in 0..10_000 {
            t.step(1e-3, 150.0);
        }
        assert!(t.temp_c() < hot);
    }

    #[test]
    fn step_size_invariance() {
        // Exact integration: many small steps equal one large step.
        let mut a = state();
        let mut b = state();
        for _ in 0..1000 {
            a.step(1e-4, 600.0);
        }
        b.step(0.1, 600.0);
        assert!((a.temp_c() - b.temp_c()).abs() < 1e-9);
    }

    #[test]
    fn short_run_warms_only_slightly() {
        // Within a single ~50 ms profiling run the die temperature moves by
        // a fraction of a degree — the effect is real but subtle, as in the
        // paper's SSE→SSP drift for long kernels.
        let mut t = state();
        for _ in 0..2500 {
            t.step(20e-6, 700.0);
        }
        let delta = t.temp_c() - ThermalConfig::default().initial_c;
        assert!(delta > 0.1 && delta < 5.0, "delta {delta}");
    }

    #[test]
    fn precomputed_decay_is_bit_identical_to_step() {
        // The engine hoists `decay_for(sensor_period)` out of the sensor
        // handler; the trajectory must match `step` to the last bit.
        let mut a = state();
        let mut b = state();
        let decay = b.decay_for(20e-6);
        let mut p = 150.0;
        for _ in 0..5000 {
            a.step(20e-6, p);
            b.step_decayed(decay, p);
            assert_eq!(a.temp_c().to_bits(), b.temp_c().to_bits());
            p = 150.0 + (p * 1.01) % 600.0;
        }
    }

    #[test]
    fn reset_restores_initial() {
        let mut t = state();
        t.step(10.0, 750.0);
        t.reset();
        assert_eq!(t.temp_c(), ThermalConfig::default().initial_c);
    }

    #[test]
    fn zero_dt_is_identity() {
        let mut t = state();
        let before = t.temp_c();
        t.step(0.0, 10_000.0);
        assert_eq!(t.temp_c(), before);
    }

    #[test]
    #[should_panic(expected = "time constant")]
    fn rejects_bad_tau() {
        let _ = ThermalState::new(ThermalConfig {
            tau_s: 0.0,
            ..ThermalConfig::default()
        });
    }
}
