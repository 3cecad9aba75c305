//! The GPU power model.
//!
//! MI300X is a chiplet design: eight accelerator complex dies (**XCD**)
//! stacked over four I/O dies (**IOD**, which house the Infinity Cache and
//! HBM interfaces), next to eight **HBM** stacks. The paper's internal
//! power logger reports the voltage-regulator output ("total") power and
//! per-sub-component breakdowns, and the paper's component-level insights
//! (Table II takeaways 2–4) are entirely about how different kernels load
//! these components differently.
//!
//! Instantaneous power is modelled per component type as
//!
//! ```text
//! P_comp = idle_comp · leak(T)  +  activity_comp · dyn_max_comp · (V/V_ref)² · (f/f_ref)
//! ```
//!
//! plus a voltage-regulator conversion loss proportional to delivered
//! power. Activities come from the running kernel's descriptor; frequency
//! comes from the power-management firmware ([`crate::dvfs`]); temperature
//! from [`crate::thermal`].

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// GPU sub-components distinguished by the power telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Accelerator complex dies (compute cores).
    Xcd,
    /// I/O dies: Infinity Cache (LLC) and memory interfaces.
    Iod,
    /// High-bandwidth memory stacks.
    Hbm,
    /// Everything else behind the voltage regulator (board, VR loss, misc).
    Rest,
}

impl Component {
    /// All components, in canonical reporting order.
    pub const ALL: [Component; 4] = [
        Component::Xcd,
        Component::Iod,
        Component::Hbm,
        Component::Rest,
    ];
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Component::Xcd => "XCD",
            Component::Iod => "IOD",
            Component::Hbm => "HBM",
            Component::Rest => "REST",
        };
        f.write_str(s)
    }
}

/// A per-component power reading (or budget) in watts.
///
/// # Examples
///
/// ```
/// use fingrav_sim::power::ComponentPower;
///
/// let p = ComponentPower::new(500.0, 90.0, 80.0, 40.0);
/// assert_eq!(p.total(), 710.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ComponentPower {
    /// Accelerator complex dies, watts.
    pub xcd: f64,
    /// I/O dies, watts.
    pub iod: f64,
    /// HBM stacks, watts.
    pub hbm: f64,
    /// Remaining board power (incl. VR loss), watts.
    pub rest: f64,
}

impl ComponentPower {
    /// All-zero power.
    pub const ZERO: ComponentPower = ComponentPower {
        xcd: 0.0,
        iod: 0.0,
        hbm: 0.0,
        rest: 0.0,
    };

    /// Creates a reading from the four component values.
    pub const fn new(xcd: f64, iod: f64, hbm: f64, rest: f64) -> Self {
        ComponentPower {
            xcd,
            iod,
            hbm,
            rest,
        }
    }

    /// Total (voltage-regulator output) power in watts.
    #[inline]
    pub fn total(&self) -> f64 {
        self.xcd + self.iod + self.hbm + self.rest
    }

    /// The value for one component.
    #[inline]
    pub fn get(&self, c: Component) -> f64 {
        match c {
            Component::Xcd => self.xcd,
            Component::Iod => self.iod,
            Component::Hbm => self.hbm,
            Component::Rest => self.rest,
        }
    }

    /// Sets the value for one component.
    pub fn set(&mut self, c: Component, w: f64) {
        match c {
            Component::Xcd => self.xcd = w,
            Component::Iod => self.iod = w,
            Component::Hbm => self.hbm = w,
            Component::Rest => self.rest = w,
        }
    }

    /// Component-wise maximum.
    pub fn max(&self, other: &ComponentPower) -> ComponentPower {
        ComponentPower {
            xcd: self.xcd.max(other.xcd),
            iod: self.iod.max(other.iod),
            hbm: self.hbm.max(other.hbm),
            rest: self.rest.max(other.rest),
        }
    }

    /// True if every component is finite and non-negative.
    pub fn is_valid(&self) -> bool {
        Component::ALL
            .iter()
            .all(|&c| self.get(c).is_finite() && self.get(c) >= 0.0)
    }
}

impl Add for ComponentPower {
    type Output = ComponentPower;
    fn add(self, rhs: ComponentPower) -> ComponentPower {
        ComponentPower {
            xcd: self.xcd + rhs.xcd,
            iod: self.iod + rhs.iod,
            hbm: self.hbm + rhs.hbm,
            rest: self.rest + rhs.rest,
        }
    }
}

impl AddAssign for ComponentPower {
    fn add_assign(&mut self, rhs: ComponentPower) {
        *self = *self + rhs;
    }
}

impl Sub for ComponentPower {
    type Output = ComponentPower;
    fn sub(self, rhs: ComponentPower) -> ComponentPower {
        ComponentPower {
            xcd: self.xcd - rhs.xcd,
            iod: self.iod - rhs.iod,
            hbm: self.hbm - rhs.hbm,
            rest: self.rest - rhs.rest,
        }
    }
}

impl Mul<f64> for ComponentPower {
    type Output = ComponentPower;
    fn mul(self, k: f64) -> ComponentPower {
        ComponentPower {
            xcd: self.xcd * k,
            iod: self.iod * k,
            hbm: self.hbm * k,
            rest: self.rest * k,
        }
    }
}

impl Div<f64> for ComponentPower {
    type Output = ComponentPower;
    fn div(self, k: f64) -> ComponentPower {
        self * (1.0 / k)
    }
}

impl fmt::Display for ComponentPower {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1}W (XCD {:.1} / IOD {:.1} / HBM {:.1} / rest {:.1})",
            self.total(),
            self.xcd,
            self.iod,
            self.hbm,
            self.rest
        )
    }
}

/// Per-component switching activity in `[0, 1]`.
///
/// This is *power* activity (how hard the silicon toggles), not achieved
/// utilization: the paper's takeaway #4 is precisely that a compute-light
/// GEMM can toggle the XCDs almost as hard as a compute-heavy one while
/// achieving half the useful throughput.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Activity {
    /// XCD switching activity.
    pub xcd: f64,
    /// IOD (LLC + memory interface) activity.
    pub iod: f64,
    /// HBM activity.
    pub hbm: f64,
}

impl Activity {
    /// All-zero (idle) activity.
    pub const IDLE: Activity = Activity {
        xcd: 0.0,
        iod: 0.0,
        hbm: 0.0,
    };

    /// Creates an activity triple, clamping each factor to `[0, 1]`.
    pub fn new(xcd: f64, iod: f64, hbm: f64) -> Self {
        Activity {
            xcd: xcd.clamp(0.0, 1.0),
            iod: iod.clamp(0.0, 1.0),
            hbm: hbm.clamp(0.0, 1.0),
        }
    }

    /// Component-wise scaling (clamped to `[0, 1]`).
    pub fn scaled(&self, k: f64) -> Activity {
        Activity::new(self.xcd * k, self.iod * k, self.hbm * k)
    }
}

/// Linear voltage–frequency operating curve.
///
/// # Examples
///
/// ```
/// use fingrav_sim::power::VfCurve;
///
/// let vf = VfCurve::new(500.0, 2100.0, 0.65, 1.10);
/// assert!((vf.voltage(2100.0) - 1.10).abs() < 1e-12);
/// assert!((vf.voltage(500.0) - 0.65).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VfCurve {
    f_min_mhz: f64,
    f_max_mhz: f64,
    v_min: f64,
    v_max: f64,
}

impl VfCurve {
    /// Creates a curve between `(f_min_mhz, v_min)` and `(f_max_mhz, v_max)`.
    ///
    /// # Panics
    ///
    /// Panics if `f_max_mhz <= f_min_mhz` or voltages are non-positive.
    pub fn new(f_min_mhz: f64, f_max_mhz: f64, v_min: f64, v_max: f64) -> Self {
        assert!(f_max_mhz > f_min_mhz, "frequency range must be non-empty");
        assert!(v_min > 0.0 && v_max > 0.0, "voltages must be positive");
        VfCurve {
            f_min_mhz,
            f_max_mhz,
            v_min,
            v_max,
        }
    }

    /// Minimum operating frequency in MHz.
    pub fn f_min_mhz(&self) -> f64 {
        self.f_min_mhz
    }

    /// Maximum (boost) frequency in MHz.
    pub fn f_max_mhz(&self) -> f64 {
        self.f_max_mhz
    }

    /// The operating voltage at frequency `f_mhz` (clamped to the curve).
    pub fn voltage(&self, f_mhz: f64) -> f64 {
        let f = f_mhz.clamp(self.f_min_mhz, self.f_max_mhz);
        let frac = (f - self.f_min_mhz) / (self.f_max_mhz - self.f_min_mhz);
        self.v_min + (self.v_max - self.v_min) * frac
    }
}

/// Static parameters of the power model.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModelConfig {
    /// Idle floor per component (watts) at reference temperature.
    pub idle: ComponentPower,
    /// Maximum dynamic power per component at `f_ref_mhz`/reference voltage
    /// with activity 1.0 (watts). `rest` here is unused (rest is derived
    /// from VR loss).
    pub dyn_max: ComponentPower,
    /// Reference frequency (MHz) at which `dyn_max` is specified.
    pub f_ref_mhz: f64,
    /// Voltage–frequency curve.
    pub vf: VfCurve,
    /// Fraction of delivered power lost in voltage regulation (adds to `rest`).
    pub vr_loss_frac: f64,
    /// Leakage growth per degree Celsius above the reference temperature
    /// (applied multiplicatively to the idle floor).
    pub leak_per_deg_c: f64,
    /// Reference die temperature for the idle floor (°C).
    pub t_ref_c: f64,
}

impl Default for PowerModelConfig {
    /// Defaults loosely shaped after a 750 W-class MI300X OAM module.
    fn default() -> Self {
        PowerModelConfig {
            idle: ComponentPower::new(55.0, 45.0, 28.0, 22.0),
            dyn_max: ComponentPower::new(600.0, 110.0, 120.0, 0.0),
            f_ref_mhz: 2100.0,
            vf: VfCurve::new(500.0, 2100.0, 0.65, 1.10),
            vr_loss_frac: 0.05,
            leak_per_deg_c: 0.0035,
            t_ref_c: 45.0,
        }
    }
}

/// Frequency-dependent scale factors of the power model, computed once per
/// core-frequency change by [`PowerModel::freq_factors`] and reused across
/// sensor samples by [`PowerModel::instantaneous_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreqFactors {
    /// Dynamic-power scale for the XCDs: `(V/V_ref)² · (f/f_ref)`.
    pub scale: f64,
    /// Milder scale for data movement (IOD/HBM).
    pub mem_scale: f64,
}

/// Evaluates instantaneous component power for a machine state.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    cfg: PowerModelConfig,
}

impl PowerModel {
    /// Creates a model from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (non-finite or
    /// negative idle/dynamic powers, reference frequency outside the VF
    /// curve).
    pub fn new(cfg: PowerModelConfig) -> Self {
        assert!(cfg.idle.is_valid(), "idle power must be valid");
        assert!(cfg.dyn_max.is_valid(), "dynamic power must be valid");
        assert!(
            cfg.f_ref_mhz > 0.0 && cfg.f_ref_mhz <= cfg.vf.f_max_mhz(),
            "reference frequency must sit on the VF curve"
        );
        assert!(
            (0.0..0.5).contains(&cfg.vr_loss_frac),
            "VR loss fraction out of range"
        );
        PowerModel { cfg }
    }

    /// The model configuration.
    pub fn config(&self) -> &PowerModelConfig {
        &self.cfg
    }

    /// Instantaneous power at the given activity, core frequency, and die
    /// temperature.
    pub fn instantaneous(&self, activity: Activity, f_mhz: f64, temp_c: f64) -> ComponentPower {
        self.instantaneous_with(activity, self.freq_factors(f_mhz), temp_c)
    }

    /// The frequency-dependent scale factors of the model, split out so the
    /// engine can cache them between frequency changes: the DVFS clock only
    /// moves a few dozen times per run while the sensor samples thousands
    /// of times, and the VF-curve lookup plus `powi` dominate
    /// [`PowerModel::instantaneous`] otherwise. For any `f_mhz`,
    /// `instantaneous_with(a, freq_factors(f), t)` is bit-identical to
    /// `instantaneous(a, f, t)` — it *is* that call.
    pub fn freq_factors(&self, f_mhz: f64) -> FreqFactors {
        let c = &self.cfg;
        let v = c.vf.voltage(f_mhz);
        let v_ref = c.vf.voltage(c.f_ref_mhz);
        let scale = (v / v_ref).powi(2) * (f_mhz.min(c.vf.f_max_mhz()) / c.f_ref_mhz);
        // IOD/HBM activity tracks data movement, which is largely
        // independent of the core clock: only a milder frequency dependence.
        let mem_scale = 0.25 + 0.75 * (f_mhz / c.f_ref_mhz).clamp(0.0, 1.0);
        FreqFactors { scale, mem_scale }
    }

    /// Instantaneous power with precomputed frequency factors (see
    /// [`PowerModel::freq_factors`]).
    pub fn instantaneous_with(
        &self,
        activity: Activity,
        factors: FreqFactors,
        temp_c: f64,
    ) -> ComponentPower {
        let c = &self.cfg;
        let leak_mult = 1.0 + c.leak_per_deg_c * (temp_c - c.t_ref_c);
        let leak_mult = leak_mult.max(0.5);

        let dyn_xcd = activity.xcd * c.dyn_max.xcd * factors.scale;
        let dyn_iod = activity.iod * c.dyn_max.iod * factors.mem_scale;
        let dyn_hbm = activity.hbm * c.dyn_max.hbm * factors.mem_scale;

        let delivered = ComponentPower {
            xcd: c.idle.xcd * leak_mult + dyn_xcd,
            iod: c.idle.iod * leak_mult + dyn_iod,
            hbm: c.idle.hbm * leak_mult + dyn_hbm,
            rest: c.idle.rest,
        };
        let vr_loss = (delivered.total()) * c.vr_loss_frac;
        ComponentPower {
            rest: delivered.rest + vr_loss,
            ..delivered
        }
    }

    /// Idle power at the given temperature (no kernel running, frequency
    /// parked at `f_mhz`).
    pub fn idle_power(&self, f_mhz: f64, temp_c: f64) -> ComponentPower {
        self.instantaneous(Activity::IDLE, f_mhz, temp_c)
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::new(PowerModelConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::default()
    }

    #[test]
    fn component_power_algebra() {
        let a = ComponentPower::new(1.0, 2.0, 3.0, 4.0);
        let b = ComponentPower::new(0.5, 0.5, 0.5, 0.5);
        assert_eq!((a + b).total(), 12.0);
        assert_eq!((a - b).total(), 8.0);
        assert_eq!((a * 2.0).total(), 20.0);
        assert_eq!((a / 2.0).total(), 5.0);
        let mut c = a;
        c += b;
        assert_eq!(c.total(), 12.0);
    }

    #[test]
    fn component_get_set_roundtrip() {
        let mut p = ComponentPower::ZERO;
        for (i, &c) in Component::ALL.iter().enumerate() {
            p.set(c, i as f64 + 1.0);
        }
        assert_eq!(p.get(Component::Xcd), 1.0);
        assert_eq!(p.get(Component::Iod), 2.0);
        assert_eq!(p.get(Component::Hbm), 3.0);
        assert_eq!(p.get(Component::Rest), 4.0);
    }

    #[test]
    fn activity_clamps() {
        let a = Activity::new(1.5, -0.2, 0.5);
        assert_eq!(a.xcd, 1.0);
        assert_eq!(a.iod, 0.0);
        assert_eq!(a.hbm, 0.5);
        let s = a.scaled(0.5);
        assert_eq!(s.xcd, 0.5);
    }

    #[test]
    fn vf_curve_interpolates() {
        let vf = VfCurve::new(500.0, 2100.0, 0.65, 1.10);
        let mid = vf.voltage(1300.0);
        assert!(mid > 0.65 && mid < 1.10);
        // Clamping below/above the curve.
        assert_eq!(vf.voltage(100.0), 0.65);
        assert_eq!(vf.voltage(9999.0), 1.10);
    }

    #[test]
    fn idle_power_near_nameplate() {
        let p = model().idle_power(500.0, 45.0);
        // ~150 W idle plus VR loss.
        assert!(p.total() > 140.0 && p.total() < 175.0, "idle {p}");
    }

    #[test]
    fn full_compute_load_exceeds_cap_at_boost() {
        // A compute-heavy kernel at full boost must overshoot a 750 W cap so
        // the firmware has something to throttle (paper Fig. 6).
        let a = Activity::new(0.95, 0.5, 0.7);
        let p = model().instantaneous(a, 2100.0, 60.0);
        assert!(p.total() > 800.0, "boost power {p}");
    }

    #[test]
    fn throttled_load_fits_under_cap() {
        let a = Activity::new(0.95, 0.5, 0.7);
        let p = model().instantaneous(a, 1500.0, 60.0);
        assert!(p.total() < 750.0, "throttled power {p}");
    }

    #[test]
    fn power_monotone_in_frequency() {
        let a = Activity::new(0.9, 0.4, 0.4);
        let m = model();
        let mut last = 0.0;
        for f in [600.0, 900.0, 1200.0, 1500.0, 1800.0, 2100.0] {
            let p = m.instantaneous(a, f, 50.0).total();
            assert!(p > last, "power must rise with frequency");
            last = p;
        }
    }

    #[test]
    fn power_monotone_in_activity() {
        let m = model();
        let lo = m.instantaneous(Activity::new(0.2, 0.2, 0.2), 2100.0, 50.0);
        let hi = m.instantaneous(Activity::new(0.8, 0.8, 0.8), 2100.0, 50.0);
        assert!(hi.total() > lo.total());
        assert!(hi.xcd > lo.xcd);
        assert!(hi.iod > lo.iod);
        assert!(hi.hbm > lo.hbm);
    }

    #[test]
    fn leakage_grows_with_temperature() {
        let m = model();
        let cold = m.idle_power(500.0, 45.0).total();
        let hot = m.idle_power(500.0, 85.0).total();
        assert!(
            hot > cold * 1.05,
            "leakage should be visible: {cold} vs {hot}"
        );
    }

    #[test]
    fn memory_power_less_frequency_sensitive_than_compute() {
        let m = model();
        let a = Activity::new(1.0, 1.0, 1.0);
        let hi = m.instantaneous(a, 2100.0, 50.0);
        let lo = m.instantaneous(a, 1050.0, 50.0);
        let xcd_drop = (hi.xcd - lo.xcd) / hi.xcd;
        let hbm_drop = (hi.hbm - lo.hbm) / hi.hbm;
        assert!(
            xcd_drop > hbm_drop,
            "core clock halving must hit XCD harder: xcd {xcd_drop:.3} hbm {hbm_drop:.3}"
        );
    }

    #[test]
    fn cached_freq_factors_are_bit_identical_to_direct_evaluation() {
        // The engine caches FreqFactors between DVFS changes; the split
        // path must reproduce `instantaneous` to the last bit across the
        // whole operating envelope (including off-curve frequencies).
        let m = model();
        let a = Activity::new(0.73, 0.41, 0.58);
        let mut f = 200.0;
        while f <= 2600.0 {
            let factors = m.freq_factors(f);
            let mut t = 20.0;
            while t <= 110.0 {
                let direct = m.instantaneous(a, f, t);
                let cached = m.instantaneous_with(a, factors, t);
                for c in Component::ALL {
                    assert_eq!(
                        direct.get(c).to_bits(),
                        cached.get(c).to_bits(),
                        "component {c} differs at f={f} t={t}"
                    );
                }
                t += 7.3;
            }
            f += 93.7;
        }
    }

    #[test]
    fn display_formats() {
        let p = ComponentPower::new(1.0, 2.0, 3.0, 4.0);
        let s = format!("{p}");
        assert!(s.contains("XCD"));
        for c in Component::ALL {
            assert!(!format!("{c}").is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "frequency range")]
    fn vf_rejects_inverted_range() {
        let _ = VfCurve::new(2000.0, 1000.0, 0.6, 1.0);
    }
}
