//! Comparative-analysis metrics behind the paper's Table II insights.
//!
//! These helpers quantify the observations the paper draws from FinGraV
//! profiles: which sub-component dominates a kernel's power, how power
//! scales (or fails to scale) with delivered work, and how much a kernel's
//! measured power is contaminated by whatever ran before it.

use fingrav_sim::power::{Component, ComponentPower};

use crate::profile::PowerProfile;

/// Per-component share of a profile's mean power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentBreakdown {
    /// Mean component powers, watts.
    pub mean: ComponentPower,
}

impl ComponentBreakdown {
    /// Builds a breakdown from a profile; `None` if the profile is empty.
    pub fn from_profile(profile: &PowerProfile) -> Option<Self> {
        profile.mean_power().map(|mean| ComponentBreakdown { mean })
    }

    /// Fraction of total power drawn by `c`.
    pub fn share(&self, c: Component) -> f64 {
        let total = self.mean.total();
        if total <= 0.0 {
            0.0
        } else {
            self.mean.get(c) / total
        }
    }

    /// The component with the largest share (the paper's takeaway #3:
    /// compute-heavy kernels are XCD-dominated).
    pub fn dominant(&self) -> Component {
        Component::ALL
            .iter()
            .copied()
            .max_by(|&a, &b| {
                self.mean
                    .get(a)
                    .partial_cmp(&self.mean.get(b))
                    .expect("finite powers")
            })
            .expect("four components")
    }
}

/// A point in the power-proportionality analysis (takeaway #4): how much
/// useful work a kernel delivers per unit of component power.
#[derive(Debug, Clone, PartialEq)]
pub struct ProportionalityPoint {
    /// Kernel label.
    pub label: String,
    /// Achieved fraction of peak compute throughput.
    pub compute_utilization: f64,
    /// Mean XCD power, watts.
    pub xcd_power_w: f64,
}

impl ProportionalityPoint {
    /// Utilization delivered per XCD watt — equal values across kernels
    /// would indicate perfect power proportionality.
    pub fn utilization_per_watt(&self) -> f64 {
        if self.xcd_power_w <= 0.0 {
            0.0
        } else {
            self.compute_utilization / self.xcd_power_w
        }
    }
}

/// Quantifies power (non-)proportionality across kernels: the ratio of the
/// best to worst utilization-per-XCD-watt. 1.0 = perfectly proportional;
/// the paper observes ~2× between CB-2K and CB-8K GEMMs.
pub fn proportionality_spread(points: &[ProportionalityPoint]) -> Option<f64> {
    let uppw: Vec<f64> = points
        .iter()
        .map(ProportionalityPoint::utilization_per_watt)
        .filter(|&x| x > 0.0)
        .collect();
    if uppw.is_empty() {
        return None;
    }
    let max = uppw.iter().cloned().fold(f64::MIN, f64::max);
    let min = uppw.iter().cloned().fold(f64::MAX, f64::min);
    Some(max / min)
}

/// Contamination of a kernel's measured power by its predecessor
/// (takeaway #5): relative difference between the kernel's power when
/// interleaved after other kernels and its isolated SSP power.
/// Positive = the predecessor inflated the measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterleaveEffect {
    /// Isolated SSP mean total power, watts.
    pub isolated_w: f64,
    /// Mean total power measured when interleaved, watts.
    pub interleaved_w: f64,
}

impl InterleaveEffect {
    /// Signed relative effect `(interleaved - isolated) / isolated`.
    pub fn relative(&self) -> f64 {
        if self.isolated_w == 0.0 {
            0.0
        } else {
            (self.interleaved_w - self.isolated_w) / self.isolated_w
        }
    }

    /// True if the contamination exceeds `threshold` in magnitude — the
    /// paper's criterion for "affected by kernels preceding them".
    pub fn is_significant(&self, threshold: f64) -> bool {
        self.relative().abs() > threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ProfileKind, ProfilePoint};

    fn profile_with_power(p: ComponentPower) -> PowerProfile {
        let mut prof = PowerProfile::new("k", ProfileKind::Ssp);
        prof.push(ProfilePoint {
            run: 0,
            exec_pos: Some(0),
            toi_ns: Some(0.0),
            run_time_ns: 0.0,
            power: p,
        });
        prof
    }

    #[test]
    fn breakdown_shares_sum_to_one() {
        let b = ComponentBreakdown::from_profile(&profile_with_power(ComponentPower::new(
            500.0, 100.0, 80.0, 40.0,
        )))
        .unwrap();
        let sum: f64 = Component::ALL.iter().map(|&c| b.share(c)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(b.dominant(), Component::Xcd);
    }

    #[test]
    fn breakdown_empty_profile() {
        let prof = PowerProfile::new("k", ProfileKind::Ssp);
        assert!(ComponentBreakdown::from_profile(&prof).is_none());
    }

    #[test]
    fn iod_dominant_when_largest() {
        let b = ComponentBreakdown::from_profile(&profile_with_power(ComponentPower::new(
            50.0, 120.0, 80.0, 40.0,
        )))
        .unwrap();
        assert_eq!(b.dominant(), Component::Iod);
    }

    #[test]
    fn proportionality_spread_detects_imbalance() {
        let points = vec![
            ProportionalityPoint {
                label: "CB-8K".into(),
                compute_utilization: 0.62,
                xcd_power_w: 500.0,
            },
            ProportionalityPoint {
                label: "CB-2K".into(),
                compute_utilization: 0.28,
                xcd_power_w: 470.0,
            },
        ];
        let spread = proportionality_spread(&points).unwrap();
        assert!(spread > 1.8 && spread < 2.6, "spread {spread}");
    }

    #[test]
    fn proportionality_spread_perfect() {
        let points = vec![
            ProportionalityPoint {
                label: "a".into(),
                compute_utilization: 0.5,
                xcd_power_w: 100.0,
            },
            ProportionalityPoint {
                label: "b".into(),
                compute_utilization: 0.25,
                xcd_power_w: 50.0,
            },
        ];
        assert!((proportionality_spread(&points).unwrap() - 1.0).abs() < 1e-12);
        assert!(proportionality_spread(&[]).is_none());
    }

    #[test]
    fn interleave_effect_signs() {
        let inflated = InterleaveEffect {
            isolated_w: 400.0,
            interleaved_w: 500.0,
        };
        assert!((inflated.relative() - 0.25).abs() < 1e-12);
        assert!(inflated.is_significant(0.1));

        let deflated = InterleaveEffect {
            isolated_w: 400.0,
            interleaved_w: 340.0,
        };
        assert!(deflated.relative() < 0.0);
        assert!(deflated.is_significant(0.1));

        let unaffected = InterleaveEffect {
            isolated_w: 700.0,
            interleaved_w: 710.0,
        };
        assert!(!unaffected.is_significant(0.1));
    }
}
