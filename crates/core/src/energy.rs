//! Energy accounting on top of power profiles.
//!
//! Energy is power integrated over time; the paper stresses that accurate
//! fine-grain power profiles are what make application-level energy
//! estimates trustworthy, and that conflating the SSE and SSP profiles
//! produces energy errors as high as 80%.

use crate::runner::KernelPowerReport;

/// Energy of one kernel execution from a mean power and duration.
///
/// # Examples
///
/// ```
/// use fingrav_core::energy::energy_joules;
///
/// // 700 W for 1.6 ms is 1.12 J.
/// let e = energy_joules(700.0, 1_600_000);
/// assert!((e - 1.12).abs() < 1e-9);
/// ```
pub fn energy_joules(mean_power_w: f64, exec_time_ns: u64) -> f64 {
    mean_power_w * exec_time_ns as f64 * 1e-9
}

/// SSE-vs-SSP energy comparison for one kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyComparison {
    /// Energy per execution using the (naive) SSE power, joules.
    pub sse_energy_j: f64,
    /// Energy per execution using the SSP power, joules.
    pub ssp_energy_j: f64,
    /// Relative error of the SSE estimate against SSP.
    pub error_frac: f64,
}

impl EnergyComparison {
    /// Builds the comparison from a kernel report, if both profiles have
    /// measurements.
    pub fn from_report(report: &KernelPowerReport) -> Option<EnergyComparison> {
        let sse = report.sse_mean_total_w?;
        let ssp = report.ssp_mean_total_w?;
        if ssp == 0.0 {
            return None;
        }
        let sse_energy_j = energy_joules(sse, report.exec_time_ns);
        let ssp_energy_j = energy_joules(ssp, report.exec_time_ns);
        Some(EnergyComparison {
            sse_energy_j,
            ssp_energy_j,
            error_frac: (ssp_energy_j - sse_energy_j).abs() / ssp_energy_j,
        })
    }
}

/// Joules to kilowatt-hours.
///
/// # Examples
///
/// ```
/// use fingrav_core::energy::joules_to_kwh;
///
/// assert!((joules_to_kwh(3_600_000.0) - 1.0).abs() < 1e-12);
/// ```
pub fn joules_to_kwh(joules: f64) -> f64 {
    joules / 3.6e6
}

/// Cluster-scale extrapolation: total energy of `gpus` devices drawing
/// `mean_power_w` each for `hours`, in kWh. This is the paper's intro
/// arithmetic (a 200B-parameter training run ≈ 11.9 GWh) applied to
/// measured kernel powers.
///
/// # Examples
///
/// ```
/// use fingrav_core::energy::cluster_energy_kwh;
///
/// // 1024 GPUs at 700 W for 48 days.
/// let kwh = cluster_energy_kwh(1024, 700.0, 48.0 * 24.0);
/// assert!(kwh > 800_000.0 && kwh < 900_000.0);
/// ```
pub fn cluster_energy_kwh(gpus: u64, mean_power_w: f64, hours: f64) -> f64 {
    gpus as f64 * mean_power_w * hours / 1_000.0
}

/// One step of an application-level kernel sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceStep {
    /// Mean power while the kernel runs, watts.
    pub power_w: f64,
    /// Execution time per invocation, ns.
    pub exec_time_ns: u64,
    /// Number of invocations.
    pub count: u64,
}

/// Total energy of a kernel sequence (the application-level view the paper
/// motivates: applications are sequences of kernels).
pub fn sequence_energy_joules(steps: &[SequenceStep]) -> f64 {
    steps
        .iter()
        .map(|s| energy_joules(s.power_w, s.exec_time_ns) * s.count as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_scales_linearly() {
        assert_eq!(energy_joules(100.0, 1_000_000_000), 100.0);
        assert_eq!(energy_joules(0.0, 1_000_000_000), 0.0);
        assert_eq!(energy_joules(100.0, 0), 0.0);
    }

    #[test]
    fn kwh_conversion_and_cluster_scale() {
        assert!((joules_to_kwh(7.2e6) - 2.0).abs() < 1e-12);
        // One GPU, one hour, 1 kW -> 1 kWh.
        assert!((cluster_energy_kwh(1, 1000.0, 1.0) - 1.0).abs() < 1e-12);
        // A measurement error of 20% propagates linearly to the bill.
        let accurate = cluster_energy_kwh(10_000, 700.0, 24.0);
        let naive = cluster_energy_kwh(10_000, 560.0, 24.0);
        assert!(((accurate - naive) / accurate - 0.2).abs() < 1e-12);
    }

    #[test]
    fn sequence_energy_sums() {
        let steps = vec![
            SequenceStep {
                power_w: 700.0,
                exec_time_ns: 1_000_000,
                count: 10,
            },
            SequenceStep {
                power_w: 300.0,
                exec_time_ns: 500_000,
                count: 4,
            },
        ];
        let e = sequence_energy_joules(&steps);
        let expected = 700.0 * 1e-3 * 10.0 + 300.0 * 0.5e-3 * 4.0;
        assert!((e - expected).abs() < 1e-9);
        assert_eq!(sequence_energy_joules(&[]), 0.0);
    }
}
