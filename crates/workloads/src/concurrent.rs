//! Concurrent execution of complementary kernels (paper recommendation #1).
//!
//! Table II's first recommendation: "Available power headroom can be fully
//! utilized by concurrently executing computations with complementary
//! algorithmic and hence complementary power profiles" — e.g. a
//! memory-bound attention kernel alongside compute-bound fully-connected
//! layers. This module models such co-schedules at the kernel-descriptor
//! level: the combined kernel's per-component activity is the (saturating)
//! sum of its parts, and each part slows down by the oversubscription of
//! its most contended component.

use fingrav_sim::kernel::KernelDesc;
use fingrav_sim::power::Activity;

/// Analysis of one co-schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct CoScheduleAnalysis {
    /// The fused descriptor to simulate/profile.
    pub combined: KernelDesc,
    /// Oversubscription factor of the most contended component
    /// (1.0 = no contention).
    pub contention: f64,
    /// Predicted throughput gain over running the same work serially,
    /// assuming both kernels stream back-to-back through the co-schedule
    /// period: `2 / contention` (2.0 for perfectly complementary pairs,
    /// approaching 1.0 as the pair fights over one component).
    pub speedup_vs_serial: f64,
}

/// Builds the co-scheduled descriptor for kernels `a` and `b` running
/// concurrently, each repeated for one co-schedule period.
///
/// The model: each component's demand is the sum of the two kernels'
/// activities; demand beyond 1.0 is contention that stretches both kernels
/// proportionally. The combined execution time covers the longer of the
/// two (stretched) kernels.
///
/// # Errors
///
/// Returns an error if either descriptor is invalid.
///
/// # Examples
///
/// ```
/// use fingrav_sim::config::MachineConfig;
/// use fingrav_workloads::concurrent::co_schedule;
/// use fingrav_workloads::suite;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let m = MachineConfig::default();
/// let gemm = suite::cb_gemm(&m, 4096);
/// let gemv = suite::mb_gemv(&m, 4096);
/// let analysis = co_schedule(&gemm, &gemv)?;
/// // Complementary profiles: little contention, near-2x utilization of
/// // the period that would otherwise idle one side.
/// assert!(analysis.contention < 1.3);
/// assert!(analysis.speedup_vs_serial > 1.0);
/// # Ok(())
/// # }
/// ```
pub fn co_schedule(a: &KernelDesc, b: &KernelDesc) -> Result<CoScheduleAnalysis, String> {
    a.validate()?;
    b.validate()?;

    let demand = Activity {
        xcd: a.activity.xcd + b.activity.xcd,
        iod: a.activity.iod + b.activity.iod,
        hbm: a.activity.hbm + b.activity.hbm,
    };
    let contention = demand.xcd.max(demand.iod).max(demand.hbm).max(1.0);

    // Both kernels stretch by the contention on their shared bottleneck.
    let t_a = a.base_exec.as_secs_f64() * contention;
    let t_b = b.base_exec.as_secs_f64() * contention;
    let t_combined = t_a.max(t_b);
    // Throughput gain with both sides streaming: during one period the
    // longer kernel completes once and the shorter completes
    // `t_combined / t_short` times; the same work done serially takes
    // `t_long_solo + t_combined / contention`, which simplifies to a
    // speed-up of exactly `2 / contention`.
    let speedup_vs_serial = 2.0 / contention;

    // The combined kernel: saturating activities, duration of the longer
    // stretched member (the shorter one is assumed re-issued to fill the
    // period, as co-scheduled workloads do in practice).
    let combined = KernelDesc {
        name: format!("{}+{}", a.name, b.name),
        base_exec: fingrav_sim::time::SimDuration::from_secs_f64(t_combined),
        freq_insensitive_frac: (a.freq_insensitive_frac * t_a + b.freq_insensitive_frac * t_b)
            / (t_a + t_b),
        activity: Activity::new(demand.xcd, demand.iod, demand.hbm),
        compute_utilization: (a.compute_utilization + b.compute_utilization).min(1.0),
        flops: a.flops + b.flops,
        hbm_bytes: a.hbm_bytes + b.hbm_bytes,
        llc_bytes: a.llc_bytes + b.llc_bytes,
        workgroups: a.workgroups.saturating_add(b.workgroups),
    };
    debug_assert!(combined.validate().is_ok());

    Ok(CoScheduleAnalysis {
        combined,
        contention,
        speedup_vs_serial,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;
    use fingrav_sim::config::MachineConfig;

    fn machine() -> MachineConfig {
        MachineConfig::default()
    }

    #[test]
    fn complementary_kernels_compose_cheaply() {
        // CB GEMM (XCD-heavy) + a mid-size MB GEMV: little overlap. (The
        // 8K GEMV saturates the IOD on its own, so it is *not* the cheap
        // partner for an IOD-using GEMM — see the contention test below.)
        let a = suite::cb_gemm(&machine(), 4096);
        let b = suite::mb_gemv(&machine(), 4096);
        let c = co_schedule(&a, &b).expect("valid");
        assert!(c.contention < 1.3, "contention {}", c.contention);
        assert!(c.speedup_vs_serial > 1.0);
        assert!(c.combined.activity.xcd >= a.activity.xcd);
        assert!(c.combined.activity.iod >= b.activity.iod);
    }

    #[test]
    fn conflicting_kernels_contend() {
        // Two copies of the same XCD-saturating GEMM: heavy contention.
        let a = suite::cb_gemm(&machine(), 8192);
        let c = co_schedule(&a, &a).expect("valid");
        assert!(c.contention > 1.7, "contention {}", c.contention);
        // Contention eats the concurrency benefit: 2/contention -> ~1.
        assert!(c.speedup_vs_serial < 1.2, "speedup {}", c.speedup_vs_serial);
        assert!((c.speedup_vs_serial - 2.0 / c.contention).abs() < 1e-12);
    }

    #[test]
    fn combined_activities_saturate_at_one() {
        let a = suite::cb_gemm(&machine(), 8192);
        let c = co_schedule(&a, &a).expect("valid");
        assert!(c.combined.activity.xcd <= 1.0);
        assert!(c.combined.activity.iod <= 1.0);
        assert!(c.combined.activity.hbm <= 1.0);
    }

    #[test]
    fn work_quantities_are_additive() {
        let a = suite::cb_gemm(&machine(), 4096);
        let b = suite::mb_gemv(&machine(), 4096);
        let c = co_schedule(&a, &b).expect("valid");
        assert!((c.combined.flops - (a.flops + b.flops)).abs() < 1.0);
        assert_eq!(c.combined.workgroups, a.workgroups + b.workgroups);
        assert!(c.combined.name.contains(&a.name));
        assert!(c.combined.name.contains(&b.name));
    }

    #[test]
    fn invalid_inputs_rejected() {
        let mut bad = suite::cb_gemm(&machine(), 4096);
        bad.workgroups = 0;
        assert!(co_schedule(&bad, &suite::mb_gemv(&machine(), 4096)).is_err());
    }
}
