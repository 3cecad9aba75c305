//! Kernel descriptors and the execution-time variation model.
//!
//! A [`KernelDesc`] tells the device *how long* a kernel runs (as a function
//! of core frequency) and *how hard* it drives each GPU sub-component while
//! running. The descriptor is produced by the workload models in
//! `fingrav-workloads` (rocBLAS-like GEMM selection, RCCL-like collectives).
//!
//! The [`VariationConfig`] injects the paper's challenge **C3**: in the
//! sub-millisecond regime, "even slight variation in kernel execution time
//! (e.g., due to slight differences in memory allocation and hence access
//! patterns) makes correlating power measurements across runs a challenge."
//! We model three distinct sources, matching the paper's narrative:
//!
//! * **warm-up factors** — the first executions after the GPU has been idle
//!   run slower (cold caches and clock ramp); the paper found three warm-up
//!   executions typically suffice for time stabilization;
//! * **per-run allocation bias** — each run places buffers differently,
//!   shifting every execution in the run by a common factor;
//! * **per-execution jitter and outliers** — small Gaussian noise plus rare
//!   large excursions which the binning step (S3) must reject.

use crate::power::Activity;
use crate::rng::SimRng;
use crate::time::SimDuration;

/// A handle to a kernel registered with a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelHandle(pub(crate) usize);

impl KernelHandle {
    /// The raw registration index.
    pub fn index(&self) -> usize {
        self.0
    }

    /// Rebuilds a handle from a raw registration index.
    ///
    /// Exists for trace persistence (decoding a serialized
    /// [`crate::trace::RunTrace`] back into memory); a rebuilt handle is
    /// only meaningful against the simulation that originally issued it.
    pub fn from_index(index: usize) -> Self {
        KernelHandle(index)
    }
}

impl Default for KernelHandle {
    /// The first registered kernel; convenient for doctests and examples.
    fn default() -> Self {
        KernelHandle(0)
    }
}

/// Static description of a GPU kernel as the simulator executes it.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Human-readable name, e.g. `"CB-4K-GEMM"`.
    pub name: String,
    /// Execution time at the reference (boost) frequency, fully warm.
    pub base_exec: SimDuration,
    /// Fraction of the runtime that does *not* scale with core frequency
    /// (memory-bound fraction); 0 = perfectly compute-bound, 1 = perfectly
    /// memory-bound.
    pub freq_insensitive_frac: f64,
    /// Per-component switching activity while the kernel runs.
    pub activity: Activity,
    /// Achieved fraction of peak compute throughput (metadata used by the
    /// power-proportionality analysis; does not affect simulation).
    pub compute_utilization: f64,
    /// Algorithmic floating-point operations per execution.
    pub flops: f64,
    /// Bytes moved to/from HBM per execution (after cache filtering).
    pub hbm_bytes: f64,
    /// Bytes served by the Infinity Cache (LLC) per execution.
    pub llc_bytes: f64,
    /// Number of workgroups the kernel launches (used by phase splitting).
    pub workgroups: u32,
}

impl KernelDesc {
    /// Validates invariants; returns an error string naming the violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("kernel name must not be empty".into());
        }
        if self.base_exec.is_zero() {
            return Err(format!("kernel {}: base_exec must be positive", self.name));
        }
        if !(0.0..=1.0).contains(&self.freq_insensitive_frac) {
            return Err(format!(
                "kernel {}: freq_insensitive_frac out of [0,1]",
                self.name
            ));
        }
        if !(0.0..=1.0).contains(&self.compute_utilization) {
            return Err(format!(
                "kernel {}: compute_utilization out of [0,1]",
                self.name
            ));
        }
        if self.flops < 0.0 || self.hbm_bytes < 0.0 || self.llc_bytes < 0.0 {
            return Err(format!("kernel {}: negative work quantities", self.name));
        }
        if self.workgroups == 0 {
            return Err(format!(
                "kernel {}: needs at least one workgroup",
                self.name
            ));
        }
        Ok(())
    }

    /// Execution-time multiplier at core frequency `f_mhz` relative to the
    /// reference frequency: the compute-bound fraction stretches as the
    /// clock drops, the memory-bound fraction does not.
    ///
    /// # Examples
    ///
    /// ```
    /// use fingrav_sim::kernel::KernelDesc;
    /// use fingrav_sim::power::Activity;
    /// use fingrav_sim::time::SimDuration;
    ///
    /// let k = KernelDesc {
    ///     name: "k".into(),
    ///     base_exec: SimDuration::from_micros(100),
    ///     freq_insensitive_frac: 0.0,
    ///     activity: Activity::IDLE,
    ///     compute_utilization: 0.5,
    ///     flops: 1.0,
    ///     hbm_bytes: 1.0,
    ///     llc_bytes: 1.0,
    ///     workgroups: 8,
    /// };
    /// // Fully compute bound: halving the clock doubles the time.
    /// assert!((k.duration_factor(1050.0, 2100.0) - 2.0).abs() < 1e-12);
    /// ```
    pub fn duration_factor(&self, f_mhz: f64, f_ref_mhz: f64) -> f64 {
        let f = f_mhz.max(1.0);
        self.freq_insensitive_frac + (1.0 - self.freq_insensitive_frac) * (f_ref_mhz / f)
    }

    /// Algorithmic operational intensity in flops per HBM byte.
    pub fn op_to_byte(&self) -> f64 {
        if self.hbm_bytes <= 0.0 {
            f64::INFINITY
        } else {
            self.flops / self.hbm_bytes
        }
    }
}

/// Sources of execution-time variation (paper challenge C3).
#[derive(Debug, Clone, PartialEq)]
pub struct VariationConfig {
    /// Slow-down multipliers for the first executions after a cold (long
    /// idle) period; executions beyond the list run at 1.0.
    pub warmup_factors: Vec<f64>,
    /// Half-width of the uniform per-run allocation bias (fraction).
    pub run_bias_frac: f64,
    /// Standard deviation of per-execution Gaussian jitter (fraction).
    pub jitter_frac: f64,
    /// Probability that an execution is an outlier.
    pub outlier_prob: f64,
    /// Outlier slow-down range (multiplier drawn uniformly).
    pub outlier_range: (f64, f64),
    /// XCD-activity multiplier for outlier executions: a stall-heavy
    /// execution toggles the compute pipes less while it crawls.
    pub outlier_activity_factor: f64,
    /// Probability that a *whole run* lands a pathological memory
    /// allocation: every execution in it is slower and draws less compute
    /// power. These are the runs execution-time binning exists to discard.
    pub run_outlier_prob: f64,
    /// Slow-down range of a pathological run (multiplier drawn uniformly).
    pub run_outlier_bias: (f64, f64),
    /// XCD-activity multiplier of a pathological run.
    pub run_outlier_activity_factor: f64,
    /// Idle time after which the device is considered cold again and
    /// warm-up factors re-apply.
    pub cold_after: SimDuration,
}

impl Default for VariationConfig {
    fn default() -> Self {
        VariationConfig {
            warmup_factors: vec![1.22, 1.12, 1.05],
            run_bias_frac: 0.012,
            jitter_frac: 0.004,
            outlier_prob: 0.03,
            outlier_range: (1.10, 1.35),
            outlier_activity_factor: 0.80,
            run_outlier_prob: 0.08,
            run_outlier_bias: (1.04, 1.09),
            run_outlier_activity_factor: 0.88,
            cold_after: SimDuration::from_millis(5),
        }
    }
}

impl VariationConfig {
    /// A variation model with every stochastic source disabled; useful for
    /// deterministic tests.
    pub fn none() -> Self {
        VariationConfig {
            warmup_factors: Vec::new(),
            run_bias_frac: 0.0,
            jitter_frac: 0.0,
            outlier_prob: 0.0,
            outlier_range: (1.0, 1.0),
            outlier_activity_factor: 1.0,
            run_outlier_prob: 0.0,
            run_outlier_bias: (1.0, 1.0),
            run_outlier_activity_factor: 1.0,
            cold_after: SimDuration::from_millis(5),
        }
    }

    /// The warm-up multiplier for the `n`-th execution since cold.
    pub fn warmup_factor(&self, execs_since_cold: u32) -> f64 {
        self.warmup_factors
            .get(execs_since_cold as usize)
            .copied()
            .unwrap_or(1.0)
    }

    /// Number of executions carrying a warm-up penalty.
    pub fn warmup_len(&self) -> u32 {
        self.warmup_factors.len() as u32
    }

    /// Samples the per-run allocation draw: `(time bias, activity factor)`.
    /// Most runs get a small uniform bias at full activity; with
    /// [`VariationConfig::run_outlier_prob`] the run is pathological — much
    /// slower and drawing less compute power.
    pub fn sample_run_bias(&self, rng: &mut SimRng) -> (f64, f64) {
        if rng.chance(self.run_outlier_prob) {
            (
                rng.uniform(self.run_outlier_bias.0, self.run_outlier_bias.1),
                self.run_outlier_activity_factor,
            )
        } else {
            (
                1.0 + rng.uniform(-self.run_bias_frac, self.run_bias_frac),
                1.0,
            )
        }
    }

    /// Samples the combined per-execution multiplier (jitter and possible
    /// outlier), excluding warm-up and run bias.
    pub fn sample_execution_noise(&self, rng: &mut SimRng) -> ExecutionNoise {
        let jitter = (1.0 + rng.normal(0.0, self.jitter_frac)).max(0.5);
        let outlier = if rng.chance(self.outlier_prob) {
            Some(rng.uniform(self.outlier_range.0, self.outlier_range.1))
        } else {
            None
        };
        ExecutionNoise { jitter, outlier }
    }
}

/// The stochastic multipliers drawn for one execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionNoise {
    /// Gaussian jitter multiplier (≈1.0).
    pub jitter: f64,
    /// Outlier multiplier, if this execution is an outlier.
    pub outlier: Option<f64>,
}

impl ExecutionNoise {
    /// The combined multiplier.
    pub fn factor(&self) -> f64 {
        self.jitter * self.outlier.unwrap_or(1.0)
    }

    /// True if this execution was drawn as an outlier.
    pub fn is_outlier(&self) -> bool {
        self.outlier.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc() -> KernelDesc {
        KernelDesc {
            name: "test".into(),
            base_exec: SimDuration::from_micros(200),
            freq_insensitive_frac: 0.2,
            activity: Activity::new(0.9, 0.5, 0.4),
            compute_utilization: 0.8,
            flops: 1e11,
            hbm_bytes: 1e8,
            llc_bytes: 5e8,
            workgroups: 1024,
        }
    }

    #[test]
    fn valid_descriptor_passes() {
        assert!(desc().validate().is_ok());
    }

    #[test]
    fn invalid_descriptors_fail() {
        let mut d = desc();
        d.name.clear();
        assert!(d.validate().is_err());

        let mut d = desc();
        d.base_exec = SimDuration::ZERO;
        assert!(d.validate().is_err());

        let mut d = desc();
        d.freq_insensitive_frac = 1.5;
        assert!(d.validate().is_err());

        let mut d = desc();
        d.workgroups = 0;
        assert!(d.validate().is_err());

        let mut d = desc();
        d.flops = -1.0;
        assert!(d.validate().is_err());
    }

    #[test]
    fn duration_factor_at_reference_is_one() {
        let d = desc();
        assert!((d.duration_factor(2100.0, 2100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_kernel_ignores_frequency() {
        let mut d = desc();
        d.freq_insensitive_frac = 1.0;
        assert!((d.duration_factor(700.0, 2100.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compute_bound_kernel_scales_inversely() {
        let mut d = desc();
        d.freq_insensitive_frac = 0.0;
        assert!((d.duration_factor(700.0, 2100.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn op_to_byte_infinite_without_memory_traffic() {
        let mut d = desc();
        d.hbm_bytes = 0.0;
        assert!(d.op_to_byte().is_infinite());
        assert!((desc().op_to_byte() - 1e3).abs() < 1e-9);
    }

    #[test]
    fn warmup_factors_decay_to_one() {
        let v = VariationConfig::default();
        assert!(v.warmup_factor(0) > v.warmup_factor(1));
        assert!(v.warmup_factor(1) > v.warmup_factor(2));
        assert_eq!(v.warmup_factor(3), 1.0);
        assert_eq!(v.warmup_factor(100), 1.0);
        assert_eq!(v.warmup_len(), 3);
    }

    #[test]
    fn disabled_variation_is_deterministic() {
        let v = VariationConfig::none();
        let mut rng = SimRng::from_streams(1, 1);
        assert_eq!(v.sample_run_bias(&mut rng), (1.0, 1.0));
        let n = v.sample_execution_noise(&mut rng);
        assert_eq!(n.factor(), 1.0);
        assert!(!n.is_outlier());
    }

    #[test]
    fn run_bias_within_bounds() {
        let v = VariationConfig::default();
        let mut rng = SimRng::from_streams(2, 2);
        let mut pathological = 0usize;
        for _ in 0..1000 {
            let (b, af) = v.sample_run_bias(&mut rng);
            if af < 1.0 {
                pathological += 1;
                assert!((v.run_outlier_bias.0..=v.run_outlier_bias.1).contains(&b));
                assert_eq!(af, v.run_outlier_activity_factor);
            } else {
                assert!((1.0 - v.run_bias_frac..=1.0 + v.run_bias_frac).contains(&b));
            }
        }
        // ~8% of runs should be pathological.
        assert!((40..160).contains(&pathological), "{pathological}");
    }

    #[test]
    fn outlier_rate_matches_config() {
        let v = VariationConfig::default();
        let mut rng = SimRng::from_streams(3, 3);
        let n = 20_000;
        let outliers = (0..n)
            .filter(|_| v.sample_execution_noise(&mut rng).is_outlier())
            .count();
        let rate = outliers as f64 / n as f64;
        assert!((rate - v.outlier_prob).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn outlier_factor_within_range() {
        let v = VariationConfig::default();
        let mut rng = SimRng::from_streams(4, 4);
        for _ in 0..5000 {
            let noise = v.sample_execution_noise(&mut rng);
            if let Some(o) = noise.outlier {
                assert!((v.outlier_range.0..=v.outlier_range.1).contains(&o));
            }
        }
    }
}
