//! Aggregated simulator configuration.
//!
//! [`SimConfig`] collects every tunable of the simulated platform. The
//! defaults describe an MI300X-class device: the chiplet counts and
//! capacities come from the paper's background section (8 XCD × 38 CU,
//! 4 IOD, 256 MB Infinity Cache, 8 HBM stacks / 192 GB at 5.3 TB/s, 8-GPU
//! fully connected node with 64 GB/s links).

use crate::dvfs::PmConfig;
use crate::kernel::VariationConfig;
use crate::power::PowerModelConfig;
use crate::telemetry::TelemetryConfig;
use crate::thermal::ThermalConfig;
use crate::time::SimDuration;

/// Architectural shape of the simulated GPU (informational; consumed by the
/// workload models when deriving kernel descriptors).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Marketing name of the modelled device.
    pub name: String,
    /// Number of accelerator complex dies.
    pub n_xcd: u32,
    /// Compute units per XCD.
    pub cus_per_xcd: u32,
    /// Number of I/O dies.
    pub n_iod: u32,
    /// Number of HBM stacks.
    pub n_hbm_stacks: u32,
    /// Infinity Cache (memory-side LLC) capacity in MiB.
    pub llc_mib: u64,
    /// Per-XCD L2 capacity in MiB.
    pub l2_per_xcd_mib: u64,
    /// HBM capacity in GiB.
    pub hbm_gib: u64,
    /// Peak HBM bandwidth in GB/s.
    pub hbm_peak_gbps: f64,
    /// Peak dense FP16/BF16 matrix throughput in TFLOP/s at boost clock.
    pub peak_fp16_tflops: f64,
    /// Peak dense FP32 vector throughput in TFLOP/s at boost clock.
    pub peak_fp32_tflops: f64,
    /// GPUs per node (Infinity Platform).
    pub gpus_per_node: u32,
    /// Per-link unidirectional Infinity Fabric bandwidth, GB/s.
    pub if_link_gbps: f64,
}

impl MachineConfig {
    /// Total compute units.
    pub fn total_cus(&self) -> u32 {
        self.n_xcd * self.cus_per_xcd
    }

    /// Machine balance: peak FP16 flops per HBM byte.
    pub fn machine_op_to_byte_fp16(&self) -> f64 {
        (self.peak_fp16_tflops * 1e12) / (self.hbm_peak_gbps * 1e9)
    }
}

impl Default for MachineConfig {
    /// MI300X-class defaults (CDNA3 white paper numbers).
    fn default() -> Self {
        MachineConfig {
            name: "sim-mi300x".to_string(),
            n_xcd: 8,
            cus_per_xcd: 38,
            n_iod: 4,
            n_hbm_stacks: 8,
            llc_mib: 256,
            l2_per_xcd_mib: 4,
            hbm_gib: 192,
            hbm_peak_gbps: 5300.0,
            peak_fp16_tflops: 1307.4,
            peak_fp32_tflops: 163.4,
            gpus_per_node: 8,
            if_link_gbps: 64.0,
        }
    }
}

/// Clock-domain parameters (offsets are arbitrary; the methodology must not
/// depend on them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockConfig {
    /// CPU wall-clock offset at the simulation epoch, nanoseconds.
    pub cpu_boot_offset_ns: u64,
    /// GPU timestamp-counter nominal frequency, Hz.
    pub gpu_counter_hz: f64,
    /// GPU counter value at the simulation epoch.
    pub gpu_epoch_ticks: u64,
    /// True GPU oscillator drift relative to the CPU clock, ppm.
    pub gpu_drift_ppm: f64,
}

impl Default for ClockConfig {
    fn default() -> Self {
        ClockConfig {
            cpu_boot_offset_ns: 77_000_000_000, // CPU booted 77 s "ago"
            gpu_counter_hz: 100e6,
            gpu_epoch_ticks: 1_234_567_890,
            gpu_drift_ppm: 18.0,
        }
    }
}

/// Host-side latencies for kernel launches and timestamp reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostConfig {
    /// Submit-to-GPU-start dispatch latency.
    pub dispatch_latency: SimDuration,
    /// Relative jitter on the dispatch latency (uniform half-width).
    pub dispatch_jitter_frac: f64,
    /// GPU-completion-to-host-observation latency.
    pub completion_latency: SimDuration,
    /// Round-trip time of a GPU timestamp read from the CPU.
    pub timestamp_rtt: SimDuration,
    /// Relative jitter on the timestamp RTT (uniform half-width).
    pub timestamp_rtt_jitter_frac: f64,
    /// Where inside the RTT the counter is actually sampled (fraction of
    /// RTT after `cpu_before`); real stacks sample asymmetrically, which is
    /// the residual error a sync methodology cannot remove by assuming the
    /// midpoint.
    pub timestamp_sample_frac: f64,
    /// Gaussian noise on host `clock_gettime`-style reads, ns (std dev).
    pub timer_noise_ns: f64,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            dispatch_latency: SimDuration::from_nanos(3_800),
            dispatch_jitter_frac: 0.12,
            completion_latency: SimDuration::from_nanos(1_900),
            timestamp_rtt: SimDuration::from_nanos(1_500),
            timestamp_rtt_jitter_frac: 0.15,
            timestamp_sample_frac: 0.58,
            timer_noise_ns: 120.0,
        }
    }
}

/// Complete simulator configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimConfig {
    /// Architectural shape.
    pub machine: MachineConfig,
    /// Power-model parameters.
    pub power: PowerModelConfig,
    /// Thermal-model parameters.
    pub thermal: ThermalConfig,
    /// Power-management firmware parameters.
    pub pm: PmConfig,
    /// Telemetry cadences.
    pub telemetry: TelemetryConfig,
    /// Execution-time variation sources.
    pub variation: VariationConfig,
    /// Clock-domain parameters.
    pub clocks: ClockConfig,
    /// Host-side latencies.
    pub host: HostConfig,
}

impl SimConfig {
    /// A configuration with all stochastic variation disabled and zero clock
    /// drift — the device still ramps, throttles, and averages power, but
    /// repeated runs are identical. Useful for tests that need exactness.
    pub fn deterministic() -> Self {
        SimConfig {
            variation: VariationConfig::none(),
            clocks: ClockConfig {
                gpu_drift_ppm: 0.0,
                ..ClockConfig::default()
            },
            host: HostConfig {
                dispatch_jitter_frac: 0.0,
                timestamp_rtt_jitter_frac: 0.0,
                timer_noise_ns: 0.0,
                ..HostConfig::default()
            },
            ..SimConfig::default()
        }
    }

    /// Validates cross-field invariants.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.telemetry.sensor_period.is_zero() {
            return Err("sensor period must be positive".into());
        }
        if self.telemetry.logger_period.is_zero() || self.telemetry.logger_window.is_zero() {
            return Err("logger period/window must be positive".into());
        }
        if self.telemetry.sensor_period > self.telemetry.logger_window {
            return Err("sensor period must not exceed the logger window".into());
        }
        if self.telemetry.coarse_period.is_zero() || self.telemetry.coarse_window.is_zero() {
            return Err("coarse logger period/window must be positive".into());
        }
        if self.pm.control_period.is_zero() {
            return Err("PM control period must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.host.timestamp_sample_frac) {
            return Err("timestamp sample fraction out of [0,1]".into());
        }
        if self.clocks.gpu_counter_hz <= 0.0 {
            return Err("GPU counter frequency must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_machine_is_mi300x_shaped() {
        let m = MachineConfig::default();
        assert_eq!(m.total_cus(), 304);
        assert_eq!(m.n_xcd, 8);
        assert_eq!(m.n_iod, 4);
        assert_eq!(m.n_hbm_stacks, 8);
        // Machine balance around 250 flop/byte for FP16.
        let balance = m.machine_op_to_byte_fp16();
        assert!(balance > 200.0 && balance < 300.0, "balance {balance}");
    }

    #[test]
    fn default_config_validates() {
        assert!(SimConfig::default().validate().is_ok());
        assert!(SimConfig::deterministic().validate().is_ok());
    }

    #[test]
    fn validation_catches_zero_sensor_period() {
        let mut cfg = SimConfig::default();
        cfg.telemetry.sensor_period = SimDuration::ZERO;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_catches_sensor_coarser_than_window() {
        let mut cfg = SimConfig::default();
        cfg.telemetry.sensor_period = SimDuration::from_millis(10);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_catches_zero_coarse_window() {
        let mut cfg = SimConfig::default();
        cfg.telemetry.coarse_window = SimDuration::ZERO;
        assert!(cfg.validate().unwrap_err().contains("coarse"));
        // A typed error from the engine, not a panic in the logger.
        assert!(matches!(
            crate::engine::Simulation::new(cfg, 0),
            Err(crate::error::SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn validation_catches_zero_coarse_period() {
        let mut cfg = SimConfig::default();
        cfg.telemetry.coarse_period = SimDuration::ZERO;
        assert!(cfg.validate().unwrap_err().contains("coarse"));
    }

    #[test]
    fn validation_catches_bad_sample_frac() {
        let mut cfg = SimConfig::default();
        cfg.host.timestamp_sample_frac = 1.5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn deterministic_config_has_no_randomness() {
        let cfg = SimConfig::deterministic();
        assert_eq!(cfg.variation.jitter_frac, 0.0);
        assert_eq!(cfg.variation.outlier_prob, 0.0);
        assert_eq!(cfg.clocks.gpu_drift_ppm, 0.0);
        assert_eq!(cfg.host.timer_noise_ns, 0.0);
    }
}
