//! # fingrav-sim — a simulated MI300X-class GPU for power-methodology research
//!
//! This crate is the hardware substrate for the FinGraV reproduction
//! (ISPASS 2025, arXiv:2412.12426). The paper measures fine-grain GPU power
//! on real AMD Instinct MI300X hardware with an internal 1 ms averaging
//! power logger; this crate simulates everything the methodology can
//! observe on such a platform — and, crucially, everything that makes the
//! observation *hard*:
//!
//! * sub-millisecond kernel executions with warm-up drift, per-run
//!   allocation bias, Gaussian jitter, and occasional outliers
//!   (challenge **C3**);
//! * a GPU timestamp counter offset and drifting relative to the CPU clock
//!   (challenge **C2**);
//! * a windowed-averaging power logger that blends a kernel's draw with
//!   its surroundings (challenges **C1**, **C4**);
//! * power-management firmware that ramps, boosts, and throttles the core
//!   clock against a socket power cap, coupled to an RC thermal model.
//!
//! The methodology itself lives in `fingrav-core` and only ever sees the
//! observable half of a [`trace::RunTrace`]. The ground-truth half is
//! recorded only when a session asks for it through
//! [`telemetry::TelemetryConfig::record_instant_trace`], which tests and
//! accuracy checks do; a methodology session leaves it off and pays
//! nothing for it.
//!
//! ## Quick start
//!
//! ```
//! use fingrav_sim::config::SimConfig;
//! use fingrav_sim::engine::Simulation;
//! use fingrav_sim::kernel::KernelDesc;
//! use fingrav_sim::power::Activity;
//! use fingrav_sim::script::Script;
//! use fingrav_sim::time::SimDuration;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sim = Simulation::new(SimConfig::default(), 7)?;
//! let k = sim.register_kernel(KernelDesc {
//!     name: "toy-gemm".into(),
//!     base_exec: SimDuration::from_micros(180),
//!     freq_insensitive_frac: 0.15,
//!     activity: Activity::new(0.9, 0.5, 0.4),
//!     compute_utilization: 0.8,
//!     flops: 1.4e11,
//!     hbm_bytes: 1.0e8,
//!     llc_bytes: 8.0e8,
//!     workgroups: 2048,
//! })?;
//! let trace = sim.run_script(
//!     &Script::builder()
//!         .begin_run()
//!         .start_power_logger()
//!         .launch_timed(k, 10)
//!         .sleep(SimDuration::from_millis(2))
//!         .stop_power_logger()
//!         .build(),
//! )?;
//! assert_eq!(trace.executions.len(), 10);
//! # Ok(())
//! # }
//! ```

// No unsafe anywhere in this crate; `fgrv-lint`'s unsafe-audit keeps it so.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod config;
pub mod device;
pub mod dvfs;
pub mod engine;
pub mod error;
pub mod event;
pub mod fabric;
pub mod kernel;
pub mod power;
pub mod rng;
pub mod script;
pub mod session;
pub mod telemetry;
pub mod thermal;
pub mod time;
pub mod trace;

pub use config::{MachineConfig, SimConfig};
pub use engine::Simulation;
pub use error::{SimError, SimResult};
pub use kernel::{KernelDesc, KernelHandle, VariationConfig};
pub use power::{Activity, Component, ComponentPower};
pub use script::{HostOp, Script};
pub use session::{AbortHandle, ChannelSink, NoopSink, TelemetryEvent, TelemetrySink};
pub use telemetry::PowerLog;
pub use time::{CpuTime, GpuTicks, SimDuration, SimTime};
pub use trace::{RunTrace, TimedExecution, TimestampRead};

/// Tests of [`rng::SimRng`]'s raw generator: `uniform_u64(0, u64::MAX)` is
/// the raw 64-bit draw and `uniform(0.0, 1.0)` the raw unit draw. (The
/// distribution tests live in `rng.rs`.)
#[cfg(test)]
mod tests {
    use super::rng::SimRng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SimRng::from_seed_u64(7);
        let mut b = SimRng::from_seed_u64(7);
        for _ in 0..64 {
            assert_eq!(a.uniform_u64(0, u64::MAX), b.uniform_u64(0, u64::MAX));
        }
        let mut c = SimRng::from_seed_u64(8);
        assert_ne!(
            SimRng::from_seed_u64(7).uniform_u64(0, u64::MAX),
            c.uniform_u64(0, u64::MAX)
        );
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = SimRng::from_seed_u64(1);
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&rng.uniform(0.0, 1.0)));
        }
    }

    #[test]
    fn ranges_respected() {
        let mut rng = SimRng::from_seed_u64(2);
        for _ in 0..10_000 {
            let x = rng.uniform(3.0, 5.0);
            assert!((3.0..5.0).contains(&x));
            let y = rng.uniform_u64(10, 20);
            assert!((10..=20).contains(&y));
        }
    }

    #[test]
    fn float_draws_cover_the_unit_interval() {
        let mut rng = SimRng::from_seed_u64(3);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.uniform(0.0, 1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
