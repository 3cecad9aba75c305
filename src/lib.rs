//! # fingrav — fine-grain GPU power visibility
//!
//! A full reproduction of *"FinGraV: Methodology for Fine-Grain GPU Power
//! Visibility and Insights"* (Singhania, Aga, Ibrahim — ISPASS 2025,
//! arXiv:2412.12426), built as a Rust workspace:
//!
//! * [`core`] (re-export of `fingrav-core`) — the FinGraV methodology:
//!   CPU–GPU time synchronization, execution-time binning, SSE/SSP power
//!   profile differentiation, LOI/TOI stitching, profiling guidance;
//! * [`sim`] (re-export of `fingrav-sim`) — the simulated MI300X-class
//!   platform the methodology is evaluated on: chiplet power model, DVFS
//!   firmware, thermal model, drifting clock domains, 1 ms averaging power
//!   logger, 8-GPU fabric;
//! * [`workloads`] (re-export of `fingrav-workloads`) — rocBLAS-like
//!   GEMM/GEMV models and RCCL-like collectives (the paper's fourteen
//!   evaluation kernels);
//! * [`baselines`] (re-export of `fingrav-baselines`) — the profiling
//!   strategies FinGraV improves on.
//!
//! ## Quick start
//!
//! ```
//! use fingrav::core::runner::{FingravRunner, RunnerConfig};
//! use fingrav::sim::{SimConfig, Simulation};
//! use fingrav::workloads::suite;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A simulated MI300X-class profiling session.
//! let mut gpu = Simulation::new(SimConfig::default(), 42)?;
//! // The paper's CB-4K-GEMM (compute-bound 4096^3 half-precision GEMM).
//! let kernel = suite::cb_gemm(&SimConfig::default().machine, 4096);
//! // Profile it with the FinGraV nine-step methodology.
//! let mut runner = FingravRunner::new(&mut gpu, RunnerConfig::quick(20));
//! let report = runner.profile(&kernel)?;
//! println!(
//!     "{}: SSE {:?} W vs SSP {:?} W ({} LOIs stitched)",
//!     report.label,
//!     report.sse_mean_total_w,
//!     report.ssp_mean_total_w,
//!     report.ssp_profile.len(),
//! );
//! # Ok(())
//! # }
//! ```
//!
//! Runnable examples live in `examples/`; the paper's tables and figures
//! are regenerated by the binaries in the `fingrav-bench` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use fingrav_baselines as baselines;
pub use fingrav_core as core;
pub use fingrav_sim as sim;
pub use fingrav_workloads as workloads;
