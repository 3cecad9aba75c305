//! # fingrav-core — the FinGraV fine-grain GPU power methodology
//!
//! Implementation of the methodology from *"FinGraV: Methodology for
//! Fine-Grain GPU Power Visibility and Insights"* (ISPASS 2025,
//! arXiv:2412.12426). FinGraV turns a coarse on-GPU averaging power logger
//! into fine-grain, per-sub-component power profiles of sub-millisecond
//! kernels via four techniques:
//!
//! * **S1** — GPU-side power logging (provided by the platform; see
//!   `fingrav-sim` for the simulated MI300X's 1 ms logger);
//! * **S2** — high-resolution CPU–GPU time sync ([`sync`]): read-delay
//!   calibration, anchoring, and optional two-anchor drift cancellation;
//! * **S3** — execution-time binning ([`binning`]): keep only *golden* runs
//!   whose steady execution times agree within a margin;
//! * **S4** — power-profile differentiation ([`differentiation`]): separate
//!   the steady-state-execution (SSE) profile from the steady-state-power
//!   (SSP) profile, avoiding up to 80 % energy measurement error.
//!
//! [`runner::FingravRunner`] composes all of it into the paper's nine-step
//! recipe against any [`backend::PowerBackend`].
//!
//! ## Quick start
//!
//! ```
//! use fingrav_core::runner::{FingravRunner, RunnerConfig};
//! use fingrav_sim::config::SimConfig;
//! use fingrav_sim::engine::Simulation;
//! use fingrav_workloads::suite;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sim = Simulation::new(SimConfig::default(), 42)?;
//! let kernel = suite::cb_gemm(&SimConfig::default().machine, 4096);
//! // Scaled-down run count for a fast doc test; drop `quick` for the
//! // paper-guided run counts.
//! let mut runner = FingravRunner::new(&mut sim, RunnerConfig::quick(12));
//! let report = runner.profile(&kernel)?;
//! assert_eq!(report.label, "CB-4K-GEMM");
//! assert!(report.ssp_mean_total_w.unwrap() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod binning;
pub mod campaign;
pub mod chart;
pub mod checkpoint;
pub mod cover;
pub mod differentiation;
pub mod energy;
pub mod error;
pub mod executor;
pub mod guidance;
pub mod insights;
pub mod mmap;
pub mod observe;
pub mod outliers;
pub mod phases;
pub mod profile;
pub mod regression;
pub mod report;
pub mod runner;
pub mod stages;
pub mod stats;
pub mod store;
pub mod sync;
pub mod transport;

pub use backend::{
    BackendFactory, FnBackendFactory, PowerBackend, ScriptSession, SimulationFactory,
};
pub use binning::{bin_durations, Binning};
pub use campaign::{Campaign, CampaignEntry, CampaignReport};
pub use checkpoint::{
    campaign_digest, gather, gather_stores, CampaignManifest, CheckpointDir, CheckpointError,
    EntryArtifact, EntryArtifactView, EntryStatus, GatheredCampaign, GatheredStores, ManifestEntry,
};
pub use error::{MethodologyError, MethodologyResult};
pub use executor::{CampaignExecutor, CampaignObserver, CampaignOutcome, ErrorPolicy};
pub use guidance::{GuidanceEntry, GuidanceTable};
pub use mmap::MappedProfile;
pub use observe::{ProfilingEvent, ProfilingSink, StageKind};
pub use profile::{PowerAxis, PowerProfile, ProfileAxis, ProfileKind, ProfilePoint};
pub use runner::{FingravRunner, KernelPowerReport, LoggerChoice, RunnerConfig};
pub use stages::{RunCollection, SspArtifact, StagePipeline, StitchedProfiles, TimingArtifact};
pub use store::{
    ProfileColumns, ProfilePointRef, ProfileStore, ProfileStoreView, StoreCodecError, StoreDiff,
};
pub use sync::{ReadDelayCalibration, TimeSync};
pub use transport::{connect_with_retry, work, TransportError, WorkerOptions, WorkerSummary};
