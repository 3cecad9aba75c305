//! Stage-scoped observation of a running methodology pipeline.
//!
//! The simulator streams raw device moments ([`TelemetryEvent`]: logs,
//! launches, timestamp reads) out of a script session; the methodology
//! layers above it know *why* a script is running — calibration, timing
//! probe, SSP search, main run collection. This module adds that context:
//! a [`ProfilingSink`] receives [`ProfilingEvent`]s, which are either
//! stage boundaries or device events forwarded from the session in flight.
//!
//! # Ordering guarantees
//!
//! A pipeline's event stream is deterministic (it inherits the engine's
//! determinism; see [`fingrav_sim::session`]): for a given backend seed,
//! kernel, and configuration the stream is identical event for event, no
//! matter who consumes it or how slowly. Within one kernel's profiling:
//!
//! 1. Stages arrive in methodology order (calibrate → timing probe → SSP
//!    search → collect runs), each bracketed by
//!    [`ProfilingEvent::StageStarted`] / [`ProfilingEvent::StageFinished`].
//! 2. Every [`ProfilingEvent::Device`] event falls between the brackets of
//!    the stage whose script produced it, in session order.
//!
//! Campaign executors tag each kernel's stream with its campaign slot (see
//! [`crate::executor::CampaignObserver`]); streams of different slots may
//! interleave arbitrarily when sharded across workers, but each slot's own
//! stream is always in the order above — which is what makes live
//! observation compatible with the executor's bit-identical-results
//! guarantee.
//!
//! # Example: watch the stages of one profile run
//!
//! Any `FnMut(ProfilingEvent)` closure is a [`ProfilingSink`]; here one
//! collects the stage brackets while a kernel profiles:
//!
//! ```
//! use fingrav_core::observe::{ProfilingEvent, StageKind};
//! use fingrav_core::runner::{FingravRunner, RunnerConfig};
//! use fingrav_sim::config::SimConfig;
//! use fingrav_sim::engine::Simulation;
//! use fingrav_workloads::suite;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sim = Simulation::new(SimConfig::default(), 7)?;
//! let kernel = suite::cb_gemm(&SimConfig::default().machine, 2048);
//!
//! let mut stages = Vec::new();
//! let mut device_events = 0usize;
//! let mut sink = |event: ProfilingEvent| match event {
//!     ProfilingEvent::StageStarted { stage } => stages.push(stage),
//!     ProfilingEvent::Device(_) => device_events += 1,
//!     _ => {}
//! };
//! let mut runner = FingravRunner::new(&mut sim, RunnerConfig::quick(6))
//!     .with_observer(&mut sink);
//! runner.profile(&kernel)?;
//!
//! // Stages arrive in methodology order, device events in between.
//! assert_eq!(
//!     stages,
//!     vec![
//!         StageKind::Calibrate,
//!         StageKind::TimingProbe,
//!         StageKind::SspSearch,
//!         StageKind::CollectRuns,
//!     ]
//! );
//! assert!(device_events > 0);
//! # Ok(())
//! # }
//! ```

use std::fmt;

use fingrav_sim::session::{TelemetryEvent, TelemetrySink};

/// The methodology stage a device event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StageKind {
    /// Timestamp-read delay calibration (paper step 2 precursor).
    Calibrate,
    /// Timing probe + warm-up detection (paper steps 1 + 3).
    TimingProbe,
    /// SSP search (paper step 4).
    SspSearch,
    /// Main run collection with binning and top-up (paper steps 5–8).
    CollectRuns,
}

impl fmt::Display for StageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StageKind::Calibrate => f.write_str("calibrate"),
            StageKind::TimingProbe => f.write_str("timing-probe"),
            StageKind::SspSearch => f.write_str("ssp-search"),
            StageKind::CollectRuns => f.write_str("collect-runs"),
        }
    }
}

/// One observable moment of a running [`crate::stages::StagePipeline`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProfilingEvent {
    /// A methodology stage began.
    StageStarted {
        /// The stage.
        stage: StageKind,
    },
    /// A methodology stage completed.
    StageFinished {
        /// The stage.
        stage: StageKind,
    },
    /// A device event from the script session currently in flight.
    Device(TelemetryEvent),
}

/// A consumer of [`ProfilingEvent`]s.
///
/// Any `FnMut(ProfilingEvent)` closure is a sink. Like
/// [`TelemetrySink`], implementations may block (backpressure) but must
/// not panic.
pub trait ProfilingSink {
    /// Receives one event, in pipeline order.
    fn on_event(&mut self, event: ProfilingEvent);
}

impl<F: FnMut(ProfilingEvent)> ProfilingSink for F {
    fn on_event(&mut self, event: ProfilingEvent) {
        self(event)
    }
}

/// Adapts a [`ProfilingSink`] into the [`TelemetrySink`] a script session
/// expects, wrapping every device event in [`ProfilingEvent::Device`].
pub struct ForwardDeviceEvents<'a>(pub &'a mut dyn ProfilingSink);

impl TelemetrySink for ForwardDeviceEvents<'_> {
    fn on_event(&mut self, event: TelemetryEvent) {
        self.0.on_event(ProfilingEvent::Device(event));
    }
}

// ---------------------------------------------------------------------
// Wire codecs: progress events are serializable so a cross-node campaign
// can stream them from worker to coordinator (see `crate::transport`).
// ---------------------------------------------------------------------

use crate::checkpoint::{CheckpointError, Codec};
use std::io::{self, Write};

impl Codec for StageKind {
    const BLOCK: &'static str = "stage kind";
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let tag: u8 = match self {
            StageKind::Calibrate => 0,
            StageKind::TimingProbe => 1,
            StageKind::SspSearch => 2,
            StageKind::CollectRuns => 3,
        };
        tag.encode(w)
    }
    fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        match u8::decode(r)? {
            0 => Ok(StageKind::Calibrate),
            1 => Ok(StageKind::TimingProbe),
            2 => Ok(StageKind::SspSearch),
            3 => Ok(StageKind::CollectRuns),
            other => Err(CheckpointError::Corrupt(format!(
                "unknown stage-kind tag {other}"
            ))),
        }
    }
}

impl Codec for ProfilingEvent {
    const BLOCK: &'static str = "profiling event";
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        match self {
            ProfilingEvent::StageStarted { stage } => {
                0u8.encode(w)?;
                stage.encode(w)
            }
            ProfilingEvent::StageFinished { stage } => {
                1u8.encode(w)?;
                stage.encode(w)
            }
            ProfilingEvent::Device(event) => {
                2u8.encode(w)?;
                event.encode(w)
            }
        }
    }
    fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        match u8::decode(r)? {
            0 => Ok(ProfilingEvent::StageStarted {
                stage: StageKind::decode(r)?,
            }),
            1 => Ok(ProfilingEvent::StageFinished {
                stage: StageKind::decode(r)?,
            }),
            2 => Ok(ProfilingEvent::Device(TelemetryEvent::decode(r)?)),
            other => {
                crate::cover::hit(crate::cover::WIRE_EVENT_BAD_TAG);
                Err(CheckpointError::Corrupt(format!(
                    "unknown profiling-event tag {other}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_kinds_display() {
        assert_eq!(StageKind::Calibrate.to_string(), "calibrate");
        assert_eq!(StageKind::TimingProbe.to_string(), "timing-probe");
        assert_eq!(StageKind::SspSearch.to_string(), "ssp-search");
        assert_eq!(StageKind::CollectRuns.to_string(), "collect-runs");
    }

    #[test]
    fn forwarder_wraps_device_events() {
        let mut seen = Vec::new();
        {
            let mut sink = |e: ProfilingEvent| seen.push(e);
            let mut fwd = ForwardDeviceEvents(&mut sink);
            fwd.on_event(TelemetryEvent::ScriptStarted { ops: 3 });
        }
        assert_eq!(
            seen,
            vec![ProfilingEvent::Device(TelemetryEvent::ScriptStarted {
                ops: 3
            })]
        );
    }
}
