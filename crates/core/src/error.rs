//! Methodology error types.

use std::error::Error;
use std::fmt;

use fingrav_sim::SimError;

/// Errors produced by the FinGraV methodology.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MethodologyError {
    /// The profiled device rejected an operation.
    Backend(String),
    /// Not enough timestamp reads to synchronize CPU and GPU time.
    InsufficientSyncData,
    /// No executions survived binning (margin too tight or data degenerate).
    NoGoldenRuns,
    /// A probe run produced no usable measurements.
    EmptyProbe,
    /// Configuration inconsistency.
    InvalidConfig(String),
    /// A script session was cancelled mid-measurement (cooperative abort
    /// via an [`fingrav_sim::session::AbortHandle`] or a campaign
    /// cancellation token); partial measurements are discarded because the
    /// methodology's statistics need complete runs.
    Aborted,
    /// A campaign checkpoint could not be written, read, or trusted (see
    /// [`crate::checkpoint::CheckpointError`] for the typed causes; this
    /// variant carries its rendered message through executor APIs).
    Checkpoint(String),
    /// A cross-node campaign connection failed or spoke the protocol
    /// wrong (see [`crate::transport::TransportError`] for the typed
    /// causes; this variant carries its rendered message through the
    /// coordinator/worker APIs).
    Transport(String),
    /// Code serving a campaign (an observer, say) panicked. The campaign
    /// service contains the panic at the campaign's boundary and carries
    /// its message here; the campaign's directory stays a resumable
    /// checkpoint.
    Panicked(String),
}

impl fmt::Display for MethodologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodologyError::Backend(msg) => write!(f, "backend error: {msg}"),
            MethodologyError::InsufficientSyncData => {
                f.write_str("insufficient timestamp reads for CPU-GPU sync")
            }
            MethodologyError::NoGoldenRuns => {
                f.write_str("no golden runs survived execution-time binning")
            }
            MethodologyError::EmptyProbe => f.write_str("probe run produced no measurements"),
            MethodologyError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            MethodologyError::Aborted => f.write_str("measurement aborted mid-script"),
            MethodologyError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            MethodologyError::Transport(msg) => write!(f, "transport error: {msg}"),
            MethodologyError::Panicked(msg) => write!(f, "campaign panicked: {msg}"),
        }
    }
}

impl Error for MethodologyError {}

impl From<SimError> for MethodologyError {
    fn from(e: SimError) -> Self {
        MethodologyError::Backend(e.to_string())
    }
}

/// Convenience result alias.
pub type MethodologyResult<T> = Result<T, MethodologyError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(format!("{}", MethodologyError::Backend("x".into())).contains('x'));
        assert!(!format!("{}", MethodologyError::InsufficientSyncData).is_empty());
        assert!(!format!("{}", MethodologyError::NoGoldenRuns).is_empty());
        assert!(!format!("{}", MethodologyError::EmptyProbe).is_empty());
        assert!(format!("{}", MethodologyError::InvalidConfig("y".into())).contains('y'));
        assert!(format!("{}", MethodologyError::Aborted).contains("aborted"));
        assert!(format!("{}", MethodologyError::Checkpoint("z".into())).contains('z'));
        assert!(format!("{}", MethodologyError::Panicked("boom".into())).contains("boom"));
    }

    #[test]
    fn converts_sim_errors() {
        let e: MethodologyError = SimError::UnknownKernel { index: 3 }.into();
        assert!(matches!(e, MethodologyError::Backend(_)));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<MethodologyError>();
    }
}
