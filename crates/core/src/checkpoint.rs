//! Campaign checkpoints: the versioned `FGRVCKPT` on-disk format plus the
//! scatter/gather directory layout the sharded executor persists into.
//!
//! A campaign checkpoint makes multi-kernel campaigns *durable and
//! restartable*: every entry that finishes is written to disk the moment
//! its report exists, so a cancelled (or crashed) campaign resumes from
//! where it stopped and finishes with artifacts byte-identical to an
//! uninterrupted run — the executor's determinism guarantee extended
//! across process boundaries.
//!
//! ## On-disk layout
//!
//! ```text
//! <checkpoint-dir>/
//! ├── manifest.fgrvckpt            # CampaignManifest: digest, statuses, seeds
//! ├── shard-00/
//! │   ├── entry-0000.fgrvckpt      # EntryArtifact: full KernelPowerReport
//! │   └── entry-0002.fgrvckpt      #   (profiles embedded as FGRVPROF blocks)
//! └── shard-01/
//!     └── entry-0001.fgrvckpt
//! ```
//!
//! Entries are planned round-robin onto shards (`index % workers`); a
//! resume re-plans only the unfinished entries, so the same entry can
//! legitimately appear under two shards after a crash between the entry
//! write and the manifest update — [`gather`] detects such duplicates and
//! verifies them against each other with [`ProfileStore::diff`], naming
//! the shards and the first differing column if they ever disagree.
//!
//! ## The `FGRVCKPT` format
//!
//! Every checkpoint file follows the `FGRVPROF` codec conventions
//! established by [`crate::store`]: an 8-byte magic, a `u32` version, a
//! section tag, then a little-endian payload. Every section decodes from
//! a whole buffer (a whole-file read or a wire payload) through one
//! path — `from_bytes`, or [`EntryArtifactView::parse`] for entries —
//! and surfaces
//! [`CheckpointError::BadMagic`] / [`CheckpointError::UnsupportedVersion`]
//! / [`CheckpointError::Truncated`] / [`CheckpointError::Corrupt`] —
//! never a panic — and bounds every allocation before trusting a length
//! field, so a corrupt header cannot drive memory commitment.
//!
//! Two section kinds exist:
//!
//! * **Manifest** ([`CampaignManifest`]) — the campaign plan: config
//!   digest, worker count, and per-entry label/seed/status/shard rows;
//! * **Entry artifact** ([`EntryArtifact`]) — one finished entry's
//!   [`KernelPowerReport`], its stitched profiles embedded in their
//!   native `FGRVPROF` binary form via [`ProfileStore::write_to`].
//!
//! Section tag 3 belonged to a retired mid-entry stage-state section; it
//! stays reserved, and every reader refuses it as a section mismatch.
//!
//! # Example: manifest round trip and damage rejection
//!
//! ```
//! use fingrav_core::backend::SimulationFactory;
//! use fingrav_core::campaign::Campaign;
//! use fingrav_core::checkpoint::{CampaignManifest, CheckpointError, EntryStatus};
//! use fingrav_core::runner::RunnerConfig;
//! use fingrav_sim::config::SimConfig;
//! use fingrav_workloads::suite;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let machine = SimConfig::default().machine.clone();
//! let mut campaign = Campaign::new(RunnerConfig::quick(6));
//! campaign.add_all(suite::gemm_suite(&machine).into_iter().take(3).map(|k| k.desc));
//! let factory = SimulationFactory::new(SimConfig::default(), 42);
//!
//! // Plan a fresh checkpoint: every entry pending, sharded round-robin.
//! let mut manifest = CampaignManifest::plan(&campaign, &factory, 2);
//! assert_eq!(manifest.entries[2].shard, 0);
//! manifest.entries[0].status = EntryStatus::Done;
//!
//! // The FGRVCKPT encoding round-trips exactly and knows its campaign.
//! let bytes = manifest.to_bytes();
//! let restored = CampaignManifest::from_bytes(&bytes)?;
//! assert_eq!(restored, manifest);
//! assert_eq!(restored.rerun_indices(), vec![1, 2]);
//! restored.verify_against(&campaign)?;
//!
//! // Damage decodes to a typed error, never a panic or a wrong value.
//! let mut damaged = bytes.clone();
//! damaged[0] ^= 0xff;
//! assert!(matches!(
//!     CampaignManifest::from_bytes(&damaged),
//!     Err(CheckpointError::BadMagic(_))
//! ));
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use fingrav_sim::kernel::{KernelDesc, KernelHandle};
use fingrav_sim::power::{Activity, ComponentPower};
use fingrav_sim::script::HostOp;
use fingrav_sim::session::TelemetryEvent;
use fingrav_sim::telemetry::PowerLog;
use fingrav_sim::time::{CpuTime, GpuTicks, SimDuration};
use fingrav_sim::trace::{TimedExecution, TimestampRead};

use crate::campaign::{Campaign, CampaignReport};
use crate::cover;
use crate::error::MethodologyError;
use crate::executor::CampaignOutcome;
use crate::guidance::GuidanceEntry;
use crate::mmap::MappedProfile;
use crate::profile::{PowerProfile, ProfileKind};
use crate::runner::{KernelPowerReport, LoggerChoice, RunnerConfig};
use crate::store::{ProfileStore, ProfileStoreView, StoreCodecError};

/// Magic bytes opening every checkpoint file.
pub const CKPT_MAGIC: [u8; 8] = *b"FGRVCKPT";
/// Current checkpoint-format version.
pub const CKPT_VERSION: u32 = 1;

/// File name of the manifest inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "manifest.fgrvckpt";

/// Section tags distinguishing the payload kinds of a checkpoint file.
const SECTION_MANIFEST: u32 = 1;
const SECTION_ENTRY: u32 = 2;
/// The tag of the retired stage-state section. Every reader refuses it as
/// a section mismatch. It stays declared so no new section reuses it, and
/// so its committed fixture (`tests/data/golden_stage.fgrvckpt`, kept as
/// a refused input) still opens with a declared tag.
const SECTION_RETIRED: u32 = 3;
const _: () = assert!(SECTION_RETIRED != SECTION_MANIFEST && SECTION_RETIRED != SECTION_ENTRY);

/// Hard ceiling on any decoded collection length: 2^32 elements of the
/// smallest element would already be a multi-GiB checkpoint; anything
/// larger is a corrupt length field, not data.
const MAX_SEQ_LEN: usize = u32::MAX as usize;
/// Elements of capacity committed ahead of decoding a sequence. Bounds the
/// memory a corrupt length field can commit before the buffer runs out
/// and surfaces as `Truncated`.
const PREALLOC_ELEMS: usize = 64 * 1024;
/// Ceiling on decoded string lengths (labels are tens of bytes).
const MAX_STR_LEN: usize = 1 << 20;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Failure writing, reading, or trusting a campaign checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// The reader or writer failed below the format layer.
    Io(io::Error),
    /// The stream does not start with [`CKPT_MAGIC`].
    BadMagic([u8; 8]),
    /// The stream's format version is not [`CKPT_VERSION`].
    UnsupportedVersion(u32),
    /// The stream ended inside the named block.
    Truncated(&'static str),
    /// The stream decoded but violates a format invariant.
    Corrupt(String),
    /// An embedded `FGRVPROF` profile block failed to decode.
    Store(StoreCodecError),
    /// The checkpoint was taken under a different campaign configuration
    /// (config, entry list, or per-entry overrides changed); resuming it
    /// would silently mix incompatible measurements.
    ConfigMismatch {
        /// Digest of the campaign being resumed.
        expected: u64,
        /// Digest recorded in the manifest.
        found: u64,
    },
    /// The checkpoint is valid but does not cover every campaign entry
    /// (gathering requires a complete campaign; resume the checkpoint
    /// first).
    Incomplete {
        /// Campaign indices with no persisted report.
        missing: Vec<usize>,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "i/o error on checkpoint: {e}"),
            CheckpointError::BadMagic(m) => {
                write!(f, "not a campaign checkpoint (magic {m:02x?})")
            }
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported checkpoint version {v} (expected {CKPT_VERSION})"
                )
            }
            CheckpointError::Truncated(block) => {
                write!(f, "checkpoint truncated inside the {block} block")
            }
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            CheckpointError::Store(e) => write!(f, "embedded profile store: {e}"),
            CheckpointError::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint was taken under a different campaign \
                 (config digest {found:016x}, campaign digests to {expected:016x})"
            ),
            CheckpointError::Incomplete { missing } => write!(
                f,
                "checkpoint covers only part of the campaign ({} entries missing: {:?})",
                missing.len(),
                missing
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<StoreCodecError> for CheckpointError {
    fn from(e: StoreCodecError) -> Self {
        // A truncation inside an embedded FGRVPROF block is a truncation
        // of the checkpoint stream itself.
        match e {
            StoreCodecError::Truncated(block) => CheckpointError::Truncated(block),
            other => CheckpointError::Store(other),
        }
    }
}

impl From<CheckpointError> for MethodologyError {
    fn from(e: CheckpointError) -> Self {
        MethodologyError::Checkpoint(e.to_string())
    }
}

// ---------------------------------------------------------------------
// Low-level codec plumbing
// ---------------------------------------------------------------------

/// Splits the first `n` bytes off the front of `r`, or reports the
/// stream as truncated inside `block`.
pub(crate) fn take<'a>(
    r: &mut &'a [u8],
    n: usize,
    block: &'static str,
) -> Result<&'a [u8], CheckpointError> {
    let (head, rest) = r
        .split_at_checked(n)
        .ok_or(CheckpointError::Truncated(block))?;
    *r = rest;
    Ok(head)
}

/// [`take`] for a fixed-size field.
fn take_array<const N: usize>(
    r: &mut &[u8],
    block: &'static str,
) -> Result<[u8; N], CheckpointError> {
    let (head, rest) = r
        .split_first_chunk::<N>()
        .ok_or(CheckpointError::Truncated(block))?;
    *r = rest;
    Ok(*head)
}

/// Decodes a `u64` count/index and converts it to `usize`, surfacing
/// values that do not fit the host address width as typed corruption
/// instead of silently truncating (a 32-bit host reading a 64-bit
/// producer's checkpoint).
fn decode_usize(r: &mut &[u8]) -> Result<usize, CheckpointError> {
    let v = u64::decode(r)?;
    usize::try_from(v).map_err(|_| {
        cover::hit(cover::CKPT_COUNT_OVERFLOW);
        CheckpointError::Corrupt(format!("count {v} does not fit the host address width"))
    })
}

/// Decodes a `u64` count/index and additionally enforces the
/// format-wide [`MAX_SEQ_LEN`] ceiling: every count or index travelling
/// in a checkpoint refers to a sequence the format already bounds, so a
/// larger value is a corrupt field — rejecting it here keeps a hostile
/// stream from planting absurd counts that downstream code would loop
/// or allocate over.
fn decode_count(r: &mut &[u8], what: &'static str) -> Result<usize, CheckpointError> {
    let v = decode_usize(r)?;
    if v > MAX_SEQ_LEN {
        cover::hit(cover::CKPT_COUNT_IMPLAUSIBLE);
        return Err(CheckpointError::Corrupt(format!("implausible {what} {v}")));
    }
    Ok(v)
}

/// Binary little-endian encode/decode of one checkpoint field.
///
/// Floats travel as raw bit patterns, so every round trip is bit-exact —
/// the property the resume guarantee ("byte-identical to an uninterrupted
/// run") reduces to. The same field encodings double as the payload
/// grammar of the [`crate::transport`] wire frames, which is why the
/// trait is crate-visible: the on-disk format *is* the wire format.
pub(crate) trait Codec: Sized {
    /// Static block label used in [`CheckpointError::Truncated`].
    const BLOCK: &'static str;
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()>;
    fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError>;
}

macro_rules! int_codec {
    ($t:ty, $label:literal) => {
        impl Codec for $t {
            const BLOCK: &'static str = $label;
            fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
                w.write_all(&self.to_le_bytes())
            }
            fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
                Ok(<$t>::from_le_bytes(take_array(r, Self::BLOCK)?))
            }
        }
    };
}

int_codec!(u8, "u8 field");
int_codec!(u32, "u32 field");
int_codec!(u64, "u64 field");

impl Codec for f64 {
    const BLOCK: &'static str = "f64 field";
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.to_bits().to_le_bytes())
    }
    fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        let bits = take_array(r, Self::BLOCK)?;
        Ok(f64::from_bits(u64::from_le_bytes(bits)))
    }
}

impl Codec for bool {
    const BLOCK: &'static str = "bool field";
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&[u8::from(*self)])
    }
    fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => {
                cover::hit(cover::CKPT_BOOL_BAD);
                Err(CheckpointError::Corrupt(format!(
                    "bool field holds {other} (expected 0 or 1)"
                )))
            }
        }
    }
}

impl Codec for String {
    const BLOCK: &'static str = "string";
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        (self.len() as u64).encode(w)?;
        w.write_all(self.as_bytes())
    }
    fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        let len = decode_usize(r)?;
        if len > MAX_STR_LEN {
            cover::hit(cover::CKPT_STR_IMPLAUSIBLE);
            return Err(CheckpointError::Corrupt(format!(
                "implausible string length {len}"
            )));
        }
        let bytes = take(r, len, Self::BLOCK)?;
        std::str::from_utf8(bytes).map(str::to_owned).map_err(|_| {
            cover::hit(cover::CKPT_STR_BAD_UTF8);
            CheckpointError::Corrupt("string is not valid UTF-8".into())
        })
    }
}

impl<T: Codec> Codec for Option<T> {
    const BLOCK: &'static str = "option tag";
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        match self {
            None => 0u8.encode(w),
            Some(v) => {
                1u8.encode(w)?;
                v.encode(w)
            }
        }
    }
    fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => {
                cover::hit(cover::CKPT_OPT_BAD);
                Err(CheckpointError::Corrupt(format!(
                    "option tag holds {other} (expected 0 or 1)"
                )))
            }
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    const BLOCK: &'static str = "sequence length";
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        (self.len() as u64).encode(w)?;
        for v in self {
            v.encode(w)?;
        }
        Ok(())
    }
    fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        let len = decode_usize(r)?;
        if len > MAX_SEQ_LEN {
            cover::hit(cover::CKPT_SEQ_IMPLAUSIBLE);
            return Err(CheckpointError::Corrupt(format!(
                "implausible sequence length {len}"
            )));
        }
        // Capacity is committed ahead only up to a chunk: a corrupt length
        // cannot drive allocation past what the buffer actually holds.
        let mut out = Vec::with_capacity(len.min(PREALLOC_ELEMS));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Domain-type codecs (simulator observables)
// ---------------------------------------------------------------------

macro_rules! u64_newtype_codec {
    ($t:ty, $label:literal, $get:expr, $make:expr) => {
        impl Codec for $t {
            const BLOCK: &'static str = $label;
            fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
                #[allow(clippy::redundant_closure_call)] // macro-passed closure, called once
                ($get)(self).encode(w)
            }
            fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
                #[allow(clippy::redundant_closure_call)] // macro-passed closure, called once
                Ok(($make)(u64::decode(r)?))
            }
        }
    };
}

u64_newtype_codec!(CpuTime, "cpu time", |t: &CpuTime| t.as_nanos(), |ns| {
    CpuTime::from_nanos(ns)
});
u64_newtype_codec!(GpuTicks, "gpu ticks", |t: &GpuTicks| t.as_raw(), |v| {
    GpuTicks::from_raw(v)
});
u64_newtype_codec!(
    SimDuration,
    "sim duration",
    |t: &SimDuration| t.as_nanos(),
    SimDuration::from_nanos
);
impl Codec for KernelHandle {
    const BLOCK: &'static str = "kernel handle";
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        (self.index() as u64).encode(w)
    }
    fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        // A handle indexes the campaign's kernel table, which is itself
        // a decoded sequence bounded by `MAX_SEQ_LEN` — so a larger (or
        // non-address-width) value is corruption, not data. Checked
        // here instead of `as usize` so a 64-bit producer's handle can
        // never silently truncate on a 32-bit consumer.
        let v = u64::decode(r)?;
        let index = usize::try_from(v)
            .ok()
            .filter(|&i| i <= MAX_SEQ_LEN)
            .ok_or_else(|| {
                cover::hit(cover::CKPT_HANDLE_IMPLAUSIBLE);
                CheckpointError::Corrupt(format!("implausible kernel-handle index {v}"))
            })?;
        Ok(KernelHandle::from_index(index))
    }
}

impl Codec for ComponentPower {
    const BLOCK: &'static str = "component power";
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        for v in [self.xcd, self.iod, self.hbm, self.rest] {
            v.encode(w)?;
        }
        Ok(())
    }
    fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        Ok(ComponentPower::new(
            f64::decode(r)?,
            f64::decode(r)?,
            f64::decode(r)?,
            f64::decode(r)?,
        ))
    }
}

impl Codec for PowerLog {
    const BLOCK: &'static str = "power log";
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.ticks.encode(w)?;
        self.avg.encode(w)
    }
    fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        Ok(PowerLog {
            ticks: GpuTicks::decode(r)?,
            avg: ComponentPower::decode(r)?,
        })
    }
}

impl Codec for TimedExecution {
    const BLOCK: &'static str = "timed execution";
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.kernel.encode(w)?;
        self.index.encode(w)?;
        self.cpu_start.encode(w)?;
        self.cpu_end.encode(w)
    }
    fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        Ok(TimedExecution {
            kernel: KernelHandle::decode(r)?,
            index: u32::decode(r)?,
            cpu_start: CpuTime::decode(r)?,
            cpu_end: CpuTime::decode(r)?,
        })
    }
}

impl Codec for TimestampRead {
    const BLOCK: &'static str = "timestamp read";
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.cpu_before.encode(w)?;
        self.cpu_after.encode(w)?;
        self.ticks.encode(w)
    }
    fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        Ok(TimestampRead {
            cpu_before: CpuTime::decode(r)?,
            cpu_after: CpuTime::decode(r)?,
            ticks: GpuTicks::decode(r)?,
        })
    }
}

impl Codec for HostOp {
    const BLOCK: &'static str = "host op";
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        match self {
            HostOp::Sleep(d) => {
                0u8.encode(w)?;
                d.encode(w)
            }
            HostOp::SleepUniform { min, max } => {
                1u8.encode(w)?;
                min.encode(w)?;
                max.encode(w)
            }
            HostOp::ReadGpuTimestamp => 2u8.encode(w),
            HostOp::LaunchTimed { kernel, executions } => {
                3u8.encode(w)?;
                kernel.encode(w)?;
                executions.encode(w)
            }
            HostOp::StartPowerLogger => 4u8.encode(w),
            HostOp::StopPowerLogger => 5u8.encode(w),
            HostOp::StartCoarseLogger => 6u8.encode(w),
            HostOp::StopCoarseLogger => 7u8.encode(w),
            HostOp::BeginRun => 8u8.encode(w),
        }
    }
    fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        match u8::decode(r)? {
            0 => Ok(HostOp::Sleep(SimDuration::decode(r)?)),
            1 => Ok(HostOp::SleepUniform {
                min: SimDuration::decode(r)?,
                max: SimDuration::decode(r)?,
            }),
            2 => Ok(HostOp::ReadGpuTimestamp),
            3 => Ok(HostOp::LaunchTimed {
                kernel: KernelHandle::decode(r)?,
                executions: u32::decode(r)?,
            }),
            4 => Ok(HostOp::StartPowerLogger),
            5 => Ok(HostOp::StopPowerLogger),
            6 => Ok(HostOp::StartCoarseLogger),
            7 => Ok(HostOp::StopCoarseLogger),
            8 => Ok(HostOp::BeginRun),
            other => {
                cover::hit(cover::CKPT_HOSTOP_BAD_TAG);
                Err(CheckpointError::Corrupt(format!(
                    "unknown host-op tag {other}"
                )))
            }
        }
    }
}

impl Codec for TelemetryEvent {
    const BLOCK: &'static str = "telemetry event";
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        match self {
            TelemetryEvent::ScriptStarted { ops } => {
                0u8.encode(w)?;
                (*ops as u64).encode(w)
            }
            TelemetryEvent::OpStarted { index, op } => {
                1u8.encode(w)?;
                (*index as u64).encode(w)?;
                op.encode(w)
            }
            TelemetryEvent::OpFinished { index } => {
                2u8.encode(w)?;
                (*index as u64).encode(w)
            }
            TelemetryEvent::PowerLogEmitted { coarse, log } => {
                3u8.encode(w)?;
                coarse.encode(w)?;
                log.encode(w)
            }
            TelemetryEvent::LaunchCompleted { execution } => {
                4u8.encode(w)?;
                execution.encode(w)
            }
            TelemetryEvent::GpuTimestampRead { read } => {
                5u8.encode(w)?;
                read.encode(w)
            }
            TelemetryEvent::ScriptDone { aborted } => {
                6u8.encode(w)?;
                aborted.encode(w)
            }
            // `TelemetryEvent` is non-exhaustive upstream: a variant this
            // version has no tag for cannot travel, and silently dropping
            // it would break the per-slot event-stream determinism the
            // wire inherits — surface the gap as an encode error instead.
            other => Err(io::Error::other(format!(
                "telemetry event {other:?} has no wire encoding in this version"
            ))),
        }
    }
    fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        match u8::decode(r)? {
            0 => Ok(TelemetryEvent::ScriptStarted {
                ops: decode_count(r, "script op count")?,
            }),
            1 => Ok(TelemetryEvent::OpStarted {
                index: decode_count(r, "script op index")?,
                op: HostOp::decode(r)?,
            }),
            2 => Ok(TelemetryEvent::OpFinished {
                index: decode_count(r, "script op index")?,
            }),
            3 => Ok(TelemetryEvent::PowerLogEmitted {
                coarse: bool::decode(r)?,
                log: PowerLog::decode(r)?,
            }),
            4 => Ok(TelemetryEvent::LaunchCompleted {
                execution: TimedExecution::decode(r)?,
            }),
            5 => Ok(TelemetryEvent::GpuTimestampRead {
                read: TimestampRead::decode(r)?,
            }),
            6 => Ok(TelemetryEvent::ScriptDone {
                aborted: bool::decode(r)?,
            }),
            other => {
                cover::hit(cover::CKPT_EVENT_BAD_TAG);
                Err(CheckpointError::Corrupt(format!(
                    "unknown telemetry-event tag {other}"
                )))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Domain-type codecs (methodology artifacts)
// ---------------------------------------------------------------------

impl Codec for GuidanceEntry {
    const BLOCK: &'static str = "guidance entry";
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.min_exec.encode(w)?;
        self.max_exec.encode(w)?;
        self.runs.encode(w)?;
        self.loi_interval.encode(w)?;
        self.margin_frac.encode(w)
    }
    fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        Ok(GuidanceEntry {
            min_exec: SimDuration::decode(r)?,
            max_exec: Option::decode(r)?,
            runs: u32::decode(r)?,
            loi_interval: SimDuration::decode(r)?,
            margin_frac: f64::decode(r)?,
        })
    }
}

impl Codec for ProfileKind {
    const BLOCK: &'static str = "profile kind";
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        match self {
            ProfileKind::Run => 0u8.encode(w),
            ProfileKind::Sse => 1u8.encode(w),
            ProfileKind::Ssp => 2u8.encode(w),
            ProfileKind::Outlier => 3u8.encode(w),
            ProfileKind::Custom(s) => {
                4u8.encode(w)?;
                s.encode(w)
            }
        }
    }
    fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        match u8::decode(r)? {
            0 => Ok(ProfileKind::Run),
            1 => Ok(ProfileKind::Sse),
            2 => Ok(ProfileKind::Ssp),
            3 => Ok(ProfileKind::Outlier),
            4 => Ok(ProfileKind::Custom(String::decode(r)?)),
            other => {
                cover::hit(cover::CKPT_KIND_BAD_TAG);
                Err(CheckpointError::Corrupt(format!(
                    "unknown profile-kind tag {other}"
                )))
            }
        }
    }
}

/// Encodes one embedded profile of an entry section; its one decoder is
/// `ProfileViewPart::parse`.
fn write_profile<W: Write>(profile: &PowerProfile, w: &mut W) -> io::Result<()> {
    profile.label.encode(w)?;
    profile.kind.encode(w)?;
    // Profiles embed in their native FGRVPROF binary form, so the
    // persisted bytes are exactly what `ProfileStore::write_to` emits.
    profile.store.write_to(w)
}

// ---------------------------------------------------------------------
// File headers
// ---------------------------------------------------------------------

fn write_header<W: Write>(w: &mut W, section: u32) -> io::Result<()> {
    w.write_all(&CKPT_MAGIC)?;
    w.write_all(&CKPT_VERSION.to_le_bytes())?;
    w.write_all(&section.to_le_bytes())
}

fn read_header(r: &mut &[u8], expected_section: u32) -> Result<(), CheckpointError> {
    let magic: [u8; 8] = take_array(r, "magic")?;
    if magic != CKPT_MAGIC {
        cover::hit(cover::CKPT_BAD_MAGIC);
        return Err(CheckpointError::BadMagic(magic));
    }
    let version = u32::decode(r)?;
    if version != CKPT_VERSION {
        cover::hit(cover::CKPT_BAD_VERSION);
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let section = u32::decode(r)?;
    if section != expected_section {
        cover::hit(cover::CKPT_BAD_SECTION);
        return Err(CheckpointError::Corrupt(format!(
            "section tag {section} where {expected_section} was expected"
        )));
    }
    cover::hit(cover::CKPT_HEADER_OK);
    Ok(())
}

pub(crate) fn from_bytes_with<'a, T>(
    bytes: &'a [u8],
    read: impl FnOnce(&mut &'a [u8]) -> Result<T, CheckpointError>,
) -> Result<T, CheckpointError> {
    let mut cursor = bytes;
    let value = read(&mut cursor)?;
    if !cursor.is_empty() {
        cover::hit(cover::CKPT_TRAILING);
        return Err(CheckpointError::Corrupt(format!(
            "{} trailing bytes after the payload",
            cursor.len()
        )));
    }
    Ok(value)
}

// ---------------------------------------------------------------------
// Campaign digest
// ---------------------------------------------------------------------

/// Digest of a campaign's methodology-relevant identity: the default
/// [`RunnerConfig`], every entry's kernel descriptor, and every per-entry
/// config override, in campaign order (FNV-1a over their canonical
/// `FGRVCKPT` field encodings, FORMATS.md §3.4). Two campaigns digest
/// equal iff a checkpoint taken under one can be resumed under the other.
pub fn campaign_digest(campaign: &Campaign) -> u64 {
    let mut bytes = Vec::new();
    encode_identity(campaign, &mut bytes).expect("Vec writes are infallible");
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// The digest's input: the default config, the entry count, then each
/// entry's descriptor and its optional override (`Option` tag, then the
/// config). Encode-only — nothing decodes these bytes.
fn encode_identity<W: Write>(campaign: &Campaign, w: &mut W) -> io::Result<()> {
    encode_runner_config(campaign.config(), w)?;
    (campaign.entries().len() as u64).encode(w)?;
    for entry in campaign.entries() {
        encode_kernel_desc(&entry.desc, w)?;
        match &entry.config {
            None => 0u8.encode(w)?,
            Some(cfg) => {
                1u8.encode(w)?;
                encode_runner_config(cfg, w)?;
            }
        }
    }
    Ok(())
}

// The destructuring below lists every field with no `..`: a field added
// to one of these structs fails to compile here until the digest covers it.

fn encode_runner_config<W: Write>(cfg: &RunnerConfig, w: &mut W) -> io::Result<()> {
    let RunnerConfig {
        runs_override,
        margin_override,
        guidance,
        calibration_reads,
        timing_probe_executions,
        time_stability_tol,
        power_stability_tol,
        throttle_detection_tol,
        random_delay_max,
        inter_run_idle,
        tail_executions_cap,
        extra_run_batches,
        drift_correction,
        logger,
    } = cfg;
    runs_override.encode(w)?;
    margin_override.encode(w)?;
    guidance.entries().to_vec().encode(w)?;
    calibration_reads.encode(w)?;
    timing_probe_executions.encode(w)?;
    time_stability_tol.encode(w)?;
    power_stability_tol.encode(w)?;
    throttle_detection_tol.encode(w)?;
    random_delay_max.encode(w)?;
    inter_run_idle.encode(w)?;
    tail_executions_cap.encode(w)?;
    extra_run_batches.encode(w)?;
    drift_correction.encode(w)?;
    let logger_tag: u8 = match logger {
        LoggerChoice::Fine => 0,
        LoggerChoice::Coarse => 1,
    };
    logger_tag.encode(w)
}

fn encode_kernel_desc<W: Write>(desc: &KernelDesc, w: &mut W) -> io::Result<()> {
    let KernelDesc {
        name,
        base_exec,
        freq_insensitive_frac,
        activity: Activity { xcd, iod, hbm },
        compute_utilization,
        flops,
        hbm_bytes,
        llc_bytes,
        workgroups,
    } = desc;
    name.encode(w)?;
    base_exec.encode(w)?;
    freq_insensitive_frac.encode(w)?;
    xcd.encode(w)?;
    iod.encode(w)?;
    hbm.encode(w)?;
    compute_utilization.encode(w)?;
    flops.encode(w)?;
    hbm_bytes.encode(w)?;
    llc_bytes.encode(w)?;
    workgroups.encode(w)
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

/// Lifecycle state of one campaign entry inside a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryStatus {
    /// Not started (or skipped by fail-fast / cancellation).
    Pending,
    /// Finished; its [`EntryArtifact`] is on disk.
    Done,
    /// Its measurement failed with a non-abort error.
    Failed,
    /// A cancellation cut its session mid-measurement.
    Aborted,
}

impl EntryStatus {
    /// True when a resume must (re-)measure the entry.
    pub fn needs_rerun(&self) -> bool {
        !matches!(self, EntryStatus::Done)
    }
}

impl fmt::Display for EntryStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EntryStatus::Pending => "pending",
            EntryStatus::Done => "done",
            EntryStatus::Failed => "failed",
            EntryStatus::Aborted => "aborted",
        })
    }
}

impl Codec for EntryStatus {
    const BLOCK: &'static str = "entry status";
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let tag: u8 = match self {
            EntryStatus::Pending => 0,
            EntryStatus::Done => 1,
            EntryStatus::Failed => 2,
            EntryStatus::Aborted => 3,
        };
        tag.encode(w)
    }
    fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        match u8::decode(r)? {
            0 => Ok(EntryStatus::Pending),
            1 => Ok(EntryStatus::Done),
            2 => Ok(EntryStatus::Failed),
            3 => Ok(EntryStatus::Aborted),
            other => {
                cover::hit(cover::CKPT_STATUS_BAD_TAG);
                Err(CheckpointError::Corrupt(format!(
                    "unknown entry-status tag {other}"
                )))
            }
        }
    }
}

/// One campaign entry's row in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Kernel label (must match the campaign entry at the same index).
    pub label: String,
    /// The deterministic backend seed behind the slot, when the factory
    /// exposes one ([`crate::backend::BackendFactory::slot_seed_hint`]).
    pub seed: Option<u64>,
    /// Lifecycle state.
    pub status: EntryStatus,
    /// Shard the entry is (or was last) planned onto.
    pub shard: u32,
}

impl Codec for ManifestEntry {
    const BLOCK: &'static str = "manifest entry";
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.label.encode(w)?;
        self.seed.encode(w)?;
        self.status.encode(w)?;
        self.shard.encode(w)
    }
    fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        Ok(ManifestEntry {
            label: String::decode(r)?,
            seed: Option::decode(r)?,
            status: EntryStatus::decode(r)?,
            shard: u32::decode(r)?,
        })
    }
}

/// The campaign plan persisted at the root of a checkpoint directory:
/// which campaign this is (config digest), how it was sharded, and where
/// every entry stands.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignManifest {
    /// [`campaign_digest`] of the campaign the checkpoint belongs to.
    pub config_digest: u64,
    /// Worker count the current plan round-robins entries across.
    pub workers: u32,
    /// One row per campaign entry, in campaign order.
    pub entries: Vec<ManifestEntry>,
}

impl CampaignManifest {
    /// Plans a fresh checkpoint for `campaign`: every entry `Pending`,
    /// sharded round-robin across `workers`, seeds recorded from the
    /// factory when it exposes them.
    pub fn plan<F: crate::backend::BackendFactory>(
        campaign: &Campaign,
        factory: &F,
        workers: usize,
    ) -> Self {
        let workers = workers.max(1);
        CampaignManifest {
            config_digest: campaign_digest(campaign),
            workers: workers as u32,
            entries: campaign
                .entries()
                .iter()
                .enumerate()
                .map(|(i, e)| ManifestEntry {
                    label: e.desc.name.clone(),
                    seed: factory.slot_seed_hint(i),
                    status: EntryStatus::Pending,
                    shard: (i % workers) as u32,
                })
                .collect(),
        }
    }

    /// Plans a fresh checkpoint for a campaign whose measurements will run
    /// on *remote* workers (see [`crate::transport`]): every entry
    /// `Pending` with no seed hint (the coordinator never constructs a
    /// backend, so it has no factory to ask), sharded onto shard 0 until a
    /// worker claims it — the coordinator reassigns `shard` to the
    /// completing worker's id the moment an entry artifact arrives.
    pub fn plan_remote(campaign: &Campaign) -> Self {
        CampaignManifest {
            config_digest: campaign_digest(campaign),
            workers: 1,
            entries: campaign
                .entries()
                .iter()
                .map(|e| ManifestEntry {
                    label: e.desc.name.clone(),
                    seed: None,
                    status: EntryStatus::Pending,
                    shard: 0,
                })
                .collect(),
        }
    }

    /// Indices whose entries a resume must (re-)measure, ascending.
    pub fn rerun_indices(&self) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.status.needs_rerun())
            .map(|(i, _)| i)
            .collect()
    }

    /// True when every entry is `Done`.
    pub fn is_complete(&self) -> bool {
        self.entries.iter().all(|e| e.status == EntryStatus::Done)
    }

    /// Writes the manifest as an `FGRVCKPT` manifest section.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write_header(w, SECTION_MANIFEST)?;
        self.config_digest.encode(w)?;
        self.workers.encode(w)?;
        self.entries.encode(w)
    }

    /// Encodes to an owned buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out).expect("Vec writes are infallible");
        out
    }

    /// Decodes a manifest previously written by
    /// [`CampaignManifest::write_to`], rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns the typed [`CheckpointError`] for foreign, newer, truncated,
    /// or invariant-violating buffers, and [`CheckpointError::Corrupt`] on
    /// trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        from_bytes_with(bytes, |r| {
            read_header(r, SECTION_MANIFEST)?;
            let manifest = CampaignManifest {
                config_digest: u64::decode(r)?,
                workers: u32::decode(r)?,
                entries: Vec::decode(r)?,
            };
            cover::hit(cover::CKPT_MANIFEST_OK);
            Ok(manifest)
        })
    }

    /// Checks that this manifest belongs to `campaign`: digest, entry
    /// count, and per-entry labels must all agree.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::ConfigMismatch`] on a digest mismatch
    /// and [`CheckpointError::Corrupt`] on structural disagreement.
    pub fn verify_against(&self, campaign: &Campaign) -> Result<(), CheckpointError> {
        let expected = campaign_digest(campaign);
        if self.config_digest != expected {
            return Err(CheckpointError::ConfigMismatch {
                expected,
                found: self.config_digest,
            });
        }
        if self.entries.len() != campaign.len() {
            return Err(CheckpointError::Corrupt(format!(
                "manifest plans {} entries but the campaign has {}",
                self.entries.len(),
                campaign.len()
            )));
        }
        for (i, (row, entry)) in self.entries.iter().zip(campaign.entries()).enumerate() {
            if row.label != entry.desc.name {
                return Err(CheckpointError::Corrupt(format!(
                    "manifest entry {i} is labelled `{}` but the campaign says `{}`",
                    row.label, entry.desc.name
                )));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Entry artifact
// ---------------------------------------------------------------------

/// One finished campaign entry, persisted the moment its report exists.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryArtifact {
    /// Campaign index of the entry.
    pub index: u32,
    /// [`campaign_digest`] of the owning campaign, so a stray entry file
    /// can be validated without its manifest.
    pub config_digest: u64,
    /// The entry's full report, profiles included.
    pub report: KernelPowerReport,
}

impl EntryArtifact {
    /// Writes the artifact as an `FGRVCKPT` entry section.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write_entry_to(w, self.index, self.config_digest, &self.report)
    }

    /// Encodes to an owned buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.write_to(&mut out).expect("Vec writes are infallible");
        out
    }

    /// Decodes an artifact previously written by
    /// [`EntryArtifact::write_to`]: [`EntryArtifactView::parse`] followed
    /// by [`EntryArtifactView::to_artifact`].
    ///
    /// # Errors
    ///
    /// As [`EntryArtifactView::parse`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        Ok(EntryArtifactView::parse(bytes)?.to_artifact())
    }
}

fn write_entry_to<W: Write>(
    w: &mut W,
    index: u32,
    config_digest: u64,
    report: &KernelPowerReport,
) -> io::Result<()> {
    write_header(w, SECTION_ENTRY)?;
    index.encode(w)?;
    config_digest.encode(w)?;
    // The report's field order; `EntryArtifactView::parse` decodes it.
    report.label.encode(w)?;
    report.exec_time_ns.encode(w)?;
    report.guidance.encode(w)?;
    report.margin_frac.encode(w)?;
    report.sse_index.encode(w)?;
    report.ssp_index.encode(w)?;
    report.executions_per_run.encode(w)?;
    report.runs_executed.encode(w)?;
    report.golden_runs.encode(w)?;
    report.throttle_detected.encode(w)?;
    report.read_delay_ns.encode(w)?;
    report.estimated_drift_ppm.encode(w)?;
    write_profile(&report.run_profile, w)?;
    write_profile(&report.sse_profile, w)?;
    write_profile(&report.ssp_profile, w)?;
    report.sse_mean_total_w.encode(w)?;
    report.ssp_mean_total_w.encode(w)?;
    report.sse_vs_ssp_error.encode(w)
}

/// Encodes an entry artifact straight from a borrowed report — the bytes
/// [`EntryArtifact::to_bytes`] would produce, without cloning the report
/// (and its embedded profile stores) into an owned [`EntryArtifact`]
/// first.
pub(crate) fn encode_entry_bytes(
    index: u32,
    config_digest: u64,
    report: &KernelPowerReport,
) -> Vec<u8> {
    let mut out = Vec::new();
    write_entry_to(&mut out, index, config_digest, report).expect("Vec writes are infallible");
    out
}

/// One embedded profile of an [`EntryArtifactView`]: the decoded label
/// and kind plus the borrowed store view.
#[derive(Debug, Clone)]
struct ProfileViewPart<'a> {
    label: String,
    kind: ProfileKind,
    store: ProfileStoreView<'a>,
}

impl<'a> ProfileViewPart<'a> {
    fn parse(r: &mut &'a [u8]) -> Result<ProfileViewPart<'a>, CheckpointError> {
        let label = String::decode(r)?;
        let kind = ProfileKind::decode(r)?;
        let (store, rest) = ProfileStoreView::split_prefix(r)?;
        *r = rest;
        Ok(ProfileViewPart { label, kind, store })
    }

    fn to_profile(&self) -> PowerProfile {
        PowerProfile {
            label: self.label.clone(),
            kind: self.kind.clone(),
            store: self.store.to_store(),
        }
    }
}

/// A zero-copy parse of one persisted [`EntryArtifact`]: the report's
/// scalar fields are decoded eagerly (they are tiny), but the three
/// embedded `FGRVPROF` profile blocks stay as borrowed
/// [`ProfileStoreView`]s over the source buffer — typically a
/// [`crate::mmap::MappedProfile`] of a `shard-NN/entry-NNNN.fgrvckpt`
/// file, or a transport frame payload straight off the wire — so
/// validating, diffing, or concatenating an entry never materialises its
/// per-column `Vec`s.
///
/// [`EntryArtifactView::parse`] is the one decoder of the entry section:
/// it runs the full validation, including the canonical-form scan of
/// every embedded store, and [`EntryArtifact::from_bytes`] is `parse`
/// followed by [`EntryArtifactView::to_artifact`].
#[derive(Debug, Clone)]
pub struct EntryArtifactView<'a> {
    /// Campaign index of the entry.
    pub index: u32,
    /// [`campaign_digest`] of the owning campaign, as recorded in the
    /// artifact.
    pub config_digest: u64,
    label: String,
    exec_time_ns: u64,
    guidance: GuidanceEntry,
    margin_frac: f64,
    sse_index: u32,
    ssp_index: u32,
    executions_per_run: u32,
    runs_executed: u32,
    golden_runs: u32,
    throttle_detected: bool,
    read_delay_ns: f64,
    estimated_drift_ppm: Option<f64>,
    run: ProfileViewPart<'a>,
    sse: ProfileViewPart<'a>,
    ssp: ProfileViewPart<'a>,
    sse_mean_total_w: Option<f64>,
    ssp_mean_total_w: Option<f64>,
    sse_vs_ssp_error: Option<f64>,
}

impl<'a> EntryArtifactView<'a> {
    /// Parses an encoded entry artifact, keeping the three profile stores
    /// as borrowed views over `bytes`.
    ///
    /// # Errors
    ///
    /// Returns the typed [`CheckpointError`] for a foreign magic, a newer
    /// version, truncation (with the block name), invariant violations,
    /// and trailing bytes.
    pub fn parse(bytes: &'a [u8]) -> Result<EntryArtifactView<'a>, CheckpointError> {
        from_bytes_with(bytes, |r| {
            read_header(r, SECTION_ENTRY)?;
            let view = EntryArtifactView {
                index: u32::decode(r)?,
                config_digest: u64::decode(r)?,
                // The report, in the field order `write_entry_to` encodes.
                label: String::decode(r)?,
                exec_time_ns: u64::decode(r)?,
                guidance: GuidanceEntry::decode(r)?,
                margin_frac: f64::decode(r)?,
                sse_index: u32::decode(r)?,
                ssp_index: u32::decode(r)?,
                executions_per_run: u32::decode(r)?,
                runs_executed: u32::decode(r)?,
                golden_runs: u32::decode(r)?,
                throttle_detected: bool::decode(r)?,
                read_delay_ns: f64::decode(r)?,
                estimated_drift_ppm: Option::decode(r)?,
                run: ProfileViewPart::parse(r)?,
                sse: ProfileViewPart::parse(r)?,
                ssp: ProfileViewPart::parse(r)?,
                sse_mean_total_w: Option::decode(r)?,
                ssp_mean_total_w: Option::decode(r)?,
                sse_vs_ssp_error: Option::decode(r)?,
            };
            cover::hit(cover::CKPT_ENTRY_OK);
            Ok(view)
        })
    }

    /// The report's kernel label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Borrowed view of the entry's run profile store.
    pub fn run_store(&self) -> &ProfileStoreView<'a> {
        &self.run.store
    }

    /// Borrowed view of the entry's SSE profile store.
    pub fn sse_store(&self) -> &ProfileStoreView<'a> {
        &self.sse.store
    }

    /// Borrowed view of the entry's SSP profile store.
    pub fn ssp_store(&self) -> &ProfileStoreView<'a> {
        &self.ssp.store
    }

    /// Decodes the full report, materialising the three profile stores.
    pub fn to_report(&self) -> KernelPowerReport {
        KernelPowerReport {
            label: self.label.clone(),
            exec_time_ns: self.exec_time_ns,
            guidance: self.guidance,
            margin_frac: self.margin_frac,
            sse_index: self.sse_index,
            ssp_index: self.ssp_index,
            executions_per_run: self.executions_per_run,
            runs_executed: self.runs_executed,
            golden_runs: self.golden_runs,
            throttle_detected: self.throttle_detected,
            read_delay_ns: self.read_delay_ns,
            estimated_drift_ppm: self.estimated_drift_ppm,
            run_profile: self.run.to_profile(),
            sse_profile: self.sse.to_profile(),
            ssp_profile: self.ssp.to_profile(),
            sse_mean_total_w: self.sse_mean_total_w,
            ssp_mean_total_w: self.ssp_mean_total_w,
            sse_vs_ssp_error: self.sse_vs_ssp_error,
        }
    }

    /// Decodes the whole artifact, materialising the three profile
    /// stores.
    pub fn to_artifact(&self) -> EntryArtifact {
        EntryArtifact {
            index: self.index,
            config_digest: self.config_digest,
            report: self.to_report(),
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint directory
// ---------------------------------------------------------------------

/// A campaign checkpoint directory: the manifest plus per-shard entry
/// artifacts (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct CheckpointDir {
    root: PathBuf,
}

impl CheckpointDir {
    /// Creates (or reuses) the directory at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create(root: &Path) -> Result<Self, CheckpointError> {
        fs::create_dir_all(root)?;
        Ok(CheckpointDir {
            root: root.to_path_buf(),
        })
    }

    /// Opens an existing checkpoint directory; it must already hold a
    /// manifest.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] when no manifest exists at `root`.
    pub fn open(root: &Path) -> Result<Self, CheckpointError> {
        let dir = CheckpointDir {
            root: root.to_path_buf(),
        };
        if !dir.manifest_path().is_file() {
            return Err(dir.missing_manifest());
        }
        Ok(dir)
    }

    fn missing_manifest(&self) -> CheckpointError {
        CheckpointError::Io(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no {MANIFEST_FILE} under {}", self.root.display()),
        ))
    }

    /// The directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the manifest file.
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join(MANIFEST_FILE)
    }

    /// Path of entry `index`'s artifact under shard `shard`.
    pub fn entry_path(&self, shard: u32, index: usize) -> PathBuf {
        self.root
            .join(format!("shard-{shard:02}"))
            .join(format!("entry-{index:04}.fgrvckpt"))
    }

    /// Atomically replaces the manifest (write-to-temp, then rename), so a
    /// crash mid-update leaves the previous manifest intact.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_manifest(&self, manifest: &CampaignManifest) -> Result<(), CheckpointError> {
        let tmp = self.root.join(format!("{MANIFEST_FILE}.tmp"));
        let mut file = fs::File::create(&tmp)?;
        manifest.write_to(&mut file)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, self.manifest_path())?;
        Ok(())
    }

    /// Reads and decodes the manifest.
    ///
    /// # Errors
    ///
    /// Returns the typed [`CheckpointError`] on a missing, truncated, or
    /// corrupt manifest.
    pub fn read_manifest(&self) -> Result<CampaignManifest, CheckpointError> {
        CampaignManifest::from_bytes(&fs::read(self.manifest_path())?)
    }

    /// Writes entry `artifact` under shard `shard`, returning the path.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_entry(
        &self,
        shard: u32,
        artifact: &EntryArtifact,
    ) -> Result<PathBuf, CheckpointError> {
        self.write_entry_bytes(shard, artifact.index as usize, &artifact.to_bytes())
    }

    /// Writes an already-encoded entry artifact under shard `shard`,
    /// returning the path. This is the zero-copy persist path: a
    /// coordinator that received an entry's bytes over the wire (and
    /// validated them with [`EntryArtifactView::parse`]) stores the frame
    /// payload as-is instead of decoding and re-encoding it — the
    /// encoding is canonical, so the bytes a worker sends are exactly the
    /// bytes [`EntryArtifact::write_to`] would produce.
    ///
    /// The caller is responsible for `bytes` being a valid entry-section
    /// encoding whose artifact claims `index`; nothing is re-validated
    /// here.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_entry_bytes(
        &self,
        shard: u32,
        index: usize,
        bytes: &[u8],
    ) -> Result<PathBuf, CheckpointError> {
        let path = self.entry_path(shard, index);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        // Write-to-temp then rename, like the manifest: a crash mid-write
        // must never leave a truncated `entry-*.fgrvckpt` behind (the
        // `.tmp` suffix keeps it invisible to the entry-file scan, so a
        // half-written temp is simply ignored on resume).
        let tmp = path.with_extension("fgrvckpt.tmp");
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Reads and decodes one entry artifact file.
    ///
    /// # Errors
    ///
    /// Returns the typed [`CheckpointError`] on a missing, truncated, or
    /// corrupt file.
    pub fn read_entry(&self, path: &Path) -> Result<EntryArtifact, CheckpointError> {
        EntryArtifact::from_bytes(&fs::read(path)?)
    }

    /// Scans the shard directories for entry files, returning
    /// `(shard, index, path)` triples sorted by `(index, shard)`. Files
    /// that do not follow the naming scheme are ignored.
    ///
    /// # Errors
    ///
    /// Propagates directory-walk failures.
    pub fn entry_files(&self) -> Result<Vec<(u32, usize, PathBuf)>, CheckpointError> {
        let mut out = Vec::new();
        for dir_entry in fs::read_dir(&self.root)? {
            let dir_entry = dir_entry?;
            let name = dir_entry.file_name();
            let Some(shard) = name
                .to_str()
                .and_then(|n| n.strip_prefix("shard-"))
                .and_then(|n| n.parse::<u32>().ok())
            else {
                continue;
            };
            if !dir_entry.file_type()?.is_dir() {
                continue;
            }
            for file in fs::read_dir(dir_entry.path())? {
                let file = file?;
                let name = file.file_name();
                let Some(index) = name
                    .to_str()
                    .and_then(|n| n.strip_prefix("entry-"))
                    .and_then(|n| n.strip_suffix(".fgrvckpt"))
                    .and_then(|n| n.parse::<usize>().ok())
                else {
                    continue;
                };
                out.push((shard, index, file.path()));
            }
        }
        out.sort_by_key(|&(shard, index, _)| (index, shard));
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Gather
// ---------------------------------------------------------------------

/// The merged result of gathering a completed checkpoint: the campaign
/// report in campaign order, plus the three campaign-wide profile stores
/// concatenated entry by entry with [`ProfileStore::extend_from`].
#[derive(Debug, Clone)]
pub struct GatheredCampaign {
    /// One report per entry, campaign order.
    pub report: CampaignReport,
    /// Every entry's run profile, concatenated in campaign order.
    pub run: ProfileStore,
    /// Every entry's SSE profile, concatenated in campaign order.
    pub sse: ProfileStore,
    /// Every entry's SSP profile, concatenated in campaign order.
    pub ssp: ProfileStore,
}

/// The three campaign-wide profile stores of [`gather_stores`]:
/// [`GatheredCampaign`] without the per-entry reports, for consumers that
/// only chart or export the concatenated profiles.
#[derive(Debug, Clone)]
pub struct GatheredStores {
    /// Every entry's run profile, concatenated in campaign order.
    pub run: ProfileStore,
    /// Every entry's SSE profile, concatenated in campaign order.
    pub sse: ProfileStore,
    /// Every entry's SSP profile, concatenated in campaign order.
    pub ssp: ProfileStore,
}

/// Verifies a copy of entry `index` persisted under shard `a_shard`
/// against a second copy: another persisted one (`b_shard = Some(shard)`,
/// as `gather` and a restore check crash-window duplicates) or a fresh
/// measurement about to be persisted (`b_shard = None`, as the durable
/// campaign ledger checks a re-measured entry). A mismatch names the
/// shards and the first differing column.
///
/// The encoding is canonical (a deterministic function of the artifact),
/// so byte-equal copies are identical copies — the common case costs one
/// `memcmp` over the two buffers and decodes nothing. Only when the bytes
/// differ are both copies parsed (as borrowed views) to name the first
/// differing profile column in the error.
pub(crate) fn verify_duplicate_bytes(
    index: usize,
    a_shard: u32,
    a_bytes: &[u8],
    b_shard: Option<u32>,
    b_bytes: &[u8],
) -> Result<(), CheckpointError> {
    if a_bytes == b_bytes {
        return Ok(());
    }
    let a = EntryArtifactView::parse(a_bytes)?;
    let b = EntryArtifactView::parse(b_bytes)?;
    let copies = match b_shard {
        Some(b_shard) => {
            format!("entry {index} disagrees between shard {a_shard} and shard {b_shard}")
        }
        None => format!(
            "entry {index}: the fresh measurement differs from the copy persisted under shard \
             {a_shard}"
        ),
    };
    for (what, left, right) in [
        ("run", a.run_store(), b.run_store()),
        ("sse", a.sse_store(), b.sse_store()),
        ("ssp", a.ssp_store(), b.ssp_store()),
    ] {
        let diff = left.diff(right);
        if !diff.is_identical() {
            return Err(CheckpointError::Corrupt(format!(
                "{copies}: {what} profile {}",
                diff.mismatch_brief()
            )));
        }
    }
    // The bytes differ but every profile column agrees, so the
    // disagreement is in the scalar fields (or the profile labels).
    Err(CheckpointError::Corrupt(format!(
        "{copies}: report scalars differ (profiles are identical)"
    )))
}

/// Merges a completed checkpoint back into a [`CampaignReport`] plus
/// campaign-wide concatenated profile stores, verifying along the way:
///
/// * the manifest must belong to `campaign` (digest, labels);
/// * every entry must have a persisted artifact whose own digest and
///   label agree;
/// * when an entry was persisted by more than one shard (crash window
///   between an entry write and the manifest update), the copies are
///   compared with [`ProfileStore::diff`] and must be bit-identical — a
///   mismatch is reported with the shard ids and the first differing
///   column, not as a bare error.
///
/// # Errors
///
/// Returns [`CheckpointError::Incomplete`] naming the uncovered entries
/// when the campaign has not finished, and the other typed
/// [`CheckpointError`]s for damaged or foreign checkpoints.
pub fn gather(
    dir: &CheckpointDir,
    campaign: &Campaign,
) -> Result<GatheredCampaign, CheckpointError> {
    let (stores, reports) = gather_impl(dir, campaign, true)?;
    Ok(GatheredCampaign {
        report: CampaignReport {
            reports: reports.expect("reports were requested"),
        },
        run: stores.run,
        sse: stores.sse,
        ssp: stores.ssp,
    })
}

/// Like [`gather`], but materialises only the three concatenated profile
/// stores — no [`KernelPowerReport`]s are decoded at all, so the only
/// owned allocations are the three output stores themselves (sized
/// exactly, up front) plus one borrowed view per entry file. Verification
/// is identical to [`gather`]'s.
///
/// # Errors
///
/// As [`gather`].
pub fn gather_stores(
    dir: &CheckpointDir,
    campaign: &Campaign,
) -> Result<GatheredStores, CheckpointError> {
    Ok(gather_impl(dir, campaign, false)?.0)
}

/// The one entry self-check: an entry view's claimed index, config
/// digest, and label must match slot `index` of the campaign digesting to
/// `digest`, whose entry is labelled `label`. `whence` names the copy in
/// the error (a file and its shard, or a worker's artifact). Used by
/// [`gather`], by the ledger's restore, and by the transport coordinator
/// on every artifact a worker delivers.
pub(crate) fn check_entry_view(
    view: &EntryArtifactView<'_>,
    index: usize,
    digest: u64,
    label: &str,
    whence: fmt::Arguments<'_>,
) -> Result<(), CheckpointError> {
    if view.index as usize != index {
        return Err(CheckpointError::Corrupt(format!(
            "{whence} claims index {} but stands for entry {index}",
            view.index
        )));
    }
    if view.config_digest != digest {
        return Err(CheckpointError::ConfigMismatch {
            expected: digest,
            found: view.config_digest,
        });
    }
    if view.label() != label {
        return Err(CheckpointError::Corrupt(format!(
            "{whence} is labelled `{}` but entry {index} is `{label}`",
            view.label()
        )));
    }
    Ok(())
}

/// The streaming merge behind [`gather`]/[`gather_stores`]: two passes
/// over the entry files, each read whole, holding at most one entry —
/// plus at most one crash-window duplicate — in memory at a time.
///
/// Pass 1 validates every file through a borrowed [`EntryArtifactView`]
/// (header, digest, label, duplicate agreement, and the embedded stores'
/// canonical form) and sums the three profile lengths. Pass 2 sizes the
/// output stores exactly from those sums and splices each entry in with
/// [`ProfileStore::extend_from_view`] — so gathering N large shards peaks
/// at roughly one shard's decoded store of transient memory beyond the
/// output, instead of keeping all N resident.
fn gather_impl(
    dir: &CheckpointDir,
    campaign: &Campaign,
    want_reports: bool,
) -> Result<(GatheredStores, Option<Vec<KernelPowerReport>>), CheckpointError> {
    let manifest = dir.read_manifest()?;
    manifest.verify_against(campaign)?;

    let copies = scan_copies(dir, campaign.len())?;
    let (mut run_total, mut sse_total, mut ssp_total) = (0usize, 0usize, 0usize);
    let mut missing = Vec::new();
    for (index, (row, copies)) in manifest.entries.iter().zip(&copies).enumerate() {
        let lens = read_copies(index, copies, manifest.config_digest, &row.label, |view| {
            (
                view.run_store().len(),
                view.sse_store().len(),
                view.ssp_store().len(),
            )
        })?;
        match lens {
            Some((run, sse, ssp)) => {
                run_total += run;
                sse_total += sse;
                ssp_total += ssp;
            }
            None => missing.push(index),
        }
    }
    if !missing.is_empty() {
        return Err(CheckpointError::Incomplete { missing });
    }

    let mut stores = GatheredStores {
        run: ProfileStore::with_capacity(run_total),
        sse: ProfileStore::with_capacity(sse_total),
        ssp: ProfileStore::with_capacity(ssp_total),
    };
    let mut reports = want_reports.then(|| Vec::with_capacity(campaign.len()));
    for (_, path) in copies.iter().filter_map(|copies| copies.first()) {
        let mapped = MappedProfile::open(path)?;
        // Pass 1 already vetted this file; the re-parse revalidates for
        // free while slicing the column blocks (the pages are hot).
        let view = EntryArtifactView::parse(mapped.bytes())?;
        stores.run.extend_from_view(view.run_store());
        stores.sse.extend_from_view(view.sse_store());
        stores.ssp.extend_from_view(view.ssp_store());
        if let Some(reports) = reports.as_mut() {
            reports.push(view.to_report());
        }
    }
    Ok((stores, reports))
}

/// One directory scan, indexed per campaign entry: every persisted copy
/// of each entry as `(shard, path)`, by ascending shard. A file naming an
/// entry past the campaign's end is corrupt.
fn scan_copies(
    dir: &CheckpointDir,
    entries: usize,
) -> Result<Vec<Vec<(u32, PathBuf)>>, CheckpointError> {
    let mut copies = vec![Vec::new(); entries];
    for (shard, index, path) in dir.entry_files()? {
        let Some(slot) = copies.get_mut(index) else {
            return Err(CheckpointError::Corrupt(format!(
                "shard {shard} holds entry {index} but the campaign has only {entries} entries"
            )));
        };
        slot.push((shard, path));
    }
    Ok(copies)
}

/// Reads entry `index` from its persisted `copies` (`None` when there are
/// none): the first copy must pass [`check_entry_view`] against the
/// campaign's `digest` and the entry's `label`, and every crash-window
/// duplicate must be bit-identical to it before `read` sees its view. At
/// most the first copy and one duplicate are in memory at a time, and
/// duplicates decode nothing.
fn read_copies<T>(
    index: usize,
    copies: &[(u32, PathBuf)],
    digest: u64,
    label: &str,
    read: impl FnOnce(&EntryArtifactView<'_>) -> T,
) -> Result<Option<T>, CheckpointError> {
    let Some(((shard, path), duplicates)) = copies.split_first() else {
        return Ok(None);
    };
    let mapped = MappedProfile::open(path)?;
    let view = EntryArtifactView::parse(mapped.bytes())?;
    check_entry_view(
        &view,
        index,
        digest,
        label,
        format_args!("entry file {} (shard {shard})", path.display()),
    )?;
    for (dup_shard, dup_path) in duplicates {
        let dup = MappedProfile::open(dup_path)?;
        verify_duplicate_bytes(index, *shard, mapped.bytes(), Some(*dup_shard), dup.bytes())?;
    }
    Ok(Some(read(&view)))
}

// ---------------------------------------------------------------------
// Ledger (the durable-campaign rules of every front end)
// ---------------------------------------------------------------------

/// How [`Ledger::open`] treats the checkpoint directory it opens.
pub(crate) enum Opening {
    /// A fresh durable run (`CheckpointMode::Fresh`): a
    /// directory that checkpoints a different campaign is refused, then
    /// this plan replaces its manifest and every entry is measured.
    Fresh(CampaignManifest),
    /// A local resume (`CheckpointMode::Resume`): the manifest must
    /// exist; its `Done` entries are restored and the rest are re-planned
    /// round-robin across `workers`.
    Resume {
        /// Worker count of the resuming executor.
        workers: usize,
    },
    /// A served campaign (`CampaignService::submit`): restored like `Resume`
    /// when the directory already holds a manifest, else started from
    /// this plan. The manifest then plans one worker, and each entry
    /// moves to the shard of the worker that completes it.
    RestoreIfPresent(CampaignManifest),
}

/// The durable-campaign ledger: every checkpoint decision the local
/// executor and the transport coordinator share. It owns the directory,
/// the manifest, the entry files found on disk at opening, and the first
/// persistence failure, and it makes every status transition:
///
/// * an entry becomes `Done` only after its bytes agree with each copy an
///   earlier run left on disk (the crash window between an entry write
///   and its manifest update) and have been written, so it is durable
///   before any observer hears that it finished;
/// * a failed entry becomes `Failed`, or `Aborted` when a cancellation
///   cut it short;
/// * the first persistence failure is kept: both front ends stop claiming
///   entries once [`Ledger::failed`] is true, and [`Ledger::close`]
///   returns it.
pub(crate) struct Ledger {
    dir: CheckpointDir,
    digest: u64,
    manifest: Mutex<CampaignManifest>,
    /// Entry files on disk at opening, per campaign index.
    copies: Vec<Vec<(u32, PathBuf)>>,
    failure: Mutex<Option<CheckpointError>>,
}

impl Ledger {
    /// Opens the checkpoint at `root` for `campaign`, returning the ledger,
    /// an outcome holding the restored reports, and the ascending indices
    /// left to measure. The manifest is written only when opening changed
    /// it, so resuming a complete checkpoint writes nothing.
    ///
    /// A restored `Done` entry must pass [`check_entry_view`], and its
    /// crash-window duplicates must be bit-identical to it; a `Done` entry
    /// whose file vanished is demoted to `Pending` and re-planned.
    pub(crate) fn open(
        root: &Path,
        campaign: &Campaign,
        opening: Opening,
    ) -> Result<(Ledger, CampaignOutcome, Vec<usize>), CheckpointError> {
        let dir = match opening {
            Opening::Resume { .. } => CheckpointDir::open(root)?,
            _ => CheckpointDir::create(root)?,
        };
        let on_disk = if dir.manifest_path().is_file() {
            let manifest = dir.read_manifest()?;
            manifest.verify_against(campaign)?;
            Some(manifest)
        } else {
            None
        };
        // One directory scan for the ledger's lifetime.
        let copies = scan_copies(&dir, campaign.len())?;

        let mut outcome = CampaignOutcome::empty(campaign.len());
        let (manifest, plan) = match (opening, on_disk.clone()) {
            (Opening::Fresh(plan), _) | (Opening::RestoreIfPresent(plan), None) => {
                (plan, (0..campaign.len()).collect())
            }
            (Opening::Resume { workers }, Some(mut manifest)) => {
                let plan = restore(&mut manifest, &copies, &mut outcome)?;
                if !plan.is_empty() {
                    // The resuming executor's worker count may differ from
                    // the original run's.
                    manifest.workers = workers as u32;
                    for (pos, &index) in plan.iter().enumerate() {
                        if let Some(row) = manifest.entries.get_mut(index) {
                            row.shard = (pos % workers) as u32;
                        }
                    }
                }
                (manifest, plan)
            }
            (Opening::RestoreIfPresent(_), Some(mut manifest)) => {
                let plan = restore(&mut manifest, &copies, &mut outcome)?;
                manifest.workers = 1;
                (manifest, plan)
            }
            // The manifest vanished after `CheckpointDir::open` saw it.
            (Opening::Resume { .. }, None) => return Err(dir.missing_manifest()),
        };
        if on_disk.as_ref() != Some(&manifest) {
            dir.write_manifest(&manifest)?;
        }
        let ledger = Ledger {
            dir,
            digest: manifest.config_digest,
            manifest: Mutex::new(manifest),
            copies,
            failure: Mutex::new(None),
        };
        Ok((ledger, outcome, plan))
    }

    /// The campaign digest every entry of this checkpoint carries.
    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }

    /// True once a persistence failure was recorded: claim no more entries.
    pub(crate) fn failed(&self) -> bool {
        lock(&self.failure).is_some()
    }

    /// Records a locally measured entry under its planned shard.
    pub(crate) fn record_report(&self, index: usize, report: &KernelPowerReport) {
        let shard = lock(&self.manifest)
            .entries
            .get(index)
            .map_or(0, |row| row.shard);
        // Encoding once, from the borrowed report, serves both the
        // crash-window comparison and the write.
        let bytes = encode_entry_bytes(index as u32, self.digest, report);
        self.record_done(index, shard, &bytes);
    }

    /// Records a finished entry's encoded artifact under `shard`: verified
    /// against every crash-window copy (a disagreement means checkpoint and
    /// campaign have diverged, and is never overwritten), written, then
    /// marked `Done`. The caller vouches that `bytes` encode entry `index`
    /// of this campaign ([`check_entry_view`]).
    pub(crate) fn record_done(&self, index: usize, shard: u32, bytes: &[u8]) {
        let result = (|| {
            for (old_shard, path) in self.copies.get(index).into_iter().flatten() {
                let old = MappedProfile::open(path)?;
                verify_duplicate_bytes(index, *old_shard, old.bytes(), None, bytes)?;
            }
            self.dir.write_entry_bytes(shard, index, bytes)?;
            self.update(index, |row| {
                row.shard = shard;
                row.status = EntryStatus::Done;
            })
        })();
        self.keep_first(result);
    }

    /// Records entry `index`'s measurement failure: `Aborted` for a
    /// cancelled session, `Failed` otherwise.
    pub(crate) fn record_failed(&self, index: usize, error: &MethodologyError) {
        let status = if matches!(error, MethodologyError::Aborted) {
            EntryStatus::Aborted
        } else {
            EntryStatus::Failed
        };
        let result = self.update(index, |row| row.status = status);
        self.keep_first(result);
    }

    /// Sets the manifest's worker count; written with the next status change.
    pub(crate) fn set_workers(&self, workers: u32) {
        lock(&self.manifest).workers = workers;
    }

    /// Ends the campaign, returning the first persistence failure.
    pub(crate) fn close(self) -> Result<(), CheckpointError> {
        let failure = lock(&self.failure).take();
        failure.map_or(Ok(()), Err)
    }

    /// Edits entry `index`'s manifest row and rewrites the manifest (an
    /// atomic replace per change, so a crash leaves it resumable).
    fn update(
        &self,
        index: usize,
        edit: impl FnOnce(&mut ManifestEntry),
    ) -> Result<(), CheckpointError> {
        let mut manifest = lock(&self.manifest);
        if let Some(row) = manifest.entries.get_mut(index) {
            edit(row);
        }
        self.dir.write_manifest(&manifest)
    }

    fn keep_first(&self, result: Result<(), CheckpointError>) {
        if let Err(e) = result {
            lock(&self.failure).get_or_insert(e);
        }
    }
}

/// Locks a ledger mutex. A poisoned lock still holds a whole value (every
/// update is one assignment), so the ledger keeps using it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Restores every `Done` entry of `manifest` into `outcome`'s report slots
/// ([`read_copies`]) and returns the ascending indices that must be
/// (re-)measured.
fn restore(
    manifest: &mut CampaignManifest,
    copies: &[Vec<(u32, PathBuf)>],
    outcome: &mut CampaignOutcome,
) -> Result<Vec<usize>, CheckpointError> {
    let digest = manifest.config_digest;
    let mut plan = Vec::new();
    let rows = manifest.entries.iter_mut().zip(copies);
    for (index, ((row, copies), slot)) in rows.zip(&mut outcome.reports).enumerate() {
        if row.status != EntryStatus::Done {
            plan.push(index);
            continue;
        }
        match read_copies(index, copies, digest, &row.label, |view| view.to_report())? {
            Some(report) => *slot = Some(report),
            // A missing file (crash between the manifest update and a
            // later inspection) re-plans the entry instead of failing.
            None => {
                row.status = EntryStatus::Pending;
                plan.push(index);
            }
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guidance::GuidanceTable;

    fn desc(name: &str) -> KernelDesc {
        KernelDesc {
            name: name.into(),
            base_exec: SimDuration::from_micros(100),
            freq_insensitive_frac: 0.5,
            activity: Activity::new(0.5, 0.4, 0.3),
            compute_utilization: 0.4,
            flops: 1e10,
            hbm_bytes: 1e7,
            llc_bytes: 1e8,
            workgroups: 64,
        }
    }

    fn small_campaign() -> Campaign {
        let mut c = Campaign::new(RunnerConfig::quick(6));
        c.add(desc("a")).add(desc("b"));
        c
    }

    #[test]
    fn digest_tracks_config_entries_and_overrides() {
        let a = small_campaign();
        assert_eq!(campaign_digest(&a), campaign_digest(&small_campaign()));

        let mut reordered = Campaign::new(RunnerConfig::quick(6));
        reordered.add(desc("b")).add(desc("a"));
        assert_ne!(campaign_digest(&a), campaign_digest(&reordered));

        let mut other_config = Campaign::new(RunnerConfig::quick(7));
        other_config.add(desc("a")).add(desc("b"));
        assert_ne!(campaign_digest(&a), campaign_digest(&other_config));

        let mut with_override = Campaign::new(RunnerConfig::quick(6));
        with_override
            .add(desc("a"))
            .add_with_config(desc("b"), RunnerConfig::quick(6));
        assert_ne!(campaign_digest(&a), campaign_digest(&with_override));

        // Every field reaches the digest: editing any single one — in the
        // campaign default, in an entry override, or in an entry's kernel
        // descriptor — changes it.
        fn edit_row(c: &mut RunnerConfig, edit: fn(&mut GuidanceEntry)) {
            let mut rows = c.guidance.entries().to_vec();
            edit(&mut rows[0]);
            c.guidance = GuidanceTable::new(rows);
        }
        type Edit<T> = (&'static str, fn(&mut T));
        let config_edits: [Edit<RunnerConfig>; 19] = [
            ("runs_override", |c| c.runs_override = None),
            ("margin_override", |c| c.margin_override = Some(0.07)),
            ("guidance rows", |c| {
                c.guidance = GuidanceTable::new(c.guidance.entries()[1..].to_vec());
            }),
            ("guidance min_exec", |c| {
                edit_row(c, |r| r.min_exec = SimDuration::from_nanos(1));
            }),
            ("guidance max_exec", |c| edit_row(c, |r| r.max_exec = None)),
            ("guidance runs", |c| edit_row(c, |r| r.runs += 1)),
            ("guidance loi_interval", |c| {
                edit_row(c, |r| r.loi_interval = SimDuration::from_nanos(1));
            }),
            ("guidance margin_frac", |c| {
                edit_row(c, |r| r.margin_frac *= 2.0)
            }),
            ("calibration_reads", |c| c.calibration_reads += 1),
            ("timing_probe_executions", |c| {
                c.timing_probe_executions += 1
            }),
            ("time_stability_tol", |c| c.time_stability_tol *= 2.0),
            ("power_stability_tol", |c| c.power_stability_tol *= 2.0),
            ("throttle_detection_tol", |c| {
                c.throttle_detection_tol *= 2.0
            }),
            ("random_delay_max", |c| {
                c.random_delay_max = SimDuration::from_millis(2)
            }),
            ("inter_run_idle", |c| {
                c.inter_run_idle = SimDuration::from_millis(2)
            }),
            ("tail_executions_cap", |c| c.tail_executions_cap += 1),
            ("extra_run_batches", |c| c.extra_run_batches += 1),
            ("drift_correction", |c| {
                c.drift_correction = !c.drift_correction
            }),
            ("logger", |c| c.logger = LoggerChoice::Coarse),
        ];
        let overridden = |cfg: RunnerConfig| {
            let mut c = Campaign::new(RunnerConfig::quick(6));
            c.add(desc("a")).add_with_config(desc("b"), cfg);
            campaign_digest(&c)
        };
        for (field, edit) in config_edits {
            let mut cfg = RunnerConfig::quick(6);
            edit(&mut cfg);
            let mut c = Campaign::new(cfg.clone());
            c.add(desc("a")).add(desc("b"));
            assert_ne!(campaign_digest(&c), campaign_digest(&a), "default {field}");
            assert_ne!(
                overridden(cfg),
                overridden(RunnerConfig::quick(6)),
                "override {field}"
            );
        }

        let desc_edits: [Edit<KernelDesc>; 11] = [
            ("name", |d| d.name.push('x')),
            ("base_exec", |d| d.base_exec = SimDuration::from_micros(101)),
            ("freq_insensitive_frac", |d| d.freq_insensitive_frac = 0.25),
            ("activity.xcd", |d| d.activity.xcd = 0.25),
            ("activity.iod", |d| d.activity.iod = 0.25),
            ("activity.hbm", |d| d.activity.hbm = 0.25),
            ("compute_utilization", |d| d.compute_utilization = 0.25),
            ("flops", |d| d.flops *= 2.0),
            ("hbm_bytes", |d| d.hbm_bytes *= 2.0),
            ("llc_bytes", |d| d.llc_bytes *= 2.0),
            ("workgroups", |d| d.workgroups += 1),
        ];
        for (field, edit) in desc_edits {
            let mut d = desc("b");
            edit(&mut d);
            let mut c = Campaign::new(RunnerConfig::quick(6));
            c.add(desc("a")).add(d);
            assert_ne!(campaign_digest(&c), campaign_digest(&a), "kernel {field}");
        }
    }

    #[test]
    fn manifest_round_trips_and_verifies() {
        let campaign = small_campaign();
        let factory =
            crate::backend::SimulationFactory::new(fingrav_sim::config::SimConfig::default(), 7);
        let mut manifest = CampaignManifest::plan(&campaign, &factory, 3);
        assert_eq!(manifest.entries.len(), 2);
        assert_eq!(manifest.entries[0].seed, Some(factory.slot_seed(0)));
        assert_eq!(manifest.entries[1].shard, 1);
        manifest.entries[0].status = EntryStatus::Done;
        manifest.entries[1].status = EntryStatus::Aborted;

        let bytes = manifest.to_bytes();
        let restored = CampaignManifest::from_bytes(&bytes).unwrap();
        assert_eq!(restored, manifest);
        assert_eq!(restored.rerun_indices(), vec![1]);
        assert!(!restored.is_complete());
        restored.verify_against(&campaign).unwrap();

        let mut other = Campaign::new(RunnerConfig::quick(9));
        other.add(desc("a")).add(desc("b"));
        assert!(matches!(
            restored.verify_against(&other),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn manifest_codec_rejects_damage() {
        let campaign = small_campaign();
        let factory =
            crate::backend::SimulationFactory::new(fingrav_sim::config::SimConfig::default(), 7);
        let good = CampaignManifest::plan(&campaign, &factory, 2).to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            CampaignManifest::from_bytes(&bad_magic),
            Err(CheckpointError::BadMagic(_))
        ));

        let mut bad_version = good.clone();
        bad_version[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            CampaignManifest::from_bytes(&bad_version),
            Err(CheckpointError::UnsupportedVersion(9))
        ));

        // Every truncation is Truncated, never a panic or a wrong decode.
        for cut in 0..good.len() {
            assert!(matches!(
                CampaignManifest::from_bytes(&good[..cut]),
                Err(CheckpointError::Truncated(_))
            ));
        }

        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            CampaignManifest::from_bytes(&trailing),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn absurd_lengths_do_not_drive_allocation() {
        let campaign = small_campaign();
        let factory =
            crate::backend::SimulationFactory::new(fingrav_sim::config::SimConfig::default(), 7);
        let good = CampaignManifest::plan(&campaign, &factory, 2).to_bytes();
        // The entry-sequence length sits right after digest (8) + workers
        // (4) in the payload (header is 16 bytes).
        let mut absurd = good.clone();
        absurd[28..36].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            CampaignManifest::from_bytes(&absurd),
            Err(CheckpointError::Corrupt(_))
        ));
        // A large-but-plausible length must fail as Truncated after at
        // most one chunk of committed capacity, not allocate it all.
        let mut big = good.clone();
        big[28..36].copy_from_slice(&(1u64 << 31).to_le_bytes());
        assert!(matches!(
            CampaignManifest::from_bytes(&big),
            Err(CheckpointError::Truncated(_))
        ));
    }

    fn sample_store(salt: u32) -> ProfileStore {
        let mut store = ProfileStore::new();
        for i in 0..100u32 {
            let valid = !(i + salt).is_multiple_of(4);
            store.push(crate::profile::ProfilePoint {
                run: i / 10,
                exec_pos: valid.then_some(i % 9),
                toi_ns: valid.then_some(f64::from(i) * 2.5),
                run_time_ns: f64::from(i + salt) * 11.0,
                power: ComponentPower::new(200.0 + f64::from(i), 50.0, 40.0, 30.0),
            });
        }
        store
    }

    fn sample_report(label: &str) -> KernelPowerReport {
        KernelPowerReport {
            label: label.into(),
            exec_time_ns: 123_456,
            guidance: GuidanceEntry {
                min_exec: SimDuration::from_micros(50),
                max_exec: Some(SimDuration::from_micros(500)),
                runs: 12,
                loi_interval: SimDuration::from_micros(2),
                margin_frac: 0.05,
            },
            margin_frac: 0.05,
            sse_index: 3,
            ssp_index: 5,
            executions_per_run: 40,
            runs_executed: 12,
            golden_runs: 9,
            throttle_detected: false,
            read_delay_ns: 850.0,
            estimated_drift_ppm: Some(1.25),
            run_profile: PowerProfile {
                label: label.into(),
                kind: ProfileKind::Run,
                store: sample_store(0),
            },
            sse_profile: PowerProfile {
                label: label.into(),
                kind: ProfileKind::Sse,
                store: sample_store(1),
            },
            ssp_profile: PowerProfile {
                label: label.into(),
                kind: ProfileKind::Ssp,
                store: sample_store(2),
            },
            sse_mean_total_w: Some(321.5),
            ssp_mean_total_w: Some(318.25),
            sse_vs_ssp_error: Some(0.01),
        }
    }

    /// The entry parse must mirror `write_entry_to` field for field — this
    /// test pins the decode order in `EntryArtifactView::parse` to the
    /// encode order.
    #[test]
    fn entry_view_decodes_equal_to_owned_artifact() {
        let artifact = EntryArtifact {
            index: 7,
            config_digest: 0xDEAD_BEEF_CAFE_F00D,
            report: sample_report("view-eq"),
        };
        let bytes = artifact.to_bytes();
        assert_eq!(
            bytes,
            encode_entry_bytes(7, 0xDEAD_BEEF_CAFE_F00D, &artifact.report),
            "borrowed-report encoding matches the owned artifact encoding"
        );

        let view = EntryArtifactView::parse(&bytes).expect("parses");
        assert_eq!(view.index, 7);
        assert_eq!(view.config_digest, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(view.label(), "view-eq");
        assert_eq!(
            view.run_store().len(),
            artifact.report.run_profile.store.len()
        );
        assert_eq!(
            view.run_store().to_store(),
            artifact.report.run_profile.store
        );
        assert_eq!(view.to_artifact(), artifact);
    }

    /// Damage surfaces as a typed error — truncations, trailing bytes,
    /// a foreign magic.
    #[test]
    fn entry_view_rejects_damage_like_owned_decode() {
        let artifact = EntryArtifact {
            index: 0,
            config_digest: 1,
            report: sample_report("damage"),
        };
        let good = artifact.to_bytes();

        for cut in 0..good.len() {
            assert!(
                matches!(
                    EntryArtifactView::parse(&good[..cut]),
                    Err(CheckpointError::Truncated(_))
                ),
                "cut at {cut}"
            );
        }

        let mut trailing = good.clone();
        trailing.push(0);
        assert!(matches!(
            EntryArtifactView::parse(&trailing),
            Err(CheckpointError::Corrupt(_))
        ));
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            EntryArtifactView::parse(&bad_magic),
            Err(CheckpointError::BadMagic(_))
        ));
    }

    /// Byte-equal duplicates are accepted without decoding; disagreeing
    /// ones are parsed and named by profile column or scalar.
    #[test]
    fn duplicate_verification_over_bytes() {
        let mut artifact = EntryArtifact {
            index: 2,
            config_digest: 9,
            report: sample_report("dups"),
        };
        let a = artifact.to_bytes();
        verify_duplicate_bytes(2, 0, &a, Some(1), &a.clone()).expect("byte-equal copies agree");

        // A diverged profile column names the shards and the column.
        let mut tampered = artifact.clone();
        let mut store = ProfileStore::new();
        for (i, p) in tampered.report.sse_profile.store.iter().enumerate() {
            let mut point = p.to_point();
            if i == 3 {
                point.power.hbm += 0.5;
            }
            store.push(point);
        }
        tampered.report.sse_profile.store = store;
        let err = verify_duplicate_bytes(2, 0, &a, Some(5), &tampered.to_bytes())
            .expect_err("diverged column is rejected");
        let msg = err.to_string();
        assert!(msg.contains("shard 0") && msg.contains("shard 5"), "{msg}");
        assert!(
            msg.contains("sse profile") && msg.contains("column `hbm`"),
            "{msg}"
        );

        // Against a fresh measurement the error names the persisted shard.
        let err = verify_duplicate_bytes(2, 4, &a, None, &tampered.to_bytes())
            .expect_err("diverged fresh measurement is rejected");
        let msg = err.to_string();
        assert!(
            msg.contains("fresh measurement differs from the copy persisted under shard 4"),
            "{msg}"
        );
        assert!(msg.contains("column `hbm`"), "{msg}");

        // Identical profiles but a diverged scalar is still a mismatch.
        artifact.report.golden_runs += 1;
        let err = verify_duplicate_bytes(2, 0, &a, Some(3), &artifact.to_bytes())
            .expect_err("diverged scalar is rejected");
        assert!(err.to_string().contains("report scalars differ"), "{err}");
    }

    #[test]
    fn status_and_display() {
        assert!(EntryStatus::Pending.needs_rerun());
        assert!(EntryStatus::Failed.needs_rerun());
        assert!(EntryStatus::Aborted.needs_rerun());
        assert!(!EntryStatus::Done.needs_rerun());
        assert_eq!(EntryStatus::Aborted.to_string(), "aborted");
    }

    #[test]
    fn checkpoint_error_displays() {
        let cases: Vec<CheckpointError> = vec![
            CheckpointError::Io(io::Error::other("x")),
            CheckpointError::BadMagic(*b"NOTCKPT!"),
            CheckpointError::UnsupportedVersion(9),
            CheckpointError::Truncated("manifest entry"),
            CheckpointError::Corrupt("y".into()),
            CheckpointError::Store(StoreCodecError::BadMagic(*b"NOTPROF!")),
            CheckpointError::ConfigMismatch {
                expected: 1,
                found: 2,
            },
            CheckpointError::Incomplete { missing: vec![3] },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }
}
