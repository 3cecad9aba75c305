//! Cross-node campaign transport: a coordinator/worker protocol over TCP.
//!
//! FinGraV campaigns are embarrassingly distributable — every entry is an
//! independent per-kernel measurement whose backend derives solely from
//! its campaign index — and [`crate::checkpoint`] already persists each
//! finished entry as a self-contained `FGRVCKPT` block. This module ships
//! those same blocks over a socket instead of (only) a filesystem:
//!
//! * a [`CampaignService`] binds a `TcpListener`, plans each submitted
//!   campaign, and hands out entry indices to whichever workers connect;
//! * a worker ([`work`]) measures each assigned entry through the exact
//!   per-slot path a local executor uses
//!   (`crate::executor`'s claim loop), streaming scoped
//!   [`ProfilingEvent`]s back as it runs and the finished
//!   [`EntryArtifact`](crate::checkpoint::EntryArtifact) — byte-for-byte the on-disk `FGRVCKPT` entry
//!   section — when it completes;
//! * the service persists every artifact into a normal
//!   [`CheckpointDir`](crate::checkpoint::CheckpointDir), so
//!   [`crate::checkpoint::gather`] and
//!   a [`crate::executor::CheckpointMode::Resume`] run work on the result
//!   unchanged, and a campaign cut short on the wire is finished the same
//!   way a locally cancelled one is.
//!
//! ## Fault model
//!
//! A worker that disappears mid-entry (dropped connection, truncated
//! frame, or a cooperative abort surfacing as
//! [`MethodologyError::Aborted`]) simply returns its in-flight entry to
//! the queue; any later worker — including the same machine reconnecting —
//! re-measures it and, because slots derive solely from their campaign
//! index, produces a bit-identical artifact. The service verifies
//! that: a re-measured entry is diffed column-by-column against any copy
//! already on disk before it is trusted (same
//! [`ProfileStore::diff`](crate::store::ProfileStore::diff)-based check
//! `gather` applies). The service persists through the checkpoint
//! ledger a local executor uses, so the two cannot drift apart.
//!
//! Silence is a fault too, not just observed drops: every stream carries
//! read/write deadlines, workers pump [`Frame::Heartbeat`] frames (a
//! dedicated thread, so a long-running measurement still proves
//! liveness), the service heartbeats back while it deliberates an
//! assignment, and a peer that stays byte-silent past the configured
//! idle deadline ([`ServiceConfig::idle_timeout`],
//! [`WorkerOptions::io_timeout`]) is presumed wedged: the budgeted read
//! fails with [`TransportError::DeadlineLapsed`], the connection is
//! abandoned, and any in-flight assignment is evicted — re-queued to the
//! *front* of the queue, exactly like the dropped-connection path, so
//! byte-identity is preserved. Every frame a worker delivers (heartbeats
//! included) restarts its silence budget.
//!
//! ## Campaign service
//!
//! [`CampaignService`] is an always-on daemon: one listener serves many
//! campaigns back to back through a submission queue
//! ([`CampaignService::submit`] returns a [`CampaignTicket`]), with a
//! graceful drain on [`CampaignService::shutdown`]. A finished campaign
//! lives only in its tickets, and dropping the service releases its port
//! even while tickets are held. A submission's index is its wire
//! sequence number, which the handshake checks so that every worker
//! reaches the campaign it asked for. Workers dial the same
//! address for every campaign and ride [`connect_with_retry`]'s
//! exponential backoff across `ConnectionRefused` gaps instead of dying.
//!
//! Lifecycle note: because an entry can be attempted more than once, a
//! [`CampaignObserver`] watching a served campaign may see
//! `entry_started` (and a trailing `entry_failed`) again for a slot that
//! was re-planned; exactly one `entry_finished` still arrives per
//! completed slot. Remote cancellation is *entry-granular*: a fired
//! [`CampaignTicket::cancel`] stops new assignments immediately (workers
//! are told to abort when they next ask for work), but an entry already
//! running on a remote worker finishes before its worker notices.
//!
//! A panic inside one served campaign (an observer's, say) stays inside
//! it: the campaign halts, its connections close, its ticket's outcome
//! becomes [`MethodologyError::Panicked`] with the panic message, and its
//! directory remains a checkpoint a local resume completes. The service
//! moves on to the next submission.
//!
//! ## Wire format
//!
//! The connection opens with a fixed 16-byte preamble in each direction
//! ([`WIRE_MAGIC`], [`WIRE_VERSION`], reserved `u32`), then exchanges
//! length-framed [`Frame`]s: a `u32` tag, a `u64` payload length, and a
//! payload encoded with the same little-endian field grammar as the
//! `FGRVCKPT` format (the on-disk format *is* the wire format — an
//! [`EntryArtifact`](crate::checkpoint::EntryArtifact) travels as the exact bytes `EntryArtifact::write_to`
//! persists). `docs/FORMATS.md` is the normative byte-level spec.
//!
//! ## Example: a distributed campaign on TCP loopback
//!
//! ```
//! use fingrav_core::backend::SimulationFactory;
//! use fingrav_core::campaign::Campaign;
//! use fingrav_core::executor::{
//!     CampaignExecutor, CancellationToken, NoopCampaignObserver, RunOptions,
//! };
//! use fingrav_core::runner::RunnerConfig;
//! use fingrav_core::transport::{work, CampaignService, ServiceConfig, WorkerOptions};
//! use fingrav_sim::config::SimConfig;
//! use fingrav_workloads::suite;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let machine = SimConfig::default().machine.clone();
//! let mut campaign = Campaign::new(RunnerConfig::quick(6));
//! campaign.add_all(suite::gemm_suite(&machine).into_iter().take(2).map(|k| k.desc));
//! let factory = SimulationFactory::new(SimConfig::default(), 7);
//!
//! let service = CampaignService::bind("127.0.0.1:0", ServiceConfig::default())?;
//! let dir = std::env::temp_dir().join(format!("fingrav-doc-net-{}", std::process::id()));
//! let ticket = service.submit(campaign.clone(), &dir);
//!
//! // One worker on the same machine; any number may connect.
//! let stream = std::net::TcpStream::connect(service.local_addr()?)?;
//! work(
//!     stream,
//!     &campaign,
//!     &factory,
//!     &NoopCampaignObserver,
//!     &CancellationToken::new(),
//!     &WorkerOptions::default(),
//! )?;
//! let outcome = ticket.wait()?;
//!
//! // Byte-identical to a purely local run of the same campaign.
//! let local = CampaignExecutor::serial().run(&campaign, &factory, RunOptions::default())?;
//! assert_eq!(outcome.into_report()?, local.into_report()?);
//! std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::campaign::Campaign;
use crate::checkpoint::{
    campaign_digest, check_entry_view, CampaignManifest, CheckpointError, Codec, EntryArtifactView,
    Ledger, Opening,
};
use crate::cover;
use crate::error::{MethodologyError, MethodologyResult};
use crate::executor::{
    CampaignObserver, CampaignOutcome, CancellationToken, ErrorPolicy, NoopCampaignObserver,
};
use crate::observe::ProfilingEvent;
use crate::runner::KernelPowerReport;

/// Magic bytes opening the wire preamble in each direction.
pub const WIRE_MAGIC: [u8; 8] = *b"FGRVWIRE";

/// Version of the coordinator/worker wire protocol.
///
/// This constant is the single source of truth for the protocol version:
/// both peers send it in their preamble and refuse a mismatch, and
/// `docs/FORMATS.md` (the normative spec) cites the same value — a repo
/// test cross-checks the two, so bumping one without the other fails CI.
///
/// v2 added the bidirectional [`Frame::Heartbeat`] (receivers of v1
/// would treat the new tag as corruption, hence the bump).
pub const WIRE_VERSION: u32 = 2;

/// Hard ceiling on a frame payload length. The largest legitimate payload
/// is an [`EntryArtifact`](crate::checkpoint::EntryArtifact) (a full report with embedded profiles — tens
/// of MiB at paper scale); anything above this is a corrupt length field,
/// not data, and must not drive allocation.
pub const MAX_FRAME_LEN: u64 = 1 << 30;

/// Deny code: the worker's campaign digest does not match the
/// coordinator's (same sequence position — a genuinely different
/// campaign definition).
pub const DENY_DIGEST_MISMATCH: u8 = 1;
/// Deny code: the coordinator has already moved past the worker's
/// campaign sequence position (e.g. it restored that campaign from a
/// complete checkpoint and never needed a worker). The worker should
/// obtain that campaign's results some other way — the bench harness
/// measures it locally, byte-identically.
pub const DENY_SEQUENCE_PASSED: u8 = 2;
/// Deny code: the worker is early — the coordinator has not reached the
/// worker's campaign sequence position yet (its previous campaign is
/// still draining). The worker should reconnect shortly.
pub const DENY_SEQUENCE_EARLY: u8 = 3;

/// Elements of capacity committed ahead of reading a frame payload, so a
/// corrupt length field fails on the first short read instead of
/// committing memory (mirrors the checkpoint codec's bounded pre-allocation).
const READ_CHUNK: usize = 64 * 1024;

/// How long assignment waiters sleep between cancellation checks, and how
/// long the accept loop sleeps between polls.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Default maximum byte-silence tolerated from a connected peer before it
/// is presumed wedged and its connection (plus any in-flight assignment)
/// is abandoned. Generous: heartbeats arrive every
/// [`DEFAULT_HEARTBEAT_INTERVAL`] from a live peer, so hitting this means
/// an order of magnitude of missed beats.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Default interval between worker [`Frame::Heartbeat`] frames (the
/// coordinator derives its own reply-side heartbeat cadence from its idle
/// timeout, capped at this value).
pub const DEFAULT_HEARTBEAT_INTERVAL: Duration = Duration::from_secs(2);

/// Granularity of the socket read timeout used to poll for deadline and
/// eviction checks: a fraction of the idle deadline, bounded so short
/// test deadlines still get several polls and long production deadlines
/// don't spin.
fn read_poll(idle: Duration) -> Duration {
    (idle / 8).clamp(Duration::from_millis(5), Duration::from_millis(50))
}

/// True for the error kinds a timed-out socket read/write surfaces
/// (`WouldBlock` on Unix, `TimedOut` on Windows) — a *deadline tick*,
/// distinct from corruption or a dead connection.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Failure of a transport connection or of the protocol spoken over it.
#[derive(Debug)]
pub enum TransportError {
    /// The socket failed below the protocol layer.
    Io(io::Error),
    /// The peer's preamble does not start with [`WIRE_MAGIC`].
    BadMagic([u8; 8]),
    /// The peer speaks a different [`WIRE_VERSION`].
    UnsupportedVersion(u32),
    /// The stream ended inside the named block.
    Truncated(&'static str),
    /// A frame decoded but violates the format's invariants.
    Corrupt(String),
    /// An artifact or handshake carried the wrong campaign digest.
    DigestMismatch {
        /// Digest of the local campaign.
        expected: u64,
        /// Digest the peer presented.
        found: u64,
    },
    /// The coordinator refused the handshake.
    Denied {
        /// Machine-readable reason ([`DENY_DIGEST_MISMATCH`], …).
        code: u8,
        /// Human-readable detail.
        detail: String,
    },
    /// An embedded checkpoint block failed to decode or verify.
    Checkpoint(CheckpointError),
    /// The peer sent a frame the protocol does not allow in this state.
    Protocol(String),
    /// The peer sent no bytes (not even a heartbeat) for the configured
    /// idle deadline: it is presumed wedged or gone, and the connection
    /// is abandoned. On the coordinator this evicts and re-plans the
    /// connection's in-flight assignment.
    DeadlineLapsed {
        /// How long the stream stayed byte-silent.
        silent_for: Duration,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "i/o error on transport: {e}"),
            TransportError::BadMagic(m) => {
                write!(f, "peer is not a fingrav transport (magic {m:02x?})")
            }
            TransportError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            TransportError::Truncated(block) => {
                write!(f, "connection ended inside the {block} block")
            }
            TransportError::Corrupt(why) => write!(f, "corrupt frame: {why}"),
            TransportError::DigestMismatch { expected, found } => write!(
                f,
                "campaign digest mismatch (peer has {found:016x}, local campaign \
                 digests to {expected:016x})"
            ),
            TransportError::Denied { code, detail } => {
                write!(
                    f,
                    "coordinator denied the handshake (code {code}): {detail}"
                )
            }
            TransportError::Checkpoint(e) => write!(f, "embedded checkpoint block: {e}"),
            TransportError::Protocol(why) => write!(f, "protocol violation: {why}"),
            TransportError::DeadlineLapsed { silent_for } => write!(
                f,
                "peer byte-silent for {silent_for:?}; idle deadline lapsed, connection abandoned"
            ),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            TransportError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TransportError::Truncated("frame")
        } else {
            TransportError::Io(e)
        }
    }
}

impl From<CheckpointError> for TransportError {
    fn from(e: CheckpointError) -> Self {
        // A truncation inside a frame payload is a truncation of the
        // connection's stream.
        match e {
            CheckpointError::Truncated(block) => TransportError::Truncated(block),
            CheckpointError::Io(io) if io.kind() == io::ErrorKind::UnexpectedEof => {
                TransportError::Truncated("frame payload")
            }
            other => TransportError::Checkpoint(other),
        }
    }
}

impl From<TransportError> for MethodologyError {
    fn from(e: TransportError) -> Self {
        MethodologyError::Transport(e.to_string())
    }
}

// ---------------------------------------------------------------------
// Wire codec: MethodologyError (Failed frames carry the typed error)
// ---------------------------------------------------------------------

impl Codec for MethodologyError {
    const BLOCK: &'static str = "methodology error";
    fn encode<W: Write>(&self, w: &mut W) -> io::Result<()> {
        match self {
            MethodologyError::Backend(m) => {
                0u8.encode(w)?;
                m.encode(w)
            }
            MethodologyError::InsufficientSyncData => 1u8.encode(w),
            MethodologyError::NoGoldenRuns => 2u8.encode(w),
            MethodologyError::EmptyProbe => 3u8.encode(w),
            MethodologyError::InvalidConfig(m) => {
                4u8.encode(w)?;
                m.encode(w)
            }
            MethodologyError::Aborted => 5u8.encode(w),
            MethodologyError::Checkpoint(m) => {
                6u8.encode(w)?;
                m.encode(w)
            }
            MethodologyError::Transport(m) => {
                7u8.encode(w)?;
                m.encode(w)
            }
            // Workers never report one: a contained panic is the
            // coordinator's own verdict on a campaign.
            MethodologyError::Panicked(_) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a contained panic has no wire encoding",
            )),
        }
    }
    fn decode(r: &mut &[u8]) -> Result<Self, CheckpointError> {
        match u8::decode(r)? {
            0 => Ok(MethodologyError::Backend(String::decode(r)?)),
            1 => Ok(MethodologyError::InsufficientSyncData),
            2 => Ok(MethodologyError::NoGoldenRuns),
            3 => Ok(MethodologyError::EmptyProbe),
            4 => Ok(MethodologyError::InvalidConfig(String::decode(r)?)),
            5 => Ok(MethodologyError::Aborted),
            6 => Ok(MethodologyError::Checkpoint(String::decode(r)?)),
            7 => Ok(MethodologyError::Transport(String::decode(r)?)),
            other => {
                cover::hit(cover::WIRE_ERROR_BAD_TAG);
                Err(CheckpointError::Corrupt(format!(
                    "unknown methodology-error tag {other}"
                )))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

const TAG_HELLO: u32 = 1;
const TAG_WELCOME: u32 = 2;
const TAG_DENY: u32 = 3;
const TAG_REQUEST: u32 = 4;
const TAG_ASSIGN: u32 = 5;
const TAG_FINISHED: u32 = 6;
const TAG_ABORT: u32 = 7;
const TAG_STARTED: u32 = 8;
const TAG_EVENT: u32 = 9;
const TAG_DONE: u32 = 10;
const TAG_FAILED: u32 = 11;
const TAG_FETCH: u32 = 12;
const TAG_ARTIFACT: u32 = 13;
const TAG_BYE: u32 = 14;
const TAG_HEARTBEAT: u32 = 15;

/// One protocol message. See the module docs for the conversation and
/// `docs/FORMATS.md` for the byte-level layout.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Frame {
    /// Worker → coordinator: first frame after the preamble; carries the
    /// worker's local [`campaign_digest`] and its position in a
    /// multi-campaign sequence (0 for standalone campaigns).
    Hello {
        /// Digest of the worker's campaign.
        digest: u64,
        /// Sequence position of the campaign (both sides of a
        /// multi-campaign run count campaigns identically; standalone
        /// uses 0).
        sequence: u64,
    },
    /// Coordinator → worker: handshake accepted; the worker's shard id
    /// and the campaign's entry count.
    Welcome {
        /// Shard id assigned to this connection (names the checkpoint
        /// subdirectory its artifacts persist under).
        shard: u32,
        /// Number of campaign entries, for a structural sanity check.
        entries: u64,
    },
    /// Coordinator → worker: handshake refused.
    Deny {
        /// Machine-readable reason ([`DENY_DIGEST_MISMATCH`], …).
        code: u8,
        /// Human-readable detail.
        detail: String,
    },
    /// Worker → coordinator: ready for an assignment.
    Request,
    /// Coordinator → worker: measure campaign entry `index`.
    Assign {
        /// Campaign index of the assigned entry.
        index: u64,
    },
    /// Coordinator → worker: no work remains; fetch results or say
    /// [`Frame::Bye`].
    Finished {
        /// True when every entry produced a report (a fail-fast error or
        /// cancellation leaves this false).
        complete: bool,
    },
    /// Coordinator → worker: the campaign was cancelled; stop asking.
    Abort,
    /// Worker → coordinator: measurement of entry `index` began.
    Started {
        /// Campaign index.
        index: u64,
        /// Kernel label (mirrors
        /// [`CampaignObserver::entry_started`]).
        label: String,
    },
    /// Worker → coordinator: one scoped progress event of the in-flight
    /// entry.
    Event {
        /// Campaign index.
        index: u64,
        /// The stage-boundary or device event.
        event: ProfilingEvent,
    },
    /// Worker → coordinator: entry `index` finished; the payload is the
    /// entry's `FGRVCKPT` artifact, byte-for-byte what
    /// [`EntryArtifact::write_to`](crate::checkpoint::EntryArtifact::write_to) persists.
    Done {
        /// Campaign index.
        index: u64,
        /// Encoded [`EntryArtifact`](crate::checkpoint::EntryArtifact).
        artifact: Vec<u8>,
    },
    /// Worker → coordinator: entry `index` failed.
    Failed {
        /// Campaign index.
        index: u64,
        /// The typed failure ([`MethodologyError::Aborted`] marks a
        /// cooperative abort, which the coordinator re-plans instead of
        /// recording).
        error: MethodologyError,
    },
    /// Worker → coordinator: send back entry `index`'s artifact (valid
    /// once [`Frame::Finished`] reported the campaign complete).
    Fetch {
        /// Campaign index.
        index: u64,
    },
    /// Coordinator → worker: reply to [`Frame::Fetch`]; encoded
    /// [`EntryArtifact`](crate::checkpoint::EntryArtifact).
    Artifact {
        /// Encoded [`EntryArtifact`](crate::checkpoint::EntryArtifact).
        artifact: Vec<u8>,
    },
    /// Worker → coordinator: the worker is leaving; close the connection.
    Bye,
    /// Either direction: liveness proof, empty payload (since wire v2).
    /// Workers pump one every [`WorkerOptions::heartbeat`] from a
    /// dedicated thread (so a long-running measurement still beats); the
    /// coordinator beats back while it deliberates an assignment.
    /// Receivers renew the peer's idle deadline and otherwise ignore it —
    /// a heartbeat is valid in any protocol state after the handshake.
    Heartbeat,
}

fn write_bytes<W: Write>(w: &mut W, bytes: &[u8]) -> io::Result<()> {
    (bytes.len() as u64).encode(w)?;
    w.write_all(bytes)
}

/// Reads a `u64`-length-prefixed byte block off a frame payload. The
/// length is checked against [`MAX_FRAME_LEN`] before any narrowing cast
/// (so a huge value cannot wrap on 32-bit targets), and nothing is
/// allocated until the payload is known to hold that many bytes.
fn read_bytes(r: &mut &[u8], block: &'static str) -> Result<Vec<u8>, CheckpointError> {
    let len = u64::decode(r)?;
    if len > MAX_FRAME_LEN {
        cover::hit(cover::WIRE_BLOCK_IMPLAUSIBLE_LEN);
        return Err(CheckpointError::Corrupt(format!(
            "implausible byte-block length {len}"
        )));
    }
    let len = usize::try_from(len)
        .map_err(|_| CheckpointError::Corrupt(format!("implausible byte-block length {len}")))?;
    Ok(crate::checkpoint::take(r, len, block)?.to_vec())
}

impl Frame {
    fn tag(&self) -> u32 {
        match self {
            Frame::Hello { .. } => TAG_HELLO,
            Frame::Welcome { .. } => TAG_WELCOME,
            Frame::Deny { .. } => TAG_DENY,
            Frame::Request => TAG_REQUEST,
            Frame::Assign { .. } => TAG_ASSIGN,
            Frame::Finished { .. } => TAG_FINISHED,
            Frame::Abort => TAG_ABORT,
            Frame::Started { .. } => TAG_STARTED,
            Frame::Event { .. } => TAG_EVENT,
            Frame::Done { .. } => TAG_DONE,
            Frame::Failed { .. } => TAG_FAILED,
            Frame::Fetch { .. } => TAG_FETCH,
            Frame::Artifact { .. } => TAG_ARTIFACT,
            Frame::Bye => TAG_BYE,
            Frame::Heartbeat => TAG_HEARTBEAT,
        }
    }

    /// Encodes the payload. Fallible, not for I/O (the sink is a `Vec`),
    /// but because a field can refuse to encode — a future
    /// `TelemetryEvent` variant this wire version has no tag for
    /// surfaces here as an error rather than a panic or a silent drop.
    fn encode_payload(&self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        let w = &mut out;
        let result: io::Result<()> = (|| match self {
            Frame::Hello { digest, sequence } => {
                digest.encode(w)?;
                sequence.encode(w)
            }
            Frame::Welcome { shard, entries } => {
                shard.encode(w)?;
                entries.encode(w)
            }
            Frame::Deny { code, detail } => {
                code.encode(w)?;
                detail.encode(w)
            }
            Frame::Request | Frame::Abort | Frame::Bye | Frame::Heartbeat => Ok(()),
            Frame::Assign { index } | Frame::Fetch { index } => index.encode(w),
            Frame::Finished { complete } => complete.encode(w),
            Frame::Started { index, label } => {
                index.encode(w)?;
                label.encode(w)
            }
            Frame::Event { index, event } => {
                index.encode(w)?;
                event.encode(w)
            }
            Frame::Done { index, artifact } => {
                index.encode(w)?;
                write_bytes(w, artifact)
            }
            Frame::Failed { index, error } => {
                index.encode(w)?;
                error.encode(w)
            }
            Frame::Artifact { artifact } => write_bytes(w, artifact),
        })();
        result.map(|()| out)
    }

    /// The coverage site lit when a frame with `tag` decodes cleanly.
    fn ok_site(tag: u32) -> u16 {
        match tag {
            TAG_HELLO => cover::WIRE_OK_HELLO,
            TAG_WELCOME => cover::WIRE_OK_WELCOME,
            TAG_DENY => cover::WIRE_OK_DENY,
            TAG_REQUEST => cover::WIRE_OK_REQUEST,
            TAG_ASSIGN => cover::WIRE_OK_ASSIGN,
            TAG_FINISHED => cover::WIRE_OK_FINISHED,
            TAG_ABORT => cover::WIRE_OK_ABORT,
            TAG_STARTED => cover::WIRE_OK_STARTED,
            TAG_EVENT => cover::WIRE_OK_EVENT,
            TAG_DONE => cover::WIRE_OK_DONE,
            TAG_FAILED => cover::WIRE_OK_FAILED,
            TAG_FETCH => cover::WIRE_OK_FETCH,
            TAG_ARTIFACT => cover::WIRE_OK_ARTIFACT,
            TAG_BYE => cover::WIRE_OK_BYE,
            _ => cover::WIRE_OK_HEARTBEAT,
        }
    }

    fn decode_payload(tag: u32, payload: &[u8]) -> Result<Frame, CheckpointError> {
        let frame = crate::checkpoint::from_bytes_with(payload, |r| match tag {
            TAG_HELLO => Ok(Frame::Hello {
                digest: u64::decode(r)?,
                sequence: u64::decode(r)?,
            }),
            TAG_WELCOME => Ok(Frame::Welcome {
                shard: u32::decode(r)?,
                entries: u64::decode(r)?,
            }),
            TAG_DENY => Ok(Frame::Deny {
                code: u8::decode(r)?,
                detail: String::decode(r)?,
            }),
            TAG_REQUEST => Ok(Frame::Request),
            TAG_ASSIGN => Ok(Frame::Assign {
                index: u64::decode(r)?,
            }),
            TAG_FINISHED => Ok(Frame::Finished {
                complete: bool::decode(r)?,
            }),
            TAG_ABORT => Ok(Frame::Abort),
            TAG_STARTED => Ok(Frame::Started {
                index: u64::decode(r)?,
                label: String::decode(r)?,
            }),
            TAG_EVENT => Ok(Frame::Event {
                index: u64::decode(r)?,
                event: ProfilingEvent::decode(r)?,
            }),
            TAG_DONE => Ok(Frame::Done {
                index: u64::decode(r)?,
                artifact: read_bytes(r, "done artifact")?,
            }),
            TAG_FAILED => Ok(Frame::Failed {
                index: u64::decode(r)?,
                error: MethodologyError::decode(r)?,
            }),
            TAG_FETCH => Ok(Frame::Fetch {
                index: u64::decode(r)?,
            }),
            TAG_ARTIFACT => Ok(Frame::Artifact {
                artifact: read_bytes(r, "artifact")?,
            }),
            TAG_BYE => Ok(Frame::Bye),
            TAG_HEARTBEAT => Ok(Frame::Heartbeat),
            other => {
                cover::hit(cover::WIRE_BAD_TAG);
                Err(CheckpointError::Corrupt(format!(
                    "unknown frame tag {other}"
                )))
            }
        })?;
        cover::hit(Frame::ok_site(tag));
        Ok(frame)
    }

    /// Writes the frame (tag, payload length, payload). The caller
    /// flushes; frames may be buffered.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let payload = self.encode_payload()?;
        w.write_all(&self.tag().to_le_bytes())?;
        w.write_all(&(payload.len() as u64).to_le_bytes())?;
        w.write_all(&payload)
    }

    /// Reads one frame previously written by [`Frame::write_to`]: the
    /// budgeted frame reader with no deadline.
    ///
    /// # Errors
    ///
    /// Returns the typed [`TransportError`] for truncated streams,
    /// implausible lengths, unknown tags, and payloads that decode short,
    /// long, or corrupt.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Frame, TransportError> {
        read_frame_budgeted(r, Duration::MAX, &mut || Ok(()))
    }
}

/// Writes the 16-byte preamble: magic, wire version, reserved.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_preamble<W: Write>(w: &mut W) -> io::Result<()> {
    w.write_all(&WIRE_MAGIC)?;
    w.write_all(&WIRE_VERSION.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())
}

/// Reads and validates a peer's preamble: the budgeted preamble reader
/// with no deadline.
///
/// # Errors
///
/// Returns [`TransportError::BadMagic`] as soon as the magic arrives on a
/// foreign peer, [`TransportError::Truncated`] when the stream ends inside
/// the preamble, and otherwise [`TransportError::UnsupportedVersion`] on a
/// differently-versioned peer.
pub fn read_preamble<R: Read>(r: &mut R) -> Result<(), TransportError> {
    read_preamble_budgeted(r, Duration::MAX, &mut || Ok(()))
}

// ---------------------------------------------------------------------
// Deadline-tolerant reads
// ---------------------------------------------------------------------
//
// A socket with a read timeout surfaces `WouldBlock`/`TimedOut` mid-read;
// `read_exact` would lose any bytes it had already consumed, so these
// helpers accumulate into caller-held buffers — a deadline tick never
// discards partial progress, and only *silence* (no bytes at all for the
// whole idle budget) abandons the connection. Every arriving byte resets
// the budget, so heartbeats are all a live-but-slow peer needs.

/// Fills `buf` exactly, tolerating timeout ticks. `tick` runs on every
/// timeout wakeup (for cancellation or eviction checks); returning an
/// error from it abandons the read.
fn fill_budgeted<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    block: &'static str,
    idle: Duration,
    tick: &mut dyn FnMut() -> Result<(), TransportError>,
) -> Result<(), TransportError> {
    let mut filled = 0;
    let mut last_progress = Instant::now();
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(TransportError::Truncated(block)),
            Ok(n) => {
                filled += n;
                last_progress = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                tick()?;
                let silent_for = last_progress.elapsed();
                if silent_for >= idle {
                    return Err(TransportError::DeadlineLapsed { silent_for });
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Reads and validates a peer's preamble over a deadline-carrying stream.
/// Validates the magic as soon as its 8 bytes arrive (a foreign peer is
/// rejected without waiting for a full preamble it will never send); the
/// version is checked once all 16 bytes are in.
fn read_preamble_budgeted<R: Read>(
    r: &mut R,
    idle: Duration,
    tick: &mut dyn FnMut() -> Result<(), TransportError>,
) -> Result<(), TransportError> {
    let mut magic = [0u8; 8];
    fill_budgeted(r, &mut magic, "preamble magic", idle, tick)?;
    if magic != WIRE_MAGIC {
        cover::hit(cover::WIRE_PREAMBLE_BAD_MAGIC);
        return Err(TransportError::BadMagic(magic));
    }
    let mut version = [0u8; 4];
    fill_budgeted(r, &mut version, "preamble version", idle, tick)?;
    let mut reserved = [0u8; 4];
    fill_budgeted(r, &mut reserved, "preamble reserved", idle, tick)?;
    let version = u32::from_le_bytes(version);
    if version != WIRE_VERSION {
        cover::hit(cover::WIRE_PREAMBLE_BAD_VERSION);
        return Err(TransportError::UnsupportedVersion(version));
    }
    cover::hit(cover::WIRE_PREAMBLE_OK);
    Ok(())
}

/// Reads one frame over a deadline-carrying stream: the length ceiling is
/// checked before allocation and the payload is read in chunks; timeout
/// ticks run `tick` and only sustained silence fails.
fn read_frame_budgeted<R: Read>(
    r: &mut R,
    idle: Duration,
    tick: &mut dyn FnMut() -> Result<(), TransportError>,
) -> Result<Frame, TransportError> {
    let mut tag = [0u8; 4];
    fill_budgeted(r, &mut tag, "frame tag", idle, tick)?;
    let mut len = [0u8; 8];
    fill_budgeted(r, &mut len, "frame length", idle, tick)?;
    let tag = u32::from_le_bytes(tag);
    let len = u64::from_le_bytes(len);
    if len > MAX_FRAME_LEN {
        cover::hit(cover::WIRE_FRAME_IMPLAUSIBLE_LEN);
        return Err(TransportError::Corrupt(format!(
            "implausible frame length {len}"
        )));
    }
    let len = usize::try_from(len)
        .map_err(|_| TransportError::Corrupt(format!("implausible frame length {len}")))?;
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    let mut remaining = len;
    let mut chunk = [0u8; 4096];
    while remaining > 0 {
        let take = remaining.min(chunk.len());
        fill_budgeted(r, &mut chunk[..take], "frame payload", idle, tick)?;
        payload.extend_from_slice(&chunk[..take]);
        remaining -= take;
    }
    Ok(Frame::decode_payload(tag, &payload)?)
}

/// Reads the next non-heartbeat frame from a stream, tolerating timeout
/// ticks up to `idle` of total byte-silence — the exact read loop a
/// worker runs between protocol states (heartbeats renew the deadline by
/// arriving, then vanish before the caller sees them).
///
/// Public so stream consumers outside the coordinator/worker pair — the
/// `fgrv-fuzz` wire harness, protocol probes, tests — can exercise the
/// production read path, v2 heartbeat skipping and deadline accounting
/// included, instead of approximating it with [`Frame::read_from`].
///
/// # Errors
///
/// As [`Frame::read_from`], plus [`TransportError::DeadlineLapsed`] when
/// the stream stays byte-silent past `idle`.
pub fn read_next_frame<R: Read>(r: &mut R, idle: Duration) -> Result<Frame, TransportError> {
    loop {
        match read_frame_budgeted(r, idle, &mut || Ok(()))? {
            Frame::Heartbeat => cover::hit(cover::WIRE_HEARTBEAT_SKIPPED),
            frame => return Ok(frame),
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

struct CoordState {
    queue: VecDeque<usize>,
    in_flight: usize,
    /// Reports, errors and evictions as they arrive (restored reports
    /// prefilled); settled into the serve's result at the end.
    outcome: CampaignOutcome,
    /// No further assignments: a fail-fast failure, a cancellation, or a
    /// persistence failure fired.
    halted: bool,
    next_shard: u32,
    connections: usize,
    /// The first panic a connection contained; it halts the serve and
    /// becomes its error.
    panic: Option<String>,
}

impl CoordState {
    /// True when no entry is running and none will be assigned again.
    fn over(&self) -> bool {
        self.in_flight == 0 && (self.queue.is_empty() || self.halted)
    }
}

struct CoordShared<'a> {
    campaign: &'a Campaign,
    /// The checkpoint: every persistence decision is the ledger's.
    ledger: &'a Ledger,
    observer: &'a dyn CampaignObserver,
    cancel: &'a CancellationToken,
    policy: ErrorPolicy,
    digest: u64,
    sequence: u64,
    /// Maximum peer byte-silence before eviction.
    idle: Duration,
    /// Cadence of coordinator → worker heartbeats while an assignment
    /// deliberates (derived from `idle`, so a worker with a matching
    /// deadline always hears several beats per budget).
    heartbeat: Duration,
    state: Mutex<CoordState>,
    cond: Condvar,
}

/// Serves one submission on `listener` until every entry is measured (or
/// the campaign fails/cancels), persisting into its directory exactly as
/// a [`crate::executor::CheckpointMode::Fresh`] run would, with the
/// submission index as the wire sequence number. A directory that already
/// checkpoints the campaign has its `Done` entries restored and only the
/// rest served. Per-connection faults re-plan instead of failing the
/// serve; only the listener itself or the checkpoint can.
fn serve(
    listener: &TcpListener,
    submission: &Submission,
    idle: Duration,
) -> MethodologyResult<CampaignOutcome> {
    let campaign = &submission.campaign;
    let observer: &dyn CampaignObserver = match &submission.observer {
        Some(o) => o.as_ref(),
        None => &NoopCampaignObserver,
    };
    let plan = CampaignManifest::plan_remote(campaign);
    let (ledger, restored, plan) =
        Ledger::open(&submission.dir, campaign, Opening::RestoreIfPresent(plan))?;
    let shared = CoordShared {
        campaign,
        ledger: &ledger,
        observer,
        cancel: &submission.cancel,
        policy: submission.policy,
        digest: ledger.digest(),
        sequence: submission.id,
        idle,
        heartbeat: (idle / 4).clamp(POLL_INTERVAL, DEFAULT_HEARTBEAT_INTERVAL),
        state: Mutex::new(CoordState {
            queue: plan.iter().copied().collect(),
            in_flight: 0,
            outcome: restored,
            halted: false,
            next_shard: 0,
            connections: 0,
            panic: None,
        }),
        cond: Condvar::new(),
    };

    if !plan.is_empty() {
        accept_loop(listener, &shared).map_err(MethodologyError::from)?;
    }

    let state = shared.state.into_inner().expect("coordinator state");
    if let Some(message) = state.panic {
        ledger.close()?;
        return Err(MethodologyError::Panicked(message));
    }
    let mut outcome = state.outcome;
    outcome.settle(&plan, observer);
    ledger.close()?;
    Ok(outcome)
}

fn accept_loop(listener: &TcpListener, shared: &CoordShared<'_>) -> Result<(), TransportError> {
    listener.set_nonblocking(true).map_err(io_err)?;
    std::thread::scope(|scope| -> Result<(), TransportError> {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(false).map_err(io_err)?;
                    shared.lock().connections += 1;
                    scope.spawn(move || serve_connection(shared, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    {
                        let mut state = shared.lock();
                        // Cancellation and persistence failures must be
                        // observed here too: with no worker connected
                        // nothing else ever sets `halted`, and the serve
                        // has to return even if entries are still queued.
                        if shared.halting() {
                            state.halted = true;
                        }
                        if state.over() && state.connections == 0 {
                            return Ok(());
                        }
                    }
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) => return Err(TransportError::Io(e)),
            }
        }
    })
}

fn io_err(e: io::Error) -> TransportError {
    TransportError::Io(e)
}

impl<'a> CoordShared<'a> {
    fn lock(&self) -> std::sync::MutexGuard<'_, CoordState> {
        self.state.lock().expect("coordinator state lock")
    }

    /// Runs `f` behind an unwind boundary. A panic halts the serve, and
    /// its message becomes the serve's error once the connections drain.
    /// No observer is ever called under the state lock, so a panicking
    /// observer leaves the lock unpoisoned for the other handlers.
    fn contain<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        match panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => Some(r),
            Err(payload) => {
                let mut state = self.lock();
                state.halted = true;
                state.panic.get_or_insert_with(|| panic_message(&*payload));
                None
            }
        }
    }

    /// True once no further entry may be assigned: the campaign was
    /// cancelled or its checkpoint broke.
    fn halting(&self) -> bool {
        self.cancel.is_aborted() || self.ledger.failed()
    }
}

/// The message a panic was raised with.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    let text = payload.downcast_ref::<&str>().copied();
    text.or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("panic with a non-string payload")
        .to_string()
}

/// Per-connection coordinator logic. Never returns an error or unwinds
/// into the accept loop: a faulty connection re-plans its in-flight entry
/// and dies alone, and a panicking one also halts the serve.
fn serve_connection(shared: &CoordShared<'_>, stream: TcpStream) {
    let mut current: Option<usize> = None;
    let result = shared.contain(|| handle_connection(shared, stream, &mut current));
    let deadline_lapsed = matches!(result, Some(Err(TransportError::DeadlineLapsed { .. })));
    let mut state = shared.lock();
    let mut evicted = None;
    if let Some(index) = current.take() {
        // The worker vanished mid-entry: put the entry back at the front
        // of the queue so another worker picks it up promptly.
        state.queue.push_front(index);
        state.in_flight -= 1;
        if deadline_lapsed {
            state.outcome.evictions.push(index);
            evicted = Some(index);
        }
    }
    state.connections -= 1;
    drop(state);
    if let Some(index) = evicted {
        shared.contain(|| shared.observer.entry_evicted(index));
    }
    shared.cond.notify_all();
}

fn handle_connection(
    shared: &CoordShared<'_>,
    stream: TcpStream,
    current: &mut Option<usize>,
) -> Result<(), TransportError> {
    stream.set_nodelay(true).ok();
    // Deadline discipline: reads wake every poll tick so silence is
    // *observed* instead of wedging the thread; writes cannot block past
    // the idle budget either (a dead peer with a full TCP window).
    stream
        .set_read_timeout(Some(read_poll(shared.idle)))
        .map_err(io_err)?;
    stream
        .set_write_timeout(Some(shared.idle))
        .map_err(io_err)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(io_err)?);
    let mut writer = BufWriter::new(stream);

    // Handshake: the worker leads with its preamble and Hello; the
    // coordinator answers with its preamble and Welcome or Deny.
    read_preamble_budgeted(&mut reader, shared.idle, &mut || Ok(()))?;
    let hello = read_frame_budgeted(&mut reader, shared.idle, &mut || Ok(()))?;
    let (digest, sequence) = match hello {
        Frame::Hello { digest, sequence } => (digest, sequence),
        other => {
            return Err(TransportError::Protocol(format!(
                "expected Hello, got {other:?}"
            )))
        }
    };
    write_preamble(&mut writer).map_err(io_err)?;
    let deny = if sequence < shared.sequence {
        Some((
            DENY_SEQUENCE_PASSED,
            format!(
                "coordinator is already serving campaign #{} (worker asked for #{sequence})",
                shared.sequence
            ),
        ))
    } else if sequence > shared.sequence {
        Some((
            DENY_SEQUENCE_EARLY,
            format!(
                "coordinator is still serving campaign #{} (worker asked for #{sequence}); \
                 reconnect shortly",
                shared.sequence
            ),
        ))
    } else if digest != shared.digest {
        Some((
            DENY_DIGEST_MISMATCH,
            format!(
                "campaign digest mismatch (worker has {digest:016x}, coordinator \
                 serves {:016x})",
                shared.digest
            ),
        ))
    } else {
        None
    };
    if let Some((code, detail)) = deny {
        Frame::Deny {
            code,
            detail: detail.clone(),
        }
        .write_to(&mut writer)
        .map_err(io_err)?;
        writer.flush().map_err(io_err)?;
        return Err(if code == DENY_DIGEST_MISMATCH {
            TransportError::DigestMismatch {
                expected: shared.digest,
                found: digest,
            }
        } else {
            TransportError::Denied { code, detail }
        });
    }
    let shard = {
        let mut state = shared.lock();
        let shard = state.next_shard;
        state.next_shard += 1;
        shared.ledger.set_workers(state.next_shard);
        shard
    };
    Frame::Welcome {
        shard,
        entries: shared.campaign.len() as u64,
    }
    .write_to(&mut writer)
    .map_err(io_err)?;
    writer.flush().map_err(io_err)?;

    loop {
        // Any frame — heartbeats included — restarts the silence budget;
        // a lapse surfaces as `DeadlineLapsed` and evicts the assignment.
        match read_frame_budgeted(&mut reader, shared.idle, &mut || Ok(()))? {
            Frame::Request => loop {
                match next_assignment_step(shared, current, shared.heartbeat) {
                    Some(reply) => {
                        reply.write_to(&mut writer).map_err(io_err)?;
                        writer.flush().map_err(io_err)?;
                        break;
                    }
                    None => {
                        // Still deliberating (another worker holds the
                        // queue's tail): beat so the waiting worker can
                        // tell a thinking coordinator from a dead one.
                        Frame::Heartbeat.write_to(&mut writer).map_err(io_err)?;
                        writer.flush().map_err(io_err)?;
                    }
                }
            },
            Frame::Started { index, label } => {
                let index = expect_current(shared, *current, index)?;
                shared.observer.entry_started(index, &label);
            }
            Frame::Event { index, event } => {
                let index = expect_current(shared, *current, index)?;
                shared.observer.entry_event(index, &event);
            }
            Frame::Done { index, artifact } => {
                let index = expect_current(shared, *current, index)?;
                entry_done(shared, shard, index, &artifact)?;
                *current = None;
                shared.cond.notify_all();
            }
            Frame::Failed { index, error } => {
                let index = expect_current(shared, *current, index)?;
                // Settled before the observer hears of it, so a panicking
                // observer cannot have the entry released twice.
                *current = None;
                entry_failed(shared, index, error);
                shared.cond.notify_all();
            }
            Frame::Fetch { index } => {
                let reply = fetch_artifact(shared, index)?;
                reply.write_to(&mut writer).map_err(io_err)?;
                writer.flush().map_err(io_err)?;
            }
            Frame::Bye => return Ok(()),
            Frame::Heartbeat => {}
            other => {
                return Err(TransportError::Protocol(format!(
                    "unexpected worker frame {other:?}"
                )))
            }
        }
    }
}

/// Waits up to `budget` for an entry to become assignable, the campaign
/// to end, or a cancellation; `Some` is the frame to send, `None` means
/// the budget ran out undecided (the caller heartbeats and tries again,
/// so the waiting worker's own idle deadline keeps getting fed).
fn next_assignment_step(
    shared: &CoordShared<'_>,
    current: &mut Option<usize>,
    budget: Duration,
) -> Option<Frame> {
    let started = Instant::now();
    let mut state = shared.lock();
    loop {
        if shared.halting() {
            state.halted = true;
            return Some(Frame::Abort);
        }
        if !state.halted {
            if let Some(index) = state.queue.pop_front() {
                state.in_flight += 1;
                *current = Some(index);
                return Some(Frame::Assign {
                    index: index as u64,
                });
            }
        }
        if state.over() {
            return Some(Frame::Finished {
                complete: state.outcome.is_complete(),
            });
        }
        if started.elapsed() >= budget {
            return None;
        }
        let (next, _timeout) = shared
            .cond
            .wait_timeout(state, POLL_INTERVAL)
            .expect("coordinator state lock");
        state = next;
    }
}

/// Validates that a worker frame names the entry it was assigned.
fn expect_current(
    shared: &CoordShared<'_>,
    current: Option<usize>,
    index: u64,
) -> Result<usize, TransportError> {
    let index = index as usize;
    if index >= shared.campaign.len() {
        return Err(TransportError::Protocol(format!(
            "frame names entry {index} but the campaign has only {} entries",
            shared.campaign.len()
        )));
    }
    if current != Some(index) {
        return Err(TransportError::Protocol(format!(
            "frame names entry {index} but the connection was assigned {current:?}"
        )));
    }
    Ok(index)
}

/// Records a finished entry: the artifact must pass the entry self-check
/// (else it is a connection fault and the entry is re-planned), then the
/// ledger persists it exactly as a local sharded run would. A ledger
/// failure (a re-measured entry disagreeing with a persisted copy, or a
/// failed write) is a checkpoint fault, not a connection fault:
/// measurement is deterministic, so re-planning would reproduce it
/// forever, and the serve halts instead.
fn entry_done(
    shared: &CoordShared<'_>,
    shard: u32,
    index: usize,
    bytes: &[u8],
) -> Result<(), TransportError> {
    // Parse the received frame payload in place: the three profile
    // stores stay borrowed views over `bytes`, so validating the
    // artifact does not materialise its per-column `Vec`s.
    let view = EntryArtifactView::parse(bytes)?;
    check_entry_view(
        &view,
        index,
        shared.digest,
        &shared.campaign.entries()[index].desc.name,
        format_args!("artifact from shard {shard}"),
    )?;
    // One decode materialises the report for the in-memory record; the
    // file gets the received bytes verbatim (the encoding is canonical,
    // so they are exactly what a local run would have written).
    let report = view.to_report();
    shared.ledger.record_done(index, shard, bytes);
    shared.observer.entry_finished(index, &report);
    let mut state = shared.lock();
    state.in_flight -= 1;
    state.outcome.reports[index] = Some(report);
    Ok(())
}

/// Records a worker-reported failure: aborts re-plan, real errors follow
/// the error policy.
fn entry_failed(shared: &CoordShared<'_>, index: usize, error: MethodologyError) {
    // The status is durable before the entry can be claimed again.
    shared.ledger.record_failed(index, &error);
    let mut state = shared.lock();
    state.in_flight -= 1;
    if matches!(error, MethodologyError::Aborted) && !shared.cancel.is_aborted() {
        // A worker being shut down (its local cancellation) is a
        // transport-level fault, not a measurement verdict: re-plan.
        state.queue.push_front(index);
    } else {
        state.outcome.errors.push((index, error.clone()));
        if shared.policy == ErrorPolicy::FailFast {
            state.halted = true;
        }
    }
    drop(state);
    shared.observer.entry_failed(index, &error);
}

/// Serves a Fetch request by re-encoding the in-memory report: the
/// encoding is canonical, so these are the bytes the entry file holds.
fn fetch_artifact(shared: &CoordShared<'_>, index: u64) -> Result<Frame, TransportError> {
    let index = index as usize;
    let state = shared.lock();
    let Some(Some(report)) = state.outcome.reports.get(index) else {
        return Err(TransportError::Protocol(format!(
            "fetch for entry {index}, which has no report"
        )));
    };
    let bytes = crate::checkpoint::encode_entry_bytes(index as u32, shared.digest, report);
    Ok(Frame::Artifact { artifact: bytes })
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

/// Knobs for [`work`].
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Leave (with a clean [`Frame::Bye`]) after measuring this many
    /// entries; `None` works until the coordinator says the campaign is
    /// over.
    pub max_entries: Option<usize>,
    /// After the campaign completes, download every entry artifact so
    /// [`WorkerSummary::reports`] holds the full campaign-ordered report
    /// set (what the bench harness uses to render identical artefacts on
    /// every node).
    pub fetch_reports: bool,
    /// The wire sequence number of the campaign to work: its
    /// [`CampaignTicket::sequence`], i.e. its submission index on the
    /// service (0 for a service's first campaign). A worker that asks for
    /// a campaign the service has already finished is denied with
    /// [`DENY_SEQUENCE_PASSED`]; one that asks ahead of the campaign now
    /// serving, with [`DENY_SEQUENCE_EARLY`].
    pub sequence: u64,
    /// Maximum coordinator byte-silence (no reply frames, no heartbeats)
    /// before this worker abandons the connection with
    /// [`TransportError::DeadlineLapsed`]. Default
    /// [`DEFAULT_IDLE_TIMEOUT`].
    pub io_timeout: Duration,
    /// Interval between this worker's [`Frame::Heartbeat`] frames
    /// (pumped from a dedicated thread, so long measurements still
    /// beat). Must sit well under the coordinator's idle deadline.
    /// Default [`DEFAULT_HEARTBEAT_INTERVAL`].
    pub heartbeat: Duration,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            max_entries: None,
            fetch_reports: false,
            sequence: 0,
            io_timeout: DEFAULT_IDLE_TIMEOUT,
            heartbeat: DEFAULT_HEARTBEAT_INTERVAL,
        }
    }
}

/// What a worker did during one [`work`] call.
#[derive(Debug, Clone)]
pub struct WorkerSummary {
    /// Shard id the coordinator assigned this connection.
    pub shard: u32,
    /// Campaign indices this worker measured and delivered, in
    /// completion order.
    pub completed: Vec<usize>,
    /// True when the coordinator reported the campaign complete before
    /// this worker left.
    pub campaign_complete: bool,
    /// True when the coordinator cancelled the campaign.
    pub aborted: bool,
    /// The full campaign-ordered report set, when
    /// [`WorkerOptions::fetch_reports`] was set and the campaign
    /// completed.
    pub reports: Option<Vec<KernelPowerReport>>,
}

/// Forwards one in-flight entry's lifecycle onto the wire (and to the
/// caller's local observer).
struct WireObserver<'a, W: Write> {
    writer: &'a Mutex<W>,
    inner: &'a dyn CampaignObserver,
    failure: Mutex<Option<io::Error>>,
}

impl<W: Write> WireObserver<'_, W> {
    fn send(&self, frame: Frame, flush: bool) {
        let mut w = self.writer.lock().expect("worker writer lock");
        let result = frame.write_to(&mut *w).and_then(|()| {
            // Entry and stage boundaries flush so the coordinator sees
            // live progress promptly; the (much more frequent) device
            // events ride the buffer and drain with the next flush.
            if flush {
                w.flush()
            } else {
                Ok(())
            }
        });
        if let Err(e) = result {
            let mut slot = self.failure.lock().expect("worker failure lock");
            if slot.is_none() {
                *slot = Some(e);
            }
        }
    }
}

impl<W: Write + Send> CampaignObserver for WireObserver<'_, W> {
    fn entry_started(&self, index: usize, label: &str) {
        self.send(
            Frame::Started {
                index: index as u64,
                label: label.to_string(),
            },
            true,
        );
        self.inner.entry_started(index, label);
    }

    fn entry_event(&self, index: usize, event: &ProfilingEvent) {
        let boundary = matches!(
            event,
            ProfilingEvent::StageStarted { .. } | ProfilingEvent::StageFinished { .. }
        );
        self.send(
            Frame::Event {
                index: index as u64,
                event: event.clone(),
            },
            boundary,
        );
        self.inner.entry_event(index, event);
    }

    fn entry_finished(&self, index: usize, report: &KernelPowerReport) {
        // The Done frame (with the encoded artifact) is sent by the work
        // loop, which owns the artifact construction.
        self.inner.entry_finished(index, report);
    }

    fn entry_failed(&self, index: usize, error: &MethodologyError) {
        // Likewise: the work loop sends the Failed frame.
        self.inner.entry_failed(index, error);
    }
}

/// Pumps [`Frame::Heartbeat`] every `interval` until `stop`'s sender
/// drops (nothing is ever sent on it). Runs for the whole connection
/// (the writer mutex keeps frames whole), so a worker blocked in a long
/// measurement *or* waiting out another worker's long entry keeps
/// proving liveness either way. A write failure just stops the pump —
/// the work loop hits the same fault on its own next write or read and
/// surfaces it typed.
fn heartbeat_pump<W: Write>(writer: &Mutex<W>, stop: &mpsc::Receiver<()>, interval: Duration) {
    while let Err(mpsc::RecvTimeoutError::Timeout) = stop.recv_timeout(interval) {
        let mut w = writer.lock().expect("worker writer lock");
        let sent = Frame::Heartbeat.write_to(&mut *w).and_then(|()| w.flush());
        drop(w);
        if sent.is_err() {
            return;
        }
    }
}

/// Connects to a coordinator, retrying with exponential backoff while the
/// address refuses — the coordinator may simply not have started yet
/// (multi-node launches are not synchronized, a multi-campaign process
/// binds its listener lazily at its first serve, and a
/// [`CampaignService`] may be between campaigns). Backoff starts at 10 ms
/// and doubles to a 1 s ceiling, so a worker riding out a long gap costs
/// one probe per second instead of a tight retry loop.
///
/// # Errors
///
/// Returns the last connection error once `timeout` elapses.
pub fn connect_with_retry<A: ToSocketAddrs>(addr: A, timeout: Duration) -> io::Result<TcpStream> {
    let started = Instant::now();
    let mut backoff = Duration::from_millis(10);
    loop {
        match TcpStream::connect(&addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                let elapsed = started.elapsed();
                if elapsed >= timeout {
                    return Err(e);
                }
                std::thread::sleep(backoff.min(timeout - elapsed));
                backoff = (backoff * 2).min(Duration::from_secs(1));
            }
        }
    }
}

/// Runs the worker half of a cross-node campaign over `stream`: handshake
/// (digest-verified), then a pull loop — request an entry, measure it via
/// the executor's per-slot path (bit-identical to a local run), stream
/// progress events, deliver the artifact — until the coordinator reports
/// the campaign over, `cancel` fires, or
/// [`WorkerOptions::max_entries`] is reached.
///
/// `observer` sees this worker's slots exactly as a local campaign
/// observer would; `cancel` aborts an in-flight measurement cooperatively
/// (the coordinator re-plans that entry on another worker).
///
/// # Errors
///
/// Returns the typed [`TransportError`] when the connection drops, the
/// coordinator denies the handshake, or the protocol is violated.
pub fn work<F: crate::backend::BackendFactory>(
    stream: TcpStream,
    campaign: &Campaign,
    factory: &F,
    observer: &dyn CampaignObserver,
    cancel: &CancellationToken,
    options: &WorkerOptions,
) -> Result<WorkerSummary, TransportError> {
    stream.set_nodelay(true).ok();
    let idle = options.io_timeout;
    // Same deadline discipline as the coordinator: reads tick instead of
    // wedging, writes cannot block past the idle budget.
    stream
        .set_read_timeout(Some(read_poll(idle)))
        .map_err(io_err)?;
    stream.set_write_timeout(Some(idle)).map_err(io_err)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(io_err)?);
    let writer = Mutex::new(BufWriter::new(stream));
    let digest = campaign_digest(campaign);

    let send = |frame: Frame| -> Result<(), TransportError> {
        let mut w = writer.lock().expect("worker writer lock");
        frame.write_to(&mut *w).map_err(io_err)?;
        w.flush().map_err(io_err)
    };

    {
        let mut w = writer.lock().expect("worker writer lock");
        write_preamble(&mut *w).map_err(io_err)?;
        Frame::Hello {
            digest,
            sequence: options.sequence,
        }
        .write_to(&mut *w)
        .map_err(io_err)?;
        w.flush().map_err(io_err)?;
    }
    read_preamble_budgeted(&mut reader, idle, &mut || Ok(()))?;
    let shard = match read_next_frame(&mut reader, idle)? {
        Frame::Welcome { shard, entries } => {
            if entries != campaign.len() as u64 {
                return Err(TransportError::Protocol(format!(
                    "coordinator serves {entries} entries but the local campaign has {}",
                    campaign.len()
                )));
            }
            shard
        }
        Frame::Deny { code, detail } => return Err(TransportError::Denied { code, detail }),
        other => {
            return Err(TransportError::Protocol(format!(
                "expected Welcome or Deny, got {other:?}"
            )))
        }
    };

    let mut summary = WorkerSummary {
        shard,
        completed: Vec::new(),
        campaign_complete: false,
        aborted: false,
        reports: None,
    };

    // The heartbeat pump shares the frame-atomic writer mutex for the
    // rest of the connection. It stops when `_beating` drops — at the end
    // of the scope, or as a panic in the work loop unwinds through it —
    // so the scope always joins it before the writer can be dropped.
    let run = std::thread::scope(|scope| {
        let (_beating, stop) = mpsc::channel::<()>();
        let pump_writer = &writer;
        scope.spawn(move || heartbeat_pump(pump_writer, &stop, options.heartbeat));
        (|| -> Result<(), TransportError> {
            loop {
                if cancel.is_aborted() {
                    break;
                }
                if options
                    .max_entries
                    .is_some_and(|max| summary.completed.len() >= max)
                {
                    break;
                }
                send(Frame::Request)?;
                match read_next_frame(&mut reader, idle)? {
                    Frame::Assign { index } => {
                        let index = index as usize;
                        if index >= campaign.len() {
                            return Err(TransportError::Protocol(format!(
                                "assigned entry {index} but the campaign has only {} entries",
                                campaign.len()
                            )));
                        }
                        let wire = WireObserver {
                            writer: &writer,
                            inner: observer,
                            failure: Mutex::new(None),
                        };
                        let result = crate::executor::profile_slot(
                            campaign, factory, index, &wire, cancel, None,
                        );
                        if let Some(e) = wire.failure.into_inner().expect("worker failure lock") {
                            return Err(TransportError::Io(e));
                        }
                        match result {
                            Ok(report) => {
                                send(Frame::Done {
                                    index: index as u64,
                                    artifact: crate::checkpoint::encode_entry_bytes(
                                        index as u32,
                                        digest,
                                        &report,
                                    ),
                                })?;
                                summary.completed.push(index);
                            }
                            Err(error) => {
                                send(Frame::Failed {
                                    index: index as u64,
                                    error,
                                })?;
                            }
                        }
                    }
                    Frame::Finished { complete } => {
                        summary.campaign_complete = complete;
                        break;
                    }
                    Frame::Abort => {
                        summary.aborted = true;
                        break;
                    }
                    other => {
                        return Err(TransportError::Protocol(format!(
                            "expected Assign, Finished, or Abort, got {other:?}"
                        )))
                    }
                }
            }

            if options.fetch_reports && summary.campaign_complete {
                let mut reports = Vec::with_capacity(campaign.len());
                for index in 0..campaign.len() {
                    send(Frame::Fetch {
                        index: index as u64,
                    })?;
                    match read_next_frame(&mut reader, idle)? {
                        Frame::Artifact { artifact } => {
                            // Validate over the frame buffer, decode the
                            // report once — no owned intermediate artifact.
                            let view = EntryArtifactView::parse(&artifact)?;
                            if view.index as usize != index {
                                return Err(TransportError::Protocol(format!(
                                    "fetched artifact claims index {} (wanted {index})",
                                    view.index
                                )));
                            }
                            if view.config_digest != digest {
                                return Err(TransportError::DigestMismatch {
                                    expected: digest,
                                    found: view.config_digest,
                                });
                            }
                            reports.push(view.to_report());
                        }
                        other => {
                            return Err(TransportError::Protocol(format!(
                                "expected Artifact, got {other:?}"
                            )))
                        }
                    }
                }
                summary.reports = Some(reports);
            }

            send(Frame::Bye)
        })()
    });
    run?;
    Ok(summary)
}

// ---------------------------------------------------------------------
// Campaign service
// ---------------------------------------------------------------------

/// Knobs for [`CampaignService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Idle deadline applied to every served campaign: a connected
    /// worker that stays byte-silent this long (no frames, no heartbeats)
    /// is presumed wedged, its connection is abandoned, and its in-flight
    /// assignment is evicted and re-planned onto the front of the queue.
    /// Workers heartbeat every [`DEFAULT_HEARTBEAT_INTERVAL`] by default,
    /// so the deadline should sit well above that; the default is
    /// [`DEFAULT_IDLE_TIMEOUT`].
    pub idle_timeout: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
        }
    }
}

/// Where a submitted campaign sits in the service's pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignPhase {
    /// Waiting behind earlier submissions.
    Queued,
    /// Being served right now (workers are connecting / measuring).
    Serving,
    /// Finished; [`CampaignTicket::wait`] returns without blocking.
    Done,
}

/// One queued campaign, owned by the service thread once popped.
struct Submission {
    id: u64,
    campaign: Campaign,
    dir: PathBuf,
    policy: ErrorPolicy,
    observer: Option<Arc<dyn CampaignObserver + Send + Sync>>,
    cancel: CancellationToken,
    slot: Arc<TicketSlot>,
}

/// A campaign's phase and, once served, its outcome.
type SlotState = (CampaignPhase, Option<MethodologyResult<CampaignOutcome>>);

/// One campaign's [`SlotState`], shared by its tickets and, until it has
/// been served, its [`Submission`]: a finished campaign lives only in its
/// tickets.
struct TicketSlot {
    state: Mutex<SlotState>,
    done: Condvar,
}

impl TicketSlot {
    fn lock(&self) -> std::sync::MutexGuard<'_, SlotState> {
        self.state.lock().expect("campaign service state")
    }
}

struct ServiceShared {
    listener: TcpListener,
    idle: Duration,
    state: Mutex<ServiceState>,
    cond: Condvar,
}

struct ServiceState {
    submissions: VecDeque<Submission>,
    /// The token of the campaign being served, for `Drop` to cancel.
    serving: Option<CancellationToken>,
    /// Campaigns submitted so far: the next one's sequence number.
    submitted: u64,
    draining: bool,
}

impl ServiceShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, ServiceState> {
        self.state.lock().expect("campaign service state")
    }
}

/// Handle on one campaign submitted to a [`CampaignService`].
///
/// Clonable and sendable; any holder can watch the campaign's
/// [`phase`](CampaignTicket::phase), [`cancel`](CampaignTicket::cancel)
/// it, or [`wait`](CampaignTicket::wait) for its outcome. A finished
/// campaign lives only in its tickets, and is freed with the last one;
/// a ticket does not keep the service or its port.
#[derive(Clone)]
pub struct CampaignTicket {
    sequence: u64,
    cancel: CancellationToken,
    slot: Arc<TicketSlot>,
}

impl CampaignTicket {
    /// The wire sequence number this campaign was assigned (submission
    /// order, starting at 0). Workers must pass the same number in
    /// [`WorkerOptions::sequence`] so the handshake routes them to this
    /// campaign (early arrivals are told to retry, late ones that their
    /// campaign already completed).
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// Where the campaign currently sits.
    pub fn phase(&self) -> CampaignPhase {
        self.slot.lock().0
    }

    /// Cancels the campaign: a queued submission returns an
    /// all-skipped outcome once its turn comes; a serving one stops
    /// assigning at once, and returns once the entries already running
    /// on remote workers drain.
    pub fn cancel(&self) {
        self.cancel.abort();
    }

    /// Blocks until the campaign finishes and returns its outcome,
    /// cloned so every ticket holder can read it. The outcome lives in
    /// the tickets alone, so this works after the service is dropped
    /// too. The outcome, the checkpoint directory and everything
    /// [`crate::checkpoint::gather`] derives from it are byte-identical
    /// to a single-node run of the same campaign. Worker-reported
    /// measurement errors stay inside the outcome.
    ///
    /// # Errors
    ///
    /// Returns [`MethodologyError::Checkpoint`] when the directory cannot
    /// be created, verified, or written,
    /// [`MethodologyError::Transport`] when the listener itself fails
    /// (per-connection faults re-plan instead of failing the campaign),
    /// and [`MethodologyError::Panicked`] when code serving the campaign
    /// (an observer, say) panicked. The directory is then a checkpoint
    /// that a [`crate::executor::CheckpointMode::Resume`] run completes.
    pub fn wait(&self) -> MethodologyResult<CampaignOutcome> {
        let mut state = self.slot.lock();
        loop {
            if let Some(outcome) = &state.1 {
                return outcome.clone();
            }
            state = self.slot.done.wait(state).expect("campaign service state");
        }
    }
}

/// An always-on, multi-campaign coordinator daemon: one listener, many
/// campaigns served back to back by a dedicated service thread.
///
/// Each [`submit`](CampaignService::submit) enqueues a campaign and
/// returns a [`CampaignTicket`]; the service thread pops submissions in
/// order and serves each with the submission index as its wire sequence
/// number, so the sequence-negotiated handshake routes every worker to
/// the right campaign without the listener ever rebinding. Workers may
/// connect, leave, and reconnect at any time (at least one must
/// eventually connect for a campaign to make progress). Per-connection
/// faults, silent-worker evictions, and worker reconnects are all
/// absorbed per campaign — a wedged or vanished worker can stall one
/// campaign for at most the configured idle deadline, never the service.
///
/// [`shutdown`](CampaignService::shutdown) drains gracefully (queued
/// campaigns still run); dropping the service instead cancels whatever
/// is queued or serving and joins the thread. Either way the listener
/// closes with the service, whatever tickets are still held.
pub struct CampaignService {
    shared: Arc<ServiceShared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for CampaignService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.shared.lock();
        f.debug_struct("CampaignService")
            .field("queued", &state.submissions.len())
            .field("serving", &state.serving.is_some())
            .field("submitted", &state.submitted)
            .field("draining", &state.draining)
            .finish()
    }
}

impl CampaignService {
    /// Binds the service's listener and starts its serving thread.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServiceConfig) -> io::Result<CampaignService> {
        Ok(CampaignService::from_listener(
            TcpListener::bind(addr)?,
            config,
        ))
    }

    /// Wraps an already-bound listener and starts the serving thread.
    pub fn from_listener(listener: TcpListener, config: ServiceConfig) -> CampaignService {
        let shared = Arc::new(ServiceShared {
            listener,
            idle: config.idle_timeout,
            state: Mutex::new(ServiceState {
                submissions: VecDeque::new(),
                serving: None,
                submitted: 0,
                draining: false,
            }),
            cond: Condvar::new(),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || service_loop(&shared))
        };
        CampaignService {
            shared,
            thread: Some(thread),
        }
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.shared.listener.local_addr()
    }

    /// Enqueues a campaign with the default error policy and no
    /// observer. See [`submit_with`](CampaignService::submit_with).
    pub fn submit(&self, campaign: Campaign, dir: impl Into<PathBuf>) -> CampaignTicket {
        self.submit_with(campaign, dir, ErrorPolicy::default(), None)
    }

    /// Enqueues a campaign; the service thread will serve it (in
    /// submission order) with this error policy (applied to
    /// worker-reported measurement failures; transport faults never are
    /// errors, they re-plan), this observer, and the service's idle
    /// deadline, persisting into `dir` as a
    /// [`crate::executor::CheckpointMode::Fresh`] run would. If `dir`
    /// already checkpoints this campaign (digest-verified), its `Done`
    /// entries are restored without re-measurement and only the rest
    /// are served. The returned ticket's
    /// [`sequence`](CampaignTicket::sequence) is what workers must pass
    /// as [`WorkerOptions::sequence`].
    pub fn submit_with(
        &self,
        campaign: Campaign,
        dir: impl Into<PathBuf>,
        policy: ErrorPolicy,
        observer: Option<Arc<dyn CampaignObserver + Send + Sync>>,
    ) -> CampaignTicket {
        let cancel = CancellationToken::new();
        let slot = Arc::new(TicketSlot {
            state: Mutex::new((CampaignPhase::Queued, None)),
            done: Condvar::new(),
        });
        let sequence = {
            let mut state = self.shared.lock();
            let id = state.submitted;
            state.submitted += 1;
            state.submissions.push_back(Submission {
                id,
                campaign,
                dir: dir.into(),
                policy,
                observer,
                cancel: cancel.clone(),
                slot: Arc::clone(&slot),
            });
            id
        };
        self.shared.cond.notify_all();
        CampaignTicket {
            sequence,
            cancel,
            slot,
        }
    }

    /// Graceful drain: already-submitted campaigns (queued or serving)
    /// run to completion, then the service thread exits and is joined.
    pub fn shutdown(mut self) {
        self.shared.lock().draining = true;
        self.shared.cond.notify_all();
        if let Some(thread) = self.thread.take() {
            // Serves are contained, so the thread only ever returns.
            thread.join().ok();
        }
    }
}

impl Drop for CampaignService {
    /// Hard stop: cancels every queued and serving campaign, then joins
    /// the service thread. Bounded by the coordinator's own
    /// cancellation drain (entry-granular cancel plus the idle
    /// deadline), so a wedged worker cannot wedge the drop.
    fn drop(&mut self) {
        let Some(thread) = self.thread.take() else {
            return; // shutdown() already joined
        };
        {
            let mut state = self.shared.lock();
            state.draining = true;
            let queued = state.submissions.iter().map(|s| &s.cancel);
            for cancel in queued.chain(&state.serving) {
                cancel.abort();
            }
        }
        self.shared.cond.notify_all();
        thread.join().ok();
    }
}

/// The service thread: pops submissions in order and serves each one.
fn service_loop(shared: &ServiceShared) {
    loop {
        let submission = {
            let mut state = shared.lock();
            loop {
                if let Some(s) = state.submissions.pop_front() {
                    state.serving = Some(s.cancel.clone());
                    break s;
                }
                if state.draining {
                    return;
                }
                state = shared.cond.wait(state).expect("campaign service state");
            }
        };
        submission.slot.lock().0 = CampaignPhase::Serving;

        // A panic the connections did not contain (in the observer's
        // final `entry_skipped` calls, say) ends this campaign only.
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            serve(&shared.listener, &submission, shared.idle)
        }))
        .unwrap_or_else(|payload| Err(MethodologyError::Panicked(panic_message(&*payload))));

        *submission.slot.lock() = (CampaignPhase::Done, Some(result));
        submission.slot.done.notify_all();
        // The service lets go of the campaign before it clears `serving`,
        // so an idle service holds no per-campaign state.
        drop(submission);
        shared.lock().serving = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::StageKind;
    use fingrav_sim::session::TelemetryEvent;

    fn round_trip(frame: Frame) -> Frame {
        let mut bytes = Vec::new();
        frame.write_to(&mut bytes).unwrap();
        let mut cursor = &bytes[..];
        let decoded = Frame::read_from(&mut cursor).unwrap();
        assert!(cursor.is_empty(), "frame decode consumed the whole frame");
        decoded
    }

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            Frame::Hello {
                digest: 0xDEAD,
                sequence: 4,
            },
            Frame::Welcome {
                shard: 3,
                entries: 14,
            },
            Frame::Deny {
                code: DENY_DIGEST_MISMATCH,
                detail: "nope".into(),
            },
            Frame::Request,
            Frame::Heartbeat,
            Frame::Assign { index: 7 },
            Frame::Finished { complete: true },
            Frame::Finished { complete: false },
            Frame::Abort,
            Frame::Started {
                index: 2,
                label: "CB-4K-GEMM".into(),
            },
            Frame::Event {
                index: 2,
                event: ProfilingEvent::StageStarted {
                    stage: StageKind::SspSearch,
                },
            },
            Frame::Event {
                index: 2,
                event: ProfilingEvent::Device(TelemetryEvent::ScriptDone { aborted: false }),
            },
            Frame::Done {
                index: 2,
                artifact: vec![1, 2, 3, 4],
            },
            Frame::Failed {
                index: 2,
                error: MethodologyError::Aborted,
            },
            Frame::Failed {
                index: 9,
                error: MethodologyError::Backend("slot 9 is broken".into()),
            },
            Frame::Fetch { index: 11 },
            Frame::Artifact {
                artifact: vec![9; 300],
            },
            Frame::Bye,
        ];
        for frame in frames {
            assert_eq!(round_trip(frame.clone()), frame);
        }
    }

    #[test]
    fn frame_decode_rejects_damage() {
        let mut bytes = Vec::new();
        Frame::Started {
            index: 1,
            label: "k".into(),
        }
        .write_to(&mut bytes)
        .unwrap();

        // Every truncation is Truncated, never a panic or a wrong decode.
        for cut in 0..bytes.len() {
            let mut cursor = &bytes[..cut];
            assert!(
                matches!(
                    Frame::read_from(&mut cursor),
                    Err(TransportError::Truncated(_))
                ),
                "cut at {cut}"
            );
        }

        // Unknown tag.
        let mut unknown = bytes.clone();
        unknown[0..4].copy_from_slice(&999u32.to_le_bytes());
        assert!(matches!(
            Frame::read_from(&mut &unknown[..]),
            Err(TransportError::Checkpoint(CheckpointError::Corrupt(_)))
        ));

        // Implausible frame length must not drive allocation.
        let mut absurd = bytes.clone();
        absurd[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Frame::read_from(&mut &absurd[..]),
            Err(TransportError::Corrupt(_))
        ));

        // Trailing payload bytes are rejected.
        let mut padded = Vec::new();
        Frame::Request.write_to(&mut padded).unwrap();
        padded[4..12].copy_from_slice(&1u64.to_le_bytes());
        padded.push(0);
        assert!(matches!(
            Frame::read_from(&mut &padded[..]),
            Err(TransportError::Checkpoint(CheckpointError::Corrupt(_)))
        ));
    }

    #[test]
    fn preamble_validates_magic_and_version() {
        let mut good = Vec::new();
        write_preamble(&mut good).unwrap();
        assert_eq!(good.len(), 16);
        assert!(read_preamble(&mut &good[..]).is_ok());

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            read_preamble(&mut &bad_magic[..]),
            Err(TransportError::BadMagic(_))
        ));

        let mut bad_version = good.clone();
        bad_version[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            read_preamble(&mut &bad_version[..]),
            Err(TransportError::UnsupportedVersion(9))
        ));
        // The version is checked only once all 16 bytes are in, so a bad
        // version with a short reserved word is a truncation.
        assert!(matches!(
            read_preamble(&mut &bad_version[..14]),
            Err(TransportError::Truncated("preamble reserved"))
        ));

        for cut in 0..good.len() {
            assert!(matches!(
                read_preamble(&mut &good[..cut]),
                Err(TransportError::Truncated(_))
            ));
        }
    }

    #[test]
    fn methodology_errors_round_trip_typed() {
        let cases = vec![
            MethodologyError::Backend("b".into()),
            MethodologyError::InsufficientSyncData,
            MethodologyError::NoGoldenRuns,
            MethodologyError::EmptyProbe,
            MethodologyError::InvalidConfig("c".into()),
            MethodologyError::Aborted,
            MethodologyError::Checkpoint("k".into()),
            MethodologyError::Transport("t".into()),
        ];
        for e in cases {
            let mut bytes = Vec::new();
            e.encode(&mut bytes).unwrap();
            let decoded = MethodologyError::decode(&mut &bytes[..]).unwrap();
            assert_eq!(decoded, e);
        }
    }

    #[test]
    fn next_frame_skips_heartbeats() {
        let mut bytes = Vec::new();
        Frame::Heartbeat.write_to(&mut bytes).unwrap();
        Frame::Heartbeat.write_to(&mut bytes).unwrap();
        Frame::Assign { index: 3 }.write_to(&mut bytes).unwrap();
        let mut cursor = &bytes[..];
        let frame = read_next_frame(&mut cursor, Duration::from_secs(1)).unwrap();
        assert!(matches!(frame, Frame::Assign { index: 3 }));
        assert!(cursor.is_empty(), "heartbeats consumed alongside");
    }

    /// Yields its script of reads in order: `Ok(bytes)` delivers them,
    /// `Err(kind)` surfaces that error once.
    struct ScriptedReader {
        script: std::collections::VecDeque<Result<Vec<u8>, io::ErrorKind>>,
    }

    impl Read for ScriptedReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.script.pop_front() {
                Some(Ok(bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    Ok(n)
                }
                Some(Err(kind)) => Err(kind.into()),
                None => Ok(0),
            }
        }
    }

    #[test]
    fn budgeted_reads_keep_partial_bytes_across_timeout_ticks() {
        // Two bytes, a timeout tick, two more bytes: the fill must
        // deliver all four — a tick never discards partial progress.
        let mut r = ScriptedReader {
            script: [
                Ok(vec![1, 2]),
                Err(io::ErrorKind::WouldBlock),
                Ok(vec![3, 4]),
            ]
            .into_iter()
            .collect(),
        };
        let mut buf = [0u8; 4];
        let mut ticks = 0;
        fill_budgeted(
            &mut r,
            &mut buf,
            "test",
            Duration::from_secs(5),
            &mut || {
                ticks += 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(ticks, 1, "the timeout wakeup ran the tick hook");
    }

    #[test]
    fn budgeted_reads_lapse_only_after_sustained_silence() {
        // A zero idle budget lapses on the first silent tick…
        let mut r = ScriptedReader {
            script: [Err(io::ErrorKind::WouldBlock)].into_iter().collect(),
        };
        let mut buf = [0u8; 1];
        match fill_budgeted(&mut r, &mut buf, "test", Duration::ZERO, &mut || Ok(())) {
            Err(TransportError::DeadlineLapsed { .. }) => {}
            other => panic!("expected DeadlineLapsed, got {other:?}"),
        }
        // …while EOF stays a typed truncation, not a deadline fault.
        let mut r = ScriptedReader {
            script: VecDeque::new(),
        };
        match fill_budgeted(&mut r, &mut buf, "test", Duration::ZERO, &mut || Ok(())) {
            Err(TransportError::Truncated("test")) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    /// A service that has served 50 waited campaigns holds no state for
    /// any of them once their tickets are gone: the queue is empty,
    /// nothing is serving, and every ticket's outcome slot is freed.
    #[test]
    fn a_service_forgets_the_campaigns_it_served() {
        let machine = fingrav_sim::config::SimConfig::default().machine;
        let mut campaign = Campaign::new(crate::runner::RunnerConfig::quick(6));
        campaign.add_all(
            fingrav_workloads::suite::gemm_suite(&machine)
                .into_iter()
                .take(1)
                .map(|k| k.desc),
        );
        let root = std::env::temp_dir().join(format!("fingrav-forget-{}", std::process::id()));
        let service = CampaignService::bind("127.0.0.1:0", ServiceConfig::default()).unwrap();
        let slots: Vec<_> = (0..50)
            .map(|i| {
                let ticket = service.submit(campaign.clone(), root.join(i.to_string()));
                // Cancelled at once, so its serve returns without ever
                // needing a worker.
                ticket.cancel();
                assert_eq!(ticket.wait().unwrap().skipped, vec![0]);
                Arc::downgrade(&ticket.slot)
            })
            .collect();
        // The service lets go of a campaign just after its ticket hears
        // of it, then clears `serving`.
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.shared.lock().serving.is_some() {
            assert!(Instant::now() < deadline, "the service never went idle");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(service.shared.lock().submissions.is_empty());
        assert!(slots.iter().all(|slot| slot.upgrade().is_none()));
        drop(service);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn transport_error_displays() {
        let cases: Vec<TransportError> = vec![
            TransportError::Io(io::Error::other("x")),
            TransportError::BadMagic(*b"NOTWIRE!"),
            TransportError::UnsupportedVersion(9),
            TransportError::Truncated("frame payload"),
            TransportError::Corrupt("y".into()),
            TransportError::DigestMismatch {
                expected: 1,
                found: 2,
            },
            TransportError::Denied {
                code: DENY_DIGEST_MISMATCH,
                detail: "z".into(),
            },
            TransportError::Checkpoint(CheckpointError::Truncated("magic")),
            TransportError::Protocol("w".into()),
            TransportError::DeadlineLapsed {
                silent_for: Duration::from_secs(30),
            },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
            let _ = MethodologyError::from(e);
        }
    }
}
