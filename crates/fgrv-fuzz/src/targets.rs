//! The fuzz targets: one per untrusted-input decode path, each pairing
//! the format's one decoder with its conformance oracle.
//!
//! Every target's `execute` upholds the same contract on EVERY input:
//!
//! * it never panics (panics are caught one level up, in the executor);
//! * rejected inputs yield a typed error, hashed into the run's
//!   error-taxonomy coverage;
//! * accepted inputs re-encode and re-decode to an equal value;
//! * accepted inputs followed by junk bytes are handled as the format
//!   says: [`ProfileStoreView::split_prefix`] hands the junk back, and an
//!   [`EntryArtifact`] rejects it as trailing bytes;
//! * accepted stores argsort and render to CSV on both axes without
//!   panicking, the owned store and its view identically, in the order
//!   the comparator sort of `tests/common/axis_order.rs` gives.
//!
//! Any violation comes back as `Err(description)` — a divergence the
//! harness records, minimizes, and writes out as a crash artifact.

use std::io::{self, Read};
use std::time::Duration;

use fingrav_core::checkpoint::{CampaignManifest, CheckpointError, EntryArtifact};
use fingrav_core::profile::ProfileAxis;
use fingrav_core::report::{columns_to_csv, view_to_csv};
use fingrav_core::store::{ProfileStore, ProfileStoreView};
use fingrav_core::transport::{read_next_frame, read_preamble, write_preamble, Frame};
use fingrav_core::{ProfilePoint, ProfilingEvent, StageKind};
use fingrav_sim::power::ComponentPower;

use crate::corpus::taxonomy_hash;

#[path = "../../../tests/common/axis_order.rs"]
mod axis_order;
use axis_order::reference_argsort;

/// One decode path under fuzz.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// `FGRVPROF`: [`ProfileStore::from_bytes`],
    /// [`ProfileStoreView::split_prefix`], and the argsort and CSV render
    /// of both.
    Prof,
    /// `FGRVCKPT` manifest section: [`CampaignManifest::from_bytes`].
    CkptManifest,
    /// `FGRVCKPT` entry section: [`EntryArtifact::from_bytes`].
    CkptEntry,
    /// `FGRVWIRE` v2 stream: the budgeted [`read_next_frame`] path over a
    /// stalling reader.
    Wire,
}

/// A row of the shipped target table (also what `docs/FUZZING.md` pins).
#[derive(Debug, Clone, Copy)]
pub struct TargetInfo {
    /// CLI name (`fgrv-fuzz run <name>`).
    pub name: &'static str,
    /// The decode path.
    pub target: Target,
    /// One-line description for `fgrv-fuzz list` and the docs table.
    pub description: &'static str,
}

/// Every shipped fuzz target. `docs/FUZZING.md`'s table mirrors this
/// row for row (pinned by `tests/docs_spec.rs`).
pub const TARGETS: [TargetInfo; 4] = [
    TargetInfo {
        name: "prof",
        target: Target::Prof,
        description: "FGRVPROF store: decode, round trip, split_prefix, owned ≡ view ≡ comparator argsort, owned ≡ view CSV render",
    },
    TargetInfo {
        name: "ckpt-manifest",
        target: Target::CkptManifest,
        description: "FGRVCKPT manifest section: decode + re-encode round trip",
    },
    TargetInfo {
        name: "ckpt-entry",
        target: Target::CkptEntry,
        description: "FGRVCKPT entry section: decode, round trip, trailing-bytes rejection",
    },
    TargetInfo {
        name: "wire",
        target: Target::Wire,
        description: "FGRVWIRE v2 stream: budgeted heartbeat-skipping reader over a stalling stream, frame round trip",
    },
];

/// Looks a target up by CLI name.
pub fn find(name: &str) -> Option<Target> {
    TARGETS
        .iter()
        .find(|info| info.name == name)
        .map(|info| info.target)
}

// ---------------------------------------------------------------------
// Seeds
// ---------------------------------------------------------------------

/// A small valid store exercising every column (validity gaps included).
fn seed_store(n: usize, salt: u32) -> ProfileStore {
    let mut store = ProfileStore::with_capacity(n);
    for i in 0..n {
        let i32u = i as u32;
        let valid = !(i + salt as usize).is_multiple_of(3);
        let v = f64::from(i32u) * 1.5 + f64::from(salt);
        store.push(ProfilePoint {
            run: i32u % 4,
            exec_pos: valid.then_some(i32u),
            toi_ns: valid.then_some(v.abs()),
            run_time_ns: v,
            power: ComponentPower::new(v * 0.5, v * 0.25, v * 0.15, v * 0.1),
        });
    }
    store
}

/// A short valid wire stream: preamble plus `frames`, heartbeats where
/// asked.
fn seed_stream(frames: &[Frame]) -> Vec<u8> {
    let mut out = Vec::new();
    write_preamble(&mut out).expect("vec write");
    for frame in frames {
        frame.write_to(&mut out).expect("vec write");
    }
    out
}

/// The built-in seed corpus for `target`: a handful of valid encodings
/// (so mutation starts past the magic check) plus the empty input.
pub fn seeds(target: Target) -> Vec<Vec<u8>> {
    let mut seeds: Vec<Vec<u8>> = match target {
        Target::Prof => vec![
            seed_store(0, 0).to_bytes(),
            seed_store(3, 1).to_bytes(),
            seed_store(17, 2).to_bytes(),
            seed_store(64, 3).to_bytes(),
        ],
        Target::CkptManifest => {
            vec![include_bytes!("../../../tests/data/golden_manifest.fgrvckpt").to_vec()]
        }
        Target::CkptEntry => {
            vec![include_bytes!("../../../tests/data/golden_entry.fgrvckpt").to_vec()]
        }
        Target::Wire => {
            let artifact = include_bytes!("../../../tests/data/golden_entry.fgrvckpt").to_vec();
            vec![
                seed_stream(&[]),
                // Every tag once, heartbeats interleaved so the budgeted
                // path's skip loop is on the hot path from round zero.
                seed_stream(&[
                    Frame::Hello {
                        digest: 0x0123_4567_89ab_cdef,
                        sequence: 0,
                    },
                    Frame::Heartbeat,
                    Frame::Welcome {
                        shard: 2,
                        entries: 9,
                    },
                    Frame::Deny {
                        code: 1,
                        detail: "digest mismatch".to_string(),
                    },
                    Frame::Request,
                    Frame::Assign { index: 4 },
                    Frame::Heartbeat,
                    Frame::Finished { complete: true },
                    Frame::Abort,
                    Frame::Started {
                        index: 4,
                        label: "CB-4K-GEMM".to_string(),
                    },
                    Frame::Event {
                        index: 4,
                        event: ProfilingEvent::StageStarted {
                            stage: StageKind::Calibrate,
                        },
                    },
                    Frame::Done {
                        index: 4,
                        artifact: artifact.clone(),
                    },
                    Frame::Failed {
                        index: 5,
                        error: fingrav_core::MethodologyError::Aborted,
                    },
                    Frame::Fetch { index: 4 },
                    Frame::Artifact { artifact },
                    Frame::Bye,
                    Frame::Heartbeat,
                ]),
            ]
        }
    };
    seeds.push(Vec::new());
    seeds
}

// ---------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------

/// Outcome of one oracle-checked execution: the error-taxonomy hashes
/// the input produced (empty when it decoded cleanly).
pub type Taxonomy = Vec<u64>;

/// Runs `input` through `target`'s decoder and oracle.
///
/// # Errors
///
/// An `Err` is an oracle violation — a broken re-encode round trip or a
/// mishandled trailing-bytes case — described well enough to triage
/// from the crash artifact alone. Panics are NOT caught here; the
/// executor wraps this call in `catch_unwind`.
pub fn execute(target: Target, input: &[u8]) -> Result<Taxonomy, String> {
    match target {
        Target::Prof => run_prof(input),
        Target::CkptManifest => run_manifest(input),
        Target::CkptEntry => run_entry(input),
        Target::Wire => run_wire(input),
    }
}

fn hash_err<E: std::fmt::Debug>(e: &E) -> u64 {
    taxonomy_hash(&format!("{e:?}"))
}

/// Junk appended to accepted inputs by the trailing-bytes checks.
const JUNK: [u8; 4] = [0xA5; 4];

fn run_prof(input: &[u8]) -> Result<Taxonomy, String> {
    let store = match ProfileStore::from_bytes(input) {
        Ok(store) => store,
        Err(e) => return Ok(vec![hash_err(&e)]),
    };
    // Accepted inputs re-encode and re-decode to the same value. Value,
    // not bytes: the header flags word is ignored on decode and
    // re-encoded as zero. `diff` bit-compares float columns, so a
    // decoded NaN equals itself where `PartialEq` would false-alarm.
    let bytes = store.to_bytes();
    match ProfileStore::from_bytes(&bytes) {
        Ok(again) if store.diff(&again).is_identical() => {}
        Ok(again) => {
            return Err(format!(
                "FGRVPROF re-decode drifted: {}",
                store.diff(&again).mismatch_brief()
            ))
        }
        Err(e) => return Err(format!("FGRVPROF re-encode failed to decode: {e:?}")),
    }
    // split_prefix must hand back exactly the trailing junk.
    let mut framed = bytes;
    framed.extend_from_slice(&JUNK);
    match ProfileStoreView::split_prefix(&framed) {
        Ok((prefix, rest)) if rest == JUNK => {
            if !store.diff_view(&prefix).is_identical() {
                return Err("split_prefix prefix decoded differently".to_string());
            }
            // Accepted stores sort and render (NaN and infinite keys
            // included), the view exactly as the owned store. Both run
            // one radix kernel, so its order is also checked against
            // the comparator sort.
            for axis in [ProfileAxis::RunTime, ProfileAxis::Toi] {
                let order = store.argsort_by_axis(axis);
                if order != prefix.argsort_by_axis(axis) {
                    return Err(format!("{axis:?} argsort differs between store and view"));
                }
                if order != reference_argsort(&store, axis) {
                    return Err(format!("{axis:?} argsort differs from the comparator sort"));
                }
                if columns_to_csv(&store, axis) != view_to_csv(&prefix, axis) {
                    return Err(format!("{axis:?} CSV differs between store and view"));
                }
            }
        }
        Ok((_, rest)) => {
            return Err(format!(
                "split_prefix returned {} trailing bytes, wanted {}",
                rest.len(),
                JUNK.len()
            ))
        }
        Err(e) => return Err(format!("split_prefix rejected a valid prefix: {e:?}")),
    }
    Ok(Vec::new())
}

/// Decode + round-trip oracle shared by the manifest and entry sections.
/// Value equality is checked through the canonical encoding — bit-exact,
/// so decoded NaN payloads equal themselves where derived `PartialEq`
/// would not.
fn run_roundtrip<T, E>(
    input: &[u8],
    what: &str,
    decode: impl Fn(&[u8]) -> Result<T, E>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> Result<Taxonomy, String>
where
    E: std::fmt::Debug,
{
    match decode(input) {
        Ok(value) => {
            let bytes = encode(&value);
            match decode(&bytes) {
                Ok(again) if encode(&again) == bytes => Ok(Vec::new()),
                Ok(_) => Err(format!("{what} re-decode drifted from the original")),
                Err(e) => Err(format!("{what} re-encode failed to decode: {e:?}")),
            }
        }
        Err(e) => Ok(vec![hash_err(&e)]),
    }
}

fn run_manifest(input: &[u8]) -> Result<Taxonomy, String> {
    run_roundtrip(
        input,
        "FGRVCKPT manifest",
        CampaignManifest::from_bytes,
        CampaignManifest::to_bytes,
    )
}

fn run_entry(input: &[u8]) -> Result<Taxonomy, String> {
    let taxonomy = run_roundtrip(
        input,
        "FGRVCKPT entry",
        EntryArtifact::from_bytes,
        EntryArtifact::to_bytes,
    )?;
    if taxonomy.is_empty() {
        // An accepted entry followed by junk is rejected as trailing bytes.
        let mut framed = input.to_vec();
        framed.extend_from_slice(&JUNK);
        match EntryArtifact::from_bytes(&framed) {
            Err(CheckpointError::Corrupt(why)) if why.contains("trailing") => {}
            other => {
                return Err(format!(
                    "FGRVCKPT entry with trailing junk was not rejected as trailing: {other:?}"
                ))
            }
        }
    }
    Ok(taxonomy)
}

// ---------------------------------------------------------------------
// Wire: budgeted reads over a stalling stream
// ---------------------------------------------------------------------

/// A reader that drips `data` a few bytes at a time and injects a
/// `WouldBlock` every third call — the shape of a live socket with a
/// read timeout. Deterministic, so replays see the same byte schedule.
struct Chop<'a> {
    data: &'a [u8],
    at: usize,
    calls: usize,
}

impl Read for Chop<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls += 1;
        if self.calls.is_multiple_of(3) {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "chop tick"));
        }
        let take = buf.len().min(3).min(self.data.len() - self.at);
        buf[..take].copy_from_slice(&self.data[self.at..self.at + take]);
        self.at += take;
        Ok(take)
    }
}

/// The budgeted reader's idle allowance. Huge, so a deterministic
/// in-memory run can never race the wall clock into a spurious
/// `DeadlineLapsed` — the `WouldBlock` ticks still drive the deadline
/// accounting code, they just never accumulate enough silence.
const FUZZ_IDLE: Duration = Duration::from_secs(3600);

fn run_wire(input: &[u8]) -> Result<Taxonomy, String> {
    let mut cursor = input;
    if let Err(e) = read_preamble(&mut cursor) {
        return Ok(vec![hash_err(&e)]);
    }
    // The heartbeat skip lives inside `read_next_frame`, so filtering
    // happens for us.
    let mut chop = Chop {
        data: cursor,
        at: 0,
        calls: 0,
    };
    let terminal = loop {
        match read_next_frame(&mut chop, FUZZ_IDLE) {
            // Accepted frames re-encode, and re-read from their encoding
            // to the same bytes: bit-exact, so frames carrying decoded NaN
            // telemetry equal themselves (derived `PartialEq` on f64
            // fields would false-alarm).
            Ok(frame) => {
                let bytes = encode_frame(&frame)?;
                match Frame::read_from(&mut bytes.as_slice()) {
                    Ok(again) if encode_frame(&again)? == bytes => {}
                    Ok(_) => return Err("frame re-decode drifted from the original".to_string()),
                    Err(e) => return Err(format!("frame re-encode failed to decode: {e:?}")),
                }
            }
            Err(e) => break format!("{e:?}"),
        }
    };
    // The terminal error is the input's taxonomy. A stream that ends
    // cleanly terminates with `Truncated("frame tag")`, so every clean
    // stream collapses into that one shared bucket.
    Ok(vec![taxonomy_hash(&terminal)])
}

fn encode_frame(frame: &Frame) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    frame
        .write_to(&mut bytes)
        .map_err(|e| format!("accepted frame refused to re-encode: {e}"))?;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_passes_its_own_oracle() {
        for info in TARGETS {
            for (i, seed) in seeds(info.target).iter().enumerate() {
                if let Err(why) = execute(info.target, seed) {
                    panic!("target {} seed {i}: {why}", info.name);
                }
            }
        }
    }

    #[test]
    fn target_names_are_unique_and_resolvable() {
        for info in TARGETS {
            assert_eq!(find(info.name), Some(info.target));
        }
        assert_eq!(find("nope"), None);
    }

    #[test]
    fn wire_oracle_flags_nothing_on_mutated_golden() {
        // A flipped byte inside the stream must end in a typed error,
        // never an oracle violation.
        let mut stream = seeds(Target::Wire).remove(1);
        for at in 0..stream.len().min(64) {
            stream[at] ^= 0x40;
            if let Err(why) = execute(Target::Wire, &stream) {
                panic!("byte {at} flipped: {why}");
            }
            stream[at] ^= 0x40;
        }
    }
}
