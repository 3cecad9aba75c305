//! Generators shared by the codec-hardening integration tests
//! (`profile_store.rs`, `checkpoint_codec.rs`, `checkpoint_view.rs`,
//! `checkpoint_resume.rs`, `fuzz_regression.rs`): random columnar
//! stores, random traces, the AoS stitching reference the columnar
//! appenders are checked against, the deterministic golden `FGRVCKPT`
//! fixtures,
//! and the systematic truncation/corruption drivers both the `FGRVPROF`
//! and `FGRVCKPT` adversarial suites run over, and the deque telemetry
//! the sample ring is checked against (`sensor_ring.rs`). [`axis_order`]
//! holds the comparator argsort the radix `argsort_by_axis` is checked
//! against (`store_view.rs`, and the fuzz `prof` oracle). [`event_queue`]
//! holds the heap reference the engine's `HybridQueue` is checked against
//! (`event_queue.rs`, `proptests.rs`). [`entry_bytes`] is the
//! bit-exact report comparison the determinism tests and the resume and
//! distributed examples share; [`fresh`] and [`resume`] are the
//! checkpointing run options of the campaign tests.
//!
//! Each integration test (and each example including this module) is its
//! own crate, so this module is compiled per binary; not every binary
//! uses every helper.
#![allow(dead_code)] // per-binary compilation: see note above

pub mod axis_order;
pub mod event_queue;

use std::collections::VecDeque;
use std::path::Path;

use fingrav::core::checkpoint::{CampaignManifest, EntryArtifact, EntryStatus, ManifestEntry};
use fingrav::core::executor::{CheckpointMode, RunOptions};
use fingrav::core::guidance::GuidanceEntry;
use fingrav::core::profile::{PlacedLog, PowerProfile, ProfileKind, ProfilePoint};
use fingrav::core::runner::KernelPowerReport;
use fingrav::core::store::{ColumnLayout, ProfileStore};
use fingrav::core::sync::{ReadDelayCalibration, TimeSync};
use fingrav::sim::kernel::KernelHandle;
use fingrav::sim::telemetry::PowerLog;
use fingrav::sim::trace::{RunTrace, TimedExecution, TimestampRead};
use fingrav::sim::{ComponentPower, CpuTime, GpuTicks, SimDuration, SimTime};

/// Builds a store from three independently drawn columns (zipped to the
/// shortest), with validity derived from the exec column.
pub fn build_store(runs: &[u32], vals: &[f64], execs: &[u32]) -> ProfileStore {
    let n = runs.len().min(vals.len()).min(execs.len());
    let mut store = ProfileStore::with_capacity(n);
    for i in 0..n {
        let valid = !execs[i].is_multiple_of(3);
        store.push(ProfilePoint {
            run: runs[i],
            exec_pos: valid.then_some(execs[i]),
            toi_ns: valid.then_some(vals[i].abs()),
            run_time_ns: vals[i],
            power: ComponentPower::new(
                vals[i] * 0.50,
                vals[i] * 0.25,
                vals[i] * 0.15,
                vals[i] * 0.10,
            ),
        });
    }
    store
}

/// Identity-ish sync: tick k ↦ cpu 10·k ns (100 MHz anchored at zero).
pub fn identity_sync() -> TimeSync {
    let read = TimestampRead {
        cpu_before: CpuTime::from_nanos(0),
        cpu_after: CpuTime::from_nanos(0),
        ticks: GpuTicks::from_raw(0),
    };
    let calib = ReadDelayCalibration {
        median_rtt_ns: 0,
        assumed_sample_frac: 0.5,
    };
    TimeSync::from_anchor(&read, &calib, 100e6)
}

/// Builds a random trace: sorted, non-overlapping executions plus power
/// logs at arbitrary ticks (inside and outside executions).
pub fn build_trace(starts: &[u64], ticks: &[u64]) -> RunTrace {
    let mut starts: Vec<u64> = starts.to_vec();
    starts.sort_unstable();
    starts.dedup();
    let mut trace = RunTrace::default();
    for (i, &s) in starts.iter().enumerate() {
        let gap = starts.get(i + 1).map(|&n| n - s).unwrap_or(20_000);
        let end = s + (gap / 2).max(1);
        trace.executions.push(TimedExecution {
            kernel: KernelHandle::default(),
            index: i as u32,
            cpu_start: CpuTime::from_nanos(s),
            cpu_end: CpuTime::from_nanos(end),
        });
    }
    for (i, &t) in ticks.iter().enumerate() {
        trace.power_logs.push(PowerLog {
            ticks: GpuTicks::from_raw(t),
            avg: ComponentPower::new(
                100.0 + i as f64,
                50.0 + i as f64,
                25.0 + i as f64,
                12.0 + i as f64,
            ),
        });
    }
    trace
}

/// Builds a trace whose executions start `gaps[i]` ns after the previous
/// start and last `lens[i]` ns, so an execution may start before the
/// previous one ends, and whose ends need not ascend; plus power logs at
/// `ticks`, in the given order.
pub fn build_noisy_trace(gaps: &[u64], lens: &[u64], ticks: &[u64]) -> RunTrace {
    let mut trace = build_trace(&[], ticks);
    let mut start = 0;
    for (i, (&gap, &len)) in gaps.iter().zip(lens).enumerate() {
        start += gap;
        trace.executions.push(TimedExecution {
            kernel: KernelHandle::default(),
            index: i as u32,
            cpu_start: CpuTime::from_nanos(start),
            cpu_end: CpuTime::from_nanos(start + len),
        });
    }
    trace
}

/// Places every log by scanning all executions for the first whose bounds
/// contain it: the reference `place_logs`' forward walk is checked
/// against.
pub fn place_logs_by_scan(trace: &RunTrace, sync: &TimeSync) -> Vec<PlacedLog> {
    let origin = trace
        .first_launch_cpu()
        .map(|t| t.as_nanos() as f64)
        .unwrap_or(0.0);
    trace
        .power_logs
        .iter()
        .map(|log| {
            let cpu_ns = sync.cpu_ns_of_ticks(log.ticks.as_raw());
            let containing_exec = trace.executions.iter().enumerate().find_map(|(i, e)| {
                let start = e.cpu_start.as_nanos() as f64;
                let end = e.cpu_end.as_nanos() as f64;
                (cpu_ns >= start && cpu_ns <= end).then_some((i, cpu_ns - start))
            });
            PlacedLog {
                cpu_ns,
                run_time_ns: cpu_ns - origin,
                containing_exec,
                power: log.avg,
            }
        })
        .collect()
}

/// Builds a [`ProfileKind::Run`] profile from placed logs as owned points:
/// the AoS reference the columnar `push_run_profile_points` is checked
/// against.
pub fn run_profile_points(run: u32, placed: &[PlacedLog]) -> Vec<ProfilePoint> {
    placed
        .iter()
        .map(|l| ProfilePoint {
            run,
            exec_pos: l.containing_exec.map(|(i, _)| i as u32),
            toi_ns: l.containing_exec.map(|(_, t)| t),
            run_time_ns: l.run_time_ns,
            power: l.power,
        })
        .collect()
}

/// Builds LOI points for executions selected by `select` as owned points:
/// the AoS reference the columnar `push_loi_points` is checked against.
pub fn loi_points(
    run: u32,
    placed: &[PlacedLog],
    mut select: impl FnMut(usize) -> bool,
) -> Vec<ProfilePoint> {
    placed
        .iter()
        .filter_map(|l| {
            let (pos, toi) = l.containing_exec?;
            if !select(pos) {
                return None;
            }
            Some(ProfilePoint {
                run,
                exec_pos: Some(pos as u32),
                toi_ns: Some(toi),
                run_time_ns: l.run_time_ns,
                power: l.power,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Deque telemetry: the reference the sample ring is checked against
// ---------------------------------------------------------------------

/// The per-logger sample deque the engine kept before the sample ring: a
/// push prunes samples older than the window before the new one, and an
/// average folds the samples in `(t - window, t]` oldest first.
pub struct DequeLogger {
    window: SimDuration,
    samples: VecDeque<(SimTime, ComponentPower)>,
}

impl DequeLogger {
    pub fn new(window: SimDuration) -> Self {
        DequeLogger {
            window,
            samples: VecDeque::new(),
        }
    }

    pub fn push_sample(&mut self, t: SimTime, power: ComponentPower) {
        self.samples.push_back((t, power));
        let cutoff = t.saturating_sub(self.window);
        while let Some(&(front, _)) = self.samples.front() {
            if front < cutoff {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// The log an enabled logger emits at `t` (`None` for an empty window).
    pub fn average(&self, t: SimTime) -> Option<ComponentPower> {
        let cutoff = t.saturating_sub(self.window);
        let mut sum = ComponentPower::ZERO;
        let mut n = 0u32;
        for &(st, p) in &self.samples {
            if st > cutoff && st <= t {
                sum += p;
                n += 1;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }
}

/// The PM window deque (`pm_hist`) the engine kept before the sample
/// ring: totals no older than the window before the newest sample,
/// averaged by a fresh oldest-first fold.
pub struct DequePmWindow {
    window: SimDuration,
    hist: VecDeque<(SimTime, f64)>,
}

impl DequePmWindow {
    pub fn new(window: SimDuration) -> Self {
        DequePmWindow {
            window,
            hist: VecDeque::new(),
        }
    }

    pub fn push(&mut self, t: SimTime, total: f64) {
        self.hist.push_back((t, total));
        let cutoff = t.saturating_sub(self.window);
        while let Some(&(front, _)) = self.hist.front() {
            if front < cutoff {
                self.hist.pop_front();
            } else {
                break;
            }
        }
    }

    pub fn totals(&self) -> Vec<f64> {
        self.hist.iter().map(|&(_, p)| p).collect()
    }

    /// The window average (`None` while empty).
    pub fn average(&self) -> Option<f64> {
        (!self.hist.is_empty())
            .then(|| self.hist.iter().map(|&(_, p)| p).sum::<f64>() / self.hist.len() as f64)
    }
}

// ---------------------------------------------------------------------
// Deterministic FGRVCKPT fixtures (also the committed golden files under
// tests/data/ and the fuzz seed corpus)
// ---------------------------------------------------------------------

/// The golden v1 campaign manifest (`tests/data/golden_manifest.fgrvckpt`).
pub fn golden_manifest() -> CampaignManifest {
    CampaignManifest {
        config_digest: 0x0123_4567_89ab_cdef,
        workers: 3,
        entries: vec![
            ManifestEntry {
                label: "CB-4K-GEMM".to_string(),
                seed: Some(0xdead_beef),
                status: EntryStatus::Done,
                shard: 0,
            },
            ManifestEntry {
                label: "MB-8K-GEMV".to_string(),
                seed: None,
                status: EntryStatus::Aborted,
                shard: 1,
            },
            ManifestEntry {
                label: "allreduce-64MB".to_string(),
                seed: Some(7),
                status: EntryStatus::Pending,
                shard: 2,
            },
        ],
    }
}

/// A deterministic 12-point profile, varied by `salt`.
pub fn golden_profile(label: &str, kind: ProfileKind, salt: u32) -> PowerProfile {
    let runs: Vec<u32> = (0..12).map(|i| (i + salt) % 5).collect();
    let vals: Vec<f64> = (0..12)
        .map(|i| f64::from(i) * 13.25 - f64::from(salt))
        .collect();
    let execs: Vec<u32> = (0..12).map(|i| (i * 7 + salt) % 9).collect();
    PowerProfile {
        label: label.to_string(),
        kind,
        store: build_store(&runs, &vals, &execs),
    }
}

/// The canonical `FGRVCKPT` entry bytes of each report, in order
/// (`EntryArtifact { index, config_digest: 0, report }.to_bytes()`).
/// The codec is bit-exact, so two report lists encode equal iff every
/// field matches to the bit, NaN payloads included.
pub fn entry_bytes(reports: &[KernelPowerReport]) -> Vec<Vec<u8>> {
    reports
        .iter()
        .zip(0u32..)
        .map(|(report, index)| {
            EntryArtifact {
                index,
                config_digest: 0,
                report: report.clone(),
            }
            .to_bytes()
        })
        .collect()
}

/// Run options that checkpoint a fresh run of a campaign into `dir`.
pub fn fresh(dir: &Path) -> RunOptions<'_> {
    RunOptions {
        checkpoint: CheckpointMode::Fresh(dir),
        ..RunOptions::default()
    }
}

/// Run options that resume the campaign checkpointed in `dir`.
pub fn resume(dir: &Path) -> RunOptions<'_> {
    RunOptions {
        checkpoint: CheckpointMode::Resume(dir),
        ..RunOptions::default()
    }
}

/// The golden v1 entry artifact (`tests/data/golden_entry.fgrvckpt`).
pub fn golden_entry() -> EntryArtifact {
    EntryArtifact {
        index: 1,
        config_digest: 0x0123_4567_89ab_cdef,
        report: KernelPowerReport {
            label: "MB-8K-GEMV".to_string(),
            exec_time_ns: 123_456,
            guidance: GuidanceEntry {
                min_exec: SimDuration::from_micros(50),
                max_exec: Some(SimDuration::from_micros(200)),
                runs: 200,
                loi_interval: SimDuration::from_micros(10),
                margin_frac: 0.05,
            },
            margin_frac: 0.05,
            sse_index: 3,
            ssp_index: 11,
            executions_per_run: 14,
            runs_executed: 20,
            golden_runs: 17,
            throttle_detected: true,
            read_delay_ns: 750.25,
            estimated_drift_ppm: Some(-17.5),
            run_profile: golden_profile("MB-8K-GEMV", ProfileKind::Run, 0),
            sse_profile: golden_profile("MB-8K-GEMV", ProfileKind::Sse, 1),
            ssp_profile: golden_profile("MB-8K-GEMV", ProfileKind::Ssp, 2),
            sse_mean_total_w: None,
            ssp_mean_total_w: Some(812.0625),
            sse_vs_ssp_error: None,
        },
    }
}

/// Asserts that every truncation of `bytes` decodes to the error `check`
/// accepts (and never panics or succeeds). `stride` subsamples long
/// encodings; pass 1 to try every cut.
pub fn assert_all_truncations_rejected<T, E: std::fmt::Debug>(
    bytes: &[u8],
    stride: usize,
    decode: impl Fn(&[u8]) -> Result<T, E>,
    check: impl Fn(&E) -> bool,
) {
    assert!(stride >= 1);
    for cut in (0..bytes.len()).step_by(stride) {
        match decode(&bytes[..cut]) {
            Err(e) if check(&e) => {}
            Err(e) => panic!("cut at {cut}/{}: unexpected error {e:?}", bytes.len()),
            Ok(_) => panic!("cut at {cut}/{}: decoded successfully", bytes.len()),
        }
    }
}

/// The block an `n`-point `FGRVPROF` encoding cut to `cut` bytes ends
/// inside — the `Truncated` label `docs/FORMATS.md` §2 prescribes.
pub fn fgrvprof_truncated_block(n: usize, cut: usize) -> &'static str {
    let l = ColumnLayout::for_len(n).expect("layout fits usize");
    [
        (8, "magic"),
        (12, "version"),
        (16, "flags"),
        (24, "length"),
        (l.exec_pos, "run"),
        (l.toi_ns, "exec_pos"),
        (l.run_time_ns, "toi_ns"),
        (l.xcd, "run_time_ns"),
        (l.iod, "xcd"),
        (l.hbm, "iod"),
        (l.rest, "hbm"),
        (l.bitmap, "rest"),
        (l.total, "validity bitmap"),
    ]
    .into_iter()
    .find(|&(end, _)| cut < end)
    .map(|(_, block)| block)
    .expect("cut lies inside the encoding")
}
