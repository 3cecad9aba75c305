//! The traced run: per-layer numbers from spans recorded around calls into
//! each layer's public functions.
//!
//! * A timing [`PowerBackend`] wraps the simulator and records one
//!   `engine.run` span per script; it overrides the generic
//!   `run_script_with` and delegates to it, so dispatch stays static.
//! * Each kernel is driven through [`StagePipeline`] stage by stage, one
//!   span per stage, and binning and stitching are re-timed on the
//!   collected runs.
//! * The codec, checkpoint, transport and CSV functions are timed directly
//!   on the run's reports.
//!
//! Spans (name, start, end, parent, entry) stay in memory and are written
//! to `.bench_out/` at the end. A span's self time is its duration minus
//! its children's.

use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use fingrav_core::backend::{BackendFactory, PowerBackend, SimulationFactory};
use fingrav_core::campaign::Campaign;
use fingrav_core::checkpoint::{
    gather_stores, CampaignManifest, CheckpointDir, EntryArtifact, EntryArtifactView, EntryStatus,
};
use fingrav_core::error::MethodologyResult;
use fingrav_core::executor::{CampaignExecutor, CampaignObserver, CampaignOutcome};
use fingrav_core::observe::{ProfilingEvent, ProfilingSink, StageKind};
use fingrav_core::profile::ProfileAxis;
use fingrav_core::report::columns_to_csv;
use fingrav_core::runner::KernelPowerReport;
use fingrav_core::stages::{bin_collected, stitch_profiles, StagePipeline};
use fingrav_core::stats::median;
use fingrav_core::store::{ProfileStore, ProfileStoreView};
use fingrav_core::transport::Frame;
use fingrav_sim::engine::{EngineStats, Simulation};
use fingrav_sim::kernel::{KernelDesc, KernelHandle};
use fingrav_sim::script::Script;
use fingrav_sim::session::{AbortHandle, TelemetrySink};
use fingrav_sim::time::SimDuration;
use fingrav_sim::trace::RunTrace;

use crate::common::{
    concat_stores, ctx, BenchResult, EntryClock, Setup, Tally, WorkDir, Workload, WORKERS,
};
use crate::stats::{ratio, Metrics};
use crate::{archive, suite};

/// Passes over the in-memory codec benchmarks, so each sums enough time.
const CODEC_PASSES: usize = 3;

/// Campaign seeds one traced cycle covers (the first ones of the set-up).
const TRACED_CAMPAIGNS: usize = 4;

const STAGES: [StageKind; 4] = [
    StageKind::Calibrate,
    StageKind::TimingProbe,
    StageKind::SspSearch,
    StageKind::CollectRuns,
];

/// One timed call.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// (campaign seed slot, entry index) being profiled, if any.
    entry: Option<(usize, usize)>,
    /// Bytes the call processed, for throughput spans.
    bytes: u64,
    /// Items the call processed (1 unless batched).
    items: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder. Spans nest by call order, so one thread
/// records at a time; the mutex only makes the recorder shareable with
/// the executor's `Sync` factory bound.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    entry: Option<(usize, usize)>,
}

type Trace = Mutex<Tracer>;

fn lock(trace: &Trace) -> MutexGuard<'_, Tracer> {
    trace.lock().expect("tracer lock")
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            entry: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            entry: self.entry,
            bytes: 0,
            items: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`. Spans of one thread close in nesting order; the
    /// executor's worker threads may interleave theirs, so the span is
    /// taken off the open stack wherever it sits.
    fn end(&mut self, id: usize, bytes: u64, items: u64) {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.bytes = bytes;
        span.items = items;
        if let Some(pos) = self.open.iter().rposition(|&open| open == id) {
            self.open.remove(pos);
        }
    }

    fn named(&self, name: &str) -> impl Iterator<Item = &Span> + '_ {
        let name = name.to_string();
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations of every span called `name`, seconds.
    fn secs(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::secs).collect()
    }

    fn total(&self, name: &str) -> f64 {
        self.named(name).map(Span::secs).sum()
    }

    /// Total seconds of the spans called `name` recorded since span `from`.
    fn total_since(&self, from: usize, name: &str) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Number of spans called `name` with an ancestor called one of
    /// `ancestors`.
    fn count_under(&self, name: &str, ancestors: &[&str]) -> usize {
        self.named(name)
            .filter(|s| {
                let mut parent = s.parent;
                while let Some(p) = parent {
                    if ancestors.contains(&self.spans[p].name) {
                        return true;
                    }
                    parent = self.spans[p].parent;
                }
                false
            })
            .count()
    }

    /// Bytes per second over every span called `name`, in MB/s.
    fn mb_per_s(&self, name: &str) -> f64 {
        let bytes: u64 = self.named(name).map(|s| s.bytes).sum();
        ratio(bytes as f64 / 1e6, self.total(name))
    }

    /// Seconds per item over every span called `name`.
    fn secs_per_item(&self, name: &str) -> f64 {
        let items: u64 = self.named(name).map(|s| s.items).sum();
        ratio(self.total(name), items as f64)
    }

    /// Self times (duration minus direct children) of spans called `name`.
    fn self_secs(&self, name: &str) -> Vec<f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.secs() - child[i])
            .collect()
    }

    fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("id,name,parent,campaign,entry,start_us,end_us,bytes,items\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let (c, e) = s.entry.map_or((String::new(), String::new()), |(c, e)| {
                (c.to_string(), e.to_string())
            });
            out.push_str(&format!(
                "{i},{},{parent},{c},{e},{:.3},{:.3},{},{}\n",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.bytes,
                s.items
            ));
        }
        std::fs::write(path, out)
    }
}

/// Times `f` as a span called `name`.
fn span<T>(trace: &Trace, name: &'static str, f: impl FnOnce() -> T) -> T {
    span_sized(trace, name, f, |_| (0, 1))
}

/// Like [`span`], recording the bytes and items `size` reads off the
/// result.
fn span_sized<T>(
    trace: &Trace,
    name: &'static str,
    f: impl FnOnce() -> T,
    size: impl FnOnce(&T) -> (usize, usize),
) -> T {
    let id = lock(trace).begin(name);
    let out = f();
    let (bytes, items) = size(&out);
    lock(trace).end(id, bytes as u64, items as u64);
    out
}

/// The simulator behind a timing wrapper: one `engine.run` span per
/// script.
struct TimedSim<'t> {
    sim: Simulation,
    trace: &'t Trace,
}

impl PowerBackend for TimedSim<'_> {
    fn register_kernel(&mut self, desc: &KernelDesc) -> MethodologyResult<KernelHandle> {
        PowerBackend::register_kernel(&mut self.sim, desc)
    }

    fn run_script_observed(
        &mut self,
        script: &Script,
        sink: &mut dyn TelemetrySink,
        abort: &AbortHandle,
    ) -> MethodologyResult<RunTrace> {
        let sim = &mut self.sim;
        span(self.trace, "engine.run", || {
            PowerBackend::run_script_observed(sim, script, sink, abort)
        })
    }

    fn run_script(&mut self, script: &Script) -> MethodologyResult<RunTrace> {
        let sim = &mut self.sim;
        span(self.trace, "engine.run", || {
            PowerBackend::run_script(sim, script)
        })
    }

    fn run_script_with<S: TelemetrySink>(
        &mut self,
        script: &Script,
        sink: &mut S,
        abort: &AbortHandle,
    ) -> MethodologyResult<RunTrace> {
        let sim = &mut self.sim;
        span(self.trace, "engine.run", || {
            PowerBackend::run_script_with(sim, script, sink, abort)
        })
    }

    fn engine_stats(&self) -> Option<EngineStats> {
        PowerBackend::engine_stats(&self.sim)
    }

    fn logger_window(&self) -> SimDuration {
        PowerBackend::logger_window(&self.sim)
    }

    fn coarse_logger_window(&self) -> SimDuration {
        PowerBackend::coarse_logger_window(&self.sim)
    }

    fn gpu_counter_hz(&self) -> f64 {
        PowerBackend::gpu_counter_hz(&self.sim)
    }
}

/// A [`SimulationFactory`] whose backends are [`TimedSim`]s.
struct TracedFactory<'t> {
    inner: &'t SimulationFactory,
    trace: &'t Trace,
}

impl<'t> BackendFactory for TracedFactory<'t> {
    type Backend = TimedSim<'t>;

    fn create(&self, index: usize) -> MethodologyResult<TimedSim<'t>> {
        Ok(TimedSim {
            sim: self.inner.create(index)?,
            trace: self.trace,
        })
    }

    fn slot_seed_hint(&self, index: usize) -> Option<u64> {
        self.inner.slot_seed_hint(index)
    }
}

/// Counts the device and stage events a pipeline emits and keeps a
/// sample of them for the frame round-trip benchmark.
#[derive(Default)]
struct EventSampler {
    seen: u64,
    sample: Vec<ProfilingEvent>,
}

impl ProfilingSink for EventSampler {
    fn on_event(&mut self, event: ProfilingEvent) {
        if self.seen.is_multiple_of(64) && self.sample.len() < 4096 {
            self.sample.push(event);
        }
        self.seen += 1;
    }
}

/// Profiles one entry stage by stage under spans, as the executor's
/// runner would (same backend calls, same configuration), re-timing
/// binning and stitching on the collected runs. The re-run and its check
/// are work the executor never does: they sit in a `binning.rerun` span,
/// which the entry-time figures leave out.
fn traced_entry(
    factory: &TracedFactory<'_>,
    campaign: &Campaign,
    index: usize,
    sampler: &mut EventSampler,
    tally: &mut Tally,
) -> MethodologyResult<(KernelPowerReport, Option<EngineStats>)> {
    let trace = factory.trace;
    let entry = &campaign.entries()[index];
    let label = entry.desc.name.as_str();
    span(trace, "entry", || {
        let mut backend = factory.create(index)?;
        let handle = backend.register_kernel(&entry.desc)?;
        let report = {
            let mut pipeline =
                StagePipeline::new(&mut backend, entry.effective_config(campaign.config()))?;
            pipeline.set_observer(sampler);
            let cal = span(trace, "stage.calibrate", || pipeline.calibrate())?;
            let timing = span(trace, "stage.timing_probe", || {
                pipeline.timing_probe(handle, &cal)
            })?;
            let ssp = span(trace, "stage.ssp_search", || {
                pipeline.ssp_search(handle, &cal, &timing)
            })?;
            let collection = span(trace, "stage.collect_runs", || {
                pipeline.collect_runs(handle, label, &cal, &timing, &ssp)
            })?;
            let same = span(trace, "binning.rerun", || {
                let binning = span(trace, "binning.bin", || {
                    bin_collected(&collection.collected, timing.margin_frac)
                })?;
                let profiles = span(trace, "binning.stitch", || {
                    stitch_profiles(
                        label,
                        &collection.collected,
                        &binning,
                        timing.sse_index,
                        ssp.ssp_index,
                        timing.margin_frac,
                    )
                });
                MethodologyResult::Ok(
                    binning == collection.binning && profiles == collection.profiles,
                )
            })?;
            tally.check(same, || {
                format!("{label}: re-run binning or stitching differs from collect_runs'")
            });
            span(trace, "stage.finalize", || {
                pipeline.finalize(label, &cal, &timing, &ssp, collection)
            })
        };
        Ok((report, backend.engine_stats()))
    })
}

/// Counters the traced run takes outside spans.
#[derive(Debug, Default)]
struct Counters {
    /// Entries profiled (suite) or restored (archive) by the traced run.
    entries: u64,
    engine_events: u64,
    engine_scripts: u64,
    /// Wall time of the traced campaign loops without their binning
    /// re-runs, and the untraced serial executor's wall time over the same
    /// campaigns, seconds.
    traced_s: f64,
    untraced_s: f64,
    /// Σ entry claim-to-report time and Σ workers × campaign wall of the
    /// executor (or served) pass.
    entry_busy_s: f64,
    worker_wall_s: f64,
    served_s: f64,
    local_s: f64,
    frame_campaigns: u64,
    event_frames: u64,
    wire_bytes: u64,
}

/// Sizes the worker-to-coordinator frames (`Started`, `Event`, `Done`) a
/// served campaign sends, by encoding each one.
struct FrameCounter {
    digest: u64,
    state: Mutex<(u64, u64)>,
}

impl FrameCounter {
    fn add(&self, frame: &Frame, event: bool) {
        let mut bytes = Vec::new();
        frame
            .write_to(&mut bytes)
            .expect("Vec writes are infallible");
        let mut state = self.state.lock().expect("frame counter lock");
        state.0 += u64::from(event);
        state.1 += bytes.len() as u64;
    }
}

impl CampaignObserver for FrameCounter {
    fn entry_started(&self, index: usize, label: &str) {
        let frame = Frame::Started {
            index: index as u64,
            label: label.to_string(),
        };
        self.add(&frame, false);
    }

    fn entry_event(&self, index: usize, event: &ProfilingEvent) {
        let frame = Frame::Event {
            index: index as u64,
            event: event.clone(),
        };
        self.add(&frame, true);
    }

    fn entry_finished(&self, index: usize, report: &KernelPowerReport) {
        let artifact = EntryArtifact {
            index: index as u32,
            config_digest: self.digest,
            report: report.clone(),
        };
        let frame = Frame::Done {
            index: index as u64,
            artifact: artifact.to_bytes(),
        };
        self.add(&frame, false);
    }
}

/// Checks a campaign outcome against reference reports.
fn check_outcome(
    what: &str,
    outcome: CampaignOutcome,
    want: &[KernelPowerReport],
    tally: &mut Tally,
) {
    tally.outcome(what, &outcome);
    let got: Vec<KernelPowerReport> = outcome.reports.into_iter().flatten().collect();
    tally.check(got == want, || {
        format!("{what}: reports differ from the reference reports")
    });
}

/// Profiles every campaign seed stage by stage under spans, after an
/// untraced serial executor run of the same campaign whose reports the
/// traced ones must equal. Returns those reports and the event sample.
fn profile_campaigns(
    setup: &Setup,
    trace: &Trace,
    counters: &mut Counters,
    tally: &mut Tally,
) -> BenchResult<(Vec<Vec<KernelPowerReport>>, Vec<ProfilingEvent>)> {
    let mut all = Vec::with_capacity(TRACED_CAMPAIGNS);
    let mut sampler = EventSampler::default();
    for (c, factory) in setup.factories.iter().take(TRACED_CAMPAIGNS).enumerate() {
        let t = Instant::now();
        let baseline = CampaignExecutor::serial().execute(&setup.campaign, factory);
        counters.untraced_s += t.elapsed().as_secs_f64();
        let what = format!("untraced serial campaign (seed slot {c})");
        tally.outcome(&what, &baseline);
        let baseline = baseline
            .into_report()
            .map_err(ctx("untraced serial campaign"))?;

        let traced = TracedFactory {
            inner: factory,
            trace,
        };
        let mut reports = Vec::with_capacity(setup.entries());
        let first_span = lock(trace).spans.len();
        let t = Instant::now();
        for index in 0..setup.entries() {
            lock(trace).entry = Some((c, index));
            tally.attempted += 1;
            match traced_entry(&traced, &setup.campaign, index, &mut sampler, tally) {
                Ok((report, stats)) => {
                    if let Some(stats) = stats {
                        counters.engine_events += stats.events_popped;
                        counters.engine_scripts += stats.scripts_run;
                    }
                    counters.entries += 1;
                    reports.push((index, report));
                }
                Err(e) => tally.fail(format!(
                    "seed slot {c} entry {index}: traced profiling failed: {e}"
                )),
            }
        }
        let mut tracer = lock(trace);
        counters.traced_s +=
            t.elapsed().as_secs_f64() - tracer.total_since(first_span, "binning.rerun");
        tracer.entry = None;
        drop(tracer);
        for (index, report) in &reports {
            tally.check(*report == baseline.reports[*index], || {
                format!("seed slot {c} entry {index}: traced report differs from the executor's")
            });
        }
        all.push(reports.into_iter().map(|(_, r)| r).collect());
    }
    Ok((all, sampler.sample))
}

/// The executor and transport layers under their real load: each campaign
/// runs with [`WORKERS`] workers locally, served, and served again with its
/// frames counted, every entry timed. `executor.worker_util` comes from the
/// workload's own pass: the served one when `served`, else the local one.
fn executor_passes(
    setup: &Setup,
    work: &WorkDir,
    served: bool,
    reports: &[Vec<KernelPowerReport>],
    counters: &mut Counters,
    tally: &mut Tally,
) -> BenchResult<()> {
    let service = suite::bind_service()?;
    for (c, factory) in setup.factories.iter().take(TRACED_CAMPAIGNS).enumerate() {
        let dir = work.fresh("executor-pass");
        let clock = EntryClock::new(setup.entries());
        let t = Instant::now();
        let outcome = suite::run_local(&setup.campaign, factory, &dir, &clock)?;
        let local_s = t.elapsed().as_secs_f64();
        counters.local_s += local_s;
        if !served {
            counters.entry_busy_s += clock.durations_s().iter().sum::<f64>();
            counters.worker_wall_s += WORKERS as f64 * local_s;
        }
        check_outcome(
            &format!("local pass (seed slot {c})"),
            outcome,
            &reports[c],
            tally,
        );

        let dir = work.fresh("executor-pass");
        let clock = EntryClock::new(setup.entries());
        let t = Instant::now();
        let outcome = suite::run_served(&service, &setup.campaign, factory, &dir, &clock)?;
        let served_s = t.elapsed().as_secs_f64();
        counters.served_s += served_s;
        if served {
            counters.entry_busy_s += clock.durations_s().iter().sum::<f64>();
            counters.worker_wall_s += WORKERS as f64 * served_s;
        }
        check_outcome(
            &format!("served pass (seed slot {c})"),
            outcome,
            &reports[c],
            tally,
        );

        let dir = work.fresh("executor-pass");
        let frames = FrameCounter {
            digest: setup.digest,
            state: Mutex::new((0, 0)),
        };
        let outcome = suite::run_served(&service, &setup.campaign, factory, &dir, &frames)?;
        check_outcome(
            &format!("frame-count pass (seed slot {c})"),
            outcome,
            &reports[c],
            tally,
        );
        let (events, bytes) = frames.state.into_inner().expect("frame counter lock");
        counters.frame_campaigns += 1;
        counters.event_frames += events;
        counters.wire_bytes += bytes;
    }
    service.shutdown();
    Ok(())
}

/// Times the checkpoint, store, CSV and frame codecs on the run's reports:
/// persists each campaign the way the executor does (entry, then manifest
/// rewrite), reads it back through resume and gather, and round-trips
/// every entry and store in memory. Returns each campaign's checkpoint
/// size in bytes.
fn codec_layers(
    setup: &Setup,
    work: &WorkDir,
    trace: &Trace,
    reports: &[Vec<KernelPowerReport>],
    events: &[ProfilingEvent],
    tally: &mut Tally,
) -> BenchResult<Vec<f64>> {
    let mut campaign_bytes = Vec::new();
    let mut entry_bytes = Vec::new();
    for (c, reports) in reports.iter().enumerate() {
        let factory = TracedFactory {
            inner: &setup.factories[c],
            trace,
        };
        let dir = work.fresh(&format!("trace-ckpt-{c}"));
        let ckdir = CheckpointDir::create(&dir).map_err(ctx("checkpoint dir"))?;
        let mut manifest = CampaignManifest::plan(&setup.campaign, &factory, WORKERS);
        span(trace, "checkpoint.manifest", || {
            ckdir.write_manifest(&manifest)
        })
        .map_err(ctx("manifest write"))?;
        for (index, report) in reports.iter().enumerate() {
            let artifact = EntryArtifact {
                index: index as u32,
                config_digest: setup.digest,
                report: report.clone(),
            };
            let bytes = span_sized(
                trace,
                "checkpoint.entry_encode",
                || artifact.to_bytes(),
                |b| (b.len(), 1),
            );
            let shard = manifest.entries[index].shard;
            span_sized(
                trace,
                "checkpoint.persist",
                || ckdir.write_entry(shard, &artifact),
                |_| (bytes.len(), 1),
            )
            .map_err(ctx("entry write"))?;
            manifest.entries[index].status = EntryStatus::Done;
            span(trace, "checkpoint.manifest", || {
                ckdir.write_manifest(&manifest)
            })
            .map_err(ctx("manifest write"))?;
            entry_bytes.push(bytes);
        }

        // Resume goes through timing backends, so a re-measurement would
        // record engine.run spans under checkpoint.resume; `run` fails on
        // any.
        let resumed = span(trace, "checkpoint.resume", || {
            CampaignExecutor::new(WORKERS).resume(&setup.campaign, &factory, &dir)
        })
        .map_err(ctx("resume"))?;
        check_outcome(&format!("resume (seed slot {c})"), resumed, reports, tally);
        let stores = span(trace, "checkpoint.gather", || {
            gather_stores(&ckdir, &setup.campaign)
        })
        .map_err(ctx("gather"))?;
        let want = concat_stores(reports);
        for (got, want) in [&stores.run, &stores.sse, &stores.ssp].iter().zip(&want) {
            tally.check(got.diff(want).is_identical(), || {
                format!("seed slot {c}: gathered stores differ from the reports'")
            });
        }
        for (store, axis) in [
            (&stores.run, ProfileAxis::RunTime),
            (&stores.sse, ProfileAxis::Toi),
            (&stores.ssp, ProfileAxis::Toi),
        ] {
            span_sized(
                trace,
                "report.csv",
                || columns_to_csv(store, axis),
                |s| (s.len(), 1),
            );
        }
        let on_disk: u64 = ckdir
            .entry_files()
            .map_err(ctx("listing entry files"))?
            .iter()
            .chain([(0, 0, ckdir.manifest_path())].iter())
            .map(|(_, _, path)| std::fs::metadata(path).map_or(0, |m| m.len()))
            .sum();
        campaign_bytes.push(on_disk as f64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    let stores: Vec<&ProfileStore> = reports
        .iter()
        .flatten()
        .flat_map(|r| {
            [
                &r.run_profile.store,
                &r.sse_profile.store,
                &r.ssp_profile.store,
            ]
        })
        .collect();
    // Without device events (archive-read runs no engine), the sample is
    // the stage boundaries a campaign's entries would send.
    let boundaries: Vec<ProfilingEvent> = (0..reports.iter().map(Vec::len).sum::<usize>())
        .flat_map(|_| STAGES)
        .flat_map(|stage| {
            [
                ProfilingEvent::StageStarted { stage },
                ProfilingEvent::StageFinished { stage },
            ]
        })
        .collect();
    let sample = if events.is_empty() {
        &boundaries
    } else {
        events
    };
    let event_frames: Vec<Frame> = sample
        .iter()
        .map(|e| Frame::Event {
            index: 0,
            event: e.clone(),
        })
        .collect();
    for _ in 0..CODEC_PASSES {
        for bytes in &entry_bytes {
            let view = span_sized(
                trace,
                "checkpoint.entry_view",
                || EntryArtifactView::parse(bytes).map(|v| v.index),
                |_| (bytes.len(), 1),
            );
            tally.check(view.is_ok(), || "an entry fails to view".to_string());
            let decoded = span_sized(
                trace,
                "checkpoint.entry_decode",
                || EntryArtifact::from_bytes(bytes),
                |_| (bytes.len(), 1),
            );
            tally.check(decoded.is_ok_and(|a| a.to_bytes() == *bytes), || {
                "an entry fails to decode to itself".to_string()
            });
            let frame = Frame::Done {
                index: 0,
                artifact: bytes.clone(),
            };
            let back = span_sized(
                trace,
                "transport.done_frame_rt",
                || round_trip(&frame),
                |_| (bytes.len(), 1),
            );
            tally.check(back.as_ref() == Some(&frame), || {
                "a Done frame fails to round-trip".to_string()
            });
        }
        for store in &stores {
            let bytes = span_sized(trace, "store.encode", || store.to_bytes(), |b| (b.len(), 1));
            let view = span_sized(
                trace,
                "store.view",
                || ProfileStoreView::new(&bytes).map(|v| v.len()),
                |_| (bytes.len(), 1),
            );
            tally.check(view.is_ok_and(|n| n == store.len()), || {
                "a store fails to view".to_string()
            });
            let decoded = span_sized(
                trace,
                "store.decode",
                || ProfileStore::from_bytes(&bytes),
                |_| (bytes.len(), 1),
            );
            tally.check(decoded.is_ok_and(|d| d == **store), || {
                "a store fails to decode to itself".to_string()
            });
        }
        let ok = span_sized(
            trace,
            "transport.event_frame_rt",
            || {
                event_frames
                    .iter()
                    .all(|f| round_trip(f).as_ref() == Some(f))
            },
            |_| (0, event_frames.len()),
        );
        tally.check(ok, || "an Event frame fails to round-trip".to_string());
    }
    Ok(campaign_bytes)
}

/// Encodes and decodes one frame.
fn round_trip(frame: &Frame) -> Option<Frame> {
    let mut buf = Vec::new();
    frame.write_to(&mut buf).ok()?;
    Frame::read_from(&mut buf.as_slice()).ok()
}

/// The traced run of `workload`: repeats the traced cycle for `seconds`
/// (at least once) and returns the per-layer metrics and notes.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    work: &WorkDir,
    tally: &mut Tally,
) -> BenchResult<(Metrics, Vec<String>)> {
    let setup = Setup::build(workload, seed, work.path())?;
    let trace = Mutex::new(Tracer::new());
    let mut counters = Counters::default();
    let mut campaign_bytes = Vec::new();
    let start = Instant::now();
    while campaign_bytes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (reports, events) = match workload {
            Workload::SuiteLocal | Workload::SuiteServed => {
                let (reports, events) = profile_campaigns(&setup, &trace, &mut counters, tally)?;
                executor_passes(
                    &setup,
                    work,
                    workload == Workload::SuiteServed,
                    &reports,
                    &mut counters,
                    tally,
                )?;
                (reports, events)
            }
            Workload::ArchiveRead => {
                let mut reports = Vec::with_capacity(TRACED_CAMPAIGNS);
                for (c, (want, factory)) in setup
                    .archive
                    .iter()
                    .zip(&setup.factories)
                    .take(TRACED_CAMPAIGNS)
                    .enumerate()
                {
                    // Timing backends, so a reopen that re-measured would
                    // record engine.run spans under archive.reopen.
                    let factory = TracedFactory {
                        inner: factory,
                        trace: &trace,
                    };
                    let got = span(&trace, "archive.reopen", || {
                        archive::reopen(&setup.campaign, &factory, &want.dir)
                    })?;
                    archive::check_reopen(
                        &format!("traced reopen (seed slot {c})"),
                        &got,
                        want,
                        &setup,
                        tally,
                    );
                    tally.attempted += got.reports.len() as u64;
                    counters.entries += got.reports.len() as u64;
                    reports.push(got.reports);
                }
                (reports, Vec::new())
            }
        };
        campaign_bytes.extend(codec_layers(
            &setup, work, &trace, &reports, &events, tally,
        )?);
    }
    let bytes_per_campaign = median(&campaign_bytes).unwrap_or(0.0);

    let t = trace.into_inner().expect("tracer lock");
    let remeasured = t.count_under("engine.run", &["checkpoint.resume", "archive.reopen"]);
    tally.check(remeasured == 0, || {
        format!("{remeasured} engine runs under a resume of a complete checkpoint")
    });
    let c = &counters;
    let p50 = |name: &str| median(&t.secs(name)).unwrap_or(0.0);
    let mut m = Metrics::default();
    let engine_s = t.total("engine.run");
    // Entry time as the executor spends it: without the binning re-run.
    let entry_s = t.total("entry") - t.total("binning.rerun");
    let scripts = t.named("engine.run").count() as f64;
    m.push("engine.run_us_p50", p50("engine.run") * 1e6, "us");
    m.push(
        "engine.events_per_run",
        ratio(c.engine_events as f64, c.engine_scripts as f64),
        "count",
    );
    m.push(
        "engine.scripts_per_entry",
        ratio(scripts, c.entries as f64),
        "count",
    );
    m.push(
        "engine.mevents_per_s",
        ratio(c.engine_events as f64 / 1e6, engine_s),
        "Mevents/s",
    );
    m.push("engine.busy_frac", ratio(engine_s, entry_s), "ratio");
    m.push("stages.calibrate_ms", p50("stage.calibrate") * 1e3, "ms");
    m.push(
        "stages.timing_probe_ms",
        p50("stage.timing_probe") * 1e3,
        "ms",
    );
    m.push("stages.ssp_search_ms", p50("stage.ssp_search") * 1e3, "ms");
    m.push(
        "stages.collect_runs_ms",
        p50("stage.collect_runs") * 1e3,
        "ms",
    );
    m.push(
        "stages.collect_runs_self_ms",
        median(&t.self_secs("stage.collect_runs")).unwrap_or(0.0) * 1e3,
        "ms",
    );
    m.push(
        "stages.collect_runs_frac",
        ratio(t.total("stage.collect_runs"), entry_s),
        "ratio",
    );
    m.push("stages.finalize_us", p50("stage.finalize") * 1e6, "us");
    m.push("binning.bin_us", p50("binning.bin") * 1e6, "us");
    m.push("binning.stitch_us", p50("binning.stitch") * 1e6, "us");
    m.push(
        "executor.worker_util",
        ratio(c.entry_busy_s, c.worker_wall_s),
        "ratio",
    );
    m.push(
        "checkpoint.persist_ms",
        p50("checkpoint.persist") * 1e3,
        "ms",
    );
    m.push(
        "checkpoint.manifest_ms",
        p50("checkpoint.manifest") * 1e3,
        "ms",
    );
    m.push(
        "checkpoint.entry_encode_mb_s",
        t.mb_per_s("checkpoint.entry_encode"),
        "MB/s",
    );
    m.push(
        "checkpoint.entry_view_mb_s",
        t.mb_per_s("checkpoint.entry_view"),
        "MB/s",
    );
    m.push(
        "checkpoint.entry_decode_mb_s",
        t.mb_per_s("checkpoint.entry_decode"),
        "MB/s",
    );
    m.push("checkpoint.resume_ms", p50("checkpoint.resume") * 1e3, "ms");
    m.push("checkpoint.gather_ms", p50("checkpoint.gather") * 1e3, "ms");
    m.push("checkpoint.bytes_per_campaign", bytes_per_campaign, "B");
    m.push("store.encode_mb_s", t.mb_per_s("store.encode"), "MB/s");
    m.push("store.view_mb_s", t.mb_per_s("store.view"), "MB/s");
    m.push("store.decode_mb_s", t.mb_per_s("store.decode"), "MB/s");
    m.push("report.csv_mb_s", t.mb_per_s("report.csv"), "MB/s");
    m.push(
        "transport.event_frames_per_campaign",
        ratio(c.event_frames as f64, c.frame_campaigns as f64),
        "count",
    );
    m.push(
        "transport.wire_mb_per_campaign",
        ratio(c.wire_bytes as f64 / 1e6, c.frame_campaigns as f64),
        "MB",
    );
    m.push(
        "transport.event_frame_rt_us",
        t.secs_per_item("transport.event_frame_rt") * 1e6,
        "us",
    );
    m.push(
        "transport.done_frame_rt_mb_s",
        t.mb_per_s("transport.done_frame_rt"),
        "MB/s",
    );
    m.push(
        "transport.served_overhead_frac",
        if c.served_s > 0.0 {
            ratio(c.served_s, c.local_s) - 1.0
        } else {
            0.0
        },
        "ratio",
    );
    let traced_eps = ratio(c.entries as f64, c.traced_s);
    let untraced_eps = ratio(c.entries as f64, c.untraced_s);
    m.push("trace.entries_per_s", traced_eps, "1/s");
    m.push("trace.untraced_entries_per_s", untraced_eps, "1/s");
    m.push(
        "trace.overhead_frac",
        if traced_eps > 0.0 {
            untraced_eps / traced_eps - 1.0
        } else {
            0.0
        },
        "ratio",
    );

    let path = Path::new(".bench_out").join(format!("spans-{}-seed{seed}.csv", workload.name()));
    std::fs::create_dir_all(".bench_out").map_err(ctx("creating .bench_out"))?;
    t.write_csv(&path).map_err(ctx("writing spans"))?;
    let notes = vec![
        format!(
            "spans: {} recorded, written to {}; {} entries traced, {} engine scripts, {remeasured} of them under a resume",
            t.spans.len(),
            path.display(),
            c.entries,
            scripts
        ),
        "trace.* compares the wall time of the serial stage-by-stage campaign loop (binning re-runs taken out) with the serial untraced executor on the same campaigns".to_string(),
    ];
    Ok((m, notes))
}
