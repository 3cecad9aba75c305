//! Sharded execution of multi-kernel campaigns.
//!
//! [`CampaignExecutor`] distributes a [`Campaign`]'s kernels across worker
//! threads. Three properties make the parallelism safe for a measurement
//! methodology:
//!
//! * **Isolation** — every kernel gets a fresh backend from a
//!   [`BackendFactory`], so no simulator (or device-session) state is
//!   shared between shards; this is the paper's measurement guidance #2
//!   applied across threads.
//! * **Determinism** — the factory derives each backend solely from the
//!   kernel's campaign index, so results are bit-identical to the serial
//!   path and to any other worker count or scheduling order.
//! * **Order preservation** — workers send `(index, result)` pairs over a
//!   channel and the collector writes them into their campaign slots, so
//!   the report lists kernels in campaign order regardless of completion
//!   order.
//!
//! Failures follow the configured [`ErrorPolicy`]: `FailFast` stops
//! claiming new kernels at the first error (and
//! [`CampaignOutcome::into_report`] surfaces the lowest-index error, which
//! is deterministic — see the policy docs), while `CollectAll` profiles
//! everything and reports every error alongside the successful reports.
//!
//! Campaigns are also *observable and cancellable*: the
//! [`RunOptions::observer`] of [`CampaignExecutor::run`] hears per-entry
//! lifecycle and device events while workers run, and its
//! [`RunOptions::cancel`] token stops the campaign early under **both**
//! error policies — pending entries are skipped and in-flight script
//! sessions abort cooperatively at their next host boundary (surfacing as
//! [`MethodologyError::Aborted`] on their slots). Each slot's event stream
//! is deterministic regardless of worker count; only the interleaving
//! *between* slots depends on scheduling.
//!
//! Campaigns are also *durable*: under [`CheckpointMode::Fresh`] every
//! finished entry is persisted into a [`crate::checkpoint`] directory as
//! it completes, and [`CheckpointMode::Resume`] finishes a
//! cancelled/crashed campaign from that checkpoint — re-measuring only the
//! unfinished entries — with final artifacts byte-identical to an
//! uninterrupted run. Both persist through the same checkpoint ledger as a
//! served campaign ([`crate::transport::CampaignService::submit`]): an entry is
//! durable before [`CampaignObserver::entry_finished`] fires, a
//! re-measured entry must match any copy an earlier run left on disk, and
//! the first persistence failure stops the run from claiming further
//! entries.
//!
//! # Example: cancel a sharded campaign, resume it byte-identically
//!
//! ```
//! use fingrav_core::backend::SimulationFactory;
//! use fingrav_core::campaign::Campaign;
//! use fingrav_core::executor::{
//!     CampaignExecutor, CampaignObserver, CancellationToken, CheckpointMode, RunOptions,
//! };
//! use fingrav_core::runner::{KernelPowerReport, RunnerConfig};
//! use fingrav_sim::config::SimConfig;
//! use fingrav_workloads::suite;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let machine = SimConfig::default().machine.clone();
//! let mut campaign = Campaign::new(RunnerConfig::quick(6));
//! campaign.add_all(suite::gemm_suite(&machine).into_iter().take(2).map(|k| k.desc));
//! let factory = SimulationFactory::new(SimConfig::default(), 99);
//! let dir = std::env::temp_dir().join(format!("fingrav-doc-resume-{}", std::process::id()));
//!
//! // An observer that cancels the campaign after the first entry lands.
//! struct CancelAfterOne(CancellationToken);
//! impl CampaignObserver for CancelAfterOne {
//!     fn entry_finished(&self, _index: usize, _report: &KernelPowerReport) {
//!         self.0.abort();
//!     }
//! }
//! let observer = CancelAfterOne(CancellationToken::new());
//! let partial = CampaignExecutor::serial().run(
//!     &campaign,
//!     &factory,
//!     RunOptions {
//!         observer: &observer,
//!         cancel: observer.0.clone(),
//!         checkpoint: CheckpointMode::Fresh(&dir),
//!     },
//! )?;
//! assert!(!partial.is_complete(), "cancellation left work undone");
//!
//! // Resume re-measures only the unfinished entries; the result is
//! // byte-identical to an uninterrupted run of the same campaign.
//! let resume = RunOptions {
//!     checkpoint: CheckpointMode::Resume(&dir),
//!     ..RunOptions::default()
//! };
//! let resumed = CampaignExecutor::serial()
//!     .run(&campaign, &factory, resume)?
//!     .into_report()?;
//! let direct = CampaignExecutor::serial()
//!     .run(&campaign, &factory, RunOptions::default())?
//!     .into_report()?;
//! assert_eq!(resumed, direct);
//! std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;

use crate::backend::{BackendFactory, PowerBackend};
use crate::campaign::{Campaign, CampaignReport};
use crate::checkpoint::{CampaignManifest, Ledger, Opening};
use crate::error::{MethodologyError, MethodologyResult};
use crate::observe::{ProfilingEvent, ProfilingSink};
use crate::runner::{FingravRunner, KernelPowerReport};
use fingrav_sim::engine::EngineStats;
use fingrav_sim::session::TelemetryEvent;

/// Cooperative cancellation for a whole campaign: the same shared-flag
/// type a single script session aborts with, shared across every session
/// the campaign starts.
pub type CancellationToken = fingrav_sim::session::AbortHandle;

/// Live observer of a campaign, set as [`RunOptions::observer`].
///
/// Methods take `&self` and may be called concurrently from worker
/// threads (the trait requires `Sync`); all default to no-ops so
/// implementors override only what they watch. Calls for one slot always
/// arrive in order (`entry_started`, then its `entry_event`s, then exactly
/// one of `entry_finished`/`entry_failed`); calls for different slots
/// interleave arbitrarily under sharding.
pub trait CampaignObserver: Sync {
    /// A worker claimed entry `index` and is about to profile it.
    fn entry_started(&self, index: usize, label: &str) {
        let _ = (index, label);
    }
    /// A stage boundary or device event of entry `index`'s profiling.
    fn entry_event(&self, index: usize, event: &ProfilingEvent) {
        let _ = (index, event);
    }
    /// Entry `index` produced a report.
    fn entry_finished(&self, index: usize, report: &KernelPowerReport) {
        let _ = (index, report);
    }
    /// Engine hot-loop counters of the backend that profiled entry
    /// `index`, harvested right before its `entry_finished`. Only emitted
    /// for backends that track them (the simulator does); fleet-mode
    /// workers surface these as throughput telemetry.
    fn entry_engine_stats(&self, index: usize, stats: EngineStats) {
        let _ = (index, stats);
    }
    /// Entry `index` failed (including [`MethodologyError::Aborted`] when
    /// a cancellation cut its session short).
    fn entry_failed(&self, index: usize, error: &MethodologyError) {
        let _ = (index, error);
    }
    /// Entry `index` was never started (fail-fast or cancellation).
    fn entry_skipped(&self, index: usize) {
        let _ = index;
    }
    /// A distributed worker holding entry `index` went byte-silent past
    /// its idle deadline; the service abandoned the connection and
    /// re-queued the entry to the front of the plan. Only emitted for
    /// campaigns served by [`crate::transport::CampaignService`] — local
    /// executors never evict.
    /// The entry will be `entry_started` again when another worker (or
    /// the same one, reconnected) claims it.
    fn entry_evicted(&self, index: usize) {
        let _ = index;
    }
}

/// A [`CampaignObserver`] that ignores everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopCampaignObserver;

impl CampaignObserver for NoopCampaignObserver {}

/// A ready-made observer tracking live per-slot progress counters:
/// emitted power logs, completed launches, and finished entries. Cheap
/// enough to attach to any campaign; compose it inside a richer observer
/// for display.
#[derive(Debug)]
pub struct CampaignTally {
    logs: Vec<AtomicU64>,
    launches: Vec<AtomicU64>,
    finished: AtomicUsize,
    engine_events: AtomicU64,
    engine_scripts: AtomicU64,
}

impl CampaignTally {
    /// Creates a tally for a campaign of `entries` slots.
    pub fn new(entries: usize) -> Self {
        CampaignTally {
            logs: (0..entries).map(|_| AtomicU64::new(0)).collect(),
            launches: (0..entries).map(|_| AtomicU64::new(0)).collect(),
            finished: AtomicUsize::new(0),
            engine_events: AtomicU64::new(0),
            engine_scripts: AtomicU64::new(0),
        }
    }

    /// Power logs emitted so far while profiling slot `index`.
    pub fn logs(&self, index: usize) -> u64 {
        self.logs[index].load(Ordering::Relaxed)
    }

    /// Timed launches completed so far while profiling slot `index`.
    pub fn launches(&self, index: usize) -> u64 {
        self.launches[index].load(Ordering::Relaxed)
    }

    /// Entries that have produced a report so far.
    pub fn finished(&self) -> usize {
        self.finished.load(Ordering::Relaxed)
    }

    /// Engine events popped across all finished entries (simulator
    /// backends only — the hot-loop throughput counter).
    pub fn engine_events(&self) -> u64 {
        self.engine_events.load(Ordering::Relaxed)
    }

    /// Engine scripts run across all finished entries (simulator backends
    /// only).
    pub fn engine_scripts(&self) -> u64 {
        self.engine_scripts.load(Ordering::Relaxed)
    }
}

impl CampaignObserver for CampaignTally {
    fn entry_event(&self, index: usize, event: &ProfilingEvent) {
        if let ProfilingEvent::Device(device) = event {
            match device {
                TelemetryEvent::PowerLogEmitted { .. } => {
                    self.logs[index].fetch_add(1, Ordering::Relaxed);
                }
                TelemetryEvent::LaunchCompleted { .. } => {
                    self.launches[index].fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
        }
    }

    fn entry_finished(&self, _index: usize, _report: &KernelPowerReport) {
        self.finished.fetch_add(1, Ordering::Relaxed);
    }

    fn entry_engine_stats(&self, _index: usize, stats: EngineStats) {
        self.engine_events
            .fetch_add(stats.events_popped, Ordering::Relaxed);
        self.engine_scripts
            .fetch_add(stats.scripts_run, Ordering::Relaxed);
    }
}

/// Where [`CampaignExecutor::run`] keeps the campaign's checkpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CheckpointMode<'a> {
    /// Nothing is persisted.
    #[default]
    None,
    /// A fresh durable run: the campaign is planned into this directory
    /// (manifest with per-entry statuses, entries sharded round-robin
    /// across the worker count) and every entry's full report is persisted
    /// under its shard the moment it finishes. A directory that
    /// checkpoints a different campaign is refused.
    Fresh(&'a Path),
    /// Completes the campaign checkpointed in this directory: entries the
    /// manifest records as done are restored from their persisted
    /// artifacts (no re-measurement); pending, failed and aborted entries
    /// are re-planned across the executor's workers and measured exactly
    /// as an uninterrupted run would have, because every slot's backend
    /// derives solely from its campaign index.
    Resume(&'a Path),
}

/// How [`CampaignExecutor::run`] runs a campaign. The default observes
/// nothing, is never cancelled and persists nothing.
pub struct RunOptions<'a> {
    /// Hears every entry's lifecycle and events while workers run.
    pub observer: &'a dyn CampaignObserver,
    /// Stops the campaign early once it fires.
    pub cancel: CancellationToken,
    /// Where the campaign is checkpointed, if anywhere.
    pub checkpoint: CheckpointMode<'a>,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions {
            observer: &NoopCampaignObserver,
            cancel: CancellationToken::new(),
            checkpoint: CheckpointMode::None,
        }
    }
}

/// What the executor does when a kernel's measurement fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorPolicy {
    /// Stop claiming new kernels at the first failure; kernels already in
    /// flight finish. The first error *by campaign index* is always
    /// observed (workers claim indices in ascending order, so every index
    /// below a failing one has already been claimed and runs to
    /// completion), making [`CampaignOutcome::into_report`]'s error choice
    /// deterministic.
    #[default]
    FailFast,
    /// Measure every kernel regardless of failures and collect all errors,
    /// each recorded against its slot.
    CollectAll,
}

/// Sharded campaign runner: worker count + error policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignExecutor {
    workers: usize,
    policy: ErrorPolicy,
}

impl CampaignExecutor {
    /// Creates an executor with an explicit worker count (clamped to at
    /// least one). One worker executes in place, without spawning.
    pub fn new(workers: usize) -> Self {
        CampaignExecutor {
            workers: workers.max(1),
            policy: ErrorPolicy::default(),
        }
    }

    /// An executor sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        CampaignExecutor::new(workers)
    }

    /// A single-worker (serial, in-place) executor.
    pub fn serial() -> Self {
        CampaignExecutor::new(1)
    }

    /// Sets the error policy.
    #[must_use]
    pub fn error_policy(mut self, policy: ErrorPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured error policy.
    pub fn policy(&self) -> ErrorPolicy {
        self.policy
    }

    /// Runs `campaign`, sharded across the configured workers, and
    /// returns the per-slot outcome (campaign order). `options` choose the
    /// observer, the cancellation token and the checkpoint; with
    /// [`RunOptions::default`] nothing is observed or persisted. Neither
    /// the observer, the checkpoint nor the worker count changes a slot's
    /// backend call sequence, so results are bit-identical across them.
    ///
    /// Once the token fires, no new entry starts (they are reported
    /// skipped, under both error policies) and every in-flight script
    /// session aborts at its next host boundary, surfacing
    /// [`MethodologyError::Aborted`] on its slot. Measurement errors stay
    /// inside the outcome; [`CampaignOutcome::into_report`] surfaces the
    /// lowest-index one.
    ///
    /// # Errors
    ///
    /// Only with a checkpoint: [`MethodologyError::Checkpoint`] when the
    /// directory cannot be created, a resumed checkpoint is missing,
    /// damaged (typed causes in [`crate::checkpoint::CheckpointError`]) or
    /// was taken under a different campaign configuration, or a
    /// persistence write fails. After a persistence failure no further
    /// entry starts.
    pub fn run<F: BackendFactory>(
        &self,
        campaign: &Campaign,
        factory: &F,
        options: RunOptions<'_>,
    ) -> MethodologyResult<CampaignOutcome> {
        let (n, workers) = (campaign.len(), self.workers);
        let opening = match options.checkpoint {
            CheckpointMode::None => None,
            CheckpointMode::Fresh(dir) => Some((
                dir,
                Opening::Fresh(CampaignManifest::plan(campaign, factory, workers)),
            )),
            CheckpointMode::Resume(dir) => Some((dir, Opening::Resume { workers })),
        };
        let (ledger, mut outcome, plan) = match opening {
            Some((dir, opening)) => {
                let (ledger, restored, plan) = Ledger::open(dir, campaign, opening)?;
                (Some(ledger), restored, plan)
            }
            None => (None, CampaignOutcome::empty(n), (0..n).collect()),
        };
        let (observer, cancel) = (options.observer, options.cancel);
        let halted = || cancel.is_aborted() || ledger.as_ref().is_some_and(Ledger::failed);
        let profile =
            |index| profile_slot(campaign, factory, index, observer, &cancel, ledger.as_ref());
        self.claim(&plan, &halted, &profile, &mut outcome);
        outcome.settle(&plan, observer);
        if let Some(ledger) = ledger {
            ledger.close()?;
        }
        Ok(outcome)
    }

    /// The claim loop: profiles the indices of `plan` in order until
    /// `halted` (cancelled, or the ledger failed) or, under
    /// [`ErrorPolicy::FailFast`], until an entry fails, and merges the
    /// results into `outcome`, whose slots outside the plan (entries
    /// restored from a checkpoint) are left untouched. One worker runs in
    /// place; several claim positions from a shared counter.
    fn claim(
        &self,
        plan: &[usize],
        halted: &(dyn Fn() -> bool + Sync),
        profile: &(dyn Fn(usize) -> MethodologyResult<KernelPowerReport> + Sync),
        outcome: &mut CampaignOutcome,
    ) {
        let fail_fast = self.policy == ErrorPolicy::FailFast;
        if self.workers == 1 {
            // In-place serial path: no threads, same claim loop semantics.
            for &index in plan {
                if halted() {
                    break;
                }
                match profile(index) {
                    Ok(report) => outcome.reports[index] = Some(report),
                    Err(e) => {
                        outcome.errors.push((index, e));
                        if fail_fast {
                            break;
                        }
                    }
                }
            }
            return;
        }

        let n = plan.len();
        let next = AtomicUsize::new(0);
        let cancelled = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel::<(usize, MethodologyResult<KernelPowerReport>)>();

        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(n) {
                let tx = tx.clone();
                let next = &next;
                let cancelled = &cancelled;
                scope.spawn(move || loop {
                    if halted() || (fail_fast && cancelled.load(Ordering::Acquire)) {
                        return;
                    }
                    let pos = next.fetch_add(1, Ordering::Relaxed);
                    if pos >= n {
                        return;
                    }
                    let index = plan[pos];
                    let result = profile(index);
                    if result.is_err() && fail_fast {
                        cancelled.store(true, Ordering::Release);
                    }
                    if tx.send((index, result)).is_err() {
                        return;
                    }
                });
            }
            drop(tx);

            // Order-preserving collection: completion order is arbitrary,
            // slot order is not.
            for (index, result) in rx {
                match result {
                    Ok(report) => outcome.reports[index] = Some(report),
                    Err(e) => outcome.errors.push((index, e)),
                }
            }
        });
    }

    // The four aliases below stay only because campaign-bench calls them;
    // its files change only together with the benchmark.

    #[doc(hidden)]
    pub fn execute<F: BackendFactory>(&self, campaign: &Campaign, factory: &F) -> CampaignOutcome {
        self.run(campaign, factory, RunOptions::default())
            .expect("without a checkpoint, run cannot fail")
    }

    #[doc(hidden)]
    pub fn execute_sharded<F: BackendFactory>(
        &self,
        campaign: &Campaign,
        factory: &F,
        dir: &Path,
    ) -> MethodologyResult<CampaignOutcome> {
        let options = RunOptions {
            checkpoint: CheckpointMode::Fresh(dir),
            ..RunOptions::default()
        };
        self.run(campaign, factory, options)
    }

    #[doc(hidden)]
    pub fn execute_sharded_observed<F: BackendFactory>(
        &self,
        campaign: &Campaign,
        factory: &F,
        dir: &Path,
        observer: &dyn CampaignObserver,
        cancel: &CancellationToken,
    ) -> MethodologyResult<CampaignOutcome> {
        let options = RunOptions {
            observer,
            cancel: cancel.clone(),
            checkpoint: CheckpointMode::Fresh(dir),
        };
        self.run(campaign, factory, options)
    }

    #[doc(hidden)]
    pub fn resume<F: BackendFactory>(
        &self,
        campaign: &Campaign,
        factory: &F,
        dir: &Path,
    ) -> MethodologyResult<CampaignOutcome> {
        let options = RunOptions {
            checkpoint: CheckpointMode::Resume(dir),
            ..RunOptions::default()
        };
        self.run(campaign, factory, options)
    }
}

/// Forwards one slot's profiling events to the campaign observer.
struct SlotSink<'o> {
    index: usize,
    observer: &'o dyn CampaignObserver,
}

impl ProfilingSink for SlotSink<'_> {
    fn on_event(&mut self, event: ProfilingEvent) {
        self.observer.entry_event(self.index, &event);
    }
}

/// Profiles one campaign slot on a fresh backend (shared by the serial and
/// threaded paths, so both issue the identical call sequence), reporting
/// its lifecycle to the observer and honoring the cancellation token. With
/// a `ledger` the outcome is recorded in the checkpoint first, so an entry
/// is durable before `entry_finished` fires.
///
/// Crate-visible because it is also the *remote execution seam*: a
/// [`crate::transport`] worker measures each assigned entry through this
/// exact function, so a cross-node campaign issues the identical per-slot
/// backend call sequence as a local one — which is what reduces the
/// distributed byte-identity guarantee to the executor's existing one.
pub(crate) fn profile_slot<F: BackendFactory>(
    campaign: &Campaign,
    factory: &F,
    index: usize,
    observer: &dyn CampaignObserver,
    cancel: &CancellationToken,
    ledger: Option<&Ledger>,
) -> MethodologyResult<KernelPowerReport> {
    let entry = &campaign.entries()[index];
    observer.entry_started(index, &entry.desc.name);
    let result = (|| {
        let mut backend = factory.create(index)?;
        let report = {
            let mut sink = SlotSink { index, observer };
            let mut runner =
                FingravRunner::new(&mut backend, entry.effective_config(campaign.config()))
                    .with_observer(&mut sink)
                    .with_abort(cancel.clone());
            runner.profile(&entry.desc)?
        };
        // The runner's borrow has ended: harvest the engine's hot-loop
        // counters so fleet-mode workers can report throughput.
        Ok((report, backend.engine_stats()))
    })();
    match result {
        Ok((report, stats)) => {
            if let Some(stats) = stats {
                observer.entry_engine_stats(index, stats);
            }
            if let Some(ledger) = ledger {
                ledger.record_report(index, &report);
            }
            observer.entry_finished(index, &report);
            Ok(report)
        }
        Err(e) => {
            if let Some(ledger) = ledger {
                ledger.record_failed(index, &e);
            }
            observer.entry_failed(index, &e);
            Err(e)
        }
    }
}

/// Per-slot outcome of a sharded campaign, in campaign order.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// One slot per campaign entry: `Some` on success, `None` on failure
    /// or skip.
    pub reports: Vec<Option<KernelPowerReport>>,
    /// Measurement errors, sorted by campaign index.
    pub errors: Vec<(usize, MethodologyError)>,
    /// Indices never started (fail-fast cancellation), ascending.
    pub skipped: Vec<usize>,
    /// Indices whose assignment was evicted from a silent worker and
    /// re-planned, in eviction order. An index can repeat (a re-planned
    /// entry can be evicted again); every evicted entry still resolves
    /// into exactly one of `reports`/`errors`/`skipped`, so this is
    /// diagnostic fleet telemetry, not an outcome slot. Always empty for
    /// local (non-transport) executions.
    pub evictions: Vec<usize>,
}

impl CampaignOutcome {
    /// An outcome with `n` empty slots (no reports, errors, or skips).
    pub fn empty(n: usize) -> Self {
        let mut reports = Vec::with_capacity(n);
        reports.resize_with(n, || None);
        CampaignOutcome {
            reports,
            errors: Vec::new(),
            skipped: Vec::new(),
            evictions: Vec::new(),
        }
    }

    /// Settles a finished plan: every index of `plan` that produced
    /// neither a report nor an error was never started and is reported
    /// skipped, ascending; errors are sorted by index.
    pub(crate) fn settle(&mut self, plan: &[usize], observer: &dyn CampaignObserver) {
        self.errors.sort_by_key(|(index, _)| *index);
        let errors = &self.errors;
        let reports = &self.reports;
        self.skipped = plan
            .iter()
            .copied()
            .filter(|&i| reports[i].is_none() && !errors.iter().any(|(e, _)| *e == i))
            .collect();
        self.skipped.sort_unstable();
        for &index in &self.skipped {
            observer.entry_skipped(index);
        }
    }

    /// True when every entry produced a report.
    pub fn is_complete(&self) -> bool {
        self.reports.iter().all(Option::is_some)
    }

    /// Converts into a [`CampaignReport`], failing with the lowest-index
    /// error if any slot failed.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index measurement error.
    pub fn into_report(mut self) -> MethodologyResult<CampaignReport> {
        if let Some((_, e)) = self.errors.first() {
            return Err(e.clone());
        }
        if let Some(index) = self.skipped.first() {
            // Unreachable through the executor (skips only follow errors),
            // but a hand-built outcome must not silently drop slots.
            return Err(MethodologyError::Backend(format!(
                "campaign slot {index} was skipped without an error"
            )));
        }
        let mut reports = Vec::with_capacity(self.reports.len());
        for (index, report) in self.reports.drain(..).enumerate() {
            // Also unreachable through the executor; an empty hand-built
            // slot must surface as an error, not a panic.
            reports.push(report.ok_or_else(|| {
                MethodologyError::Backend(format!("campaign slot {index} produced no report"))
            })?);
        }
        Ok(CampaignReport { reports })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FnBackendFactory, SimulationFactory};
    use crate::runner::RunnerConfig;
    use fingrav_sim::config::SimConfig;
    use fingrav_sim::engine::Simulation;
    use fingrav_sim::kernel::KernelDesc;
    use fingrav_sim::power::Activity;
    use fingrav_sim::time::SimDuration;

    fn kernel(name: &str, us: u64, xcd: f64) -> KernelDesc {
        KernelDesc {
            name: name.into(),
            base_exec: SimDuration::from_micros(us),
            freq_insensitive_frac: 0.5,
            activity: Activity::new(xcd, 0.4, 0.3),
            compute_utilization: xcd * 0.7,
            flops: 1e10,
            hbm_bytes: 1e7,
            llc_bytes: 1e8,
            workgroups: 128,
        }
    }

    /// The report of a plain (unobserved, uncheckpointed) run.
    fn report_of<F: BackendFactory>(
        executor: CampaignExecutor,
        campaign: &Campaign,
        factory: &F,
    ) -> MethodologyResult<CampaignReport> {
        executor
            .run(campaign, factory, RunOptions::default())?
            .into_report()
    }

    fn campaign_of(n: usize) -> Campaign {
        let mut campaign = Campaign::new(RunnerConfig::quick(8));
        for i in 0..n {
            campaign.add(kernel(
                &format!("k{i}"),
                120 + 40 * i as u64,
                0.4 + 0.1 * i as f64,
            ));
        }
        campaign
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let campaign = campaign_of(4);
        let factory = SimulationFactory::new(SimConfig::default(), 501);
        let serial = report_of(CampaignExecutor::serial(), &campaign, &factory).unwrap();
        let parallel = report_of(CampaignExecutor::new(4), &campaign, &factory).unwrap();
        assert_eq!(serial, parallel);
        // And both match a closure factory given the same seeds.
        let closure = FnBackendFactory(|i: usize| {
            Simulation::new(SimConfig::default(), factory.slot_seed(i))
                .map_err(|e| MethodologyError::Backend(e.to_string()))
        });
        let legacy = report_of(CampaignExecutor::serial(), &campaign, &closure).unwrap();
        assert_eq!(serial, legacy);
    }

    #[test]
    fn engine_stats_reach_campaign_observers() {
        let campaign = campaign_of(2);
        let factory = SimulationFactory::new(SimConfig::default(), 501);
        let tally = CampaignTally::new(2);
        let observed = RunOptions {
            observer: &tally,
            ..RunOptions::default()
        };
        let outcome = CampaignExecutor::serial()
            .run(&campaign, &factory, observed)
            .unwrap();
        assert!(outcome.is_complete());
        assert!(
            tally.engine_events() > 1_000,
            "profiling pops thousands of engine events, saw {}",
            tally.engine_events()
        );
        assert!(
            tally.engine_scripts() >= 2,
            "each entry runs several scripts, saw {}",
            tally.engine_scripts()
        );
    }

    #[test]
    fn reports_arrive_in_campaign_order() {
        // Kernel 0 is much longer than the rest, so with several workers
        // it finishes last; its report must still occupy slot 0.
        let mut campaign = Campaign::new(RunnerConfig::quick(8));
        campaign
            .add(kernel("slowest", 1200, 0.9))
            .add(kernel("quick-a", 60, 0.3))
            .add(kernel("quick-b", 70, 0.4));
        let factory = SimulationFactory::new(SimConfig::default(), 502);
        let report = report_of(CampaignExecutor::new(3), &campaign, &factory).unwrap();
        let labels: Vec<&str> = report.reports.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, vec!["slowest", "quick-a", "quick-b"]);
    }

    #[test]
    fn per_entry_config_overrides_apply_in_parallel() {
        let mut campaign = Campaign::new(RunnerConfig::quick(8));
        campaign
            .add(kernel("default", 150, 0.5))
            .add_with_config(kernel("more-runs", 150, 0.5), RunnerConfig::quick(16));
        let factory = SimulationFactory::new(SimConfig::default(), 503);
        let report = report_of(CampaignExecutor::new(2), &campaign, &factory).unwrap();
        assert!(report.reports[0].runs_executed >= 8);
        assert!(
            report.reports[1].runs_executed >= 16,
            "override must reach the worker"
        );
    }

    fn failing_factory(
        bad_index: usize,
    ) -> FnBackendFactory<impl Fn(usize) -> MethodologyResult<Simulation> + Send + Sync> {
        FnBackendFactory(move |i: usize| {
            if i == bad_index {
                Err(MethodologyError::Backend(format!("slot {i} is broken")))
            } else {
                Simulation::new(SimConfig::default(), 600 + i as u64)
                    .map_err(|e| MethodologyError::Backend(e.to_string()))
            }
        })
    }

    #[test]
    fn fail_fast_surfaces_the_lowest_index_error() {
        let campaign = campaign_of(5);
        let err = report_of(CampaignExecutor::new(3), &campaign, &failing_factory(1)).unwrap_err();
        assert!(matches!(err, MethodologyError::Backend(ref m) if m.contains("slot 1")));
    }

    #[test]
    fn collect_all_measures_every_healthy_slot() {
        let campaign = campaign_of(5);
        let outcome = CampaignExecutor::new(2)
            .error_policy(ErrorPolicy::CollectAll)
            .run(&campaign, &failing_factory(2), RunOptions::default())
            .unwrap();
        assert!(!outcome.is_complete());
        assert!(outcome.skipped.is_empty(), "collect-all never skips");
        assert_eq!(outcome.errors.len(), 1);
        assert_eq!(outcome.errors[0].0, 2);
        let completed = outcome.reports.iter().filter(|r| r.is_some()).count();
        assert_eq!(completed, 4, "all healthy slots measured");
        // Converting still surfaces the error.
        assert!(outcome.into_report().is_err());
    }

    #[test]
    fn serial_fail_fast_skips_the_tail() {
        let campaign = campaign_of(4);
        let outcome = CampaignExecutor::serial()
            .run(&campaign, &failing_factory(1), RunOptions::default())
            .unwrap();
        assert_eq!(outcome.errors.len(), 1);
        assert_eq!(outcome.skipped, vec![2, 3]);
        assert!(outcome.reports[0].is_some());
    }

    #[test]
    fn empty_campaign_yields_empty_report() {
        let campaign = Campaign::with_defaults();
        let factory = SimulationFactory::new(SimConfig::default(), 1);
        let report = report_of(CampaignExecutor::new(4), &campaign, &factory).unwrap();
        assert!(report.reports.is_empty());
    }

    #[test]
    fn hand_built_outcomes_error_instead_of_panicking() {
        // All CampaignOutcome fields are public; malformed hand-built
        // values must surface as errors, never panics.
        let missing_report = CampaignOutcome {
            reports: vec![None],
            errors: Vec::new(),
            skipped: Vec::new(),
            evictions: Vec::new(),
        };
        assert!(matches!(
            missing_report.into_report(),
            Err(MethodologyError::Backend(ref m)) if m.contains("slot 0")
        ));
        let unexplained_skip = CampaignOutcome {
            reports: vec![None],
            errors: Vec::new(),
            skipped: vec![0],
            evictions: Vec::new(),
        };
        assert!(matches!(
            unexplained_skip.into_report(),
            Err(MethodologyError::Backend(ref m)) if m.contains("skipped")
        ));
    }

    #[test]
    fn sharded_execution_persists_and_resumes_in_place() {
        let campaign = campaign_of(3);
        let factory = SimulationFactory::new(SimConfig::default(), 808);
        let dir = std::env::temp_dir().join(format!("fingrav-exec-ckpt-{}", std::process::id()));

        let direct = report_of(CampaignExecutor::new(2), &campaign, &factory).unwrap();
        let fresh = RunOptions {
            checkpoint: CheckpointMode::Fresh(&dir),
            ..RunOptions::default()
        };
        let sharded = CampaignExecutor::new(2)
            .run(&campaign, &factory, fresh)
            .unwrap()
            .into_report()
            .unwrap();
        assert_eq!(direct, sharded, "checkpointing must not perturb results");

        // The checkpoint is complete and resume is a pure restore.
        let manifest = crate::checkpoint::CheckpointDir::open(&dir)
            .unwrap()
            .read_manifest()
            .unwrap();
        assert!(manifest.is_complete());
        assert_eq!(manifest.workers, 2);
        let resume = RunOptions {
            checkpoint: CheckpointMode::Resume(&dir),
            ..RunOptions::default()
        };
        let restored = CampaignExecutor::new(4)
            .run(&campaign, &factory, resume)
            .unwrap()
            .into_report()
            .unwrap();
        assert_eq!(restored, direct);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_without_a_checkpoint_is_a_typed_error() {
        let campaign = campaign_of(2);
        let factory = SimulationFactory::new(SimConfig::default(), 808);
        let missing = std::env::temp_dir().join("fingrav-no-such-checkpoint");
        let resume = RunOptions {
            checkpoint: CheckpointMode::Resume(&missing),
            ..RunOptions::default()
        };
        let err = CampaignExecutor::serial()
            .run(&campaign, &factory, resume)
            .unwrap_err();
        assert!(matches!(err, MethodologyError::Checkpoint(_)));
    }

    #[test]
    fn worker_counts_clamp_and_report() {
        assert_eq!(CampaignExecutor::new(0).workers(), 1);
        assert_eq!(CampaignExecutor::new(6).workers(), 6);
        assert!(CampaignExecutor::with_available_parallelism().workers() >= 1);
        assert_eq!(CampaignExecutor::serial().policy(), ErrorPolicy::FailFast);
    }
}
