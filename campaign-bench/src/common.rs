//! What every workload shares: the campaign and its seeds, the ground
//! truth, the scratch directory, entry timing and the output tally.

use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use fingrav_core::backend::SimulationFactory;
use fingrav_core::campaign::Campaign;
use fingrav_core::checkpoint::{campaign_digest, EntryArtifact};
use fingrav_core::executor::{CampaignExecutor, CampaignObserver, CampaignOutcome};
use fingrav_core::profile::ProfileAxis;
use fingrav_core::report::columns_to_csv;
use fingrav_core::runner::{KernelPowerReport, RunnerConfig};
use fingrav_core::stats::{mean, median, quantile};
use fingrav_core::store::ProfileStore;
use fingrav_sim::config::SimConfig;
use fingrav_sim::engine::Simulation;
use fingrav_sim::kernel::KernelDesc;
use fingrav_sim::rng::mix_seed;
use fingrav_sim::script::Script;
use fingrav_sim::time::SimDuration;
use fingrav_workloads::suite;

/// Distinct campaign seeds per workload seed. Measured runs cycle through
/// them, so every later round re-measures a seed whose reports are known.
/// The accuracy metric averages over all of them: a few kernels' SSP error
/// swings between campaign seeds, and fewer seeds leave it too noisy to
/// gate.
pub const CAMPAIGNS: usize = 32;

/// Campaigns `archive-read`'s set-up persists and its reopens cycle
/// through. Persisting is nearly all of that set-up, which runs at least
/// three times per run; all of [`CAMPAIGNS`] doubled it (to 7-10 s) and
/// `peak_rss_mb`, for an accuracy figure that spreads 0.09-0.17 instead of
/// 0.04-0.08 over ten workload seeds.
pub const ARCHIVED: usize = CAMPAIGNS / 2;

/// Executor workers and served worker connections: the reference host has
/// two cores.
pub const WORKERS: usize = 2;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SuiteLocal,
    SuiteServed,
    ArchiveRead,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "suite-local" => Some(Workload::SuiteLocal),
            "suite-served" => Some(Workload::SuiteServed),
            "archive-read" => Some(Workload::ArchiveRead),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteLocal => "suite-local",
            Workload::SuiteServed => "suite-served",
            Workload::ArchiveRead => "archive-read",
        }
    }
}

/// A benchmark-level failure that stops the run (as opposed to a failed
/// entry or output check, which is counted).
pub type BenchResult<T> = Result<T, String>;

/// Formats any error into a [`BenchResult`] error with context.
pub fn ctx<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Everything set-up produces; built from the seed alone.
pub struct Setup {
    /// The paper's 14-kernel suite at paper-guidance run counts.
    pub campaign: Campaign,
    /// [`campaign_digest`] of `campaign`.
    pub digest: u64,
    /// One factory per campaign seed.
    pub factories: Vec<SimulationFactory>,
    /// True steady-period power of each kernel, in watts.
    pub truth_w: Vec<f64>,
    /// `archive-read` only: the persisted campaigns to reopen.
    pub archive: Vec<Archived>,
}

/// One campaign persisted by set-up, with digests of the outputs a reopen
/// must reproduce.
pub struct Archived {
    pub dir: PathBuf,
    /// [`Setup::digest_reports`] of the reports the live campaign returned.
    pub reports_digest: u64,
    /// [`digest`] of the three CSVs rendered from the live reports' stores.
    pub csv_digest: u64,
}

impl Setup {
    /// Builds the campaign, its factories and the ground truth; for
    /// `archive-read` also runs and persists the first [`ARCHIVED`]
    /// campaigns under `work`.
    pub fn build(workload: Workload, seed: u64, work: &Path) -> BenchResult<Setup> {
        let machine = SimConfig::default().machine;
        let kernels: Vec<KernelDesc> = suite::full_suite(&machine)
            .into_iter()
            .map(|k| k.desc)
            .collect();
        let mut campaign = Campaign::new(RunnerConfig::default());
        campaign.add_all(kernels.iter().cloned());
        let factories = (0..CAMPAIGNS)
            .map(|c| SimulationFactory::new(SimConfig::default(), mix_seed(seed, c as u64)))
            .collect();
        let truth_w = truth_powers_w(&kernels, seed)?;
        let mut setup = Setup {
            digest: campaign_digest(&campaign),
            campaign,
            factories,
            truth_w,
            archive: Vec::new(),
        };
        if workload == Workload::ArchiveRead {
            for c in 0..ARCHIVED {
                let dir = work.join(format!("archive-{c}"));
                let reports = CampaignExecutor::new(WORKERS)
                    .execute_sharded(&setup.campaign, &setup.factories[c], &dir)
                    .and_then(CampaignOutcome::into_report)
                    .map_err(ctx("persisting an archive campaign"))?
                    .reports;
                let stores = concat_stores(&reports);
                let csv = render_csvs(&stores[0], &stores[1], &stores[2]);
                setup.archive.push(Archived {
                    dir,
                    reports_digest: setup.digest_reports(&reports),
                    csv_digest: digest(&csv),
                });
            }
        }
        Ok(setup)
    }

    /// Number of kernel entries per campaign.
    pub fn entries(&self) -> usize {
        self.campaign.len()
    }

    /// Digest of the reports' canonical bytes: each report's `FGRVCKPT`
    /// entry encoding, the bytes a checkpoint or a `Done` frame carries.
    pub fn digest_reports(&self, reports: &[KernelPowerReport]) -> u64 {
        let bytes: Vec<Vec<u8>> = reports
            .iter()
            .enumerate()
            .map(|(i, r)| {
                EntryArtifact {
                    index: i as u32,
                    config_digest: self.digest,
                    report: r.clone(),
                }
                .to_bytes()
            })
            .collect();
        digest(&bytes)
    }
}

/// A 64-bit digest of a sequence of byte strings (lengths included), for
/// comparing outputs without keeping them.
pub fn digest<T: AsRef<[u8]>>(parts: &[T]) -> u64 {
    let mut h = std::hash::DefaultHasher::new();
    for part in parts {
        h.write(part.as_ref());
        h.write_usize(part.as_ref().len());
    }
    h.finish()
}

/// Independent simulations averaged into each kernel's ground truth. One
/// burst's truth varies by ~0.2% between simulator seeds, which is large
/// against SSP errors of ~0.5% and does not average out over campaigns
/// (every campaign of a run shares the truth); 128 bursts bring it to
/// ~0.07%.
const TRUTH_BURSTS: u64 = 128;

/// The true steady-period power of every kernel: the mean of
/// [`TRUTH_BURSTS`] independent bursts. The bursts run on [`WORKERS`]
/// threads, each taking every `WORKERS`-th one. A single thread tends to
/// stay on one core for the whole run, and on a shared host one core can
/// be much slower than the other for minutes, which made `setup_s`
/// bimodal; the campaigns already spread over both cores. Sums keep burst order, so the
/// truth does not depend on the split.
fn truth_powers_w(kernels: &[KernelDesc], seed: u64) -> BenchResult<Vec<f64>> {
    let bursts: Vec<(usize, u64)> = (0..kernels.len())
        .flat_map(|k| (0..TRUTH_BURSTS).map(move |b| (k, b)))
        .collect();
    let per_thread: Vec<BenchResult<Vec<f64>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|w| {
                let bursts = &bursts;
                s.spawn(move || {
                    bursts
                        .iter()
                        .skip(w)
                        .step_by(WORKERS)
                        .map(|&(k, b)| {
                            true_power_w(&kernels[k], mix_seed(mix_seed(!seed, k as u64), b))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("truth thread panicked"))
            .collect()
    });
    let per_thread = per_thread.into_iter().collect::<BenchResult<Vec<_>>>()?;
    let mut sums = vec![0.0f64; kernels.len()];
    for (i, &(k, _)) in bursts.iter().enumerate() {
        sums[k] += per_thread[i % WORKERS][i / WORKERS];
    }
    Ok(sums.iter().map(|s| s / TRUTH_BURSTS as f64).collect())
}

/// Executions in the ground-truth burst: long enough that its settled back
/// half spans several logger windows, and never fewer than 24.
fn truth_burst_len(desc: &KernelDesc) -> u32 {
    let span = SimDuration::from_millis(16).as_nanos();
    let exec = desc.base_exec.as_nanos().max(1);
    span.div_ceil(exec).clamp(24, 800) as u32
}

/// The true steady-period power of `desc`: ground-truth instantaneous
/// power integrated over the settled back half of a long back-to-back
/// burst (execution plus launch gap, period after period), divided by
/// that span.
fn true_power_w(desc: &KernelDesc, seed: u64) -> BenchResult<f64> {
    let mut cfg = SimConfig::default();
    cfg.telemetry.record_instant_trace = true;
    let sensor_s = cfg.telemetry.sensor_period.as_secs_f64();
    let mut sim = Simulation::new(cfg, seed).map_err(ctx("truth simulation"))?;
    let k = sim
        .register_kernel(desc.clone())
        .map_err(ctx("truth kernel"))?;
    let script = Script::builder()
        .begin_run()
        .start_power_logger()
        .launch_timed(k, truth_burst_len(desc))
        .sleep(SimDuration::from_millis(1))
        .stop_power_logger()
        .build();
    let trace = sim.run_script(&script).map_err(ctx("truth burst"))?;
    let all = &trace.truth.executions;
    if all.len() < 4 {
        return Err(format!(
            "truth burst of {} ran {} executions",
            desc.name,
            all.len()
        ));
    }
    // [start of the middle execution, start of the last one): whole periods.
    let start = all[all.len() / 2].start.as_nanos();
    let end = all[all.len() - 1].start.as_nanos();
    let joules: f64 = trace
        .truth
        .instant_power
        .iter()
        .filter(|(t, _)| t.as_nanos() > start && t.as_nanos() <= end)
        .map(|(_, p)| p.total() * sensor_s)
        .sum();
    Ok(joules / ((end - start) as f64 * 1e-9))
}

/// Per-kernel relative power errors against the truth, for SSP and (as an
/// ungated reference) SSE estimates.
#[derive(Debug, Default)]
pub struct Accuracy {
    ssp: Vec<f64>,
    sse: Vec<f64>,
}

impl Accuracy {
    pub fn add(&mut self, reports: &[KernelPowerReport], truth_w: &[f64]) {
        for (r, &truth) in reports.iter().zip(truth_w) {
            if let Some(w) = r.ssp_mean_total_w {
                self.ssp.push((w - truth).abs() / truth);
            }
            if let Some(w) = r.sse_mean_total_w {
                self.sse.push((w - truth).abs() / truth);
            }
        }
    }

    /// Mean SSP power error over every kernel of every campaign, percent.
    pub fn ssp_pct(&self) -> f64 {
        mean(&self.ssp).unwrap_or(0.0) * 100.0
    }

    /// Mean SSE power error, percent.
    pub fn sse_pct(&self) -> f64 {
        mean(&self.sse).unwrap_or(0.0) * 100.0
    }
}

/// Raw samples of a measured run. A unit is one campaign (suite
/// workloads) or one round of reopens (`archive-read`).
#[derive(Debug, Default)]
pub struct Samples {
    /// Wall time of each unit, seconds.
    pub unit_s: Vec<f64>,
    /// Campaigns (reopens) one thread works through in a unit.
    pub campaigns_per_unit: f64,
    /// Median and 90th-percentile entry time of each campaign (reopen),
    /// seconds. Every campaign holds one entry per kernel, so a quantile
    /// pooled over campaigns would sit on the boundary between two
    /// kernels' clusters and follow their extremes; a per-campaign
    /// quantile does not.
    pub entry_p50_s: Vec<f64>,
    pub entry_p90_s: Vec<f64>,
    /// Entry times taken.
    pub entries_timed: usize,
    /// Entries delivered (reports produced or restored).
    pub delivered: u64,
    pub accuracy: Accuracy,
}

impl Samples {
    pub fn new(campaigns_per_unit: f64) -> Samples {
        Samples {
            campaigns_per_unit,
            ..Samples::default()
        }
    }

    /// Records the entry times of one campaign (reopen).
    pub fn add_entries(&mut self, entry_s: &[f64]) {
        self.entry_p50_s.push(median(entry_s).unwrap_or(0.0));
        self.entry_p90_s.push(quantile(entry_s, 0.9).unwrap_or(0.0));
        self.entries_timed += entry_s.len();
    }

    /// The samples in run order as CSV lines `kind,seconds` (kinds `unit`,
    /// `entry_p50`, `entry_p90`).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,seconds\n");
        for (kind, xs) in [
            ("unit", &self.unit_s),
            ("entry_p50", &self.entry_p50_s),
            ("entry_p90", &self.entry_p90_s),
        ] {
            for s in xs {
                out.push_str(&format!("{kind},{s:?}\n"));
            }
        }
        out
    }
}

/// Concatenates every report's run, SSE and SSP stores in campaign order.
pub fn concat_stores(reports: &[KernelPowerReport]) -> [ProfileStore; 3] {
    let mut out = [
        ProfileStore::new(),
        ProfileStore::new(),
        ProfileStore::new(),
    ];
    for r in reports {
        out[0].extend_from(&r.run_profile.store);
        out[1].extend_from(&r.sse_profile.store);
        out[2].extend_from(&r.ssp_profile.store);
    }
    out
}

/// The three CSVs of a campaign: run profile over run time, SSE and SSP
/// profiles over time of interest.
pub fn render_csvs(run: &ProfileStore, sse: &ProfileStore, ssp: &ProfileStore) -> [String; 3] {
    [
        columns_to_csv(run, ProfileAxis::RunTime),
        columns_to_csv(sse, ProfileAxis::Toi),
        columns_to_csv(ssp, ProfileAxis::Toi),
    ]
}

/// Scratch directory of one run, inside the checkout; removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(workload: Workload, seed: u64) -> BenchResult<WorkDir> {
        let dir = PathBuf::from(".bench_work").join(format!(
            "{}-{seed}-{}",
            workload.name(),
            std::process::id()
        ));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(ctx("clearing the scratch directory"))?;
        }
        std::fs::create_dir_all(&dir).map_err(ctx("creating the scratch directory"))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory path (any earlier content removed).
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run's scratch directory is left.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Attempts and failures of a run: failed or skipped entries and failed
/// output checks.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Records a failed check (or entry) when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(problem);
        }
    }

    /// Counts the entries of `outcome` and every failed or skipped one.
    pub fn outcome(&mut self, what: &str, outcome: &CampaignOutcome) {
        self.attempted += outcome.reports.len() as u64;
        for (index, e) in &outcome.errors {
            self.fail(format!("{what}: entry {index} failed: {e}"));
        }
        for index in &outcome.skipped {
            self.fail(format!("{what}: entry {index} was skipped"));
        }
    }

    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Claim and report instants of each entry, from [`CampaignObserver`]
/// callbacks. A re-planned entry keeps its last claim.
pub struct EntryClock {
    slots: Mutex<Vec<(Option<Instant>, Option<Instant>)>>,
}

impl EntryClock {
    pub fn new(entries: usize) -> EntryClock {
        EntryClock {
            slots: Mutex::new(vec![(None, None); entries]),
        }
    }

    /// Claim-to-report time of every entry that finished, in seconds.
    pub fn durations_s(&self) -> Vec<f64> {
        self.slots
            .lock()
            .expect("entry clock lock")
            .iter()
            .filter_map(|&(start, end)| Some((end? - start?).as_secs_f64()))
            .collect()
    }
}

impl CampaignObserver for EntryClock {
    fn entry_started(&self, index: usize, _label: &str) {
        self.slots.lock().expect("entry clock lock")[index].0 = Some(Instant::now());
    }

    fn entry_finished(&self, index: usize, _report: &KernelPowerReport) {
        self.slots.lock().expect("entry clock lock")[index].1 = Some(Instant::now());
    }
}
