//! The durable-campaign rules every front end shares: a local sharded run,
//! a local resume and a served campaign persist, verify and halt through
//! the same checkpoint path.
//!
//! A re-measured entry that disagrees with a copy an earlier run left on
//! disk (the crash window between an entry write and its manifest update)
//! fails the campaign with a typed checkpoint error naming the persisted
//! shard and the first differing column, leaves that copy untouched, and
//! stops every front end from starting another entry: the unstarted ones
//! are reported skipped.
//!
//! On the threaded local path, a fresh run and a resume of a cut checkpoint
//! both make every entry durable before its `entry_finished` fires.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use fingrav::core::backend::SimulationFactory;
use fingrav::core::campaign::Campaign;
use fingrav::core::checkpoint::{CampaignManifest, CheckpointDir, EntryArtifactView, EntryStatus};
use fingrav::core::error::{MethodologyError, MethodologyResult};
use fingrav::core::executor::{
    CampaignExecutor, CampaignObserver, CampaignOutcome, CancellationToken, CheckpointMode,
    ErrorPolicy, NoopCampaignObserver, RunOptions,
};
use fingrav::core::runner::{KernelPowerReport, RunnerConfig};
use fingrav::core::store::ProfileStore;
use fingrav::core::transport::{work, CampaignService, ServiceConfig, WorkerOptions};
use fingrav::sim::kernel::KernelDesc;
use fingrav::sim::power::Activity;
use fingrav::sim::time::SimDuration;
use fingrav::sim::SimConfig;

mod common;
use common::fresh;

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

fn campaign4() -> Campaign {
    let mut campaign = Campaign::new(RunnerConfig::quick(5));
    for i in 0..4usize {
        campaign.add(kernel(
            &format!("ledger-k{i}"),
            70 + 15 * i as u64,
            0.4 + 0.1 * i as f64,
        ));
    }
    campaign
}

fn factory() -> SimulationFactory {
    SimulationFactory::new(SimConfig::default(), 0x1ED6)
}

fn scratch_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fingrav-ledger-{tag}-{}", std::process::id()))
}

/// Counts what the observer of a campaign is told.
#[derive(Default)]
struct Counts {
    started: AtomicUsize,
    skipped: Mutex<Vec<usize>>,
}

impl CampaignObserver for Counts {
    fn entry_started(&self, _index: usize, _label: &str) {
        self.started.fetch_add(1, Ordering::SeqCst);
    }
    fn entry_skipped(&self, index: usize) {
        self.skipped.lock().unwrap().push(index);
    }
}

/// Rewrites the persisted copy of entry `index` under `shard` with the
/// first run-profile point's `xcd` power raised by 1 W: still a valid
/// artifact of that entry, but one a fresh measurement disagrees with.
fn alter_entry(ckdir: &CheckpointDir, shard: u32, index: usize) -> PathBuf {
    let path = ckdir.entry_path(shard, index);
    let mut artifact = ckdir.read_entry(&path).expect("persisted entry decodes");
    let mut tampered = ProfileStore::new();
    for (i, p) in artifact.report.run_profile.store.iter().enumerate() {
        let mut point = p.to_point();
        if i == 0 {
            point.power.xcd += 1.0;
        }
        tampered.push(point);
    }
    artifact.report.run_profile.store = tampered;
    std::fs::write(&path, artifact.to_bytes()).expect("writable");
    path
}

/// The front ends that re-measure an entry whose file an earlier run
/// left behind.
#[derive(Debug, Clone, Copy)]
enum FrontEnd {
    ExecuteSharded,
    Resume,
    Serve,
}

fn run_front_end(
    front_end: FrontEnd,
    campaign: &Campaign,
    root: &Path,
    counts: &Arc<Counts>,
) -> MethodologyResult<CampaignOutcome> {
    let local = |checkpoint| {
        let options = RunOptions {
            observer: &**counts,
            checkpoint,
            ..RunOptions::default()
        };
        CampaignExecutor::serial().run(campaign, &factory(), options)
    };
    match front_end {
        FrontEnd::ExecuteSharded => local(CheckpointMode::Fresh(root)),
        FrontEnd::Resume => local(CheckpointMode::Resume(root)),
        FrontEnd::Serve => {
            let service = CampaignService::bind("127.0.0.1:0", ServiceConfig::default())
                .expect("loopback bind");
            let ticket = service.submit_with(
                campaign.clone(),
                root,
                ErrorPolicy::default(),
                Some(counts.clone()),
            );
            let stream = TcpStream::connect(service.local_addr().expect("bound address"))
                .expect("loopback connect");
            let summary = work(
                stream,
                campaign,
                &factory(),
                &NoopCampaignObserver,
                &CancellationToken::new(),
                &WorkerOptions::default(),
            )
            .expect("the worker is stopped cleanly");
            assert!(summary.aborted, "the coordinator must stop the worker");
            assert_eq!(summary.completed, vec![0], "only entry 0 was measured");
            ticket.wait()
        }
    }
}

#[test]
fn a_crash_window_disagreement_halts_every_front_end() {
    let campaign = campaign4();
    for front_end in [FrontEnd::ExecuteSharded, FrontEnd::Resume, FrontEnd::Serve] {
        let what = format!("{front_end:?}");
        let root = scratch_root(&format!("crash-{front_end:?}"));
        let _ = std::fs::remove_dir_all(&root);
        CampaignExecutor::serial()
            .run(&campaign, &factory(), fresh(&root))
            .expect("reference checkpoint")
            .into_report()
            .expect("complete");

        // The crash window: every entry file is on disk, the manifest was
        // never updated past the plan, and entry 0's copy has diverged.
        let ckdir = CheckpointDir::open(&root).expect("open");
        ckdir
            .write_manifest(&CampaignManifest::plan(&campaign, &factory(), 1))
            .expect("manifest rewrites");
        let altered = alter_entry(&ckdir, 0, 0);
        let altered_bytes = std::fs::read(&altered).expect("readable");

        let counts = Arc::new(Counts::default());
        let result = run_front_end(front_end, &campaign, &root, &counts);
        assert_eq!(
            counts.started.load(Ordering::SeqCst),
            1,
            "{what}: no entry may start after the checkpoint broke"
        );
        assert_eq!(
            *counts.skipped.lock().unwrap(),
            vec![1, 2, 3],
            "{what}: the unstarted entries are reported skipped"
        );
        assert_eq!(
            std::fs::read(&altered).expect("readable"),
            altered_bytes,
            "{what}: the persisted copy must not be overwritten"
        );
        match result {
            Err(MethodologyError::Checkpoint(msg)) => {
                assert!(msg.contains("column `xcd`"), "{what}: {msg}");
                assert!(
                    msg.contains("fresh measurement differs from the copy persisted under shard 0"),
                    "{what}: {msg}"
                );
            }
            Err(other) => panic!("{what}: expected a Checkpoint error, got {other:?}"),
            Ok(_) => panic!("{what}: a diverged persisted copy must fail the campaign"),
        }
        std::fs::remove_dir_all(&root).expect("scratch cleanup");
    }
}

/// Checks, as each entry finishes, that it is already durable: its
/// manifest row reads `Done` and its entry file restores to the report the
/// observer is handed. Cancels the campaign after `cancel_after` entries.
struct DurableBeforeFinished<'a> {
    root: &'a Path,
    cancel: CancellationToken,
    cancel_after: usize,
    finished: AtomicUsize,
    checked: Mutex<Vec<usize>>,
    violations: Mutex<Vec<String>>,
}

impl<'a> DurableBeforeFinished<'a> {
    fn new(root: &'a Path, cancel_after: usize) -> Self {
        DurableBeforeFinished {
            root,
            cancel: CancellationToken::new(),
            cancel_after,
            finished: AtomicUsize::new(0),
            checked: Mutex::new(Vec::new()),
            violations: Mutex::new(Vec::new()),
        }
    }

    fn durable(&self, index: usize, report: &KernelPowerReport) -> Result<(), String> {
        let ckdir = CheckpointDir::open(self.root).map_err(|e| e.to_string())?;
        let manifest = ckdir.read_manifest().map_err(|e| e.to_string())?;
        let row = &manifest.entries[index];
        if row.status != EntryStatus::Done {
            return Err(format!("entry {index}: manifest reads {}", row.status));
        }
        let bytes = std::fs::read(ckdir.entry_path(row.shard, index))
            .map_err(|e| format!("entry {index}: {e}"))?;
        let view = EntryArtifactView::parse(&bytes).map_err(|e| e.to_string())?;
        if view.to_report() != *report {
            return Err(format!(
                "entry {index}: the file restores to another report"
            ));
        }
        Ok(())
    }
}

impl CampaignObserver for DurableBeforeFinished<'_> {
    fn entry_finished(&self, index: usize, report: &KernelPowerReport) {
        match self.durable(index, report) {
            Ok(()) => self.checked.lock().unwrap().push(index),
            Err(violation) => self.violations.lock().unwrap().push(violation),
        }
        if self.finished.fetch_add(1, Ordering::SeqCst) + 1 == self.cancel_after {
            self.cancel.abort();
        }
    }
}

#[test]
fn threaded_runs_make_entries_durable_before_entry_finished() {
    let campaign = campaign4();
    let root = scratch_root("durable-threaded");
    let _ = std::fs::remove_dir_all(&root);
    let executor = CampaignExecutor::new(2);

    // A fresh 2-worker run, cut after two entries finish.
    let cut = DurableBeforeFinished::new(&root, 2);
    let options = RunOptions {
        observer: &cut,
        cancel: cut.cancel.clone(),
        checkpoint: CheckpointMode::Fresh(&root),
    };
    let partial = executor
        .run(&campaign, &factory(), options)
        .expect("fresh run persists");
    assert!(!partial.is_complete(), "the cut left entries to resume");

    // A 2-worker resume of the cut checkpoint measures the rest.
    let resumed = DurableBeforeFinished::new(&root, usize::MAX);
    let options = RunOptions {
        observer: &resumed,
        checkpoint: CheckpointMode::Resume(&root),
        ..RunOptions::default()
    };
    let outcome = executor
        .run(&campaign, &factory(), options)
        .expect("resume persists");
    assert!(outcome.is_complete());

    for observer in [&cut, &resumed] {
        assert_eq!(*observer.violations.lock().unwrap(), Vec::<String>::new());
    }
    let mut checked = cut.checked.into_inner().unwrap();
    checked.extend(resumed.checked.into_inner().unwrap());
    checked.sort_unstable();
    assert_eq!(checked, vec![0, 1, 2, 3], "every entry was checked once");
    std::fs::remove_dir_all(&root).expect("scratch cleanup");
}
