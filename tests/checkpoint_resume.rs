//! Checkpoint/resume determinism under fault injection: a campaign cut at
//! *every* entry boundary of a 6-entry campaign — by an injected backend
//! failure or by a campaign-wide cancellation fired mid-script from
//! inside the target entry — and then resumed from its checkpoint must
//! produce reports, CSV artefacts, and gathered profile stores
//! byte-identical to an uninterrupted run, under both error policies and
//! across worker counts 1/2/8. Damaged or config-mismatched checkpoints
//! are rejected with typed errors, never panics.

use std::path::{Path, PathBuf};

use fingrav::core::backend::{BackendFactory, PowerBackend, SimulationFactory};
use fingrav::core::campaign::{Campaign, CampaignReport};
use fingrav::core::checkpoint::{gather, CheckpointDir, EntryStatus};
use fingrav::core::error::{MethodologyError, MethodologyResult};
use fingrav::core::executor::{
    CampaignExecutor, CampaignOutcome, CancellationToken, ErrorPolicy, RunOptions,
};
use fingrav::core::profile::ProfileAxis;
use fingrav::core::report::profile_to_csv;
use fingrav::core::runner::{FingravRunner, RunnerConfig};
use fingrav::core::stages::StagePipeline;
use fingrav::sim::kernel::{KernelDesc, KernelHandle};
use fingrav::sim::power::Activity;
use fingrav::sim::script::Script;
use fingrav::sim::session::{AbortHandle, TelemetrySink};
use fingrav::sim::time::SimDuration;
use fingrav::sim::trace::RunTrace;
use fingrav::sim::{SimConfig, Simulation};
use fingrav::workloads::suite;

mod common;
use common::{entry_bytes, fresh, resume};

// ---------------------------------------------------------------------
// Fault injection plumbing
// ---------------------------------------------------------------------

/// How the scripted fault manifests at the target entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultMode {
    /// The backend for the target slot fails to come up (a hard error).
    FailEntry,
    /// The campaign-wide cancellation token fires from inside the target
    /// slot's session (before its third script), so the entry aborts
    /// mid-measurement and the rest of the campaign is cancelled.
    CancelCampaign,
}

/// A [`PowerBackend`] wrapper that optionally fires a cancellation token
/// after a scripted number of scripts, then passes through unchanged (so
/// healthy slots produce bit-identical traces to a plain `Simulation`).
struct FaultBackend {
    inner: Simulation,
    fire: Option<(CancellationToken, u32)>,
    scripts_seen: u32,
}

impl PowerBackend for FaultBackend {
    fn register_kernel(&mut self, desc: &KernelDesc) -> MethodologyResult<KernelHandle> {
        PowerBackend::register_kernel(&mut self.inner, desc)
    }

    fn run_script_observed(
        &mut self,
        script: &Script,
        sink: &mut dyn TelemetrySink,
        abort: &AbortHandle,
    ) -> MethodologyResult<RunTrace> {
        if let Some((token, after)) = &self.fire {
            if self.scripts_seen == *after {
                token.abort();
            }
        }
        self.scripts_seen += 1;
        PowerBackend::run_script_observed(&mut self.inner, script, sink, abort)
    }

    fn logger_window(&self) -> SimDuration {
        self.inner.logger_window()
    }

    fn coarse_logger_window(&self) -> SimDuration {
        self.inner.coarse_logger_window()
    }

    fn gpu_counter_hz(&self) -> f64 {
        self.inner.gpu_counter_hz()
    }
}

/// A factory that injects the scripted fault at one entry index and is a
/// transparent wrapper everywhere else.
struct FaultInjectingFactory {
    inner: SimulationFactory,
    target: usize,
    mode: FaultMode,
    cancel: CancellationToken,
}

impl BackendFactory for FaultInjectingFactory {
    type Backend = FaultBackend;

    fn create(&self, index: usize) -> MethodologyResult<FaultBackend> {
        if index == self.target && self.mode == FaultMode::FailEntry {
            return Err(MethodologyError::Backend(format!(
                "injected fault at slot {index}"
            )));
        }
        Ok(FaultBackend {
            inner: self.inner.create(index)?,
            fire: (index == self.target && self.mode == FaultMode::CancelCampaign)
                .then(|| (self.cancel.clone(), 2)),
            scripts_seen: 0,
        })
    }

    fn slot_seed_hint(&self, index: usize) -> Option<u64> {
        BackendFactory::slot_seed_hint(&self.inner, index)
    }
}

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

fn kernel(name: &str, us: u64, xcd: f64) -> KernelDesc {
    KernelDesc {
        name: name.into(),
        base_exec: SimDuration::from_micros(us),
        freq_insensitive_frac: 0.4,
        activity: Activity::new(xcd, 0.4, 0.3),
        compute_utilization: xcd * 0.7,
        flops: 1e10,
        hbm_bytes: 1e7,
        llc_bytes: 1e8,
        workgroups: 128,
    }
}

/// The 6-entry campaign every cut point is exercised against.
fn campaign6() -> Campaign {
    let mut campaign = Campaign::new(RunnerConfig::quick(5));
    for i in 0..6usize {
        campaign.add(kernel(
            &format!("cut-k{i}"),
            60 + 12 * i as u64,
            0.35 + 0.08 * i as f64,
        ));
    }
    campaign
}

fn clean_factory() -> SimulationFactory {
    SimulationFactory::new(SimConfig::default(), 0xFA57)
}

/// Every CSV artefact the bench layer would render from a report (the
/// byte-identity claim covers these, not just the in-memory structs).
fn csvs_of(report: &CampaignReport) -> Vec<String> {
    report
        .reports
        .iter()
        .flat_map(|r| {
            [
                profile_to_csv(&r.run_profile, ProfileAxis::RunTime),
                profile_to_csv(&r.sse_profile, ProfileAxis::Toi),
                profile_to_csv(&r.ssp_profile, ProfileAxis::Toi),
            ]
        })
        .collect()
}

fn scratch_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fingrav-ckpt-{tag}-{}", std::process::id()))
}

// ---------------------------------------------------------------------
// The headline property
// ---------------------------------------------------------------------

/// Cuts the campaign at every entry index, under both fault modes and
/// both error policies, with the worker count rotating through 1/2/8 —
/// then resumes and asserts byte-identity of reports, CSVs, and gathered
/// stores against the uninterrupted reference.
#[test]
fn every_cut_point_resumes_byte_identical() {
    let campaign = campaign6();
    let clean = clean_factory();
    let reference = CampaignExecutor::serial()
        .run(&campaign, &clean, RunOptions::default())
        .and_then(CampaignOutcome::into_report)
        .expect("uninterrupted campaign profiles");
    let ref_bytes = entry_bytes(&reference.reports);
    let ref_csvs = csvs_of(&reference);

    let root = scratch_root("cuts");
    for cut in 0..campaign.len() {
        for mode in [FaultMode::FailEntry, FaultMode::CancelCampaign] {
            for policy in [ErrorPolicy::FailFast, ErrorPolicy::CollectAll] {
                let workers = [1, 2, 8][(cut + usize::from(mode == FaultMode::CancelCampaign)) % 3];
                let dir = root.join(format!("cut{cut}-{mode:?}-{policy:?}"));
                let cancel = CancellationToken::new();
                let faulty = FaultInjectingFactory {
                    inner: clean.clone(),
                    target: cut,
                    mode,
                    cancel: cancel.clone(),
                };
                let executor = CampaignExecutor::new(workers).error_policy(policy);
                let outcome = executor
                    .run(
                        &campaign,
                        &faulty,
                        RunOptions {
                            cancel: cancel.clone(),
                            ..fresh(&dir)
                        },
                    )
                    .expect("checkpointing itself succeeds");
                assert!(
                    !outcome.is_complete(),
                    "cut {cut} {mode:?} {policy:?}: the fault must leave work undone"
                );
                let manifest = CheckpointDir::open(&dir)
                    .expect("checkpoint exists")
                    .read_manifest()
                    .expect("manifest decodes");
                assert!(!manifest.is_complete());
                assert!(manifest.entries[cut].status.needs_rerun());
                if mode == FaultMode::FailEntry {
                    assert_eq!(manifest.entries[cut].status, EntryStatus::Failed);
                } else {
                    assert_eq!(manifest.entries[cut].status, EntryStatus::Aborted);
                }

                // Resume with a healthy factory; only unfinished entries
                // are re-measured, on the same per-index seeds.
                let resumed = CampaignExecutor::new(workers)
                    .error_policy(policy)
                    .run(&campaign, &clean, resume(&dir))
                    .expect("resume completes");
                assert!(resumed.is_complete(), "cut {cut} {mode:?} {policy:?}");
                let report = resumed.into_report().expect("all entries report");
                assert_eq!(
                    entry_bytes(&report.reports),
                    ref_bytes,
                    "cut {cut} {mode:?} {policy:?} ({workers} workers): resumed report drifted"
                );
                assert_eq!(
                    csvs_of(&report),
                    ref_csvs,
                    "cut {cut} {mode:?} {policy:?}: CSV artefacts drifted"
                );

                // The completed checkpoint gathers into stores matching
                // the reference reports byte for byte.
                let ckdir = CheckpointDir::open(&dir).expect("checkpoint exists");
                assert!(ckdir.read_manifest().expect("manifest").is_complete());
                let gathered = gather(&ckdir, &campaign).expect("gather succeeds");
                let mut expected_run = fingrav::core::store::ProfileStore::new();
                for r in &reference.reports {
                    expected_run.extend_from(&r.run_profile.store);
                }
                assert_eq!(gathered.run.to_bytes(), expected_run.to_bytes());
            }
        }
    }
    std::fs::remove_dir_all(&root).expect("scratch cleanup");
}

/// A resume may use a different worker count than the original run; the
/// artefacts must not care.
#[test]
fn resume_with_a_different_worker_count_is_identical() {
    let campaign = campaign6();
    let clean = clean_factory();
    let reference = CampaignExecutor::serial()
        .run(&campaign, &clean, RunOptions::default())
        .and_then(CampaignOutcome::into_report)
        .expect("profiles");
    let root = scratch_root("workers");

    let cancel = CancellationToken::new();
    let faulty = FaultInjectingFactory {
        inner: clean.clone(),
        target: 3,
        mode: FaultMode::CancelCampaign,
        cancel: cancel.clone(),
    };
    let outcome = CampaignExecutor::new(2)
        .run(
            &campaign,
            &faulty,
            RunOptions {
                cancel: cancel.clone(),
                ..fresh(&root)
            },
        )
        .expect("checkpointing succeeds");
    assert!(!outcome.is_complete());

    let resumed = CampaignExecutor::new(8)
        .run(&campaign, &clean, resume(&root))
        .expect("resume completes")
        .into_report()
        .expect("complete");
    assert_eq!(
        entry_bytes(&resumed.reports),
        entry_bytes(&reference.reports),
        "worker-count asymmetry between run and resume changed artefacts"
    );
    std::fs::remove_dir_all(&root).expect("scratch cleanup");
}

/// Resuming a complete checkpoint restores from disk without touching the
/// factory: a factory that would fail every slot must never be asked.
#[test]
fn resume_of_a_complete_checkpoint_never_remeasures() {
    let campaign = campaign6();
    let clean = clean_factory();
    let root = scratch_root("noremeasure");
    let full = CampaignExecutor::new(2)
        .run(&campaign, &clean, fresh(&root))
        .expect("checkpointing succeeds")
        .into_report()
        .expect("complete");

    struct PoisonFactory;
    impl BackendFactory for PoisonFactory {
        type Backend = Simulation;
        fn create(&self, index: usize) -> MethodologyResult<Simulation> {
            Err(MethodologyError::Backend(format!(
                "slot {index} must not be re-measured"
            )))
        }
    }
    // A complete resume writes nothing: concurrent readers may reopen the
    // same directory, so not even a same-bytes manifest rewrite happens.
    let manifest_path = CheckpointDir::open(&root).expect("open").manifest_path();
    let manifest_before = std::fs::read(&manifest_path).expect("manifest readable");
    let listing_before = listing(&root);
    let restored = CampaignExecutor::new(2)
        .run(&campaign, &PoisonFactory, resume(&root))
        .expect("pure restore")
        .into_report()
        .expect("complete");
    assert_eq!(entry_bytes(&restored.reports), entry_bytes(&full.reports));
    assert_eq!(
        std::fs::read(&manifest_path).expect("manifest readable"),
        manifest_before,
        "a complete resume must not touch the manifest"
    );
    assert_eq!(
        listing(&root),
        listing_before,
        "a complete resume must not write into the checkpoint"
    );
    std::fs::remove_dir_all(&root).expect("scratch cleanup");
}

/// Every file under `root` with its length and modification time, sorted.
fn listing(root: &Path) -> Vec<(PathBuf, u64, std::time::SystemTime)> {
    let mut out = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("listable") {
            let entry = entry.expect("listable");
            let meta = entry.metadata().expect("stat");
            if meta.is_dir() {
                dirs.push(entry.path());
            } else {
                out.push((entry.path(), meta.len(), meta.modified().expect("mtime")));
            }
        }
    }
    out.sort();
    out
}

// ---------------------------------------------------------------------
// Rejection paths: corruption and config drift
// ---------------------------------------------------------------------

fn flip_byte(path: &Path, offset: usize) {
    let mut bytes = std::fs::read(path).expect("readable");
    bytes[offset] ^= 0xff;
    std::fs::write(path, bytes).expect("writable");
}

#[test]
fn corrupted_checkpoints_are_rejected_with_typed_errors() {
    let campaign = campaign6();
    let clean = clean_factory();
    let root = scratch_root("corrupt");
    CampaignExecutor::new(2)
        .run(&campaign, &clean, fresh(&root))
        .expect("checkpointing succeeds");

    // A flipped manifest magic byte: resume fails with a Checkpoint error
    // that names the cause, never a panic.
    let ckdir = CheckpointDir::open(&root).expect("open");
    flip_byte(&ckdir.manifest_path(), 0);
    let err = CampaignExecutor::new(2)
        .run(&campaign, &clean, resume(&root))
        .expect_err("corrupt manifest must be rejected");
    match &err {
        MethodologyError::Checkpoint(msg) => {
            assert!(msg.contains("not a campaign checkpoint"), "{msg}")
        }
        other => panic!("expected a Checkpoint error, got {other:?}"),
    }
    flip_byte(&ckdir.manifest_path(), 0); // restore

    // A truncated entry file is also typed, and so is gather over it.
    let (_, _, first_entry) = ckdir.entry_files().expect("entries")[0].clone();
    let full = std::fs::read(&first_entry).unwrap();
    std::fs::write(&first_entry, &full[..full.len() / 2]).unwrap();
    let err = CampaignExecutor::new(2)
        .run(&campaign, &clean, resume(&root))
        .expect_err("truncated entry must be rejected");
    assert!(matches!(err, MethodologyError::Checkpoint(_)));
    let err = gather(&ckdir, &campaign).expect_err("gather rejects it too");
    assert!(err.to_string().contains("truncated"), "{err}");
    std::fs::write(&first_entry, &full).unwrap();

    // Restored to health, everything works again.
    assert!(CampaignExecutor::new(2)
        .run(&campaign, &clean, resume(&root))
        .is_ok());
    std::fs::remove_dir_all(&root).expect("scratch cleanup");
}

#[test]
fn config_drift_is_rejected_by_digest() {
    let campaign = campaign6();
    let clean = clean_factory();
    let root = scratch_root("digest");
    CampaignExecutor::new(2)
        .run(&campaign, &clean, fresh(&root))
        .expect("checkpointing succeeds");

    // Same kernels, different methodology settings: the digest differs and
    // the checkpoint must refuse to resume under it.
    let mut drifted = Campaign::new(RunnerConfig::quick(9));
    for entry in campaign.entries() {
        drifted.add(entry.desc.clone());
    }
    let err = CampaignExecutor::new(2)
        .run(&drifted, &clean, resume(&root))
        .expect_err("config drift must be rejected");
    match &err {
        MethodologyError::Checkpoint(msg) => {
            assert!(msg.contains("different campaign"), "{msg}")
        }
        other => panic!("expected a Checkpoint error, got {other:?}"),
    }

    // So does a reordered entry list (digest covers order).
    let mut reordered = Campaign::new(RunnerConfig::quick(5));
    for entry in campaign.entries().iter().rev() {
        reordered.add(entry.desc.clone());
    }
    assert!(CampaignExecutor::new(2)
        .run(&reordered, &clean, resume(&root))
        .is_err());

    // A fresh checkpointed run must refuse to repurpose the directory for
    // a different campaign (its stale entry files would poison the run)...
    let err = CampaignExecutor::new(2)
        .run(&drifted, &clean, fresh(&root))
        .expect_err("a foreign checkpoint directory must be refused");
    assert!(matches!(err, MethodologyError::Checkpoint(_)));
    // ...while the *same* campaign may re-run over its own checkpoint
    // (the persisted entries are re-verified against the fresh results).
    assert!(CampaignExecutor::new(2)
        .run(&campaign, &clean, fresh(&root))
        .is_ok());
    std::fs::remove_dir_all(&root).expect("scratch cleanup");
}

// ---------------------------------------------------------------------
// Gather's duplicate verification names shard and column
// ---------------------------------------------------------------------

#[test]
fn gather_verifies_duplicates_and_names_shard_and_column() {
    let campaign = campaign6();
    let clean = clean_factory();
    let root = scratch_root("dup");
    CampaignExecutor::new(2)
        .run(&campaign, &clean, fresh(&root))
        .expect("checkpointing succeeds");
    let ckdir = CheckpointDir::open(&root).expect("open");

    // A byte-identical duplicate under another shard (the legitimate
    // crash-window case) is tolerated.
    let (shard, index, path) = ckdir.entry_files().expect("entries")[0].clone();
    let other_shard = shard + 40;
    let dup_path = ckdir.entry_path(other_shard, index);
    std::fs::create_dir_all(dup_path.parent().unwrap()).unwrap();
    std::fs::copy(&path, &dup_path).unwrap();
    let gathered = gather(&ckdir, &campaign).expect("identical duplicates are fine");
    assert_eq!(gathered.report.reports.len(), campaign.len());

    // A *disagreeing* duplicate is rejected, and the error names both
    // shards and the first differing column instead of a bare mismatch.
    let mut artifact = ckdir.read_entry(&dup_path).expect("decodes");
    let mut tampered = fingrav::core::store::ProfileStore::new();
    for (i, p) in artifact.report.run_profile.store.iter().enumerate() {
        let mut point = p.to_point();
        if i == 0 {
            point.power.xcd += 1.0;
        }
        tampered.push(point);
    }
    artifact.report.run_profile.store = tampered;
    std::fs::write(&dup_path, artifact.to_bytes()).unwrap();
    let err = gather(&ckdir, &campaign).expect_err("disagreeing duplicates are rejected");
    let msg = err.to_string();
    assert!(msg.contains(&format!("shard {shard}")), "{msg}");
    assert!(msg.contains(&format!("shard {other_shard}")), "{msg}");
    assert!(msg.contains("column `xcd`"), "{msg}");
    assert!(msg.contains("first at index 0"), "{msg}");

    // Resume performs the same duplicate verification before trusting any
    // copy — the diverged duplicate must not silently win the restore.
    let err = CampaignExecutor::new(2)
        .run(&campaign, &clean, resume(&root))
        .expect_err("resume rejects diverged duplicates too");
    let msg = err.to_string();
    assert!(msg.contains("column `xcd`"), "{msg}");
    std::fs::remove_dir_all(&root).expect("scratch cleanup");
}

// ---------------------------------------------------------------------
// Staged pipeline: stage by stage, finalize identically
// ---------------------------------------------------------------------

/// Driving the pipeline one stage at a time and finalizing from the
/// stage artifacts yields a report identical to an unstaged
/// `FingravRunner::profile` on the same seed.
#[test]
fn staged_pipeline_finalizes_identically_to_profile() {
    let desc = kernel("stage-ckpt", 110, 0.6);
    let config = RunnerConfig::quick(6);

    let mut sim = Simulation::new(SimConfig::default(), 0x57A6E).unwrap();
    let mut runner = FingravRunner::new(&mut sim, config.clone());
    let direct = runner.profile(&desc).unwrap();

    let mut sim = Simulation::new(SimConfig::default(), 0x57A6E).unwrap();
    let handle = PowerBackend::register_kernel(&mut sim, &desc).unwrap();
    let mut pipeline = StagePipeline::new(&mut sim, config).unwrap();
    let calibration = pipeline.calibrate().unwrap();
    let timing = pipeline.timing_probe(handle, &calibration).unwrap();
    let ssp = pipeline.ssp_search(handle, &calibration, &timing).unwrap();
    let collection = pipeline
        .collect_runs(handle, &desc.name, &calibration, &timing, &ssp)
        .unwrap();
    let report = pipeline.finalize(&desc.name, &calibration, &timing, &ssp, collection);
    assert_eq!(report, direct, "stage artifacts must finalize identically");
}

/// Total size of every FGRVCKPT file under `dir`, recursively.
fn fgrvckpt_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("checkpoint directory")
        .map(|entry| entry.expect("directory entry").path())
        .map(|path| {
            if path.is_dir() {
                fgrvckpt_bytes(&path)
            } else if path.extension().is_some_and(|e| e == "fgrvckpt") {
                std::fs::metadata(&path).expect("metadata").len()
            } else {
                0
            }
        })
        .sum()
}

/// The exact FGRVCKPT bytes a fixed suite campaign persists (manifest
/// plus entry files): one byte more per entry, a wider field or a stray
/// section fails here instead of hiding in wall-time noise. A change
/// that moves it on purpose updates it and says why.
#[test]
fn suite_campaign_checkpoint_bytes_are_pinned() {
    let machine = SimConfig::default().machine;
    let mut campaign = Campaign::new(RunnerConfig::quick(4));
    campaign.add_all(suite::full_suite(&machine).into_iter().map(|k| k.desc));
    let root = scratch_root("byte-pin");
    let _ = std::fs::remove_dir_all(&root);
    CampaignExecutor::new(2)
        .run(
            &campaign,
            &SimulationFactory::new(SimConfig::default(), 7),
            fresh(&root),
        )
        .expect("campaign runs")
        .into_report()
        .expect("complete");
    let bytes = fgrvckpt_bytes(&root);
    std::fs::remove_dir_all(&root).expect("scratch removable");
    assert_eq!(
        bytes, 105_500,
        "FGRVCKPT bytes of the 14-kernel suite campaign"
    );
}
