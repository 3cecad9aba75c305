//! Streaming-gather memory guarantee: merging an 8-shard checkpoint with
//! [`gather_stores`] peaks at roughly *one* shard's worth of transient
//! heap beyond the exactly-sized output stores — not all eight resident
//! at once — measured with the counting allocator `fgrv-fuzz` installs.
//! The gathered stores are byte-identical to the decode-everything merge,
//! the output columns are sized exactly (no growth reallocation), and a
//! tampered crash-window duplicate is still rejected with the shard ids
//! and the first differing column named.
//!
//! The allocator's counters are per-thread and `gather_stores` runs on
//! the calling thread, so the peak is the gather's own, whatever other
//! tests run alongside.

use std::path::PathBuf;

use fgrv_fuzz::alloc::{self, CountingAlloc};
use fingrav::core::campaign::Campaign;
use fingrav::core::checkpoint::{
    campaign_digest, gather, gather_stores, CampaignManifest, CheckpointDir, CheckpointError,
    EntryArtifact, EntryStatus,
};
use fingrav::core::guidance::GuidanceEntry;
use fingrav::core::profile::{PowerProfile, ProfileKind};
use fingrav::core::runner::{KernelPowerReport, RunnerConfig};
use fingrav::core::store::ProfileStore;
use fingrav::sim::kernel::KernelDesc;
use fingrav::sim::power::Activity;
use fingrav::sim::time::SimDuration;

mod common;
use common::build_store;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------
// Fixture: an 8-shard checkpoint with large per-entry profiles
// ---------------------------------------------------------------------

const ENTRIES: usize = 8;
const RUN_POINTS: usize = 20_000;
const LOI_POINTS: usize = 2_000;

fn kernel(name: &str, us: u64) -> KernelDesc {
    KernelDesc {
        name: name.into(),
        base_exec: SimDuration::from_micros(us),
        freq_insensitive_frac: 0.4,
        activity: Activity::new(0.5, 0.4, 0.3),
        compute_utilization: 0.35,
        flops: 1e10,
        hbm_bytes: 1e7,
        llc_bytes: 1e8,
        workgroups: 128,
    }
}

/// Deterministic pseudo-random columns (SplitMix64), `n` points.
fn synth_store(seed: u64, n: usize) -> ProfileStore {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let runs: Vec<u32> = (0..n).map(|_| (next() % 500) as u32).collect();
    let vals: Vec<f64> = (0..n)
        .map(|_| (next() % 2_000_000) as f64 - 1_000_000.0)
        .collect();
    let execs: Vec<u32> = (0..n).map(|_| (next() % 64) as u32).collect();
    build_store(&runs, &vals, &execs)
}

fn report_for(label: &str, seed: u64) -> KernelPowerReport {
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
            store: synth_store(seed, RUN_POINTS),
        },
        sse_profile: PowerProfile {
            label: label.into(),
            kind: ProfileKind::Sse,
            store: synth_store(seed ^ 0xA5A5, LOI_POINTS),
        },
        ssp_profile: PowerProfile {
            label: label.into(),
            kind: ProfileKind::Ssp,
            store: synth_store(seed ^ 0x5A5A, LOI_POINTS),
        },
        sse_mean_total_w: Some(321.5),
        ssp_mean_total_w: Some(318.25),
        sse_vs_ssp_error: Some(0.01),
    }
}

/// Exact heap bytes of an `n`-point store with exactly-sized columns:
/// two u32 columns, six f64 columns, one bitmap word per 64 points.
fn exact_store_heap(n: usize) -> usize {
    n * 4 * 2 + n * 8 * 6 + n.div_ceil(64) * 8
}

fn scratch_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fingrav-gather-{tag}-{}", std::process::id()))
}

#[test]
fn gather_streams_one_shard_at_a_time() {
    // -- build the 8-shard checkpoint ----------------------------------
    let mut campaign = Campaign::new(RunnerConfig::quick(5));
    for i in 0..ENTRIES {
        campaign.add(kernel(&format!("stream-k{i}"), 60 + 10 * i as u64));
    }
    let digest = campaign_digest(&campaign);

    let root = scratch_root("stream");
    std::fs::remove_dir_all(&root).ok();
    let dir = CheckpointDir::create(&root).expect("checkpoint dir creates");
    let mut manifest = CampaignManifest::plan_remote(&campaign);
    let mut artifacts = Vec::new();
    let mut max_entry_file = 0usize;
    for (i, entry) in manifest.entries.iter_mut().enumerate() {
        // One shard per entry: the 8-shard layout of the memory claim.
        entry.shard = i as u32;
        entry.status = EntryStatus::Done;
        let artifact = EntryArtifact {
            index: i as u32,
            config_digest: digest,
            report: report_for(&format!("stream-k{i}"), 0xC0FFEE + i as u64),
        };
        max_entry_file = max_entry_file.max(artifact.to_bytes().len());
        dir.write_entry(i as u32, &artifact).expect("entry writes");
        artifacts.push(artifact);
    }
    dir.write_manifest(&manifest).expect("manifest writes");

    let run_total = ENTRIES * RUN_POINTS;
    let loi_total = ENTRIES * LOI_POINTS;
    let output_heap = exact_store_heap(run_total) + 2 * exact_store_heap(loi_total);

    // -- probe: gather_stores peaks at output + ~one shard -------------
    alloc::reset_peak();
    let before = alloc::peak();
    let stores = gather_stores(&dir, &campaign).expect("gather_stores succeeds");
    let peak_extra = alloc::peak() - before;
    assert!(alloc::active(), "the counting allocator must be installed");

    // The transient budget: the three exactly-sized outputs, at most two
    // entry files resident at once (a primary and a would-be duplicate,
    // each read whole into one exactly sized buffer), and small change
    // for paths/manifest/scratch.
    let budget = output_heap + 2 * max_entry_file + 256 * 1024;
    assert!(
        peak_extra <= budget,
        "gather_stores peaked at {peak_extra} extra heap bytes; \
         budget is {budget} (output {output_heap} + 2 x {max_entry_file} entry files + slack). \
         All {ENTRIES} shards together would be ~{} bytes",
        ENTRIES * max_entry_file + output_heap,
    );

    // -- output columns are sized exactly: no growth reallocation ------
    assert_eq!(stores.run.len(), run_total);
    assert_eq!(stores.sse.len(), loi_total);
    assert_eq!(stores.ssp.len(), loi_total);
    assert_eq!(stores.run.heap_bytes(), exact_store_heap(run_total));
    assert_eq!(stores.sse.heap_bytes(), exact_store_heap(loi_total));
    assert_eq!(stores.ssp.heap_bytes(), exact_store_heap(loi_total));

    // -- byte-identical to the decode-everything merge -----------------
    let mut expect_run = ProfileStore::new();
    let mut expect_sse = ProfileStore::new();
    let mut expect_ssp = ProfileStore::new();
    for a in &artifacts {
        expect_run.extend_from(&a.report.run_profile.store);
        expect_sse.extend_from(&a.report.sse_profile.store);
        expect_ssp.extend_from(&a.report.ssp_profile.store);
    }
    assert_eq!(stores.run.to_bytes(), expect_run.to_bytes());
    assert_eq!(stores.sse.to_bytes(), expect_sse.to_bytes());
    assert_eq!(stores.ssp.to_bytes(), expect_ssp.to_bytes());

    // -- gather() (with reports) agrees with the artifacts -------------
    let gathered = gather(&dir, &campaign).expect("gather succeeds");
    assert_eq!(gathered.run.to_bytes(), stores.run.to_bytes());
    assert_eq!(gathered.report.reports.len(), ENTRIES);
    for (got, want) in gathered.report.reports.iter().zip(&artifacts) {
        assert_eq!(got, &want.report);
    }

    // -- a tampered crash-window duplicate is named, not merged --------
    let mut tampered = artifacts[0].clone();
    // Perturb one xcd sample: same label/index/digest, different bytes.
    let store = &mut tampered.report.run_profile.store;
    let mut points: Vec<_> = (0..store.len()).map(|i| store.point(i)).collect();
    points[7].power.xcd += 1.0;
    tampered.report.run_profile.store = ProfileStore::from_points(points);
    dir.write_entry(7, &tampered).expect("duplicate writes");

    let err = gather_stores(&dir, &campaign).expect_err("tampered duplicate must fail");
    let msg = err.to_string();
    assert!(
        msg.contains("shard 0") && msg.contains("shard 7"),
        "error must name both shards: {msg}"
    );
    assert!(
        msg.contains("column `xcd`"),
        "error must name the differing column: {msg}"
    );
    assert!(
        matches!(err, CheckpointError::Corrupt(_)),
        "typed Corrupt error expected, got {err:?}"
    );

    std::fs::remove_dir_all(&root).ok();
}
