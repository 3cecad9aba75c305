//! Columnar `ProfileStore` guarantees: lossless round trips through the
//! binary on-disk format, equivalence of columnar
//! and legacy AoS stitching, log placement's forward walk against a scan
//! of every execution, robust rejection of damaged files, byte-for-
//! byte CSV stability against pre-refactor golden fixtures, and binary
//! artefact bit-identity across campaign worker counts.

use fingrav::baselines::common::BaselineConfig;
use fingrav::baselines::unsynchronized;
use fingrav::core::backend::SimulationFactory;
use fingrav::core::campaign::Campaign;
use fingrav::core::executor::{CampaignExecutor, CampaignOutcome, RunOptions};
use fingrav::core::profile::{place_logs, push_loi_points, push_run_profile_points, ProfileAxis};
use fingrav::core::report::profile_to_csv;
use fingrav::core::runner::{FingravRunner, RunnerConfig};
use fingrav::core::store::{ProfileStore, StoreCodecError};
use fingrav::sim::{SimConfig, Simulation};
use fingrav::workloads::suite;
use proptest::prelude::*;

mod common;
use common::{
    build_noisy_trace, build_store, build_trace, identity_sync, loi_points, place_logs_by_scan,
    run_profile_points,
};

// ---------------------------------------------------------------------
// Property: store ⇄ binary round trips
// ---------------------------------------------------------------------

proptest! {
    /// Binary encode → decode is lossless and re-encodes bit-identically.
    #[test]
    fn store_round_trips_through_binary(
        runs in prop::collection::vec(0u32..500, 0..120),
        vals in prop::collection::vec(-1.0e7f64..1.0e7, 0..120),
        execs in prop::collection::vec(0u32..64, 0..120),
    ) {
        let store = build_store(&runs, &vals, &execs);

        let bytes = store.to_bytes();
        prop_assert_eq!(bytes.len(), store.encoded_len());
        let restored = match ProfileStore::from_bytes(&bytes) {
            Ok(s) => s,
            Err(e) => return Err(format!("decode failed: {e}")),
        };
        prop_assert_eq!(&restored, &store);
        prop_assert_eq!(restored.to_bytes(), bytes);
        prop_assert!(store.diff(&restored).is_identical());
    }

    /// Any truncation of a valid encoding is rejected as `Truncated`,
    /// never decoded into a wrong store and never a panic.
    #[test]
    fn truncated_encodings_never_decode(
        runs in prop::collection::vec(0u32..500, 1..40),
        vals in prop::collection::vec(-1.0e6f64..1.0e6, 1..40),
        execs in prop::collection::vec(0u32..64, 1..40),
        cut_frac in 0.0f64..1.0,
    ) {
        let store = build_store(&runs, &vals, &execs);
        let bytes = store.to_bytes();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        match ProfileStore::from_bytes(&bytes[..cut]) {
            Err(StoreCodecError::Truncated(_)) => {}
            other => return Err(format!("cut at {cut}: expected Truncated, got {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------
// Property: columnar stitching ≡ legacy AoS stitching on random traces
// ---------------------------------------------------------------------

proptest! {
    /// The columnar appenders and the legacy AoS builders stitch random
    /// traces into equal stores, for run profiles and filtered LOI sets.
    #[test]
    fn columnar_stitching_matches_legacy_aos(
        starts in prop::collection::vec(0u64..5_000_000, 1..24),
        ticks in prop::collection::vec(0u64..600_000, 0..100),
        run in 0u32..1000,
    ) {
        let trace = build_trace(&starts, &ticks);
        let placed = place_logs(&trace, &identity_sync());

        let legacy_run = ProfileStore::from_points(run_profile_points(run, &placed));
        let mut columnar_run = ProfileStore::new();
        push_run_profile_points(&mut columnar_run, run, &placed);
        prop_assert_eq!(&columnar_run, &legacy_run);
        prop_assert_eq!(columnar_run.to_bytes(), legacy_run.to_bytes());

        let select = |pos: usize| pos.is_multiple_of(2);
        let legacy_loi = ProfileStore::from_points(loi_points(run, &placed, select));
        let mut columnar_loi = ProfileStore::new();
        push_loi_points(&mut columnar_loi, run, &placed, select);
        prop_assert_eq!(&columnar_loi, &legacy_loi);

        // Every LOI is marked in-execution; the run profile's bitmap
        // popcount equals the number of placed logs inside executions.
        prop_assert_eq!(columnar_loi.in_exec_count(), columnar_loi.len());
        let inside = placed.iter().filter(|l| l.containing_exec.is_some()).count();
        prop_assert_eq!(columnar_run.in_exec_count(), inside);
    }
}

// ---------------------------------------------------------------------
// Property: log placement's forward walk ≡ a scan of every execution
// ---------------------------------------------------------------------

proptest! {
    /// `place_logs` finds, for every log, the first execution whose bounds
    /// contain it, exactly as scanning every execution does: for ascending
    /// and for overlapping bounds (an execution starting before the
    /// previous one ends), for bounds that do not ascend (the walk's
    /// fallback), and for logs in and out of time order.
    #[test]
    fn place_logs_matches_a_scan_of_every_execution(
        gaps in prop::collection::vec(0u64..200_000, 1..40),
        lens in prop::collection::vec(0u64..300_000, 1..40),
        ticks in prop::collection::vec(0u64..600_000, 0..60),
        shape in 0u32..8,
    ) {
        // Ascending lengths make the ends ascend with the starts; shuffled
        // ones mostly do not.
        let mut lens = lens;
        if shape & 1 == 1 {
            lens.sort_unstable();
        }
        let mut trace = build_noisy_trace(&gaps, &lens, &ticks);
        if shape & 2 == 2 {
            trace.power_logs.sort_by_key(|l| l.ticks);
        }
        if shape & 4 == 4 {
            trace.executions.reverse();
        }
        let sync = identity_sync();
        prop_assert_eq!(place_logs(&trace, &sync), place_logs_by_scan(&trace, &sync));
    }
}

// ---------------------------------------------------------------------
// Corrupt-header rejection (integration-level)
// ---------------------------------------------------------------------

#[test]
fn corrupt_headers_are_rejected_with_specific_errors() {
    let store = build_store(&[1, 2, 3], &[10.0, -20.0, 30.0], &[1, 3, 5]);
    let good = store.to_bytes();

    let mut bad_magic = good.clone();
    bad_magic[..8].copy_from_slice(b"NOTPROF!");
    assert!(matches!(
        ProfileStore::from_bytes(&bad_magic),
        Err(StoreCodecError::BadMagic(_))
    ));

    let mut future_version = good.clone();
    future_version[8..12].copy_from_slice(&7u32.to_le_bytes());
    assert!(matches!(
        ProfileStore::from_bytes(&future_version),
        Err(StoreCodecError::UnsupportedVersion(7))
    ));

    let mut absurd_len = good.clone();
    absurd_len[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        ProfileStore::from_bytes(&absurd_len),
        Err(StoreCodecError::Corrupt(_))
    ));

    // A header alone (no column data) is truncated, not corrupt.
    assert!(matches!(
        ProfileStore::from_bytes(&good[..24]),
        Err(StoreCodecError::Truncated(_))
    ));
}

// ---------------------------------------------------------------------
// Golden CSV bytes: the refactor must not move a single byte
// ---------------------------------------------------------------------

/// `profile_to_csv` output against fixtures generated by the pre-refactor
/// `Vec<ProfilePoint>` implementation (same seeds, same kernels). Any
/// drift in sort order, sentinel rendering, or float formatting fails
/// here byte-for-byte.
#[test]
fn profile_csvs_match_pre_refactor_golden_bytes() {
    let machine = SimConfig::default().machine.clone();
    let kernel = suite::cb_gemm(&machine, 4096);

    let mut sim = Simulation::new(SimConfig::default(), 0xF1C4).expect("valid");
    let mut runner = FingravRunner::new(&mut sim, RunnerConfig::quick(12));
    let report = runner.profile(&kernel).expect("profiles");
    assert_eq!(
        profile_to_csv(&report.run_profile, ProfileAxis::RunTime),
        include_str!("data/golden_run_profile.csv"),
        "run-profile CSV drifted from the pre-refactor bytes"
    );
    assert_eq!(
        profile_to_csv(&report.ssp_profile, ProfileAxis::Toi),
        include_str!("data/golden_ssp_toi.csv"),
        "SSP-profile CSV drifted from the pre-refactor bytes"
    );

    let mut sim = Simulation::new(SimConfig::default(), 0xBEEF).expect("valid");
    let cfg = BaselineConfig {
        runs: 6,
        executions_per_run: 10,
        ..BaselineConfig::default()
    };
    let unsynced = unsynchronized::profile(&mut sim, &kernel, &cfg).expect("baseline");
    assert_eq!(
        profile_to_csv(&unsynced, ProfileAxis::RunTime),
        include_str!("data/golden_unsync_runtime.csv"),
        "unsynchronized-baseline CSV (u32::MAX sentinel rows) drifted"
    );
}

// ---------------------------------------------------------------------
// Binary artefacts are bit-identical across campaign worker counts
// ---------------------------------------------------------------------

#[test]
fn store_binary_artifact_identical_across_worker_counts() {
    let machine = SimConfig::default().machine.clone();
    let mut campaign = Campaign::new(RunnerConfig::quick(6));
    campaign.add(suite::cb_gemm(&machine, 2048));
    campaign.add(suite::mb_gemv(&machine, 4096));
    let factory = SimulationFactory::new(SimConfig::default(), 9001);

    let encode = |executor: CampaignExecutor| -> Vec<Vec<u8>> {
        executor
            .run(&campaign, &factory, RunOptions::default())
            .and_then(CampaignOutcome::into_report)
            .expect("campaign profiles")
            .reports
            .iter()
            .flat_map(|r| {
                [
                    r.run_profile.store.to_bytes(),
                    r.sse_profile.store.to_bytes(),
                    r.ssp_profile.store.to_bytes(),
                ]
            })
            .collect()
    };

    let serial = encode(CampaignExecutor::serial());
    for workers in [2, 4] {
        let parallel = encode(CampaignExecutor::new(workers));
        assert_eq!(
            serial, parallel,
            "store bytes changed under {workers} workers"
        );
    }

    // And the persisted artefacts decode back to the in-memory stores.
    for bytes in &serial {
        let restored = ProfileStore::from_bytes(bytes).expect("decodes");
        assert_eq!(restored.to_bytes(), *bytes);
    }
}
