//! `FGRVCKPT` codec guarantees: lossless bit-exact round trips for the
//! manifest and entry-artifact sections, systematic rejection of every
//! truncation and of bit-flipped magic/version/length fields with a
//! specific typed error — never a panic or an unbounded allocation —
//! committed golden fixtures that fail loudly if a format change breaks
//! v1 compatibility, and refusal of the retired stage-state section.

use fingrav::core::campaign::Campaign;
use fingrav::core::checkpoint::{
    CampaignManifest, CheckpointError, EntryArtifact, EntryArtifactView, EntryStatus,
    ManifestEntry, CKPT_VERSION,
};
use fingrav::core::runner::RunnerConfig;
use fingrav::sim::SimConfig;
use fingrav::workloads::suite;
use proptest::prelude::*;

mod common;
use common::{assert_all_truncations_rejected, golden_entry, golden_manifest};

// ---------------------------------------------------------------------
// Golden fixture: committed v1 bytes must keep decoding forever
// ---------------------------------------------------------------------

/// Decodes the committed `FGRVCKPT` v1 fixtures. A format change that
/// breaks v1 compatibility fails here loudly (decode error or value
/// drift) instead of silently re-encoding; a deliberate break must bump
/// [`CKPT_VERSION`] and regenerate via
/// `cargo test --test checkpoint_codec -- --ignored`.
#[test]
fn golden_checkpoint_fixtures_decode() {
    assert_eq!(
        CKPT_VERSION, 1,
        "bumping the version invalidates the fixtures"
    );

    let manifest_bytes = include_bytes!("data/golden_manifest.fgrvckpt");
    let manifest = CampaignManifest::from_bytes(manifest_bytes).expect("v1 manifest decodes");
    assert_eq!(manifest, golden_manifest());
    assert_eq!(
        golden_manifest().to_bytes(),
        manifest_bytes,
        "manifest encoding drifted from the committed v1 bytes"
    );

    let entry_bytes = include_bytes!("data/golden_entry.fgrvckpt");
    let entry = EntryArtifact::from_bytes(entry_bytes).expect("v1 entry decodes");
    assert_eq!(entry, golden_entry());
    assert_eq!(
        golden_entry().to_bytes(),
        entry_bytes,
        "entry encoding drifted from the committed v1 bytes"
    );
}

/// The committed fixture of the retired stage-state section (tag 3) is
/// kept as a refused input: tag 3 is reserved, and every reader rejects
/// it as a section mismatch rather than misdecoding it.
#[test]
fn retired_stage_section_is_refused_by_every_reader() {
    let bytes = include_bytes!("data/golden_stage.fgrvckpt");
    assert_eq!(u32::from_le_bytes(bytes[12..16].try_into().unwrap()), 3);
    assert!(matches!(
        CampaignManifest::from_bytes(bytes),
        Err(CheckpointError::Corrupt(_))
    ));
    assert!(matches!(
        EntryArtifact::from_bytes(bytes),
        Err(CheckpointError::Corrupt(_))
    ));
    assert!(matches!(
        EntryArtifactView::parse(bytes),
        Err(CheckpointError::Corrupt(_))
    ));
}

/// Regenerates the golden fixtures (run explicitly with `--ignored` after
/// a deliberate, version-bumped format change).
#[test]
#[ignore = "rewrites the committed golden fixtures"]
fn regenerate_golden_checkpoint_fixtures() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data");
    std::fs::write(
        dir.join("golden_manifest.fgrvckpt"),
        golden_manifest().to_bytes(),
    )
    .unwrap();
    std::fs::write(dir.join("golden_entry.fgrvckpt"), golden_entry().to_bytes()).unwrap();
}

// ---------------------------------------------------------------------
// Systematic corruption: every truncation, every structural bit flip
// ---------------------------------------------------------------------

#[test]
fn every_truncation_is_rejected_with_a_typed_error() {
    // Every cut of every section kind: always `Truncated`, never a panic,
    // a success, or a misclassified error.
    assert_all_truncations_rejected(
        &golden_manifest().to_bytes(),
        1,
        CampaignManifest::from_bytes,
        |e| matches!(e, CheckpointError::Truncated(_)),
    );
    assert_all_truncations_rejected(
        &golden_entry().to_bytes(),
        1,
        EntryArtifact::from_bytes,
        |e| matches!(e, CheckpointError::Truncated(_)),
    );
}

#[test]
fn flipped_magic_version_and_section_fields_are_typed() {
    let good = golden_entry().to_bytes();

    // Every single-bit flip inside the magic is BadMagic.
    for byte in 0..8 {
        for bit in 0..8 {
            let mut bad = good.clone();
            bad[byte] ^= 1 << bit;
            assert!(
                matches!(
                    EntryArtifact::from_bytes(&bad),
                    Err(CheckpointError::BadMagic(_))
                ),
                "magic byte {byte} bit {bit}"
            );
        }
    }
    // Every single-bit flip inside the version is UnsupportedVersion.
    for byte in 8..12 {
        for bit in 0..8 {
            let mut bad = good.clone();
            bad[byte] ^= 1 << bit;
            assert!(
                matches!(
                    EntryArtifact::from_bytes(&bad),
                    Err(CheckpointError::UnsupportedVersion(_))
                ),
                "version byte {byte} bit {bit}"
            );
        }
    }
    // Every single-bit flip inside the section tag is Corrupt.
    for byte in 12..16 {
        for bit in 0..8 {
            let mut bad = good.clone();
            bad[byte] ^= 1 << bit;
            assert!(
                matches!(
                    EntryArtifact::from_bytes(&bad),
                    Err(CheckpointError::Corrupt(_))
                ),
                "section byte {byte} bit {bit}"
            );
        }
    }
    // Reading a valid file as the wrong section kind is Corrupt, not a
    // misdecode.
    assert!(matches!(
        CampaignManifest::from_bytes(&good),
        Err(CheckpointError::Corrupt(_))
    ));
}

#[test]
fn absurd_length_fields_never_over_allocate() {
    // The manifest's entry-count u64 lives at offset 28 (16-byte header +
    // digest + workers). An absurd value must be rejected as Corrupt
    // before any allocation is sized from it; a large-but-plausible value
    // must fail as Truncated after at most one bounded chunk.
    let good = golden_manifest().to_bytes();
    let mut absurd = good.clone();
    absurd[28..36].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        CampaignManifest::from_bytes(&absurd),
        Err(CheckpointError::Corrupt(_))
    ));
    let mut big = good.clone();
    big[28..36].copy_from_slice(&(3_000_000_000u64).to_le_bytes());
    assert!(matches!(
        CampaignManifest::from_bytes(&big),
        Err(CheckpointError::Truncated(_))
    ));

    // Same for a string length inside the first manifest entry (right
    // after the sequence count).
    let mut long_label = good.clone();
    long_label[36..44].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        CampaignManifest::from_bytes(&long_label),
        Err(CheckpointError::Corrupt(_))
    ));

    // Trailing garbage after a well-formed payload is Corrupt.
    let mut trailing = good;
    trailing.extend_from_slice(&[0, 1, 2]);
    assert!(matches!(
        CampaignManifest::from_bytes(&trailing),
        Err(CheckpointError::Corrupt(_))
    ));
}

// ---------------------------------------------------------------------
// Properties: round trips and no-panic under arbitrary damage
// ---------------------------------------------------------------------

proptest! {
    /// Manifests round-trip bit-exactly through the binary format.
    #[test]
    fn manifest_round_trips(
        digest in 0u64..u64::MAX,
        workers in 1u32..64,
        label_lens in prop::collection::vec(0usize..40, 0..20),
        seeds in prop::collection::vec(0u64..u64::MAX, 0..20),
        statuses in prop::collection::vec(0u8..4, 0..20),
    ) {
        let n = label_lens.len().min(seeds.len()).min(statuses.len());
        let manifest = CampaignManifest {
            config_digest: digest,
            workers,
            entries: (0..n)
                .map(|i| ManifestEntry {
                    // Labels of arbitrary length, including Unicode.
                    label: "κ-".chars().chain(
                        std::iter::repeat_n('x', label_lens[i])
                    ).collect(),
                    seed: (seeds[i] % 3 != 0).then_some(seeds[i]),
                    status: match statuses[i] {
                        0 => EntryStatus::Pending,
                        1 => EntryStatus::Done,
                        2 => EntryStatus::Failed,
                        _ => EntryStatus::Aborted,
                    },
                    shard: i as u32 % workers,
                })
                .collect(),
        };
        let bytes = manifest.to_bytes();
        let restored = match CampaignManifest::from_bytes(&bytes) {
            Ok(m) => m,
            Err(e) => return Err(format!("decode failed: {e}")),
        };
        prop_assert_eq!(&restored, &manifest);
        prop_assert_eq!(restored.to_bytes(), bytes);
    }

    /// Arbitrary single-byte damage anywhere in an entry artifact never
    /// panics: it either still decodes (payload float bits) or surfaces a
    /// typed error.
    #[test]
    fn byte_damage_never_panics(offset_frac in 0.0f64..1.0, flip in 1u8..=255) {
        let mut bytes = golden_entry().to_bytes();
        let offset = ((bytes.len() - 1) as f64 * offset_frac) as usize;
        bytes[offset] ^= flip;
        let _ = EntryArtifact::from_bytes(&bytes); // must not panic
    }
}

// ---------------------------------------------------------------------
// Campaign digest sanity against real campaigns
// ---------------------------------------------------------------------

#[test]
fn campaign_digest_is_stable_and_sensitive() {
    use fingrav::core::checkpoint::campaign_digest;
    let machine = SimConfig::default().machine.clone();
    let build = |runs: u32| {
        let mut c = Campaign::new(RunnerConfig::quick(runs));
        c.add_all(
            suite::gemm_suite(&machine)
                .into_iter()
                .take(3)
                .map(|k| k.desc),
        );
        c
    };
    assert_eq!(campaign_digest(&build(6)), campaign_digest(&build(6)));
    assert_ne!(campaign_digest(&build(6)), campaign_digest(&build(7)));
}
