//! The `FGRVCKPT` entry artifact's one decoder,
//! [`EntryArtifactView::parse`] (`EntryArtifact::from_bytes` is `parse`
//! plus `to_artifact`): the borrowed stores agree with the owned
//! profiles, and every truncation, bit flip, section confusion, and
//! corrupt length field fails with the typed error the format
//! prescribes (variant and block name) — never a panic, never a wrong
//! artifact. Accepted damage is pinned NaN-safely through canonical
//! re-encoding. The companion `FGRVPROF` suite lives in `store_view.rs`;
//! the randomized cross-format sweep in `fgrv-fuzz` runs the same
//! oracle over mutated inputs (see `docs/FUZZING.md`).

use fingrav::core::checkpoint::{
    CampaignManifest, CheckpointError, EntryArtifact, EntryArtifactView,
};
use proptest::prelude::*;

mod common;
use common::{fgrvprof_truncated_block, golden_entry};

/// Decoding damaged bytes never panics, and an accepted decode is a
/// fixed point of the canonical encoding (NaN-safe, unlike the derived
/// `PartialEq` on `f64` payloads).
fn assert_typed_outcome(bytes: &[u8], what: &str) {
    if let Ok(artifact) = EntryArtifact::from_bytes(bytes) {
        let encoded = artifact.to_bytes();
        let again = EntryArtifact::from_bytes(&encoded)
            .unwrap_or_else(|e| panic!("{what}: re-encoding fails to decode: {e:?}"));
        assert_eq!(again.to_bytes(), encoded, "{what}: re-decode drifted");
    }
}

// ---------------------------------------------------------------------
// Accepted inputs: the view's stores match the owned profiles
// ---------------------------------------------------------------------

#[test]
fn view_of_golden_entry_equals_owned_decode() {
    let entry = golden_entry();
    let bytes = entry.to_bytes();

    let view = EntryArtifactView::parse(&bytes).expect("golden entry parses as a view");
    assert_eq!(view.index, entry.index);
    assert_eq!(view.config_digest, entry.config_digest);
    assert_eq!(view.label(), entry.report.label);

    // The borrowed per-profile stores agree bit-for-bit with the owned
    // profiles (diff is the NaN-safe comparison).
    for (view_store, owned_profile) in [
        (view.run_store(), &entry.report.run_profile),
        (view.sse_store(), &entry.report.sse_profile),
        (view.ssp_store(), &entry.report.ssp_profile),
    ] {
        assert!(owned_profile.store.diff_view(view_store).is_identical());
    }

    // Materialising the view reproduces the artifact, which round-trips
    // back to the source bytes.
    assert_eq!(view.to_artifact().to_bytes(), bytes);
}

// ---------------------------------------------------------------------
// Damage suites: truncation, bit flips, section confusion, bad lengths
// ---------------------------------------------------------------------

/// Every truncation is `Truncated`. Cuts in the header, the index,
/// digest and label fields, the three embedded `FGRVPROF` blocks, and
/// the trailing option fields carry the label of the block they fall in.
#[test]
fn every_truncation_rejected_identically() {
    let entry = golden_entry();
    let bytes = entry.to_bytes();
    let mut expected: Vec<Option<&str>> = vec![None; bytes.len()];
    let label_end = 36 + entry.report.label.len();
    for (cut, slot) in expected.iter_mut().enumerate().take(label_end) {
        *slot = Some(match cut {
            0..8 => "magic",
            8..20 => "u32 field",
            20..36 => "u64 field",
            _ => "string",
        });
    }
    let n = entry.report.run_profile.store.len();
    let starts: Vec<usize> = bytes
        .windows(8)
        .enumerate()
        .filter(|(_, w)| *w == b"FGRVPROF")
        .map(|(at, _)| at)
        .collect();
    assert_eq!(starts.len(), 3, "three embedded stores");
    for start in starts {
        let len = entry.report.run_profile.store.encoded_len();
        for (rel, slot) in expected[start..start + len].iter_mut().enumerate() {
            *slot = Some(fgrvprof_truncated_block(n, rel));
        }
    }
    // sse_mean_total_w = None, ssp_mean_total_w = Some(f64),
    // sse_vs_ssp_error = None; an option tag is a `u8` field.
    let tail = bytes.len() - 11;
    expected[tail] = Some("u8 field");
    expected[tail + 1] = Some("u8 field");
    for slot in &mut expected[tail + 2..tail + 10] {
        *slot = Some("f64 field");
    }
    expected[tail + 10] = Some("u8 field");

    for (cut, want) in expected.into_iter().enumerate() {
        match (EntryArtifactView::parse(&bytes[..cut]), want) {
            (Err(CheckpointError::Truncated(block)), Some(want)) => {
                assert_eq!(block, want, "cut at {cut}")
            }
            (Err(CheckpointError::Truncated(_)), None) => {}
            (other, _) => panic!("cut at {cut}: {other:?}"),
        }
    }
}

#[test]
fn trailing_bytes_rejected_identically() {
    let mut bytes = golden_entry().to_bytes();
    bytes.extend_from_slice(b"JUNK");
    assert!(matches!(
        EntryArtifactView::parse(&bytes),
        Err(CheckpointError::Corrupt(msg)) if msg == "4 trailing bytes after the payload"
    ));
}

/// Feeding a valid file of the wrong section kind is `Corrupt`, naming
/// both section tags.
#[test]
fn wrong_section_rejected_identically() {
    let manifest_bytes = common::golden_manifest().to_bytes();
    assert!(matches!(
        EntryArtifactView::parse(&manifest_bytes),
        Err(CheckpointError::Corrupt(msg)) if msg == "section tag 1 where 2 was expected"
    ));

    let entry_bytes = golden_entry().to_bytes();
    assert!(matches!(
        CampaignManifest::from_bytes(&entry_bytes),
        Err(CheckpointError::Corrupt(msg)) if msg == "section tag 2 where 1 was expected"
    ));
}

/// An absurd label-length field (offset 28: 16-byte header + index +
/// digest) must be rejected before any allocation is sized from it.
#[test]
fn absurd_embedded_lengths_rejected_identically() {
    let good = golden_entry().to_bytes();

    let mut absurd = good.clone();
    absurd[28..36].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        EntryArtifactView::parse(&absurd),
        Err(CheckpointError::Corrupt(msg)) if msg.contains("implausible string length")
    ));

    // Plausible (under the 2²⁰-byte string cap) but longer than the
    // buffer: a truncation of the string block.
    let mut big = good;
    big[28..36].copy_from_slice(&(1_000_000u64).to_le_bytes());
    assert!(matches!(
        EntryArtifactView::parse(&big),
        Err(CheckpointError::Truncated("string"))
    ));
}

proptest! {
    /// Arbitrary single-byte damage: header flips fail with the header's
    /// typed error, and damage anywhere else — scalar fields or inside
    /// one of the three embedded `FGRVPROF` blocks — either decodes to a
    /// canonical artifact or fails typed. Never a panic.
    #[test]
    fn bit_flips_fail_identically_on_both_paths(
        byte_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let mut bytes = golden_entry().to_bytes();
        let pos = ((bytes.len() - 1) as f64 * byte_frac) as usize;
        bytes[pos] ^= flip;
        let outcome = EntryArtifactView::parse(&bytes).map(|_| ());
        match (pos, outcome) {
            (0..8, Err(CheckpointError::BadMagic(_)))
            | (8..12, Err(CheckpointError::UnsupportedVersion(_)))
            | (12..16, Err(CheckpointError::Corrupt(_)))
            | (16.., _) => {}
            (pos, other) => prop_assert!(false, "byte {pos} xor {flip:#04x}: {other:?}"),
        }
        assert_typed_outcome(&bytes, &format!("byte {pos} xor {flip:#04x}"));
    }

    /// Multi-site damage: several independent byte flips at once still
    /// decode to a canonical artifact or fail typed.
    #[test]
    fn scattered_damage_fails_identically(
        fracs in prop::collection::vec(0.0f64..1.0, 1..6),
        flips in prop::collection::vec(1u8..=255, 1..6),
    ) {
        let mut bytes = golden_entry().to_bytes();
        let n = fracs.len().min(flips.len());
        for i in 0..n {
            let pos = ((bytes.len() - 1) as f64 * fracs[i]) as usize;
            bytes[pos] ^= flips[i];
        }
        assert_typed_outcome(&bytes, &format!("{n} damage sites"));
    }
}
