//! Zero-copy `ProfileStoreView` guarantees: every accessor and shared
//! kernel agrees bit-for-bit with the owned `ProfileStore` on random
//! stores; the CSV render through the view is byte-identical to the
//! owned render; `extend_from_view` equals the copy-then-merge path;
//! files read from disk decode identically to in-memory buffers; and damaged
//! encodings (truncations, bit flips, stray bitmap bits, non-canonical
//! slots, trailing bytes) fail with the typed error `docs/FORMATS.md` §2
//! prescribes — never a panic, never a wrong store. The view is the
//! format's one decoder (`ProfileStore::from_bytes` is the view plus
//! `to_store`), so these cases exercise it directly.

use fingrav::core::mmap::MappedProfile;
use fingrav::core::profile::{ProfileAxis, ProfilePoint};
use fingrav::core::report::{columns_to_csv, view_to_csv};
use fingrav::core::store::{ProfileStore, ProfileStoreView, StoreCodecError};
use fingrav::sim::ComponentPower;
use proptest::prelude::*;

mod common;
use common::axis_order::reference_argsort;
use common::{build_store, fgrvprof_truncated_block};

/// SplitMix64 step: the per-point draws of the argsort property.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An axis key from one of the classes the radix key map treats apart:
/// NaNs with random payloads of both signs, ±0, ±inf, subnormals of
/// both signs, a small pool of repeated values (ties), arbitrary bits.
fn axis_value(class: u64, bits: u64) -> f64 {
    let sign = bits & 1 << 63;
    let mantissa = bits & 0x000F_FFFF_FFFF_FFFF;
    match class {
        0 => f64::from_bits(sign | 0x7FF0_0000_0000_0000 | mantissa.max(1)),
        1 => f64::from_bits(sign),
        2 => f64::from_bits(sign | 0x7FF0_0000_0000_0000),
        3 => f64::from_bits(sign | mantissa),
        4 => [1.0, -1.0, 2.5, 1e300, -1e-300, f64::MIN_POSITIVE][(bits % 6) as usize],
        _ => f64::from_bits(bits),
    }
}

// ---------------------------------------------------------------------
// Property: every view accessor / kernel ≡ the owned store
// ---------------------------------------------------------------------

proptest! {
    /// On a random store, the borrowed view returns exactly what the
    /// owned store returns for every accessor and every shared kernel.
    #[test]
    fn view_accessors_and_kernels_match_owned(
        runs in prop::collection::vec(0u32..500, 0..120),
        vals in prop::collection::vec(-1.0e7f64..1.0e7, 0..120),
        execs in prop::collection::vec(0u32..64, 0..120),
    ) {
        let store = build_store(&runs, &vals, &execs);
        let bytes = store.to_bytes();
        let view = ProfileStoreView::new(&bytes).expect("valid encoding");

        prop_assert_eq!(view.len(), store.len());
        prop_assert_eq!(view.is_empty(), store.is_empty());
        prop_assert_eq!(view.encoded_len(), bytes.len());

        for i in 0..store.len() {
            prop_assert_eq!(view.run(i), store.run(i));
            prop_assert_eq!(view.exec_pos(i), store.exec_pos(i));
            prop_assert_eq!(view.in_exec(i), store.in_exec(i));
            // NaN-safe: compare through bits, not PartialEq.
            prop_assert_eq!(
                view.toi_ns(i).map(f64::to_bits),
                store.toi_ns(i).map(f64::to_bits)
            );
            prop_assert_eq!(
                view.run_time_ns(i).to_bits(),
                store.run_time_ns(i).to_bits()
            );
            prop_assert_eq!(view.power(i), store.power(i));
            prop_assert_eq!(view.total_w(i).to_bits(), store.total_w(i).to_bits());
            prop_assert_eq!(view.point(i), store.point(i));
        }
        prop_assert_eq!(
            view.points().collect::<Vec<_>>(),
            (0..store.len()).map(|i| store.point(i)).collect::<Vec<_>>()
        );

        prop_assert_eq!(view.sum_power(), store.sum_power());
        prop_assert_eq!(view.mean_power(), store.mean_power());
        prop_assert_eq!(view.in_exec_count(), store.in_exec_count());
        for axis in [ProfileAxis::RunTime, ProfileAxis::Toi] {
            prop_assert_eq!(view.argsort_by_axis(axis), store.argsort_by_axis(axis));
            prop_assert_eq!(view.sorted_by_axis(axis), store.sorted_by_axis(axis));
        }
        let pred_view = view.indices_where(|p| p.in_exec() && p.run_time_ns() >= 0.0);
        let pred_owned = store.indices_where(|p| p.in_exec() && p.run_time_ns() >= 0.0);
        prop_assert_eq!(&pred_view, &pred_owned);
        prop_assert_eq!(view.indices_in_exec(), store.indices_in_exec());
        prop_assert_eq!(view.select(&pred_view), store.select(&pred_owned));

        prop_assert_eq!(view.to_store(), store.clone());
        prop_assert!(view.diff(&view).is_identical());
        prop_assert!(view.diff_store(&store).is_identical());
        prop_assert!(store.diff_view(&view).is_identical());
    }

    /// The radix argsort equals the comparator sort on both axes, for the
    /// owned store and its view, over every key class (NaN payloads of
    /// both signs, ±0, ±inf, subnormals, ties, arbitrary bits) and
    /// points without a TOI.
    #[test]
    fn argsort_matches_the_comparator_sort(seeds in prop::collection::vec(0u64..=u64::MAX, 0..3000)) {
        let store = ProfileStore::from_points(seeds.iter().enumerate().map(|(i, &seed)| {
            let mut state = seed;
            let draw = splitmix(&mut state);
            let run_time_ns = axis_value(draw % 8, splitmix(&mut state));
            let has_toi = !(draw >> 8).is_multiple_of(4);
            let toi_ns = has_toi.then(|| axis_value((draw >> 16) % 8, splitmix(&mut state)));
            ProfilePoint {
                run: i as u32,
                exec_pos: toi_ns.map(|_| 0),
                toi_ns,
                run_time_ns,
                power: ComponentPower::ZERO,
            }
        }));
        let bytes = store.to_bytes();
        let view = ProfileStoreView::new(&bytes).expect("valid encoding");
        for axis in [ProfileAxis::RunTime, ProfileAxis::Toi] {
            let want = reference_argsort(&store, axis);
            prop_assert_eq!(store.argsort_by_axis(axis), want.clone());
            prop_assert_eq!(view.argsort_by_axis(axis), want);
        }
    }

    /// The CSV formatter renders a view byte-identically to the owned
    /// store it was decoded from, on both axes.
    #[test]
    fn view_csv_render_matches_owned(
        runs in prop::collection::vec(0u32..100, 0..60),
        vals in prop::collection::vec(-1.0e6f64..1.0e6, 0..60),
        execs in prop::collection::vec(0u32..64, 0..60),
    ) {
        let store = build_store(&runs, &vals, &execs);
        let bytes = store.to_bytes();
        let view = ProfileStoreView::new(&bytes).expect("valid encoding");
        for axis in [ProfileAxis::RunTime, ProfileAxis::Toi] {
            prop_assert_eq!(view_to_csv(&view, axis), columns_to_csv(&store, axis));
        }
    }

    /// Streaming-merge primitive: appending a view to a non-empty store
    /// equals decode-then-`extend_from`, and the pre-reserved columns
    /// never over-allocate beyond one exact reservation.
    #[test]
    fn extend_from_view_equals_copy_then_merge(
        runs_a in prop::collection::vec(0u32..100, 0..50),
        vals_a in prop::collection::vec(-1.0e6f64..1.0e6, 0..50),
        execs_a in prop::collection::vec(0u32..64, 0..50),
        runs_b in prop::collection::vec(0u32..100, 0..50),
        vals_b in prop::collection::vec(-1.0e6f64..1.0e6, 0..50),
        execs_b in prop::collection::vec(0u32..64, 0..50),
    ) {
        let base = build_store(&runs_a, &vals_a, &execs_a);
        let tail = build_store(&runs_b, &vals_b, &execs_b);
        let tail_bytes = tail.to_bytes();
        let tail_view = ProfileStoreView::new(&tail_bytes).expect("valid encoding");

        let mut via_view = base.clone();
        via_view.extend_from_view(&tail_view);
        let mut via_copy = base.clone();
        via_copy.extend_from(&tail_view.to_store());
        prop_assert_eq!(&via_view, &via_copy);
        prop_assert_eq!(via_view.to_bytes(), via_copy.to_bytes());
    }

    /// Bit flips anywhere in the encoding fail with the error the
    /// flipped field calls for: a foreign magic, a newer version, a
    /// length that no longer matches the buffer. A flip in the reserved
    /// flags word is ignored, and a flip in the column blocks either
    /// decodes — to a store that re-encodes to exactly the flipped bytes
    /// — or breaks a canonical-form invariant. Never a panic.
    #[test]
    fn bit_flips_fail_identically_on_both_paths(
        runs in prop::collection::vec(0u32..100, 1..40),
        vals in prop::collection::vec(-1.0e6f64..1.0e6, 1..40),
        execs in prop::collection::vec(0u32..64, 1..40),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let store = build_store(&runs, &vals, &execs);
        let mut bytes = store.to_bytes();
        let pos = ((bytes.len() - 1) as f64 * byte_frac) as usize;
        bytes[pos] ^= 1 << bit;
        let outcome = ProfileStoreView::new(&bytes).map(|v| v.to_store());
        match (pos, outcome) {
            (0..8, Err(StoreCodecError::BadMagic(m))) => prop_assert_eq!(&m[..], &bytes[..8]),
            (8..12, Err(StoreCodecError::UnsupportedVersion(v))) => {
                prop_assert_eq!(v.to_le_bytes(), [bytes[8], bytes[9], bytes[10], bytes[11]])
            }
            (12..16, Ok(decoded)) => prop_assert_eq!(decoded, store),
            (16..24, Err(StoreCodecError::Corrupt(_) | StoreCodecError::Truncated(_))) => {}
            (24.., Ok(decoded)) => prop_assert_eq!(decoded.to_bytes(), bytes),
            (24.., Err(StoreCodecError::Corrupt(_))) => {}
            (pos, other) => prop_assert!(false, "bit {bit} of byte {pos} flipped: {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Damage suites: truncation, stray bits, non-canonical slots, trailers
// ---------------------------------------------------------------------

/// Every truncation of a valid encoding is `Truncated`, labelled with the
/// block the cut falls in; never a panic, never a wrong store.
#[test]
fn every_truncation_rejected_identically() {
    let store = build_store(
        &[0, 1, 2, 3, 4, 5, 6, 7],
        &[1.0, -2.0, 3.5, 0.0, 9.25, -8.5, 4.0, 2.0],
        &[0, 1, 2, 3, 4, 5, 6, 7],
    );
    let bytes = store.to_bytes();
    for cut in 0..bytes.len() {
        match ProfileStoreView::new(&bytes[..cut]) {
            Err(StoreCodecError::Truncated(block)) => assert_eq!(
                block,
                fgrvprof_truncated_block(store.len(), cut),
                "cut at {cut}"
            ),
            other => panic!("cut at {cut}: {other:?}"),
        }
    }
}

#[test]
fn stray_bitmap_tail_bit_is_corrupt() {
    let store = build_store(&[1, 2, 3], &[10.0, -20.0, 30.0], &[1, 2, 4]);
    let mut bytes = store.to_bytes();
    // 3 points -> one bitmap word; bits 3..64 must be zero. Set bit 7.
    let bitmap_word_start = bytes.len() - 8;
    bytes[bitmap_word_start] |= 1 << 7;
    match ProfileStoreView::new(&bytes) {
        Err(StoreCodecError::Corrupt(msg)) => assert!(msg.contains("bit"), "unhelpful {msg:?}"),
        other => panic!("stray tail bit accepted: {other:?}"),
    }
}

#[test]
fn non_canonical_invalid_slot_is_corrupt() {
    // Point 0 is out-of-execution (exec multiple of 3 in `build_store`),
    // so its exec_pos and toi_ns slots must be zero in canonical form.
    let store = build_store(&[1, 2], &[10.0, 20.0], &[3, 1]);
    assert!(!store.in_exec(0), "fixture: point 0 must be invalid");
    let clean = store.to_bytes();

    // exec_pos block starts after header (24) + run block (4·2).
    let mut dirty_exec = clean.clone();
    dirty_exec[24 + 8] = 7;
    // toi block starts after both u32 blocks.
    let mut dirty_toi = clean.clone();
    dirty_toi[24 + 16] = 1;

    for (what, bytes) in [("exec_pos", dirty_exec), ("toi_ns", dirty_toi)] {
        assert!(
            matches!(
                ProfileStoreView::new(&bytes),
                Err(StoreCodecError::Corrupt(_))
            ),
            "view accepted a non-canonical {what} slot"
        );
    }
}

#[test]
fn trailing_bytes_rejected_but_split_prefix_returns_them() {
    let store = build_store(&[1, 2, 3], &[10.0, -20.0, 30.0], &[1, 2, 4]);
    let mut bytes = store.to_bytes();
    let clean_len = bytes.len();
    bytes.extend_from_slice(b"JUNK");

    assert!(matches!(
        ProfileStoreView::new(&bytes),
        Err(StoreCodecError::Corrupt(msg)) if msg.contains("trailing")
    ));

    // The embedded-store entry point hands the remainder back instead.
    let (view, rest) = ProfileStoreView::split_prefix(&bytes).expect("prefix is valid");
    assert_eq!(view.encoded_len(), clean_len);
    assert_eq!(rest, b"JUNK");
    assert_eq!(view.to_store(), store);
}

/// A header claiming an implausible point count is rejected before any
/// column allocation could happen (typed error, instant return).
#[test]
fn implausible_length_rejected_without_allocation() {
    let store = build_store(&[1], &[10.0], &[1]);
    let mut bytes = store.to_bytes();
    bytes[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
    match ProfileStoreView::new(&bytes) {
        Err(StoreCodecError::Corrupt(msg)) => assert!(msg.contains("implausible")),
        other => panic!("implausible length accepted: {other:?}"),
    }

    // A *plausible but huge* count against a tiny buffer is truncation,
    // and must also return without trying to materialise the columns.
    bytes[16..24].copy_from_slice(&(u64::from(u32::MAX)).to_le_bytes());
    assert!(matches!(
        ProfileStoreView::new(&bytes),
        Err(StoreCodecError::Truncated("run"))
    ));
}

// ---------------------------------------------------------------------
// File path: a file read by `MappedProfile` serves the identical view
// ---------------------------------------------------------------------

#[test]
fn mmapped_file_decodes_identically_to_buffer() {
    let store = build_store(
        &[0, 1, 2, 3, 4],
        &[1.5, -2.5, 3.5, -4.5, 5.5],
        &[1, 2, 3, 4, 5],
    );
    let bytes = store.to_bytes();
    let path = std::env::temp_dir().join(format!("fingrav-view-test-{}.fgrv", std::process::id()));
    std::fs::write(&path, &bytes).expect("scratch file writes");

    let mapped = MappedProfile::open(&path).expect("maps");
    assert_eq!(mapped.bytes(), &bytes[..]);
    let view = mapped.view().expect("mapped bytes decode");
    assert_eq!(view.to_store(), store);
    assert!(store.diff_view(&view).is_identical());

    // Damage on disk surfaces the same typed error through the map.
    let mut damaged = bytes.clone();
    damaged.truncate(damaged.len() - 3);
    std::fs::write(&path, &damaged).expect("scratch file rewrites");
    let remapped = MappedProfile::open(&path).expect("maps");
    assert!(matches!(
        remapped.view(),
        Err(StoreCodecError::Truncated("validity bitmap"))
    ));

    drop(mapped);
    drop(remapped);
    std::fs::remove_file(&path).ok();
}
