//! The comparator argsort the radix `argsort_by_axis` is checked
//! against: `(f64, u32)` pairs (and, on the TOI axis, `(u8, f64, u32)`
//! tuples whose validity byte puts a missing TOI first) sorted stably
//! under the total key order.
//!
//! Shared by the integration tests (through `common`) and by the
//! `fgrv-fuzz` `prof` oracle (through a `#[path]` include), so it names
//! only `fingrav_core` items.

use std::cmp::Ordering;

use fingrav_core::profile::ProfileAxis;
use fingrav_core::store::ProfileColumns;

/// The total order axis keys sort under: numbers compare by value (so
/// `-0.0` and `+0.0` tie), and every NaN sorts after every number, tied
/// with every other NaN — a stable sort keeps tied keys, NaNs included,
/// in index order.
fn cmp_axis_keys(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// Stable argsort by the chosen axis through `sort_by` on key tuples.
pub fn reference_argsort<C: ProfileColumns + ?Sized>(c: &C, axis: ProfileAxis) -> Vec<u32> {
    let n = u32::try_from(c.len()).expect("store lengths fit u32");
    match axis {
        ProfileAxis::RunTime => {
            let mut pairs: Vec<(f64, u32)> =
                (0..n).map(|i| (c.run_time_at(i as usize), i)).collect();
            pairs.sort_by(|a, b| cmp_axis_keys(a.0, b.0));
            pairs.into_iter().map(|(_, i)| i).collect()
        }
        ProfileAxis::Toi => {
            let mut pairs: Vec<(u8, f64, u32)> = (0..n)
                .map(|i| match c.toi_at(i as usize) {
                    Some(t) => (1, t, i),
                    None => (0, 0.0, i),
                })
                .collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| cmp_axis_keys(a.1, b.1)));
            pairs.into_iter().map(|(_, _, i)| i).collect()
        }
    }
}
