//! The column abstraction shared by the owned [`ProfileStore`] and the
//! borrowed [`ProfileStoreView`](super::ProfileStoreView), plus the
//! column kernels (reductions, argsort, filter, select, canonical-form
//! validation, diff) written once against that abstraction.
//!
//! Both storage shapes — decoded `Vec` columns and raw little-endian
//! byte blocks served in place — implement [`ProfileColumns`]; every
//! analysis kernel is a single generic implementation, so the two paths
//! cannot drift apart. All floating-point reductions fold in storage
//! order, which keeps means bit-identical across the owned, view, and
//! mmap paths.

use std::cmp::Ordering;

use fingrav_sim::power::ComponentPower;

use super::{ColumnDiff, ProfileStore, StoreCodecError, StoreDiff};
use crate::profile::{ProfileAxis, ProfilePoint};

/// Read access to the eight profile columns and the validity bitmap.
///
/// Implemented by [`ProfileStore`] (decoded `Vec` columns) and
/// [`ProfileStoreView`](super::ProfileStoreView) (unaligned
/// little-endian reads straight from the encoded bytes). The `*_at`
/// names avoid colliding with the inherent accessors on the
/// implementing types.
///
/// The raw accessors surface the *canonical* column content: where the
/// validity bit is clear, `exec_pos_raw_at` is `0` and `toi_bits_at` is
/// `0` (the format invariant enforced at decode time).
pub trait ProfileColumns {
    /// Number of stored points.
    fn len(&self) -> usize;
    /// Contributing run of point `i`.
    fn run_at(&self, i: usize) -> u32;
    /// Raw execution-position of point `i` (`0` where invalid).
    fn exec_pos_raw_at(&self, i: usize) -> u32;
    /// Raw TOI bit pattern of point `i` (`0` where invalid).
    fn toi_bits_at(&self, i: usize) -> u64;
    /// Run-relative time of point `i`, ns.
    fn run_time_at(&self, i: usize) -> f64;
    /// XCD power of point `i`, watts.
    fn xcd_at(&self, i: usize) -> f64;
    /// IOD power of point `i`, watts.
    fn iod_at(&self, i: usize) -> f64;
    /// HBM power of point `i`, watts.
    fn hbm_at(&self, i: usize) -> f64;
    /// Rest-of-package power of point `i`, watts.
    fn rest_at(&self, i: usize) -> f64;
    /// Validity-bitmap word `w` (bit `i % 64` of word `i / 64` is point
    /// `i`'s in-execution flag).
    fn validity_word_at(&self, w: usize) -> u64;

    /// True when no points are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when point `i` landed inside an execution.
    #[inline]
    fn in_exec_at(&self, i: usize) -> bool {
        (self.validity_word_at(i / 64) >> (i % 64)) & 1 == 1
    }

    /// Execution position of point `i`, if it landed inside an execution.
    #[inline]
    fn exec_pos_at(&self, i: usize) -> Option<u32> {
        self.in_exec_at(i).then(|| self.exec_pos_raw_at(i))
    }

    /// Time-of-interest of point `i`, ns, if it landed inside an
    /// execution.
    #[inline]
    fn toi_at(&self, i: usize) -> Option<f64> {
        self.in_exec_at(i)
            .then(|| f64::from_bits(self.toi_bits_at(i)))
    }

    /// Component power of point `i`.
    #[inline]
    fn power_at(&self, i: usize) -> ComponentPower {
        ComponentPower::new(
            self.xcd_at(i),
            self.iod_at(i),
            self.hbm_at(i),
            self.rest_at(i),
        )
    }

    /// Total (VR output) power of point `i`, watts.
    #[inline]
    fn total_w_at(&self, i: usize) -> f64 {
        self.power_at(i).total()
    }

    /// Materializes point `i` as an owned [`ProfilePoint`].
    fn point_at(&self, i: usize) -> ProfilePoint {
        ProfilePoint {
            run: self.run_at(i),
            exec_pos: self.exec_pos_at(i),
            toi_ns: self.toi_at(i),
            run_time_ns: self.run_time_at(i),
            power: self.power_at(i),
        }
    }
}

// ---------------------------------------------------------------------
// Shared kernels
// ---------------------------------------------------------------------

/// Sum of every point's component power, in storage order (the same f64
/// addition order the AoS fold used, so means are bit-identical across
/// the owned and view paths).
pub(crate) fn sum_power<C: ProfileColumns + ?Sized>(c: &C) -> ComponentPower {
    let mut acc = ComponentPower::ZERO;
    for i in 0..c.len() {
        acc += c.power_at(i);
    }
    acc
}

/// Mean component power over all points; `None` if empty.
pub(crate) fn mean_power<C: ProfileColumns + ?Sized>(c: &C) -> Option<ComponentPower> {
    if c.is_empty() {
        return None;
    }
    Some(sum_power(c) / c.len() as f64)
}

/// Popcount of the validity bitmap.
pub(crate) fn in_exec_count<C: ProfileColumns + ?Sized>(c: &C) -> usize {
    (0..c.len().div_ceil(64))
        .map(|w| c.validity_word_at(w).count_ones() as usize)
        .sum()
}

/// The total order axis keys sort under: numbers compare by value (so
/// `-0.0` and `+0.0` tie), and every NaN sorts after every number, tied
/// with every other NaN — a stable sort keeps tied keys, NaNs included,
/// in index order.
#[inline]
pub(crate) fn cmp_axis_keys(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// Stable argsort by the chosen time axis; see
/// [`ProfileStore::argsort_by_axis`] for the ordering contract.
pub(crate) fn argsort_by_axis<C: ProfileColumns + ?Sized>(c: &C, axis: ProfileAxis) -> Vec<u32> {
    match axis {
        ProfileAxis::RunTime => {
            let mut pairs: Vec<(f64, u32)> = (0..c.len() as u32)
                .map(|i| (c.run_time_at(i as usize), i))
                .collect();
            pairs.sort_by(|a, b| cmp_axis_keys(a.0, b.0));
            pairs.into_iter().map(|(_, i)| i).collect()
        }
        ProfileAxis::Toi => {
            let mut pairs: Vec<(u8, f64, u32)> = (0..c.len() as u32)
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

/// Indices of points satisfying `pred`, in storage order.
pub(crate) fn indices_where<C: ProfileColumns + ?Sized>(
    c: &C,
    mut pred: impl FnMut(&C, usize) -> bool,
) -> Vec<u32> {
    (0..c.len() as u32)
        .filter(|&i| pred(c, i as usize))
        .collect()
}

/// Gathers the given indices into a new owned store.
pub(crate) fn select<C: ProfileColumns + ?Sized>(c: &C, indices: &[u32]) -> ProfileStore {
    let mut out = ProfileStore::with_capacity(indices.len());
    for &i in indices {
        out.push(c.point_at(i as usize));
    }
    out
}

/// Checks the canonical-form invariants a decoded store must satisfy:
/// no validity bits past the point count, and invalid slots zeroed in
/// the `exec_pos` / `toi_ns` columns.
pub(crate) fn validate_canonical<C: ProfileColumns + ?Sized>(c: &C) -> Result<(), StoreCodecError> {
    let len = c.len();
    if !len.is_multiple_of(64) && len > 0 {
        let last = c.validity_word_at(len.div_ceil(64) - 1);
        if last >> (len % 64) != 0 {
            crate::cover::hit(crate::cover::STORE_CANON_STRAY_BITS);
            return Err(StoreCodecError::Corrupt(
                "validity bitmap has bits set past the point count".into(),
            ));
        }
    }
    for i in 0..len {
        if !c.in_exec_at(i) && (c.exec_pos_raw_at(i) != 0 || c.toi_bits_at(i) != 0) {
            crate::cover::hit(crate::cover::STORE_CANON_DIRTY_SLOT);
            return Err(StoreCodecError::Corrupt(format!(
                "point {i} is outside any execution but carries non-zero exec_pos/toi"
            )));
        }
    }
    Ok(())
}

/// Column-wise comparison of any two column sources (owned, view, or
/// mixed): bit-comparison for floats (NaN-safe), first differing index
/// and largest absolute delta per column. One implementation backs
/// [`ProfileStore::diff`] and the view diffs.
pub(crate) fn diff<A, B>(a: &A, b: &B) -> StoreDiff
where
    A: ProfileColumns + ?Sized,
    B: ProfileColumns + ?Sized,
{
    let n = a.len().min(b.len());
    let mut columns = Vec::new();
    let mut diff_col = |name: &'static str,
                        av: &dyn Fn(usize) -> u64,
                        bv: &dyn Fn(usize) -> u64,
                        delta: &dyn Fn(usize) -> f64| {
        let mut d = ColumnDiff::new(name);
        for i in 0..n {
            if av(i) != bv(i) {
                d.record(i, delta(i));
            }
        }
        columns.push(d);
    };
    diff_col(
        "run",
        &|i| u64::from(a.run_at(i)),
        &|i| u64::from(b.run_at(i)),
        &|i| (f64::from(a.run_at(i)) - f64::from(b.run_at(i))).abs(),
    );
    diff_col(
        "exec_pos",
        &|i| u64::from(a.exec_pos_raw_at(i)),
        &|i| u64::from(b.exec_pos_raw_at(i)),
        &|i| (f64::from(a.exec_pos_raw_at(i)) - f64::from(b.exec_pos_raw_at(i))).abs(),
    );
    diff_col(
        "toi_ns",
        &|i| a.toi_bits_at(i),
        &|i| b.toi_bits_at(i),
        &|i| (f64::from_bits(a.toi_bits_at(i)) - f64::from_bits(b.toi_bits_at(i))).abs(),
    );
    let mut diff_f64 =
        |name: &'static str, av: &dyn Fn(usize) -> f64, bv: &dyn Fn(usize) -> f64| {
            let mut d = ColumnDiff::new(name);
            for i in 0..n {
                if av(i).to_bits() != bv(i).to_bits() {
                    d.record(i, (av(i) - bv(i)).abs());
                }
            }
            columns.push(d);
        };
    diff_f64("run_time_ns", &|i| a.run_time_at(i), &|i| b.run_time_at(i));
    diff_f64("xcd", &|i| a.xcd_at(i), &|i| b.xcd_at(i));
    diff_f64("iod", &|i| a.iod_at(i), &|i| b.iod_at(i));
    diff_f64("hbm", &|i| a.hbm_at(i), &|i| b.hbm_at(i));
    diff_f64("rest", &|i| a.rest_at(i), &|i| b.rest_at(i));
    let mut d = ColumnDiff::new("in_exec");
    for i in 0..n {
        if a.in_exec_at(i) != b.in_exec_at(i) {
            d.record(i, 1.0);
        }
    }
    columns.push(d);
    StoreDiff {
        len_a: a.len(),
        len_b: b.len(),
        columns,
    }
}
