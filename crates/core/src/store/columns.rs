//! The column abstraction shared by the owned [`ProfileStore`] and the
//! borrowed [`ProfileStoreView`](super::ProfileStoreView), plus the
//! column kernels (reductions, argsort, filter, select, canonical-form
//! validation, diff) written once against that abstraction.
//!
//! Both storage shapes — decoded `Vec` columns and raw little-endian
//! byte blocks served in place — implement [`ProfileColumns`]; every
//! analysis kernel is a single generic implementation, so the two paths
//! cannot drift apart. All floating-point reductions fold in storage
//! order, which keeps means bit-identical across the owned and view
//! paths.

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

/// The order-preserving `u64` key of an axis value: unsigned key order
/// is the total order axes sort under. Numbers ascend by value (`-0.0`
/// maps to `+0.0`, so the two zeros tie); every NaN maps to `u64::MAX`,
/// after `+inf`, tied with every other NaN. A missing TOI maps to `0`,
/// below `-inf`'s `0x000F_FFFF_FFFF_FFFF`. Negative values map to their
/// complemented bits, everything else to its bits with the top bit set.
#[inline]
fn axis_key(x: Option<f64>) -> u64 {
    match x {
        None => 0,
        Some(x) if x.is_nan() => u64::MAX,
        Some(x) => {
            let bits = if x == 0.0 { 0 } else { x.to_bits() };
            if bits >> 63 == 1 {
                !bits
            } else {
                bits | 1 << 63
            }
        }
    }
}

/// Stable argsort by the chosen time axis; see
/// [`ProfileStore::argsort_by_axis`] for the ordering contract.
pub(crate) fn argsort_by_axis<C: ProfileColumns + ?Sized>(c: &C, axis: ProfileAxis) -> Vec<u32> {
    let keys: Vec<u64> = (0..c.len())
        .map(|i| {
            axis_key(match axis {
                ProfileAxis::RunTime => Some(c.run_time_at(i)),
                ProfileAxis::Toi => c.toi_at(i),
            })
        })
        .collect();
    let index: Vec<u32> = (0..c.len() as u32).collect();
    radix_argsort(keys, index)
}

/// Stable LSD radix sort of `index` by `keys`, one 8-bit digit per pass,
/// least significant first. A pass whose digit is the same for every key
/// would leave the order unchanged, so it is skipped. Returns the
/// permuted `index`.
fn radix_argsort(mut keys: Vec<u64>, mut index: Vec<u32>) -> Vec<u32> {
    let n = keys.len();
    let mut counts = [[0usize; 256]; 8];
    for &k in &keys {
        for (count, digit) in counts.iter_mut().zip(k.to_le_bytes()) {
            if let Some(c) = count.get_mut(usize::from(digit)) {
                *c += 1;
            }
        }
    }
    let mut keys_out: Vec<u64> = Vec::new();
    let mut index_out: Vec<u32> = Vec::new();
    for (pass, count) in counts.iter().enumerate() {
        if count.contains(&n) {
            continue;
        }
        if keys_out.is_empty() {
            keys_out = vec![0; n];
            index_out = vec![0; n];
        }
        let mut next = [0usize; 256];
        let mut sum = 0;
        for (slot, &c) in next.iter_mut().zip(count) {
            *slot = sum;
            sum += c;
        }
        let shift = 8 * pass;
        for (&k, &i) in keys.iter().zip(&index) {
            if let Some(slot) = next.get_mut(usize::from((k >> shift) as u8)) {
                if let (Some(ko), Some(io)) = (keys_out.get_mut(*slot), index_out.get_mut(*slot)) {
                    *ko = k;
                    *io = i;
                }
                *slot += 1;
            }
        }
        std::mem::swap(&mut keys, &mut keys_out);
        std::mem::swap(&mut index, &mut index_out);
    }
    index
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
