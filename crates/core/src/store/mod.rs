//! Columnar (SoA) storage for stitched profile points.
//!
//! Full-scale campaigns stitch hundreds of golden runs per kernel across a
//! fourteen-kernel suite; an array-of-structs `Vec<ProfilePoint>` pays for
//! `Option` discriminants and padding on every point and drags all eight
//! scalars through the cache even when a consumer scans one column. The
//! [`ProfileStore`] keeps each scalar in its own contiguous column (`run`,
//! `exec_pos`, `toi_ns`, `run_time_ns`, plus one column per power
//! component) with a single validity bitmap replacing the historical
//! `exec_pos == u32::MAX` / `toi_ns == None` sentinels, so:
//!
//! * column scans (means, series extraction, busy-window clipping) touch
//!   only the bytes they need, contiguously;
//! * sorting and filtering permute an index vector instead of moving
//!   56-byte structs ([`ProfileStore::argsort_by_axis`],
//!   [`ProfileStore::indices_where`], [`ProfileStore::select`]);
//! * the whole store maps 1:1 onto a raw little-endian on-disk layout
//!   ([`ProfileStore::write_to`]) that the zero-copy [`ProfileStoreView`]
//!   reads in place — from a shard file read whole, a wire payload, or
//!   any other buffer — and two persisted stores diff column-wise without materializing
//!   points ([`ProfileStore::diff`]).
//!
//! Invalid slots (points that fell outside any execution) are stored
//! *canonically zeroed* — `exec_pos = 0`, `toi_ns = 0.0` wherever the
//! bitmap bit is clear — so structural equality, hashing of the encoded
//! bytes, and the binary round trip are all bit-exact.
//!
//! # Example: binary round trip
//!
//! The on-disk `FGRVPROF` format (specified byte by byte in
//! `docs/FORMATS.md`) round-trips bit-exactly, floats included:
//!
//! ```
//! use fingrav_core::profile::ProfilePoint;
//! use fingrav_core::store::ProfileStore;
//! use fingrav_sim::ComponentPower;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut store = ProfileStore::new();
//! store.push(ProfilePoint {
//!     run: 0,
//!     exec_pos: Some(3),
//!     toi_ns: Some(1250.5),
//!     run_time_ns: 410.0,
//!     power: ComponentPower::new(310.2, 88.0, 61.5, 40.3),
//! });
//! store.push(ProfilePoint {
//!     run: 1,
//!     exec_pos: None, // outside any execution: lands as a cleared bitmap bit
//!     toi_ns: None,
//!     run_time_ns: 415.0,
//!     power: ComponentPower::new(120.0, 80.0, 55.0, 39.9),
//! });
//!
//! let bytes = store.to_bytes();
//! assert_eq!(&bytes[0..8], b"FGRVPROF");
//! let restored = ProfileStore::from_bytes(&bytes)?;
//! assert_eq!(restored, store);
//! assert_eq!(restored.to_bytes(), bytes, "re-encoding is bit-identical");
//! assert!(store.diff(&restored).is_identical());
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::io::{self, Write};

use fingrav_sim::power::{Component, ComponentPower};

use crate::profile::{ProfileAxis, ProfilePoint};

mod columns;
mod view;

pub(crate) use columns::argsort_by_axis;
pub use columns::ProfileColumns;
pub use view::{ColumnLayout, ProfileStoreView, ViewPointRef};

pub(crate) use view::F64Column;

/// Magic bytes opening every persisted [`ProfileStore`].
pub const STORE_MAGIC: [u8; 8] = *b"FGRVPROF";
/// Current binary-format version.
pub const STORE_VERSION: u32 = 1;

/// Columnar profile-point storage. See the module docs for the layout
/// rationale; see [`crate::profile::PowerProfile`] for the labelled wrapper
/// most code interacts with.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileStore {
    /// Contributing run per point.
    run: Vec<u32>,
    /// Execution position per point; canonically `0` where invalid.
    exec_pos: Vec<u32>,
    /// Time-of-interest per point, ns; canonically `0.0` where invalid.
    toi_ns: Vec<f64>,
    /// Run-relative time per point, ns.
    run_time_ns: Vec<f64>,
    /// XCD power column, watts.
    xcd: Vec<f64>,
    /// IOD power column, watts.
    iod: Vec<f64>,
    /// HBM power column, watts.
    hbm: Vec<f64>,
    /// Rest-of-package power column, watts.
    rest: Vec<f64>,
    /// Validity bitmap: bit `i` set ⇔ point `i` landed inside an execution
    /// (its `exec_pos`/`toi_ns` columns are meaningful).
    in_exec: Vec<u64>,
}

impl ProfileStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ProfileStore::default()
    }

    /// Creates an empty store with room for `n` points per column.
    pub fn with_capacity(n: usize) -> Self {
        ProfileStore {
            run: Vec::with_capacity(n),
            exec_pos: Vec::with_capacity(n),
            toi_ns: Vec::with_capacity(n),
            run_time_ns: Vec::with_capacity(n),
            xcd: Vec::with_capacity(n),
            iod: Vec::with_capacity(n),
            hbm: Vec::with_capacity(n),
            rest: Vec::with_capacity(n),
            in_exec: Vec::with_capacity(n.div_ceil(64)),
        }
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.run.len()
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty()
    }

    /// Appends a point. `exec_pos` and `toi_ns` must agree on validity
    /// (both `Some` — the point landed inside an execution — or both
    /// `None`); they always do for points produced by log placement.
    pub fn push(&mut self, p: ProfilePoint) {
        debug_assert_eq!(
            p.exec_pos.is_some(),
            p.toi_ns.is_some(),
            "exec_pos and toi_ns validity must coincide"
        );
        let idx = self.len();
        let valid = p.exec_pos.is_some() && p.toi_ns.is_some();
        self.run.push(p.run);
        self.exec_pos
            .push(if valid { p.exec_pos.unwrap_or(0) } else { 0 });
        self.toi_ns
            .push(if valid { p.toi_ns.unwrap_or(0.0) } else { 0.0 });
        self.run_time_ns.push(p.run_time_ns);
        self.xcd.push(p.power.xcd);
        self.iod.push(p.power.iod);
        self.hbm.push(p.power.hbm);
        self.rest.push(p.power.rest);
        if idx.is_multiple_of(64) {
            self.in_exec.push(0);
        }
        if valid {
            let word = idx / 64;
            self.in_exec[word] |= 1u64 << (idx % 64);
        }
    }

    /// Appends every point of an iterator.
    pub fn extend<I: IntoIterator<Item = ProfilePoint>>(&mut self, points: I) {
        for p in points {
            self.push(p);
        }
    }

    /// Appends every point of another store (the merge operation).
    /// Column-wise: reserves capacity from `other.len()` up front, then
    /// copies each column as one slice append and splices the validity
    /// bitmap at the bit level — bit-identical to pushing every point.
    pub fn extend_from(&mut self, other: &ProfileStore) {
        let old_len = self.len();
        self.reserve_columns(other.len());
        self.run.extend_from_slice(&other.run);
        self.exec_pos.extend_from_slice(&other.exec_pos);
        self.toi_ns.extend_from_slice(&other.toi_ns);
        self.run_time_ns.extend_from_slice(&other.run_time_ns);
        self.xcd.extend_from_slice(&other.xcd);
        self.iod.extend_from_slice(&other.iod);
        self.hbm.extend_from_slice(&other.hbm);
        self.rest.extend_from_slice(&other.rest);
        append_bitmap(
            &mut self.in_exec,
            old_len,
            other.in_exec.iter().copied(),
            other.len(),
        );
    }

    /// Appends every point of a borrowed [`ProfileStoreView`], decoding
    /// each column block once with unaligned little-endian loads — the
    /// streaming-merge primitive: gathering shards appends views straight
    /// into the output store without materializing an intermediate
    /// `ProfileStore` per shard. Bit-identical to
    /// `extend_from(&view.to_store())`.
    pub fn extend_from_view(&mut self, view: &ProfileStoreView<'_>) {
        let old_len = self.len();
        self.reserve_columns(view.len());
        self.run
            .extend(view.run_block().iter().map(|c| u32::from_le_bytes(*c)));
        self.exec_pos
            .extend(view.exec_pos_block().iter().map(|c| u32::from_le_bytes(*c)));
        for (col, which) in [
            (&mut self.toi_ns, F64Column::Toi),
            (&mut self.run_time_ns, F64Column::RunTime),
            (&mut self.xcd, F64Column::Component(Component::Xcd)),
            (&mut self.iod, F64Column::Component(Component::Iod)),
            (&mut self.hbm, F64Column::Component(Component::Hbm)),
            (&mut self.rest, F64Column::Component(Component::Rest)),
        ] {
            col.extend(
                view.f64_block(which)
                    .iter()
                    .map(|c| f64::from_bits(u64::from_le_bytes(*c))),
            );
        }
        append_bitmap(
            &mut self.in_exec,
            old_len,
            view.bitmap_block().iter().map(|c| u64::from_le_bytes(*c)),
            view.len(),
        );
    }

    /// Reserves room for `additional` more points in every column.
    fn reserve_columns(&mut self, additional: usize) {
        let new_len = self.len() + additional;
        self.run.reserve(additional);
        self.exec_pos.reserve(additional);
        self.toi_ns.reserve(additional);
        self.run_time_ns.reserve(additional);
        self.xcd.reserve(additional);
        self.iod.reserve(additional);
        self.hbm.reserve(additional);
        self.rest.reserve(additional);
        self.in_exec
            .reserve(new_len.div_ceil(64) - self.in_exec.len());
    }

    /// Builds a store directly from decoded columns that already satisfy
    /// the canonical-form invariants (the zero-copy view checked them at
    /// construction time).
    #[allow(clippy::too_many_arguments)] // one argument per column, by design
    pub(crate) fn from_validated_columns(
        run: Vec<u32>,
        exec_pos: Vec<u32>,
        toi_ns: Vec<f64>,
        run_time_ns: Vec<f64>,
        xcd: Vec<f64>,
        iod: Vec<f64>,
        hbm: Vec<f64>,
        rest: Vec<f64>,
        in_exec: Vec<u64>,
    ) -> ProfileStore {
        ProfileStore {
            run,
            exec_pos,
            toi_ns,
            run_time_ns,
            xcd,
            iod,
            hbm,
            rest,
            in_exec,
        }
    }

    /// Builds a store from owned points, reserving exact column capacity
    /// when the iterator's length is known (keeps the SoA footprint tight
    /// instead of inheriting `Vec` doubling overshoot).
    pub fn from_points<I: IntoIterator<Item = ProfilePoint>>(points: I) -> Self {
        let iter = points.into_iter();
        let mut s = ProfileStore::with_capacity(iter.size_hint().0);
        s.extend(iter);
        s
    }

    // -- row access -----------------------------------------------------

    /// True when point `i` landed inside an execution.
    pub fn in_exec(&self, i: usize) -> bool {
        (self.in_exec[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Contributing run of point `i`.
    pub fn run(&self, i: usize) -> u32 {
        self.run[i]
    }

    /// Execution position of point `i`, if it landed inside an execution.
    pub fn exec_pos(&self, i: usize) -> Option<u32> {
        self.in_exec(i).then(|| self.exec_pos[i])
    }

    /// Time-of-interest of point `i`, if it landed inside an execution.
    pub fn toi_ns(&self, i: usize) -> Option<f64> {
        self.in_exec(i).then(|| self.toi_ns[i])
    }

    /// Run-relative time of point `i`, ns.
    pub fn run_time_ns(&self, i: usize) -> f64 {
        self.run_time_ns[i]
    }

    /// Component power of point `i`.
    pub fn power(&self, i: usize) -> ComponentPower {
        ComponentPower::new(self.xcd[i], self.iod[i], self.hbm[i], self.rest[i])
    }

    /// Total (VR output) power of point `i`, watts.
    pub fn total_w(&self, i: usize) -> f64 {
        self.power(i).total()
    }

    /// A borrowed view of point `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn get(&self, i: usize) -> ProfilePointRef<'_> {
        assert!(i < self.len(), "point index {i} out of bounds");
        ProfilePointRef {
            store: self,
            idx: i,
        }
    }

    /// Materializes point `i` as an owned [`ProfilePoint`].
    pub fn point(&self, i: usize) -> ProfilePoint {
        ProfilePoint {
            run: self.run[i],
            exec_pos: self.exec_pos(i),
            toi_ns: self.toi_ns(i),
            run_time_ns: self.run_time_ns[i],
            power: self.power(i),
        }
    }

    /// Iterates borrowed point views in storage order.
    pub fn iter(&self) -> impl Iterator<Item = ProfilePointRef<'_>> {
        (0..self.len()).map(move |idx| ProfilePointRef { store: self, idx })
    }

    // -- zero-copy column slices ----------------------------------------

    /// The run column.
    pub fn runs(&self) -> &[u32] {
        &self.run
    }

    /// The raw execution-position column (`0` where the bitmap is clear —
    /// use [`ProfileStore::exec_pos`] for validity-aware access).
    pub fn exec_pos_column(&self) -> &[u32] {
        &self.exec_pos
    }

    /// The raw TOI column, ns (`0.0` where the bitmap is clear).
    pub fn toi_column(&self) -> &[f64] {
        &self.toi_ns
    }

    /// The run-relative-time column, ns.
    pub fn run_times_ns(&self) -> &[f64] {
        &self.run_time_ns
    }

    /// One component's power column, watts.
    pub fn component_column(&self, c: Component) -> &[f64] {
        match c {
            Component::Xcd => &self.xcd,
            Component::Iod => &self.iod,
            Component::Hbm => &self.hbm,
            Component::Rest => &self.rest,
        }
    }

    /// The validity-bitmap words (bit `i % 64` of word `i / 64` is point
    /// `i`'s in-execution flag).
    pub fn validity_words(&self) -> &[u64] {
        &self.in_exec
    }

    // -- column-wise reductions (shared kernels) ------------------------

    /// Sum of every point's component power, in storage order (the same
    /// f64 addition order the AoS fold used, so means are bit-identical).
    pub fn sum_power(&self) -> ComponentPower {
        columns::sum_power(self)
    }

    /// Mean component power over all points; `None` if empty.
    pub fn mean_power(&self) -> Option<ComponentPower> {
        columns::mean_power(self)
    }

    /// Number of points that landed inside an execution (popcount of the
    /// validity bitmap).
    pub fn in_exec_count(&self) -> usize {
        self.in_exec.iter().map(|w| w.count_ones() as usize).sum()
    }

    // -- index-permuting sort / filter ----------------------------------

    /// Stable argsort of the points by the chosen time axis: returns the
    /// index permutation instead of moving any column data. Points without
    /// a TOI sort first on the [`ProfileAxis::Toi`] axis (matching the
    /// historical `Option<f64>` ordering). Keys are totally ordered:
    /// numbers ascend by value (`-0.0` and `+0.0` tie), then every NaN
    /// key follows, and tied keys — NaNs included — keep index order. On
    /// NaN-free keys this is the plain ascending `f64` order.
    ///
    /// Internally this is a stable LSD radix sort: one sequential read of
    /// the key column maps each point to an order-preserving `u64` key
    /// (a missing TOI to `0`, every NaN to `u64::MAX`, `-0.0` to `+0.0`),
    /// then up to eight 8-bit counting passes scatter `(key, index)`
    /// between two buffers, skipping any pass whose digit is the same for
    /// every key. The CSV writer renders its rows in this same order.
    pub fn argsort_by_axis(&self, axis: ProfileAxis) -> Vec<u32> {
        columns::argsort_by_axis(self, axis)
    }

    /// Indices of points satisfying `pred`, in storage order.
    pub fn indices_where(&self, mut pred: impl FnMut(ProfilePointRef<'_>) -> bool) -> Vec<u32> {
        columns::indices_where(self, |c, i| pred(c.get(i)))
    }

    /// Indices of the points that landed inside an execution (the LOIs).
    pub fn indices_in_exec(&self) -> Vec<u32> {
        self.indices_where(|p| p.in_exec())
    }

    /// Gathers the given indices into a new store (also the way to apply
    /// an [`ProfileStore::argsort_by_axis`] permutation).
    pub fn select(&self, indices: &[u32]) -> ProfileStore {
        columns::select(self, indices)
    }

    /// A copy sorted by the chosen time axis.
    pub fn sorted_by_axis(&self, axis: ProfileAxis) -> ProfileStore {
        self.select(&self.argsort_by_axis(axis))
    }

    /// Keeps only points satisfying `pred` (in-place compaction).
    pub fn retain(&mut self, pred: impl FnMut(ProfilePointRef<'_>) -> bool) {
        let keep = self.indices_where(pred);
        *self = self.select(&keep);
    }

    /// A copy with every power column scaled by `k` (time columns and the
    /// bitmap are shared semantics, so they copy unchanged).
    pub fn scale_power(&self, k: f64) -> ProfileStore {
        let mut out = self.clone();
        for col in [&mut out.xcd, &mut out.iod, &mut out.hbm, &mut out.rest] {
            for w in col.iter_mut() {
                *w *= k;
            }
        }
        out
    }

    /// Approximate heap footprint of the columns, bytes (for capacity
    /// planning and the AoS-vs-SoA benchmark).
    pub fn heap_bytes(&self) -> usize {
        self.run.capacity() * 4
            + self.exec_pos.capacity() * 4
            + (self.toi_ns.capacity()
                + self.run_time_ns.capacity()
                + self.xcd.capacity()
                + self.iod.capacity()
                + self.hbm.capacity()
                + self.rest.capacity())
                * 8
            + self.in_exec.capacity() * 8
    }

    // -- binary on-disk format ------------------------------------------

    /// Serialized size of this store in the binary format, bytes.
    pub fn encoded_len(&self) -> usize {
        let n = self.len();
        24 + n * (4 + 4 + 8 * 6) + n.div_ceil(64) * 8
    }

    /// Writes the store in the versioned little-endian binary format:
    /// an 8-byte magic, `u32` version, `u32` reserved flags, `u64` point
    /// count, then the raw column blocks (`run`, `exec_pos`, `toi_ns`,
    /// `run_time_ns`, `xcd`, `iod`, `hbm`, `rest`, validity bitmap) in
    /// declaration order.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&STORE_MAGIC)?;
        w.write_all(&STORE_VERSION.to_le_bytes())?;
        w.write_all(&0u32.to_le_bytes())?;
        w.write_all(&(self.len() as u64).to_le_bytes())?;
        let mut buf = Vec::with_capacity(self.len() * 8);
        for col in [&self.run, &self.exec_pos] {
            buf.clear();
            for v in col.iter() {
                buf.extend_from_slice(&v.to_le_bytes());
            }
            w.write_all(&buf)?;
        }
        for col in [
            &self.toi_ns,
            &self.run_time_ns,
            &self.xcd,
            &self.iod,
            &self.hbm,
            &self.rest,
        ] {
            buf.clear();
            for v in col.iter() {
                buf.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            w.write_all(&buf)?;
        }
        buf.clear();
        for v in &self.in_exec {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        w.write_all(&buf)?;
        Ok(())
    }

    /// Encodes the store to an owned byte buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.write_to(&mut out).expect("Vec writes are infallible");
        out
    }

    /// Decodes a store previously written by [`ProfileStore::write_to`],
    /// rejecting trailing bytes.
    ///
    /// This is [`ProfileStoreView::new`] followed by
    /// [`ProfileStoreView::to_store`]: the buffer is validated once (exact
    /// block-size check up front) and each column is then decoded into an
    /// exactly-sized `Vec`.
    ///
    /// # Errors
    ///
    /// As [`ProfileStoreView::new`].
    pub fn from_bytes(bytes: &[u8]) -> Result<ProfileStore, StoreCodecError> {
        Ok(ProfileStoreView::new(bytes)?.to_store())
    }

    // -- column-wise diffing --------------------------------------------

    /// Compares two stores column-wise without materializing points: for
    /// each column, how many entries differ (bit-comparison for floats, so
    /// NaN-safe), the first differing index, and the largest absolute
    /// delta. The report is the zero-copy substrate for diffing persisted
    /// campaign artefacts across runs.
    pub fn diff(&self, other: &ProfileStore) -> StoreDiff {
        columns::diff(self, other)
    }

    /// Column-wise diff against a borrowed [`ProfileStoreView`] — the
    /// same report as [`ProfileStore::diff`], without decoding the view.
    pub fn diff_view(&self, other: &ProfileStoreView<'_>) -> StoreDiff {
        columns::diff(self, other)
    }
}

impl ProfileColumns for ProfileStore {
    #[inline]
    fn len(&self) -> usize {
        self.run.len()
    }
    #[inline]
    fn run_at(&self, i: usize) -> u32 {
        self.run[i]
    }
    #[inline]
    fn exec_pos_raw_at(&self, i: usize) -> u32 {
        self.exec_pos[i]
    }
    #[inline]
    fn toi_bits_at(&self, i: usize) -> u64 {
        self.toi_ns[i].to_bits()
    }
    #[inline]
    fn run_time_at(&self, i: usize) -> f64 {
        self.run_time_ns[i]
    }
    #[inline]
    fn xcd_at(&self, i: usize) -> f64 {
        self.xcd[i]
    }
    #[inline]
    fn iod_at(&self, i: usize) -> f64 {
        self.iod[i]
    }
    #[inline]
    fn hbm_at(&self, i: usize) -> f64 {
        self.hbm[i]
    }
    #[inline]
    fn rest_at(&self, i: usize) -> f64 {
        self.rest[i]
    }
    #[inline]
    fn validity_word_at(&self, w: usize) -> u64 {
        self.in_exec[w]
    }
}

/// Appends `src_len` points' worth of bitmap words onto `dst` (which
/// holds `dst_len` points), splicing at the bit level when `dst_len` is
/// not word-aligned. `src` must be canonical: bits at positions
/// `>= src_len` in its final word are zero.
fn append_bitmap(
    dst: &mut Vec<u64>,
    dst_len: usize,
    src: impl Iterator<Item = u64>,
    src_len: usize,
) {
    if src_len == 0 {
        return;
    }
    let off = dst_len % 64;
    if off == 0 {
        dst.extend(src.take(src_len.div_ceil(64)));
        return;
    }
    let mut remaining = src_len;
    for w in src {
        if remaining == 0 {
            break;
        }
        let take = remaining.min(64);
        *dst.last_mut()
            .expect("unaligned dst_len implies a last word") |= w << off;
        if take > 64 - off {
            dst.push(w >> (64 - off));
        }
        remaining -= take;
    }
}

impl<'a> IntoIterator for &'a ProfileStore {
    type Item = ProfilePointRef<'a>;
    type IntoIter = Box<dyn Iterator<Item = ProfilePointRef<'a>> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl FromIterator<ProfilePoint> for ProfileStore {
    fn from_iter<I: IntoIterator<Item = ProfilePoint>>(iter: I) -> Self {
        ProfileStore::from_points(iter)
    }
}

/// A borrowed view of one stored point — what [`ProfileStore::iter`]
/// yields. Accessors read straight from the columns; nothing is copied
/// until [`ProfilePointRef::to_point`].
#[derive(Debug, Clone, Copy)]
pub struct ProfilePointRef<'a> {
    store: &'a ProfileStore,
    idx: usize,
}

impl ProfilePointRef<'_> {
    /// Index of this point within its store.
    pub fn index(&self) -> usize {
        self.idx
    }

    /// Contributing run.
    pub fn run(&self) -> u32 {
        self.store.run[self.idx]
    }

    /// Execution position, if the point landed inside an execution.
    pub fn exec_pos(&self) -> Option<u32> {
        self.store.exec_pos(self.idx)
    }

    /// Time-of-interest, ns, if the point landed inside an execution.
    pub fn toi_ns(&self) -> Option<f64> {
        self.store.toi_ns(self.idx)
    }

    /// Run-relative time, ns.
    pub fn run_time_ns(&self) -> f64 {
        self.store.run_time_ns[self.idx]
    }

    /// Component power.
    pub fn power(&self) -> ComponentPower {
        self.store.power(self.idx)
    }

    /// Total power, watts.
    pub fn total_w(&self) -> f64 {
        self.store.total_w(self.idx)
    }

    /// True when the point landed inside an execution.
    pub fn in_exec(&self) -> bool {
        self.store.in_exec(self.idx)
    }

    /// Materializes an owned [`ProfilePoint`].
    pub fn to_point(&self) -> ProfilePoint {
        self.store.point(self.idx)
    }
}

// ---------------------------------------------------------------------
// Codec errors
// ---------------------------------------------------------------------

/// Failure decoding a persisted [`ProfileStore`].
#[derive(Debug)]
pub enum StoreCodecError {
    /// The reader failed below the format layer.
    Io(io::Error),
    /// The stream does not start with [`STORE_MAGIC`].
    BadMagic([u8; 8]),
    /// The stream's format version is not [`STORE_VERSION`].
    UnsupportedVersion(u32),
    /// The stream ended inside the named block.
    Truncated(&'static str),
    /// The stream decoded but violates a format invariant.
    Corrupt(String),
}

impl fmt::Display for StoreCodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreCodecError::Io(e) => write!(f, "i/o error reading profile store: {e}"),
            StoreCodecError::BadMagic(m) => {
                write!(f, "not a profile store (magic {m:02x?})")
            }
            StoreCodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported profile-store version {v} (expected {STORE_VERSION})"
                )
            }
            StoreCodecError::Truncated(block) => {
                write!(f, "profile store truncated inside the {block} block")
            }
            StoreCodecError::Corrupt(why) => write!(f, "corrupt profile store: {why}"),
        }
    }
}

impl std::error::Error for StoreCodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreCodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Column-wise diff report
// ---------------------------------------------------------------------

/// Per-column difference summary from [`ProfileStore::diff`].
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDiff {
    /// Column name.
    pub column: &'static str,
    /// Entries that differ over the compared prefix.
    pub differing: usize,
    /// Index of the first differing entry, if any.
    pub first_index: Option<usize>,
    /// Largest absolute numeric delta observed (NaN mismatches count as a
    /// difference but contribute no delta).
    pub max_abs_delta: f64,
}

impl ColumnDiff {
    fn new(column: &'static str) -> Self {
        ColumnDiff {
            column,
            differing: 0,
            first_index: None,
            max_abs_delta: 0.0,
        }
    }

    fn record(&mut self, index: usize, delta: f64) {
        if self.first_index.is_none() {
            self.first_index = Some(index);
        }
        self.differing += 1;
        if delta.is_finite() && delta > self.max_abs_delta {
            self.max_abs_delta = delta;
        }
    }
}

/// Column-wise comparison of two stores ([`ProfileStore::diff`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StoreDiff {
    /// Point count of the left store.
    pub len_a: usize,
    /// Point count of the right store.
    pub len_b: usize,
    /// One summary per column, over the common prefix.
    pub columns: Vec<ColumnDiff>,
}

impl StoreDiff {
    /// True when the stores are bit-identical (same length, no differing
    /// entry in any column).
    pub fn is_identical(&self) -> bool {
        self.len_a == self.len_b && self.columns.iter().all(|c| c.differing == 0)
    }

    /// The first column that differs, in column order, if any. Campaign
    /// gathering uses this to name the offending column (and its first
    /// differing index) when two shards disagree about an entry, instead
    /// of reporting a bare mismatch.
    pub fn first_mismatch(&self) -> Option<&ColumnDiff> {
        self.columns.iter().find(|c| c.differing > 0)
    }

    /// One-line description of the mismatch: the length disagreement or
    /// the first differing column with its first index. `"identical"` when
    /// the stores match.
    pub fn mismatch_brief(&self) -> String {
        if self.len_a != self.len_b {
            return format!("length {} vs {}", self.len_a, self.len_b);
        }
        match self.first_mismatch() {
            Some(c) => format!(
                "column `{}` differs at {} entries (first at index {})",
                c.column,
                c.differing,
                c.first_index.unwrap_or(0)
            ),
            None => "identical".to_string(),
        }
    }

    /// One human-readable line per differing column (plus a length line
    /// when the stores disagree on point count); `"identical"` otherwise.
    pub fn summary(&self) -> String {
        if self.is_identical() {
            return "identical".to_string();
        }
        let mut lines = Vec::new();
        if self.len_a != self.len_b {
            lines.push(format!("length: {} vs {}", self.len_a, self.len_b));
        }
        for c in self.columns.iter().filter(|c| c.differing > 0) {
            lines.push(format!(
                "{}: {} entries differ (first at {}, max |Δ| {:.6})",
                c.column,
                c.differing,
                c.first_index.unwrap_or(0),
                c.max_abs_delta,
            ));
        }
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(run: u32, exec: Option<u32>, toi: Option<f64>, rt: f64, w: f64) -> ProfilePoint {
        ProfilePoint {
            run,
            exec_pos: exec,
            toi_ns: toi,
            run_time_ns: rt,
            power: ComponentPower::new(w, w / 2.0, w / 4.0, w / 8.0),
        }
    }

    fn sample() -> ProfileStore {
        ProfileStore::from_points([
            pt(0, Some(2), Some(250.0), 2_000.0, 100.0),
            pt(1, None, None, -400.0, 40.0),
            pt(0, Some(0), Some(10.0), 1_000.0, 80.0),
        ])
    }

    #[test]
    fn push_and_row_access() {
        let s = sample();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.exec_pos(0), Some(2));
        assert_eq!(s.exec_pos(1), None);
        assert_eq!(s.toi_ns(1), None);
        assert_eq!(s.toi_ns(2), Some(10.0));
        assert_eq!(s.in_exec_count(), 2);
        assert_eq!(s.runs(), &[0, 1, 0]);
        // Invalid slots are canonically zeroed in the raw columns.
        assert_eq!(s.exec_pos_column()[1], 0);
        assert_eq!(s.toi_column()[1], 0.0);
    }

    #[test]
    fn point_round_trips_through_store() {
        let points = [
            pt(3, Some(1), Some(5.0), 7.0, 10.0),
            pt(4, None, None, 9.0, 20.0),
        ];
        let s = ProfileStore::from_points(points);
        assert_eq!(s.point(0), points[0]);
        assert_eq!(s.point(1), points[1]);
        let via_iter: Vec<ProfilePoint> = s.iter().map(|p| p.to_point()).collect();
        assert_eq!(via_iter, points);
    }

    #[test]
    fn bitmap_crosses_word_boundaries() {
        let mut s = ProfileStore::new();
        for i in 0..200u32 {
            let valid = i % 3 == 0;
            s.push(pt(
                i,
                valid.then_some(i),
                valid.then_some(f64::from(i)),
                f64::from(i),
                1.0,
            ));
        }
        for i in 0..200usize {
            assert_eq!(s.in_exec(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(s.validity_words().len(), 4);
    }

    #[test]
    fn argsort_is_stable_and_permutes_indices() {
        let s = ProfileStore::from_points([
            pt(0, Some(0), Some(3.0), 30.0, 1.0),
            pt(1, None, None, 10.0, 2.0),
            pt(2, Some(0), Some(1.0), 10.0, 3.0),
        ]);
        assert_eq!(s.argsort_by_axis(ProfileAxis::RunTime), vec![1, 2, 0]);
        // TOI-less points sort first (None < Some), preserving order.
        assert_eq!(s.argsort_by_axis(ProfileAxis::Toi), vec![1, 2, 0]);
        let sorted = s.sorted_by_axis(ProfileAxis::RunTime);
        assert_eq!(sorted.run_times_ns(), &[10.0, 10.0, 30.0]);
    }

    #[test]
    fn argsort_orders_nan_and_infinite_keys_totally() {
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        let keys = [nan, 2.0, -inf, nan, -0.0, inf, 0.0, 1.0];
        let s = ProfileStore::from_points(keys.iter().enumerate().map(|(i, &k)| {
            let i = i as u32;
            // Index 7 has no TOI, so it leads the TOI order.
            let toi = (i != 7).then_some(k);
            pt(i, toi.map(|_| i), toi, k, 1.0)
        }));
        let bytes = s.to_bytes();
        let view = ProfileStoreView::new(&bytes).unwrap();
        // Numbers ascend (-0.0 and 0.0 tie, in index order), NaNs follow
        // every number, in index order.
        let by_run = vec![2, 4, 6, 7, 1, 5, 0, 3];
        let by_toi = vec![7, 2, 4, 6, 1, 5, 0, 3];
        assert_eq!(s.argsort_by_axis(ProfileAxis::RunTime), by_run);
        assert_eq!(view.argsort_by_axis(ProfileAxis::RunTime), by_run);
        assert_eq!(s.argsort_by_axis(ProfileAxis::Toi), by_toi);
        assert_eq!(view.argsort_by_axis(ProfileAxis::Toi), by_toi);
        // Many NaNs between numbers: a non-total comparator panics or
        // misorders here; the total one sorts the numbers and keeps the
        // NaNs in index order at the end.
        let many = ProfileStore::from_points((0..200u32).map(|i| {
            let k = if i % 3 == 0 {
                nan
            } else {
                f64::from((i * 37) % 101)
            };
            pt(i, Some(i), Some(k), k, 1.0)
        }));
        let bytes = many.to_bytes();
        let many_view = ProfileStoreView::new(&bytes).unwrap();
        for axis in [ProfileAxis::RunTime, ProfileAxis::Toi] {
            let order = many.argsort_by_axis(axis);
            assert_eq!(many_view.argsort_by_axis(axis), order);
            let keys: Vec<f64> = order
                .iter()
                .map(|&i| many.run_time_ns(i as usize))
                .collect();
            let numbers = keys.iter().take_while(|k| !k.is_nan()).count();
            assert_eq!(numbers, 133);
            assert!(keys[..numbers].windows(2).all(|w| w[0] <= w[1]));
            assert!(order[numbers..].windows(2).all(|w| w[0] < w[1]));
            assert!(order[numbers..].iter().all(|i| i % 3 == 0));
        }
    }

    #[test]
    fn select_retain_and_scale() {
        let mut s = sample();
        let lois = s.select(&s.indices_in_exec());
        assert_eq!(lois.len(), 2);
        assert!(lois.iter().all(|p| p.in_exec()));
        let scaled = s.scale_power(0.5);
        assert!((scaled.total_w(0) - s.total_w(0) * 0.5).abs() < 1e-12);
        s.retain(|p| p.run() == 0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn binary_round_trip_is_bit_identical() {
        let s = sample();
        let bytes = s.to_bytes();
        assert_eq!(bytes.len(), s.encoded_len());
        let restored = ProfileStore::from_bytes(&bytes).unwrap();
        assert_eq!(restored, s);
        assert_eq!(restored.to_bytes(), bytes);
    }

    #[test]
    fn empty_store_round_trips() {
        let s = ProfileStore::new();
        let restored = ProfileStore::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(restored, s);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            ProfileStore::from_bytes(&bytes),
            Err(StoreCodecError::BadMagic(_))
        ));
        let mut bytes = sample().to_bytes();
        bytes[8] = 99;
        assert!(matches!(
            ProfileStore::from_bytes(&bytes),
            Err(StoreCodecError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn truncation_is_reported_per_block() {
        let bytes = sample().to_bytes();
        for cut in [4, 20, 30, bytes.len() - 1] {
            let err = ProfileStore::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, StoreCodecError::Truncated(_)),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn stray_bitmap_bits_and_trailing_bytes_are_corrupt() {
        let mut bytes = sample().to_bytes();
        // The 3-point store uses bits 0..3 of the final u64; set bit 40.
        let last = bytes.len() - 8;
        bytes[last + 5] = 0x01;
        assert!(matches!(
            ProfileStore::from_bytes(&bytes),
            Err(StoreCodecError::Corrupt(_))
        ));
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(matches!(
            ProfileStore::from_bytes(&bytes),
            Err(StoreCodecError::Corrupt(_))
        ));
    }

    #[test]
    fn non_canonical_invalid_slots_are_corrupt() {
        let mut bytes = sample().to_bytes();
        // Point 1 is invalid; its exec_pos u32 sits at 24 + 3*4 + 1*4.
        let off = 24 + 3 * 4 + 4;
        bytes[off] = 7;
        assert!(matches!(
            ProfileStore::from_bytes(&bytes),
            Err(StoreCodecError::Corrupt(_))
        ));
    }

    #[test]
    fn diff_reports_columns_and_identity() {
        let a = sample();
        assert!(a.diff(&a).is_identical());
        assert_eq!(a.diff(&a).summary(), "identical");

        let mut b = sample();
        b.retain(|_| true); // no-op rebuild
        let mut c = ProfileStore::new();
        for (i, p) in b.iter().enumerate() {
            let mut point = p.to_point();
            if i == 1 {
                point.run_time_ns += 2.5;
            }
            c.push(point);
        }
        let d = a.diff(&c);
        assert!(!d.is_identical());
        let rt = d
            .columns
            .iter()
            .find(|col| col.column == "run_time_ns")
            .unwrap();
        assert_eq!(rt.differing, 1);
        assert_eq!(rt.first_index, Some(1));
        assert!((rt.max_abs_delta - 2.5).abs() < 1e-12);
        assert!(d.summary().contains("run_time_ns"));

        let shorter = a.select(&[0, 1]);
        assert!(!a.diff(&shorter).is_identical());
        assert!(a.diff(&shorter).summary().contains("length"));
    }

    #[test]
    fn heap_bytes_tracks_columns() {
        let s = sample();
        assert!(s.heap_bytes() >= 3 * (4 + 4 + 6 * 8));
    }
}
