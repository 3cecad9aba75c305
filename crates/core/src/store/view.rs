//! Borrowed, zero-copy decoding of the `FGRVPROF` binary format — the
//! format's one decoder.
//!
//! [`ProfileStoreView`] validates an encoded store once — header,
//! exact block sizes, stray-bitmap-bit and canonical-zero invariants —
//! and then serves every column straight out of the caller's byte
//! buffer: no `Vec` per column, no copy per point. The buffer can come
//! from anywhere bytes live (a shard file read whole, a received wire
//! frame, a checkpoint entry section), which is why the view never assumes
//! alignment: every element is read with an unaligned little-endian
//! load (`u32::from_le_bytes` / `u64::from_le_bytes` on a 4- or 8-byte
//! chunk), per the in-place-read rules in `docs/FORMATS.md` §2. Owned
//! decoding ([`ProfileStore::from_bytes`], the profiles embedded in
//! checkpoint sections) is this view followed by
//! [`ProfileStoreView::to_store`].
//!
//! All analysis kernels (`mean_power`, `argsort_by_axis`,
//! `indices_where`, `select`, `diff`, CSV emission) are shared with the
//! owned [`ProfileStore`] through [`ProfileColumns`], so the two paths
//! return bit-identical results by construction.

use super::columns::{self, ProfileColumns};
use super::{ProfileStore, StoreCodecError, StoreDiff, STORE_MAGIC, STORE_VERSION};
use crate::cover;
use crate::profile::{ProfileAxis, ProfilePoint};
use fingrav_sim::power::{Component, ComponentPower};

/// Reads the unaligned little-endian `u32` at element index `i` of a
/// packed 4-byte-stride block. The block is pre-chunked into `[u8; 4]`
/// elements at view construction, so random access costs exactly one
/// bounds check — the same as indexing the owned `Vec<u32>` column —
/// which is what lets the view's kernels run at owned-column speed.
#[inline]
fn le_u32(block: &[[u8; 4]], i: usize) -> u32 {
    u32::from_le_bytes(block[i])
}

/// Reads the unaligned little-endian `u64` at element index `i` of a
/// packed 8-byte-stride block (see [`le_u32`] on why pre-chunked).
#[inline]
fn le_u64(block: &[[u8; 8]], i: usize) -> u64 {
    u64::from_le_bytes(block[i])
}

/// Copies the `N`-byte header block starting at `at` out of `bytes`,
/// or returns the given truncation error. `get`-based, so a short
/// buffer becomes a typed error rather than a panic.
#[inline]
fn take_block<const N: usize>(
    bytes: &[u8],
    at: usize,
    block: &'static str,
) -> Result<[u8; N], StoreCodecError> {
    match bytes.get(at..at + N) {
        Some(b) => {
            let mut out = [0u8; N];
            out.copy_from_slice(b);
            Ok(out)
        }
        None => Err(StoreCodecError::Truncated(block)),
    }
}

/// Re-slices a `4·k`-byte block as `k` unaligned 4-byte elements.
#[inline]
fn chunks4(block: &[u8]) -> &[[u8; 4]] {
    let (chunks, rest) = block.as_chunks::<4>();
    debug_assert!(rest.is_empty(), "block length is a multiple of 4");
    chunks
}

/// Re-slices an `8·k`-byte block as `k` unaligned 8-byte elements.
#[inline]
fn chunks8(block: &[u8]) -> &[[u8; 8]] {
    let (chunks, rest) = block.as_chunks::<8>();
    debug_assert!(rest.is_empty(), "block length is a multiple of 8");
    chunks
}

/// Byte offsets of every column block of an `n`-point encoded store,
/// relative to the start of the encoding (header included). This is the
/// normative §2 layout of `docs/FORMATS.md` in executable form; the
/// view and the spec test both derive offsets from here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnLayout {
    /// Point count the layout was computed for.
    pub n: usize,
    /// Offset of the `run` block (always 24: right after the header).
    pub run: usize,
    /// Offset of the `exec_pos` block.
    pub exec_pos: usize,
    /// Offset of the `toi_ns` block.
    pub toi_ns: usize,
    /// Offset of the `run_time_ns` block.
    pub run_time_ns: usize,
    /// Offset of the `xcd` block.
    pub xcd: usize,
    /// Offset of the `iod` block.
    pub iod: usize,
    /// Offset of the `hbm` block.
    pub hbm: usize,
    /// Offset of the `rest` block.
    pub rest: usize,
    /// Offset of the validity-bitmap block.
    pub bitmap: usize,
    /// Total encoded size, header included.
    pub total: usize,
}

impl ColumnLayout {
    /// Computes the layout for an `n`-point store. `None` when the
    /// block arithmetic would overflow `usize` (only possible on
    /// 32-bit targets; `n` is already bounded by `u32::MAX`).
    pub fn for_len(n: usize) -> Option<ColumnLayout> {
        let u32_block = n.checked_mul(4)?;
        let f64_block = n.checked_mul(8)?;
        let bitmap_block = n.div_ceil(64).checked_mul(8)?;
        let run = 24usize;
        let exec_pos = run.checked_add(u32_block)?;
        let toi_ns = exec_pos.checked_add(u32_block)?;
        let run_time_ns = toi_ns.checked_add(f64_block)?;
        let xcd = run_time_ns.checked_add(f64_block)?;
        let iod = xcd.checked_add(f64_block)?;
        let hbm = iod.checked_add(f64_block)?;
        let rest = hbm.checked_add(f64_block)?;
        let bitmap = rest.checked_add(f64_block)?;
        let total = bitmap.checked_add(bitmap_block)?;
        Some(ColumnLayout {
            n,
            run,
            exec_pos,
            toi_ns,
            run_time_ns,
            xcd,
            iod,
            hbm,
            rest,
            bitmap,
            total,
        })
    }

    /// The name of the block a buffer of `avail` bytes ends inside
    /// (`avail < total`); used to label `Truncated` errors.
    fn truncated_block(&self, avail: usize) -> &'static str {
        let bounds = [
            (self.exec_pos, "run"),
            (self.toi_ns, "exec_pos"),
            (self.run_time_ns, "toi_ns"),
            (self.xcd, "run_time_ns"),
            (self.iod, "xcd"),
            (self.hbm, "iod"),
            (self.rest, "hbm"),
            (self.bitmap, "rest"),
            (self.total, "validity bitmap"),
        ];
        for (end, name) in bounds {
            if avail < end {
                return name;
            }
        }
        "validity bitmap"
    }
}

/// A borrowed, validated view of one encoded `FGRVPROF` store.
///
/// Constructed by [`ProfileStoreView::new`] (exact buffer) or
/// [`ProfileStoreView::split_prefix`] (store embedded in a larger
/// stream, e.g. a checkpoint entry or a wire frame). Construction runs
/// every format check — magic, version, plausible length, exact block
/// sizes, stray bitmap bits, canonical zeroing of invalid slots — so
/// every later accessor is infallible and panic-free.
///
/// ```
/// use fingrav_core::profile::ProfilePoint;
/// use fingrav_core::store::{ProfileStore, ProfileStoreView};
/// use fingrav_sim::ComponentPower;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut store = ProfileStore::new();
/// store.push(ProfilePoint {
///     run: 0,
///     exec_pos: Some(3),
///     toi_ns: Some(1250.5),
///     run_time_ns: 410.0,
///     power: ComponentPower::new(310.2, 88.0, 61.5, 40.3),
/// });
/// let bytes = store.to_bytes();
/// let view = ProfileStoreView::new(&bytes)?; // zero-copy: borrows `bytes`
/// assert_eq!(view.len(), 1);
/// assert_eq!(view.toi_ns(0), Some(1250.5));
/// assert_eq!(view.mean_power(), store.mean_power()); // shared kernel
/// assert!(view.diff_store(&store).is_identical());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ProfileStoreView<'a> {
    len: usize,
    /// The `run` block: `n` unaligned LE `u32` elements.
    run: &'a [[u8; 4]],
    /// The `exec_pos` block: `n` unaligned LE `u32` elements.
    exec_pos: &'a [[u8; 4]],
    /// The `toi_ns` block: `n` unaligned LE `f64`-bits elements.
    toi_ns: &'a [[u8; 8]],
    /// The `run_time_ns` block: `n` unaligned LE `f64`-bits elements.
    run_time_ns: &'a [[u8; 8]],
    /// The `xcd` block: `n` unaligned LE `f64`-bits elements.
    xcd: &'a [[u8; 8]],
    /// The `iod` block: `n` unaligned LE `f64`-bits elements.
    iod: &'a [[u8; 8]],
    /// The `hbm` block: `n` unaligned LE `f64`-bits elements.
    hbm: &'a [[u8; 8]],
    /// The `rest` block: `n` unaligned LE `f64`-bits elements.
    rest: &'a [[u8; 8]],
    /// The validity-bitmap block: `⌈n/64⌉` unaligned LE `u64` words.
    in_exec: &'a [[u8; 8]],
}

impl<'a> ProfileStoreView<'a> {
    /// Validates `bytes` as exactly one encoded store and borrows it.
    ///
    /// # Errors
    ///
    /// [`StoreCodecError::BadMagic`] /
    /// [`StoreCodecError::UnsupportedVersion`] on a foreign or newer
    /// encoding, [`StoreCodecError::Truncated`] naming the block the
    /// buffer ends inside, and [`StoreCodecError::Corrupt`] for
    /// implausible lengths, trailing bytes, stray bitmap bits, or
    /// non-canonical invalid slots.
    pub fn new(bytes: &'a [u8]) -> Result<ProfileStoreView<'a>, StoreCodecError> {
        let (view, rest) = ProfileStoreView::split_prefix(bytes)?;
        if !rest.is_empty() {
            cover::hit(cover::STORE_VIEW_TRAILING);
            return Err(StoreCodecError::Corrupt(format!(
                "{} trailing bytes after the bitmap block",
                rest.len()
            )));
        }
        Ok(view)
    }

    /// Validates the store at the *front* of `bytes` and returns the
    /// view together with the bytes that follow it. This is how a store
    /// embedded in a larger encoding (a checkpoint entry section, a
    /// wire-frame payload) is decoded in place: the embedded block is
    /// self-delimiting, so no length prefix is needed.
    ///
    /// # Errors
    ///
    /// As [`ProfileStoreView::new`], minus the trailing-bytes check.
    pub fn split_prefix(
        bytes: &'a [u8],
    ) -> Result<(ProfileStoreView<'a>, &'a [u8]), StoreCodecError> {
        let magic: [u8; 8] = take_block(bytes, 0, "magic").inspect_err(|_| {
            cover::hit(cover::STORE_VIEW_TRUNC_HEADER);
        })?;
        if magic != STORE_MAGIC {
            cover::hit(cover::STORE_VIEW_BAD_MAGIC);
            return Err(StoreCodecError::BadMagic(magic));
        }
        let version = u32::from_le_bytes(take_block(bytes, 8, "version").inspect_err(|_| {
            cover::hit(cover::STORE_VIEW_TRUNC_HEADER);
        })?);
        if version != STORE_VERSION {
            cover::hit(cover::STORE_VIEW_BAD_VERSION);
            return Err(StoreCodecError::UnsupportedVersion(version));
        }
        if bytes.len() < 16 {
            cover::hit(cover::STORE_VIEW_TRUNC_HEADER);
            return Err(StoreCodecError::Truncated("flags"));
        }
        let len = u64::from_le_bytes(take_block(bytes, 16, "length").inspect_err(|_| {
            cover::hit(cover::STORE_VIEW_TRUNC_HEADER);
        })?);
        if len > u64::from(u32::MAX) {
            cover::hit(cover::STORE_VIEW_IMPLAUSIBLE_LEN);
            return Err(StoreCodecError::Corrupt(format!(
                "implausible point count {len}"
            )));
        }
        let len = usize::try_from(len)
            .map_err(|_| StoreCodecError::Corrupt(format!("implausible point count {len}")))?;
        let layout = ColumnLayout::for_len(len).ok_or_else(|| {
            cover::hit(cover::STORE_VIEW_IMPLAUSIBLE_LEN);
            StoreCodecError::Corrupt(format!("implausible point count {len}"))
        })?;
        if bytes.len() < layout.total {
            cover::hit(cover::STORE_VIEW_TRUNC_BODY);
            return Err(StoreCodecError::Truncated(
                layout.truncated_block(bytes.len()),
            ));
        }
        let view = ProfileStoreView {
            len,
            run: chunks4(&bytes[layout.run..layout.exec_pos]),
            exec_pos: chunks4(&bytes[layout.exec_pos..layout.toi_ns]),
            toi_ns: chunks8(&bytes[layout.toi_ns..layout.run_time_ns]),
            run_time_ns: chunks8(&bytes[layout.run_time_ns..layout.xcd]),
            xcd: chunks8(&bytes[layout.xcd..layout.iod]),
            iod: chunks8(&bytes[layout.iod..layout.hbm]),
            hbm: chunks8(&bytes[layout.hbm..layout.rest]),
            rest: chunks8(&bytes[layout.rest..layout.bitmap]),
            in_exec: chunks8(&bytes[layout.bitmap..layout.total]),
        };
        columns::validate_canonical(&view)?;
        cover::hit(cover::STORE_VIEW_OK);
        Ok((view, &bytes[layout.total..]))
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total encoded size of the viewed store, header included.
    pub fn encoded_len(&self) -> usize {
        ColumnLayout::for_len(self.len)
            .expect("a validated view's layout fits usize")
            .total
    }

    // -- row access (mirrors `ProfileStore`) ----------------------------

    /// True when point `i` landed inside an execution.
    pub fn in_exec(&self, i: usize) -> bool {
        self.in_exec_at(i)
    }

    /// Contributing run of point `i`.
    pub fn run(&self, i: usize) -> u32 {
        le_u32(self.run, i)
    }

    /// Execution position of point `i`, if it landed inside an execution.
    pub fn exec_pos(&self, i: usize) -> Option<u32> {
        self.exec_pos_at(i)
    }

    /// Time-of-interest of point `i`, if it landed inside an execution.
    pub fn toi_ns(&self, i: usize) -> Option<f64> {
        self.toi_at(i)
    }

    /// Run-relative time of point `i`, ns.
    pub fn run_time_ns(&self, i: usize) -> f64 {
        self.run_time_at(i)
    }

    /// Component power of point `i`.
    pub fn power(&self, i: usize) -> ComponentPower {
        self.power_at(i)
    }

    /// Total (VR output) power of point `i`, watts.
    pub fn total_w(&self, i: usize) -> f64 {
        self.total_w_at(i)
    }

    /// Materializes point `i` as an owned [`ProfilePoint`].
    pub fn point(&self, i: usize) -> ProfilePoint {
        self.point_at(i)
    }

    /// Iterates owned points in storage order, decoded lazily from the
    /// borrowed bytes.
    pub fn points(&self) -> impl Iterator<Item = ProfilePoint> + '_ {
        (0..self.len).map(move |i| self.point_at(i))
    }

    // -- shared kernels -------------------------------------------------

    /// Sum of every point's component power, in storage order —
    /// bit-identical to [`ProfileStore::sum_power`] on the same data.
    pub fn sum_power(&self) -> ComponentPower {
        columns::sum_power(self)
    }

    /// Mean component power over all points; `None` if empty.
    pub fn mean_power(&self) -> Option<ComponentPower> {
        columns::mean_power(self)
    }

    /// Number of points that landed inside an execution.
    pub fn in_exec_count(&self) -> usize {
        columns::in_exec_count(self)
    }

    /// Stable argsort by the chosen time axis; identical permutation to
    /// [`ProfileStore::argsort_by_axis`].
    pub fn argsort_by_axis(&self, axis: ProfileAxis) -> Vec<u32> {
        columns::argsort_by_axis(self, axis)
    }

    /// Indices of points satisfying `pred`, in storage order.
    pub fn indices_where(&self, mut pred: impl FnMut(ViewPointRef<'_, 'a>) -> bool) -> Vec<u32> {
        columns::indices_where(self, |c, i| pred(ViewPointRef { view: c, idx: i }))
    }

    /// Indices of the points that landed inside an execution (the LOIs).
    pub fn indices_in_exec(&self) -> Vec<u32> {
        self.indices_where(|p| p.in_exec())
    }

    /// Gathers the given indices into a new owned store.
    pub fn select(&self, indices: &[u32]) -> ProfileStore {
        columns::select(self, indices)
    }

    /// An owned copy sorted by the chosen time axis.
    pub fn sorted_by_axis(&self, axis: ProfileAxis) -> ProfileStore {
        self.select(&self.argsort_by_axis(axis))
    }

    /// Column-wise diff against another view (NaN-safe bit comparison;
    /// same report as [`ProfileStore::diff`]).
    pub fn diff(&self, other: &ProfileStoreView<'_>) -> StoreDiff {
        columns::diff(self, other)
    }

    /// Column-wise diff against an owned store.
    pub fn diff_store(&self, other: &ProfileStore) -> StoreDiff {
        columns::diff(self, other)
    }

    /// Decodes the view into an owned [`ProfileStore`], sizing every
    /// column exactly (no growth reallocation). The invariants were
    /// checked at view construction, so no re-validation happens.
    pub fn to_store(&self) -> ProfileStore {
        let n = self.len;
        ProfileStore::from_validated_columns(
            self.run.iter().map(|c| u32::from_le_bytes(*c)).collect(),
            self.exec_pos
                .iter()
                .map(|c| u32::from_le_bytes(*c))
                .collect(),
            decode_f64_block(self.toi_ns, n),
            decode_f64_block(self.run_time_ns, n),
            decode_f64_block(self.xcd, n),
            decode_f64_block(self.iod, n),
            decode_f64_block(self.hbm, n),
            decode_f64_block(self.rest, n),
            self.in_exec
                .iter()
                .map(|c| u64::from_le_bytes(*c))
                .collect(),
        )
    }

    // -- raw blocks (for column-wise appends) ---------------------------

    /// The raw `run` block (`n` unaligned LE `u32` elements).
    pub(crate) fn run_block(&self) -> &'a [[u8; 4]] {
        self.run
    }

    /// The raw `exec_pos` block (`n` unaligned LE `u32` elements).
    pub(crate) fn exec_pos_block(&self) -> &'a [[u8; 4]] {
        self.exec_pos
    }

    /// The raw block of one f64 column (`n` unaligned LE f64-bits
    /// elements).
    pub(crate) fn f64_block(&self, which: F64Column) -> &'a [[u8; 8]] {
        match which {
            F64Column::Toi => self.toi_ns,
            F64Column::RunTime => self.run_time_ns,
            F64Column::Component(Component::Xcd) => self.xcd,
            F64Column::Component(Component::Iod) => self.iod,
            F64Column::Component(Component::Hbm) => self.hbm,
            F64Column::Component(Component::Rest) => self.rest,
        }
    }

    /// The raw validity-bitmap block (`⌈n/64⌉` unaligned LE words).
    pub(crate) fn bitmap_block(&self) -> &'a [[u8; 8]] {
        self.in_exec
    }
}

/// Selects one of the six f64 columns of a view's raw blocks.
#[derive(Debug, Clone, Copy)]
pub(crate) enum F64Column {
    /// The `toi_ns` column.
    Toi,
    /// The `run_time_ns` column.
    RunTime,
    /// One power-component column.
    Component(Component),
}

/// Decodes a packed little-endian f64 block into an exactly-sized `Vec`.
fn decode_f64_block(block: &[[u8; 8]], n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    out.extend(block.iter().map(|c| f64::from_bits(u64::from_le_bytes(*c))));
    out
}

impl ProfileColumns for ProfileStoreView<'_> {
    #[inline]
    fn len(&self) -> usize {
        // Derived from the run block (== `self.len` by construction) so
        // `0..len()` loops can elide that column's bounds checks, exactly
        // like the owned `Vec`-backed columns.
        self.run.len()
    }
    #[inline]
    fn run_at(&self, i: usize) -> u32 {
        le_u32(self.run, i)
    }
    #[inline]
    fn exec_pos_raw_at(&self, i: usize) -> u32 {
        le_u32(self.exec_pos, i)
    }
    #[inline]
    fn toi_bits_at(&self, i: usize) -> u64 {
        le_u64(self.toi_ns, i)
    }
    #[inline]
    fn run_time_at(&self, i: usize) -> f64 {
        f64::from_bits(le_u64(self.run_time_ns, i))
    }
    #[inline]
    fn xcd_at(&self, i: usize) -> f64 {
        f64::from_bits(le_u64(self.xcd, i))
    }
    #[inline]
    fn iod_at(&self, i: usize) -> f64 {
        f64::from_bits(le_u64(self.iod, i))
    }
    #[inline]
    fn hbm_at(&self, i: usize) -> f64 {
        f64::from_bits(le_u64(self.hbm, i))
    }
    #[inline]
    fn rest_at(&self, i: usize) -> f64 {
        f64::from_bits(le_u64(self.rest, i))
    }
    #[inline]
    fn validity_word_at(&self, w: usize) -> u64 {
        le_u64(self.in_exec, w)
    }
}

/// A borrowed view of one point of a [`ProfileStoreView`] — what the
/// view's filter predicates receive; mirrors
/// [`ProfilePointRef`](super::ProfilePointRef).
#[derive(Debug, Clone, Copy)]
pub struct ViewPointRef<'v, 'a> {
    view: &'v ProfileStoreView<'a>,
    idx: usize,
}

impl ViewPointRef<'_, '_> {
    /// Index of this point within its store.
    pub fn index(&self) -> usize {
        self.idx
    }

    /// Contributing run.
    pub fn run(&self) -> u32 {
        self.view.run_at(self.idx)
    }

    /// Execution position, if the point landed inside an execution.
    pub fn exec_pos(&self) -> Option<u32> {
        self.view.exec_pos_at(self.idx)
    }

    /// Time-of-interest, ns, if the point landed inside an execution.
    pub fn toi_ns(&self) -> Option<f64> {
        self.view.toi_at(self.idx)
    }

    /// Run-relative time, ns.
    pub fn run_time_ns(&self) -> f64 {
        self.view.run_time_at(self.idx)
    }

    /// Component power.
    pub fn power(&self) -> ComponentPower {
        self.view.power_at(self.idx)
    }

    /// Total power, watts.
    pub fn total_w(&self) -> f64 {
        self.view.total_w_at(self.idx)
    }

    /// True when the point landed inside an execution.
    pub fn in_exec(&self) -> bool {
        self.view.in_exec_at(self.idx)
    }

    /// Materializes an owned [`ProfilePoint`].
    pub fn to_point(&self) -> ProfilePoint {
        self.view.point_at(self.idx)
    }
}
