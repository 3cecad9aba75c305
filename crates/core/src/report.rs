//! CSV and markdown rendering of profiles and reports.
//!
//! The bench harness regenerates every paper table/figure as plain-text
//! artefacts: CSV series (one row per stitched point) for figures and
//! markdown tables for tabular results.

use std::io::{self, Write as _};
use std::path::Path;

use crate::profile::{PowerProfile, ProfileAxis};
use crate::runner::KernelPowerReport;
use crate::store::{argsort_by_axis, ProfileColumns, ProfileStoreView};

/// The CSV header line [`columns_to_csv`] starts with.
const CSV_HEADER: &[u8] = b"run,exec_pos,x_ns,total_w,xcd_w,iod_w,hbm_w,rest_w\n";

/// Bytes reserved per CSV row: campaign rows run ~55 bytes, so one
/// allocation usually holds the whole text without over-reserving.
const CSV_ROW_BYTES: usize = 64;

/// Renders any columnar store — owned [`crate::store::ProfileStore`] or
/// borrowed [`ProfileStoreView`] — as CSV with header
/// `run,exec_pos,x_ns,total_w,xcd_w,iod_w,hbm_w,rest_w`, with `x` chosen
/// by `axis`, sorted by x.
///
/// Only points with a finite `x` are rendered (on the
/// [`ProfileAxis::Toi`] axis, only points that have a TOI), in the order
/// of the store's `argsort_by_axis`. The points left out key at the two
/// ends of that order (a missing TOI and `-inf` first, `+inf` and NaN
/// last), so the printed rows are one contiguous run of it. Points that
/// fell outside any execution render the historical `4294967295`
/// (`u32::MAX`) sentinel in the `exec_pos` field. `x` prints with one
/// decimal and the five powers with three, byte-identical to
/// `format!("{:.1}")` / `format!("{:.3}")`: each row is formatted into a
/// fixed stack buffer, three digits at a time from a table of the 1,000
/// zero-padded 3-digit groups, and appended in one copy,
/// and a row with a non-finite power or a value of magnitude `2^53` or
/// more goes through [`write_u64`] / [`write_fixed`] instead. Both
/// implementations of [`ProfileColumns`] drive the exact same formatting
/// over the exact same kernel, so a view renders byte-identically to the
/// owned store it was decoded from.
pub fn columns_to_csv<C: ProfileColumns + ?Sized>(store: &C, axis: ProfileAxis) -> String {
    let x_at = |i: usize| match axis {
        ProfileAxis::RunTime => Some(store.run_time_at(i)),
        ProfileAxis::Toi => store.toi_at(i),
    };
    let printed = |&i: &u32| x_at(i as usize).is_some_and(f64::is_finite);
    let order = argsort_by_axis(store, axis);
    let first = order.iter().position(printed).unwrap_or(order.len());
    let last = order.iter().rposition(printed).map_or(first, |l| l + 1);
    let rows = &order[first..last];

    let mut out = Vec::with_capacity(CSV_HEADER.len() + rows.len() * CSV_ROW_BYTES);
    out.extend_from_slice(CSV_HEADER);
    let mut row = Row::new();
    for &i in rows {
        let i = i as usize;
        let Some(x) = x_at(i) else { continue };
        let run = u64::from(store.run_at(i));
        let exec_pos = u64::from(store.exec_pos_at(i).unwrap_or(u32::MAX));
        let power = store.power_at(i);
        let powers = [power.total(), power.xcd, power.iod, power.hbm, power.rest];
        if row.fill(run, exec_pos, x, powers) {
            out.extend_from_slice(row.bytes());
            continue;
        }
        write_u64(&mut out, run);
        out.push(b',');
        write_u64(&mut out, exec_pos);
        out.push(b',');
        write_fixed(&mut out, x, 1);
        for w in powers {
            out.push(b',');
            write_fixed(&mut out, w, 3);
        }
        out.push(b'\n');
    }
    String::from_utf8(out).expect("the CSV writer emits only ASCII")
}

/// `GROUPS[n]` for `n < 1000`: the three digits of `n`, zero-padded, in
/// print order (lowest byte first), then in the fourth byte how many of
/// them are leading zeros (`0` counts two: it prints as one `0`).
static GROUPS: [u32; 1000] = {
    let mut groups = [0; 1000];
    let mut n = 0;
    while n < 1000 {
        let zeros = (n < 100) as u8 + (n < 10) as u8;
        groups[n] = u32::from_le_bytes([
            b'0' + (n / 100) as u8,
            b'0' + (n / 10 % 10) as u8,
            b'0' + (n % 10) as u8,
            zeros,
        ]);
        n += 1;
    }
    groups
};

/// The longest row [`Row::fill`] formats is 152 bytes: two 10-digit
/// integers and their two commas, `x` as sign, 16 integer digits, point
/// and one decimal, five powers as comma, sign, 16 integer digits, point
/// and three decimals, and the newline. A 4-byte store keeps at least its
/// first byte, so it starts by byte 151 and ends by byte 155, within
/// the 160.
const ROW_CAP: usize = 160;

/// A fixed stack buffer one CSV row (or one number) is formatted into.
/// Digits go in three at a time from [`GROUPS`]: each store writes a
/// whole 4-byte word and then advances by the real digit count, so the
/// next store overwrites the spare bytes.
struct Row {
    buf: [u8; ROW_CAP],
    len: usize,
}

impl Row {
    #[inline(always)]
    fn new() -> Self {
        Row {
            buf: [0; ROW_CAP],
            len: 0,
        }
    }

    #[inline(always)]
    fn bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    #[inline(always)]
    fn push(&mut self, b: u8) {
        self.buf[self.len] = b;
        self.len += 1;
    }

    /// Stores the four bytes of `word` and keeps the first `n` of them.
    #[inline(always)]
    fn put4(&mut self, word: u32, n: usize) {
        self.buf[self.len..self.len + 4].copy_from_slice(&word.to_le_bytes());
        self.len += n;
    }

    /// The digits of `n`: the leading group without its leading zeros
    /// (`0` prints `0`), every further group of three with them.
    #[inline(always)]
    fn put_u64(&mut self, mut n: u64) {
        // `u64::MAX` has six groups below its leading one.
        let (mut rest, mut k) = ([0u16; 6], 0);
        while n >= 1000 {
            rest[k] = (n % 1000) as u16;
            n /= 1000;
            k += 1;
        }
        let lead = GROUPS[n as usize];
        let zeros = lead >> 24;
        self.put4(lead >> (8 * zeros), 3 - zeros as usize);
        for &group in rest[..k].iter().rev() {
            self.put4(GROUPS[usize::from(group)], 3);
        }
    }

    /// Formats `x` with `P ≤ 3` decimals as [`write_fixed`] does;
    /// `false` (with a partial row) outside [`fixed_point`]'s domain.
    /// `P` is a constant so that every division here is by a constant.
    #[inline(always)]
    fn put_fixed<const P: usize>(&mut self, x: f64) -> bool {
        let scale = 10u64.pow(P as u32);
        let Some(q) = fixed_point(x, scale) else {
            return false;
        };
        if x.is_sign_negative() {
            self.push(b'-');
        }
        self.put_u64(q / scale);
        if P > 0 {
            // The point, then the last `P` of the fraction's three digits.
            let fraction = GROUPS[(q % scale) as usize] >> (8 * (3 - P)) << 8;
            self.put4(fraction | u32::from(b'.'), P + 1);
        }
        true
    }

    /// Formats one whole CSV row; `false` when a value needs the
    /// [`write_fixed`] fallback.
    #[inline(always)]
    fn fill(&mut self, run: u64, exec_pos: u64, x: f64, powers: [f64; 5]) -> bool {
        self.len = 0;
        self.put_u64(run);
        self.push(b',');
        self.put_u64(exec_pos);
        self.push(b',');
        if !self.put_fixed::<1>(x) {
            return false;
        }
        for w in powers {
            self.push(b',');
            if !self.put_fixed::<3>(w) {
                return false;
            }
        }
        self.push(b'\n');
        true
    }
}

/// Appends the decimal digits of `n`.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, n: u64) {
    let mut row = Row::new();
    row.put_u64(n);
    out.extend_from_slice(row.bytes());
}

/// `|x| · scale` rounded to an integer half to even, for `scale = 10^p`
/// with `p ≤ 3`; `None` for non-finite `x` and `|x| ≥ 2^53`.
///
/// This is exact integer arithmetic: with `x = m · 2^e` (`m < 2^53`,
/// `e ≤ 0`), `m · 10^p < 2^63` fits a `u64`, so shifting it right by `-e`
/// and rounding the remainder half to even yields the correctly rounded
/// decimal of the exact binary value — what std's formatter prints. A
/// shift of 64 or more leaves less than half a unit, i.e. zero.
#[inline(always)]
fn fixed_point(x: f64, scale: u64) -> Option<u64> {
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    let (m, e) = match biased {
        0 => (fraction, -1074),
        _ => (fraction | 1 << 52, biased - 1075),
    };
    if biased == 0x7ff || e > 0 {
        return None;
    }
    let scaled = m * scale;
    let shift = e.unsigned_abs();
    Some(match shift {
        0 => scaled,
        1..=63 => {
            let q = scaled >> shift;
            let rem = scaled & ((1 << shift) - 1);
            let half = 1 << (shift - 1);
            q + u64::from(rem > half || (rem == half && q & 1 == 1))
        }
        _ => 0,
    })
}

/// Appends `x` with `precision` decimals, byte-identical to
/// `write!(out, "{x:.precision$}")`.
///
/// For `precision ≤ 3` and `|x| < 2^53` the digits come from exact
/// integer arithmetic on `x`'s binary value; a negative `x` keeps its
/// sign even when it rounds to zero (`-0.000`), as std does. Non-finite
/// values, `|x| ≥ 2^53` and larger precisions go through `write!`.
#[inline]
pub fn write_fixed(out: &mut Vec<u8>, x: f64, precision: usize) {
    let mut row = Row::new();
    let fast = match precision {
        0 => row.put_fixed::<0>(x),
        1 => row.put_fixed::<1>(x),
        2 => row.put_fixed::<2>(x),
        3 => row.put_fixed::<3>(x),
        _ => false,
    };
    if fast {
        out.extend_from_slice(row.bytes());
    } else {
        let _ = write!(out, "{x:.precision$}");
    }
}

/// Renders a profile as CSV — see [`columns_to_csv`] for the format.
pub fn profile_to_csv(profile: &PowerProfile, axis: ProfileAxis) -> String {
    columns_to_csv(&profile.store, axis)
}

/// Renders a zero-copy store view as CSV, byte-identical to
/// [`profile_to_csv`] over the decoded store — the view path goes from
/// mapped file (or wire frame) straight to CSV text without materialising
/// the per-column `Vec`s.
pub fn view_to_csv(view: &ProfileStoreView<'_>, axis: ProfileAxis) -> String {
    columns_to_csv(view, axis)
}

/// Writes a profile CSV to disk.
///
/// # Errors
///
/// Propagates I/O errors (missing directory, permissions).
pub fn write_profile_csv(
    profile: &PowerProfile,
    axis: ProfileAxis,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    std::fs::write(path, profile_to_csv(profile, axis))
}

/// Renders a kernel report summary as one markdown table row:
/// `| label | exec | sse idx | ssp idx | runs | golden | SSE W | SSP W | err % |`.
pub fn report_summary_row(r: &KernelPowerReport) -> String {
    let fmt_w = |w: Option<f64>| match w {
        Some(w) => format!("{w:.0}"),
        None => "-".to_string(),
    };
    let err = match r.sse_vs_ssp_error {
        Some(e) => format!("{:.0}%", e * 100.0),
        None => "-".to_string(),
    };
    format!(
        "| {} | {:.1}us | {} | {} | {} | {} | {} | {} | {} |",
        r.label,
        r.exec_time_ns as f64 / 1_000.0,
        r.sse_index,
        r.ssp_index,
        r.runs_executed,
        r.golden_runs,
        fmt_w(r.sse_mean_total_w),
        fmt_w(r.ssp_mean_total_w),
        err
    )
}

/// The header matching [`report_summary_row`].
pub fn report_summary_header() -> String {
    "| kernel | exec | SSE idx | SSP idx | runs | golden | SSE W | SSP W | SSE vs SSP err |\n\
     |---|---|---|---|---|---|---|---|---|"
        .to_string()
}

/// Renders a full summary table for several reports.
pub fn summary_table(reports: &[&KernelPowerReport]) -> String {
    let mut out = report_summary_header();
    out.push('\n');
    for r in reports {
        out.push_str(&report_summary_row(r));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ProfileKind, ProfilePoint};
    use fingrav_sim::power::ComponentPower;

    fn profile() -> PowerProfile {
        let mut p = PowerProfile::new("CB-4K-GEMM", ProfileKind::Run);
        p.push(ProfilePoint {
            run: 1,
            exec_pos: Some(2),
            toi_ns: Some(250.0),
            run_time_ns: 2_000.0,
            power: ComponentPower::new(400.0, 80.0, 70.0, 30.0),
        });
        p.push(ProfilePoint {
            run: 0,
            exec_pos: Some(0),
            toi_ns: Some(100.0),
            run_time_ns: 1_000.0,
            power: ComponentPower::new(100.0, 50.0, 40.0, 20.0),
        });
        p
    }

    #[test]
    fn csv_sorted_and_complete() {
        let csv = profile_to_csv(&profile(), ProfileAxis::RunTime);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("run,exec_pos,x_ns"));
        // Sorted by run time: the run-0 point first.
        assert!(lines[1].starts_with("0,0,1000.0"));
        assert!(lines[2].starts_with("1,2,2000.0"));
        assert!(lines[1].contains("210.000")); // total of the first point
    }

    #[test]
    fn csv_by_toi() {
        let csv = profile_to_csv(&profile(), ProfileAxis::Toi);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[1].contains(",100.0,"));
    }

    #[test]
    fn csv_skips_points_without_toi() {
        let mut p = profile();
        p.push(ProfilePoint {
            run: 9,
            exec_pos: None,
            toi_ns: None,
            run_time_ns: 3_000.0,
            power: ComponentPower::ZERO,
        });
        let by_toi = profile_to_csv(&p, ProfileAxis::Toi);
        assert_eq!(by_toi.lines().count(), 3, "TOI-less row skipped");
        let by_run = profile_to_csv(&p, ProfileAxis::RunTime);
        assert_eq!(by_run.lines().count(), 4, "finite run-time row kept");
        // The sentinel encoding survives in the rendered CSV bytes.
        assert!(by_run.contains(",4294967295,"));
    }

    #[test]
    fn write_csv_roundtrip() {
        let dir = std::env::temp_dir().join("fingrav-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.csv");
        write_profile_csv(&profile(), ProfileAxis::RunTime, &path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("run,exec_pos"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn summary_header_and_row_align() {
        let header = report_summary_header();
        let cols = header.lines().next().unwrap().matches('|').count();
        // A representative report row must have the same column count.
        use crate::guidance::GuidanceTable;
        use fingrav_sim::time::SimDuration;
        let r = KernelPowerReport {
            label: "X".into(),
            exec_time_ns: 48_000,
            guidance: *GuidanceTable::paper().lookup(SimDuration::from_micros(48)),
            margin_frac: 0.05,
            sse_index: 3,
            ssp_index: 21,
            executions_per_run: 42,
            runs_executed: 400,
            golden_runs: 361,
            throttle_detected: false,
            read_delay_ns: 750.0,
            estimated_drift_ppm: Some(18.0),
            run_profile: PowerProfile::new("X", ProfileKind::Run),
            sse_profile: PowerProfile::new("X", ProfileKind::Sse),
            ssp_profile: PowerProfile::new("X", ProfileKind::Ssp),
            sse_mean_total_w: Some(150.0),
            ssp_mean_total_w: Some(700.0),
            sse_vs_ssp_error: Some(0.78),
        };
        let row = report_summary_row(&r);
        assert_eq!(row.matches('|').count(), cols);
        assert!(row.contains("78%"));
        let table = summary_table(&[&r]);
        assert_eq!(table.lines().count(), 3);
    }
}
