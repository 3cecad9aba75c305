//! CSV and markdown rendering of profiles and reports.
//!
//! The bench harness regenerates every paper table/figure as plain-text
//! artefacts: CSV series (one row per stitched point) for figures and
//! markdown tables for tabular results.

use std::io::{self, Write as _};
use std::path::Path;

use crate::profile::{PowerProfile, ProfileAxis};
use crate::runner::KernelPowerReport;
use crate::store::{cmp_axis_keys, ProfileColumns, ProfileStoreView};

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
/// [`ProfileAxis::Toi`] axis, only points that have a TOI). Their
/// `(x, index)` pairs are sorted stably under the store's axis-key order
/// (no point structs are materialized), and points that fell outside any
/// execution render the historical `4294967295` (`u32::MAX`) sentinel in
/// the `exec_pos` field. `x` prints with one decimal and the five powers
/// with three, through [`write_fixed`] — byte-identical to
/// `format!("{:.1}")` / `format!("{:.3}")`. Both implementations of
/// [`ProfileColumns`] drive the exact same formatting over the exact same
/// kernel, so a view renders byte-identically to the owned store it was
/// decoded from.
pub fn columns_to_csv<C: ProfileColumns + ?Sized>(store: &C, axis: ProfileAxis) -> String {
    let mut rows: Vec<(f64, u32)> = (0..store.len() as u32)
        .filter_map(|i| {
            let x = match axis {
                ProfileAxis::RunTime => store.run_time_at(i as usize),
                ProfileAxis::Toi => store.toi_at(i as usize)?,
            };
            x.is_finite().then_some((x, i))
        })
        .collect();
    rows.sort_by(|a, b| cmp_axis_keys(a.0, b.0));

    let mut out = Vec::with_capacity(CSV_HEADER.len() + rows.len() * CSV_ROW_BYTES);
    out.extend_from_slice(CSV_HEADER);
    for (x, i) in rows {
        let i = i as usize;
        let power = store.power_at(i);
        write_u64(&mut out, u64::from(store.run_at(i)));
        out.push(b',');
        write_u64(
            &mut out,
            u64::from(store.exec_pos_at(i).unwrap_or(u32::MAX)),
        );
        out.push(b',');
        write_fixed(&mut out, x, 1);
        for w in [power.total(), power.xcd, power.iod, power.hbm, power.rest] {
            out.push(b',');
            write_fixed(&mut out, w, 3);
        }
        out.push(b'\n');
    }
    String::from_utf8(out).expect("the CSV writer emits only ASCII")
}

/// `10^p` for the precisions [`write_fixed`] renders itself: with a
/// mantissa below `2^53`, `m · 10^p < 2^63` fits a `u64` for `p ≤ 3`.
const POW10: [u64; 4] = [1, 10, 100, 1_000];

/// `"00".."99"`, two ASCII digits per entry.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends the decimal digits of `n`.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    out.extend_from_slice(&buf[at..]);
}

/// Appends `x` with `precision` decimals, byte-identical to
/// `write!(out, "{x:.precision$}")`.
///
/// For `precision ≤ 3` and `|x| < 2^53` this is exact integer arithmetic:
/// with `x = m · 2^e` (`m < 2^53`, `e ≤ 0`), `m · 10^precision` fits a
/// `u64`, so shifting it right by `-e` and rounding the remainder half to
/// even yields the correctly rounded decimal of the exact binary value —
/// what std's formatter prints. A shift of 64 or more leaves less than
/// half a unit, i.e. zero, with the sign kept (`-0.000`). Non-finite
/// values, `|x| ≥ 2^53` and larger precisions go through `write!`.
#[inline]
pub fn write_fixed(out: &mut Vec<u8>, x: f64, precision: usize) {
    let bits = x.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    let (m, e) = match biased {
        0 => (fraction, -1074),
        _ => (fraction | 1 << 52, biased - 1075),
    };
    let scale = match POW10.get(precision) {
        Some(&scale) if biased != 0x7ff && e <= 0 => scale,
        _ => {
            let _ = write!(out, "{x:.precision$}");
            return;
        }
    };
    let scaled = m * scale;
    let shift = e.unsigned_abs();
    let q = match shift {
        0 => scaled,
        1..=63 => {
            let q = scaled >> shift;
            let rem = scaled & ((1 << shift) - 1);
            let half = 1 << (shift - 1);
            q + u64::from(rem > half || (rem == half && q & 1 == 1))
        }
        _ => 0,
    };
    if bits >> 63 == 1 {
        out.push(b'-');
    }
    write_u64(out, q / scale);
    if precision > 0 {
        out.push(b'.');
        let mut digits = [b'0'; 3];
        let mut rest = q % scale;
        for d in digits[..precision].iter_mut().rev() {
            *d = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        out.extend_from_slice(&digits[..precision]);
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
