//! Rendering of experiment outputs: stdout tables and CSV artefacts.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use fingrav_core::profile::{PowerProfile, ProfileAxis};
use fingrav_core::report::profile_to_csv;
use fingrav_core::runner::KernelPowerReport;

use crate::experiments::{ComponentRow, RunShape};

/// Writes a profile CSV under `dir/name`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_profile(
    dir: &Path,
    name: &str,
    profile: &PowerProfile,
    axis: ProfileAxis,
) -> io::Result<PathBuf> {
    let path = dir.join(name);
    fs::write(&path, profile_to_csv(profile, axis))?;
    Ok(path)
}

/// Writes a run-shape CSV (`x_ms,total_w,xcd_w,iod_w,hbm_w`) under
/// `dir/name` and returns the path.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_run_rows(
    dir: &Path,
    name: &str,
    rows: &[(f64, f64, f64, f64, f64)],
) -> io::Result<PathBuf> {
    let mut csv = String::from("x_ms,total_w,xcd_w,iod_w,hbm_w\n");
    for (x, t, xc, io_, hb) in rows {
        csv.push_str(&format!("{x:.4},{t:.2},{xc:.2},{io_:.2},{hb:.2}\n"));
    }
    let path = dir.join(name);
    fs::write(&path, csv)?;
    Ok(path)
}

/// Renders component rows as a relative-power markdown table (the Fig. 7 /
/// Fig. 10 presentation: everything normalized to the hottest kernel).
pub fn component_table(rows: &[ComponentRow], reference_w: f64) -> String {
    let mut out = String::from(
        "| kernel | rel total | rel XCD | rel IOD | rel HBM | util |\n|---|---|---|---|---|---|\n",
    );
    for r in rows {
        let rel = r.relative(reference_w);
        out.push_str(&format!(
            "| {} | {:.2} | {:.2} | {:.2} | {:.2} | {:.2} |\n",
            r.label,
            rel.total(),
            rel.xcd,
            rel.iod,
            rel.hbm,
            r.utilization
        ));
    }
    out
}

/// Renders a run shape as a one-line summary.
pub fn shape_summary(label: &str, s: &RunShape) -> String {
    format!(
        "{label}: early {:.0} W -> peak {:.0} W -> trough {:.0} W -> plateau {:.0} W \
         | SSE {} W, SSP {} W, err {}",
        s.early_w,
        s.peak_w,
        s.trough_after_peak_w,
        s.plateau_w,
        s.report
            .sse_mean_total_w
            .map(|w| format!("{w:.0}"))
            .unwrap_or_else(|| "-".into()),
        s.report
            .ssp_mean_total_w
            .map(|w| format!("{w:.0}"))
            .unwrap_or_else(|| "-".into()),
        s.report
            .sse_vs_ssp_error
            .map(|e| format!("{:.0}%", e * 100.0))
            .unwrap_or_else(|| "-".into()),
    )
}

/// Prints a report's headline numbers.
pub fn print_report_line(r: &KernelPowerReport) {
    println!("{}", fingrav_core::report::report_summary_row(r));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ComponentRow;
    use fingrav_sim::power::ComponentPower;
    use fingrav_workloads::suite::SuiteClass;
    use fingrav_workloads::Boundedness;

    #[test]
    fn component_table_normalizes() {
        let rows = vec![ComponentRow {
            label: "CB-8K-GEMM".into(),
            class: SuiteClass::Gemm(Boundedness::ComputeBound),
            mean: ComponentPower::new(500.0, 100.0, 80.0, 70.0),
            utilization: 0.62,
        }];
        let t = component_table(&rows, 750.0);
        assert!(t.contains("CB-8K-GEMM"));
        assert!(t.contains("1.00")); // total 750/750
    }

    #[test]
    fn write_run_rows_roundtrip() {
        let dir = std::env::temp_dir().join("fingrav-render-rows");
        fs::create_dir_all(&dir).unwrap();
        let p = write_run_rows(&dir, "x.csv", &[(0.5, 100.0, 50.0, 30.0, 20.0)]).unwrap();
        let content = fs::read_to_string(p).unwrap();
        assert!(content.starts_with("x_ms,"));
        assert!(content.contains("0.5000,100.00"));
        fs::remove_dir_all(&dir).ok();
    }
}
