//! The metric list a run prints and the host record. Order statistics
//! come from `fingrav_core::stats`.

use std::fmt::Write as _;

use fingrav_core::stats::mean;

/// Share of a run's samples [`fast_mean`] keeps.
const FAST_SHARE: f64 = 0.1;

/// Mean of the fastest tenth of `xs` (at least one sample), or 0 when
/// empty.
///
/// The end-to-end times of a run reduce their units (campaigns, reopen
/// rounds) with this. A shared host's speed moves by up to 1.8x in phases
/// of seconds to minutes and only ever slows a unit down: a run's mean or
/// median follows the share of slow phases in it, its fastest units follow
/// the program. A change to the program moves every unit, the fastest ones
/// included. Every run cycles through all its campaign seeds, so the
/// fastest tenth is drawn from the same mix of campaigns each time.
pub fn fast_mean(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let keep = ((sorted.len() as f64 * FAST_SHARE).ceil() as usize).max(1);
    mean(&sorted[..keep.min(sorted.len())]).unwrap_or(0.0)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One named, unit-tagged number of a run's result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The `"metrics"` object of the result line. Every value prints
    /// with all its digits (Rust's shortest round-trip form).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push('}');
        out
    }

    /// Names of metrics whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.as_str())
            .collect()
    }
}

/// Escapes `s` for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where and how the numbers were taken: printed with every result and
/// stored in every result file.
pub fn host_record(seed: u64) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", env!("BENCH_RUSTC_VERSION").to_string()),
        ("profile", env!("BENCH_BUILD_PROFILE").to_string()),
        ("commit", git_commit()),
        ("seed", seed.to_string()),
    ]
}

/// The commit of the checkout, when it is a git work tree; benchmark
/// checkouts exported without `.git` report `unknown`.
fn git_commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
