//! The FinGraV empirical profiling-guidance table (paper Table I).
//!
//! FinGraV step 1 times the kernel and looks up the recommended number of
//! runs, log-of-interest (LOI) density, and binning margin:
//!
//! | Exec range  | # Runs | # LOI    | Binning margin |
//! |-------------|--------|----------|----------------|
//! | 25–50 µs    | 400    | 1 / 5 µs | 5 %            |
//! | 50–200 µs   | 200    | 1 / 10 µs| 5 %            |
//! | 200 µs–1 ms | 200    | 1 / 10 µs| 2 %            |
//! | > 1 ms      | 200    | 1 / 10 µs| 2 %            |
//!
//! Kernels faster than 25 µs clamp to the first row (more runs, wider
//! margin); the paper observes smaller kernels need more runs to harvest
//! enough LOIs.

use fingrav_sim::time::SimDuration;

/// One row of the guidance table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuidanceEntry {
    /// Inclusive lower bound of the execution-time range.
    pub min_exec: SimDuration,
    /// Exclusive upper bound (`None` = unbounded).
    pub max_exec: Option<SimDuration>,
    /// Recommended number of profiling runs.
    pub runs: u32,
    /// Target LOI density: one LOI per this much kernel execution time.
    pub loi_interval: SimDuration,
    /// Execution-time binning margin (fraction).
    pub margin_frac: f64,
}

impl GuidanceEntry {
    /// Recommended number of LOIs for a kernel of duration `exec`.
    pub fn recommended_lois(&self, exec: SimDuration) -> u32 {
        let per = self.loi_interval.as_nanos().max(1);
        (exec.as_nanos().div_ceil(per)).max(1) as u32
    }

    /// True if `exec` falls in this row's range.
    pub fn covers(&self, exec: SimDuration) -> bool {
        exec >= self.min_exec && self.max_exec.is_none_or(|hi| exec < hi)
    }
}

/// The full guidance table.
#[derive(Debug, Clone, PartialEq)]
pub struct GuidanceTable {
    entries: Vec<GuidanceEntry>,
}

impl GuidanceTable {
    /// The paper's Table I.
    pub fn paper() -> Self {
        GuidanceTable {
            entries: vec![
                GuidanceEntry {
                    min_exec: SimDuration::from_micros(25),
                    max_exec: Some(SimDuration::from_micros(50)),
                    runs: 400,
                    loi_interval: SimDuration::from_micros(5),
                    margin_frac: 0.05,
                },
                GuidanceEntry {
                    min_exec: SimDuration::from_micros(50),
                    max_exec: Some(SimDuration::from_micros(200)),
                    runs: 200,
                    loi_interval: SimDuration::from_micros(10),
                    margin_frac: 0.05,
                },
                GuidanceEntry {
                    min_exec: SimDuration::from_micros(200),
                    max_exec: Some(SimDuration::from_millis(1)),
                    runs: 200,
                    loi_interval: SimDuration::from_micros(10),
                    margin_frac: 0.02,
                },
                GuidanceEntry {
                    min_exec: SimDuration::from_millis(1),
                    max_exec: None,
                    runs: 200,
                    loi_interval: SimDuration::from_micros(10),
                    margin_frac: 0.02,
                },
            ],
        }
    }

    /// Builds a custom table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty.
    pub fn new(entries: Vec<GuidanceEntry>) -> Self {
        assert!(!entries.is_empty(), "guidance table needs at least one row");
        GuidanceTable { entries }
    }

    /// The table rows.
    pub fn entries(&self) -> &[GuidanceEntry] {
        &self.entries
    }

    /// Looks up the row covering `exec`, clamping out-of-range durations to
    /// the nearest row.
    pub fn lookup(&self, exec: SimDuration) -> &GuidanceEntry {
        if let Some(e) = self.entries.iter().find(|e| e.covers(exec)) {
            return e;
        }
        // Below the table: first row; above: last row.
        if exec < self.entries[0].min_exec {
            &self.entries[0]
        } else {
            self.entries.last().expect("non-empty table")
        }
    }

    /// Renders the table as GitHub-flavoured markdown (used by the Table I
    /// regeneration binary).
    pub fn as_markdown(&self) -> String {
        let mut out =
            String::from("| Exec range | # Runs | # LOI | Binning margin |\n|---|---|---|---|\n");
        for e in &self.entries {
            let range = match e.max_exec {
                Some(hi) => format!("{}-{}", e.min_exec, hi),
                None => format!(">{}", e.min_exec),
            };
            out.push_str(&format!(
                "| {} | {} | 1/{} | {:.0}% |\n",
                range,
                e.runs,
                e.loi_interval,
                e.margin_frac * 100.0
            ));
        }
        out
    }
}

impl Default for GuidanceTable {
    fn default() -> Self {
        GuidanceTable::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn paper_rows_lookup() {
        let t = GuidanceTable::paper();
        assert_eq!(t.entries().len(), 4);

        let row = t.lookup(us(30));
        assert_eq!(row.runs, 400);
        assert_eq!(row.margin_frac, 0.05);
        assert_eq!(row.loi_interval, us(5));

        let row = t.lookup(us(100));
        assert_eq!(row.runs, 200);
        assert_eq!(row.margin_frac, 0.05);

        let row = t.lookup(us(500));
        assert_eq!(row.runs, 200);
        assert_eq!(row.margin_frac, 0.02);

        let row = t.lookup(SimDuration::from_millis(2));
        assert_eq!(row.runs, 200);
        assert_eq!(row.margin_frac, 0.02);
        assert!(row.max_exec.is_none());
    }

    #[test]
    fn boundaries_are_half_open() {
        let t = GuidanceTable::paper();
        // Exactly 50 us belongs to the second row.
        assert_eq!(t.lookup(us(50)).loi_interval, us(10));
        // Exactly 1 ms belongs to the last row.
        assert_eq!(t.lookup(SimDuration::from_millis(1)).margin_frac, 0.02);
    }

    #[test]
    fn sub_25us_clamps_to_first_row() {
        let t = GuidanceTable::paper();
        let row = t.lookup(us(10));
        assert_eq!(row.runs, 400);
        assert_eq!(row.margin_frac, 0.05);
    }

    #[test]
    fn recommended_loi_counts() {
        let t = GuidanceTable::paper();
        // 48 us kernel in the 25-50 us row: one LOI per 5 us -> 10.
        assert_eq!(t.lookup(us(48)).recommended_lois(us(48)), 10);
        // 1.6 ms kernel: one per 10 us -> 160.
        assert_eq!(t.lookup(us(1600)).recommended_lois(us(1600)), 160);
        // Never below one.
        assert_eq!(t.lookup(us(1)).recommended_lois(us(1)), 1);
    }

    #[test]
    fn markdown_has_all_rows() {
        let md = GuidanceTable::paper().as_markdown();
        assert_eq!(md.lines().count(), 2 + 4);
        assert!(md.contains("400"));
        assert!(md.contains("2%"));
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn empty_table_rejected() {
        let _ = GuidanceTable::new(vec![]);
    }
}
