//! Regenerates the paper's Table I: FinGraV profiling guidance, plus an
//! empirical validation of each range's LOI yield.

use fingrav_bench::experiments::table1;
use fingrav_bench::RunContext;

fn main() {
    let ctx = RunContext::from_args(std::env::args().skip(1));
    let dir = ctx.out_dir().expect("create output directory");

    println!("== Table I: FinGraV profiling guidance ==\n");
    let data = table1(ctx.scale);
    println!("{}", data.table_markdown);

    println!("Empirical validation (LOI yield at the guidance run counts):\n");
    println!("| exec range | runs | margin | LOI target | LOIs harvested | golden runs |");
    println!("|---|---|---|---|---|---|");
    let mut csv = String::from("exec_range,runs,margin,loi_target,lois,golden_frac\n");
    for r in &data.rows {
        println!(
            "| {} | {} | {:.0}% | {} | {} | {:.0}% |",
            r.exec_label,
            r.runs,
            r.margin_frac * 100.0,
            r.loi_target,
            r.lois_harvested,
            r.golden_fraction * 100.0
        );
        csv.push_str(&format!(
            "{},{},{},{},{},{:.3}\n",
            r.exec_label, r.runs, r.margin_frac, r.loi_target, r.lois_harvested, r.golden_fraction
        ));
    }
    std::fs::write(dir.join("table1.csv"), csv).expect("write table1.csv");
    println!("\nwrote {}", dir.join("table1.csv").display());
}
