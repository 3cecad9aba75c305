//! Regenerates the paper's Table II: verifies each takeaway /
//! measurement-guidance / recommendation against freshly measured profiles.

use fingrav_bench::experiments::table2;
use fingrav_bench::RunContext;

fn main() {
    let ctx = RunContext::from_args(std::env::args().skip(1));
    let dir = ctx.out_dir().expect("create output directory");

    println!("== Table II: takeaway verification ==\n");
    let d = table2(ctx.scale);
    println!("| # | takeaway | measured evidence | holds |");
    println!("|---|---|---|---|");
    let mut csv = String::from("takeaway,holds,evidence\n");
    let mut all_hold = true;
    for c in &d.checks {
        println!(
            "| {} | {} | {} | {} |",
            c.takeaway,
            c.description,
            c.evidence,
            if c.holds { "YES" } else { "NO" }
        );
        csv.push_str(&format!("{},{},\"{}\"\n", c.takeaway, c.holds, c.evidence));
        all_hold &= c.holds;
    }
    std::fs::write(dir.join("table2.csv"), csv).expect("write table2.csv");
    println!("\nwrote {}", dir.join("table2.csv").display());
    println!(
        "\nall takeaways reproduced: {}",
        if all_hold { "YES" } else { "NO" }
    );
    if !all_hold {
        std::process::exit(1);
    }
}
