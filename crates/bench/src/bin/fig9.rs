//! Regenerates the paper's Fig. 9: total-power comparison of interleaved
//! GEMM/GEMV executions against their isolated SSP profiles.

use fingrav_bench::experiments::fig9;
use fingrav_bench::RunContext;

fn main() {
    let ctx = RunContext::from_args(std::env::args().skip(1));
    let dir = ctx.out_dir().expect("create output directory");

    println!("== Fig. 9: interleaved-kernel power vs isolated SSP ==\n");
    let d = fig9(ctx.scale);
    println!("| scenario | target | isolated SSP W | interleaved W | effect | LOIs |");
    println!("|---|---|---|---|---|---|");
    let mut csv = String::from("scenario,target,isolated_w,interleaved_w,effect,lois\n");
    for s in &d.scenarios {
        println!(
            "| {} | {} | {:.0} | {:.0} | {:+.0}% | {} |",
            s.name,
            s.target,
            s.effect.isolated_w,
            s.effect.interleaved_w,
            s.effect.relative() * 100.0,
            s.interleaved_lois
        );
        csv.push_str(&format!(
            "{},{},{:.1},{:.1},{:.4},{}\n",
            s.name,
            s.target,
            s.effect.isolated_w,
            s.effect.interleaved_w,
            s.effect.relative(),
            s.interleaved_lois
        ));
    }
    std::fs::write(dir.join("fig9.csv"), csv).expect("write fig9.csv");
    println!("\nwrote {}", dir.join("fig9.csv").display());
}
