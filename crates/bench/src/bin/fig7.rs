//! Regenerates the paper's Fig. 7: component-level comparison of the
//! compute-bound GEMMs and memory-bound GEMVs (SSP profiles, relative
//! power, linear-regression lines).

use fingrav_bench::experiments::{fig7, max_total};
use fingrav_bench::render::{component_table, write_profile};
use fingrav_bench::RunContext;
use fingrav_core::profile::{PowerAxis, ProfileAxis};
use fingrav_sim::power::Component;

fn main() {
    let ctx = RunContext::from_args(std::env::args().skip(1));
    let dir = ctx.out_dir().expect("create output directory");

    println!("== Fig. 7: component analysis of CB GEMMs vs MB GEMVs ==\n");
    let d = fig7(ctx.scale);
    let reference = max_total(&d.rows);
    println!("{}", component_table(&d.rows, reference));
    println!(
        "power-proportionality spread across CB GEMMs (takeaway #4): {:.2}x",
        d.cb_proportionality_spread.unwrap_or(f64::NAN)
    );

    for report in &d.reports {
        let name = format!("fig7_{}.csv", report.label.to_lowercase());
        write_profile(&dir, &name, &report.ssp_profile, ProfileAxis::Toi).expect("csv");
        // Linear regression lines as in the paper's presentation.
        if let Ok(fit) = report
            .ssp_profile
            .linear_fit(ProfileAxis::Toi, PowerAxis::Component(Component::Xcd))
        {
            let (xs, _) = report
                .ssp_profile
                .series(ProfileAxis::Toi, PowerAxis::Total);
            if let (Some(&lo), Some(&hi)) = (xs.first(), xs.last()) {
                let mut csv = String::from("x_ns,xcd_fit_w\n");
                for (x, y) in fit.sample(lo, hi, 32) {
                    csv.push_str(&format!("{x:.1},{y:.3}\n"));
                }
                std::fs::write(
                    dir.join(format!("fig7_{}_xcdfit.csv", report.label.to_lowercase())),
                    csv,
                )
                .expect("write fit csv");
            }
        }
    }
    println!(
        "wrote per-kernel SSP CSVs and XCD fit lines in {}",
        dir.display()
    );
}
