//! Regenerates every paper table and figure in one invocation, writing all
//! artefacts to the output directory (default `results/`). Experiments run
//! in parallel, one OS thread per artefact, since each owns an independent
//! simulation.

use std::time::Instant;

use fingrav_bench::harness::Transport;
use fingrav_bench::RunContext;

fn main() {
    let ctx = RunContext::from_args(std::env::args().skip(1));
    let dir = ctx.out_dir().expect("create output directory");
    let t0 = Instant::now();

    // Every child gets every setting, so the whole artefact tree shards,
    // checkpoints and distributes consistently (results are
    // worker-count-invariant).
    let child_args = ctx.child_args();
    // Transport runs share one listen address, so the children must bind
    // (and connect) one at a time, in the same order on both nodes.
    let sequential = ctx.transport != Transport::Local;

    // Each artefact is its own binary; running them in-process sequentially
    // would serialize, so spawn the sibling binaries in parallel instead.
    let bins = [
        "table1",
        "fig3",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "table2",
        "ablations",
        "recommendations",
    ];
    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe dir")
        .to_path_buf();

    let run_bin = |bin: &'static str| {
        let exe = exe_dir.join(bin);
        let out = std::process::Command::new(&exe)
            .args(&child_args)
            .output()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", exe.display()));
        println!(
            "---- {bin} ({}) ----\n{}{}",
            if out.status.success() { "ok" } else { "FAILED" },
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        (bin, out.status.success())
    };

    let failed: Vec<&str> = if sequential {
        bins.into_iter()
            .map(run_bin)
            .filter(|&(_, ok)| !ok)
            .map(|(bin, _)| bin)
            .collect()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = bins
                .into_iter()
                .map(|bin| s.spawn(|| run_bin(bin)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("experiment thread"))
                .filter(|&(_, ok)| !ok)
                .map(|(bin, _)| bin)
                .collect()
        })
    };

    if failed.is_empty() {
        println!(
            "\nregenerated all tables and figures into {} in {:.1}s",
            dir.display(),
            t0.elapsed().as_secs_f64()
        );
    } else {
        eprintln!(
            "\nregeneration FAILED after {:.1}s; failed artefacts: {}",
            t0.elapsed().as_secs_f64(),
            failed.join(", ")
        );
        std::process::exit(1);
    }
}
