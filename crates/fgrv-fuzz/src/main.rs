//! `fgrv-fuzz` — coverage-guided fuzzing and conformance harness for the
//! FGRV* decoders.
//!
//! ```text
//! fgrv-fuzz list
//! fgrv-fuzz run <target> [--iters N | --seconds N] [--corpus DIR]
//!                        [--seed S] [--threads T]
//! fgrv-fuzz replay <target> <file>...
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage error. See
//! `docs/FUZZING.md`.

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use fgrv_fuzz::exec::run_one;
use fgrv_fuzz::targets::{self, Target, TARGETS};
use fgrv_fuzz::{run, FuzzConfig};

/// The allocation-cap oracle only measures in binaries that install the
/// counting allocator; the harness is the binary that does.
#[global_allocator]
static ALLOC: fgrv_fuzz::alloc::CountingAlloc = fgrv_fuzz::alloc::CountingAlloc;

const USAGE: &str = "usage:
  fgrv-fuzz list
  fgrv-fuzz run <target> [--iters N | --seconds N] [--corpus DIR] [--seed S] [--threads T]
  fgrv-fuzz replay <target> <file>...

targets: run `fgrv-fuzz list`";

fn usage(why: &str) -> ExitCode {
    eprintln!("fgrv-fuzz: {why}\n{USAGE}");
    ExitCode::from(2)
}

fn parse_target(name: &str) -> Result<Target, String> {
    targets::find(name).ok_or_else(|| format!("unknown target {name:?} (try `fgrv-fuzz list`)"))
}

fn cmd_list() -> ExitCode {
    for info in TARGETS {
        println!("{:<13} {}", info.name, info.description);
    }
    ExitCode::SUCCESS
}

fn cmd_run(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        return usage("run: missing <target>");
    };
    let target = match parse_target(name) {
        Ok(t) => t,
        Err(why) => return usage(&why),
    };
    let mut config = FuzzConfig::new(target);
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let Some(value) = rest.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let parsed: Result<(), String> = match flag.as_str() {
            "--iters" => value
                .parse()
                .map(|n| config.iters = Some(n))
                .map_err(|e| format!("--iters: {e}")),
            "--seconds" => value
                .parse()
                .map(|n| config.seconds = Some(n))
                .map_err(|e| format!("--seconds: {e}")),
            "--seed" => value
                .parse()
                .map(|n| config.seed = n)
                .map_err(|e| format!("--seed: {e}")),
            "--threads" => value
                .parse()
                .map(|n| config.threads = n)
                .map_err(|e| format!("--threads: {e}")),
            "--corpus" => {
                config.corpus_dir = Some(PathBuf::from(value));
                Ok(())
            }
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(why) = parsed {
            return usage(&why);
        }
    }

    let report = match run(&config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("fgrv-fuzz: corpus I/O failed: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "target {name}: {} inputs, coverage {} -> {} buckets, corpus {} entries \
         (digest {:016x}), schedule digest {:016x}",
        report.executed,
        report.baseline_buckets,
        report.final_buckets,
        report.corpus_len,
        report.corpus_digest,
        report.schedule_digest,
    );
    if report.findings.is_empty() {
        println!("no findings");
        return ExitCode::SUCCESS;
    }
    for found in &report.findings {
        println!(
            "FINDING [{}] x{}: {:?} (minimized to {} bytes)",
            found.finding.kind(),
            found.occurrences,
            found.finding,
            found.input.len(),
        );
    }
    ExitCode::from(1)
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        return usage("replay: missing <target>");
    };
    let target = match parse_target(name) {
        Ok(t) => t,
        Err(why) => return usage(&why),
    };
    if args.len() < 2 {
        return usage("replay: missing <file>...");
    }
    let mut findings = 0u32;
    for path in &args[1..] {
        let input = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) => {
                eprintln!("fgrv-fuzz: {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let result = run_one(target, &input);
        match result.finding {
            Some(finding) => {
                findings += 1;
                println!("{path}: FINDING [{}] {finding:?}", finding.kind());
            }
            None => println!("{path}: clean ({} taxonomy buckets)", result.taxonomy.len()),
        }
    }
    if findings == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some(other) => usage(&format!("unknown command {other:?}")),
        None => usage("missing command"),
    }
}
