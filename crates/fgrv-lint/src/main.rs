//! CLI entry point: `cargo run -p fgrv-lint [-- --format json]`.
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use fgrv_lint::{run, workspace_root, Config};

const USAGE: &str = "\
fgrv-lint — FinGraV workspace invariant linter

USAGE:
    cargo run -p fgrv-lint [-- OPTIONS]

OPTIONS:
    --root DIR        directory to scan (default: the workspace root)
    --format FMT      `human` (default) or `json`
    --allow FILE      allowlist path (default: ROOT/lint-allow.toml)
    --out FILE        also write the rendered report to FILE
    -h, --help        this help
";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = String::from("human");
    let mut allow: Option<PathBuf> = None;
    let mut out_file: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{name} needs a value"))
        };
        let r = match arg.as_str() {
            "--root" => take("--root").map(|v| root = Some(PathBuf::from(v))),
            "--format" => take("--format").map(|v| format = v),
            "--allow" => take("--allow").map(|v| allow = Some(PathBuf::from(v))),
            "--out" => take("--out").map(|v| out_file = Some(PathBuf::from(v))),
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag `{other}`")),
        };
        if let Err(e) = r {
            eprintln!("fgrv-lint: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    if format != "human" && format != "json" {
        eprintln!("fgrv-lint: --format must be `human` or `json`, got `{format}`");
        return ExitCode::from(2);
    }

    let root = root.unwrap_or_else(workspace_root);
    if !root.is_dir() {
        eprintln!("fgrv-lint: root `{}` is not a directory", root.display());
        return ExitCode::from(2);
    }
    let mut cfg = Config::for_root(root);
    if let Some(a) = allow {
        cfg.allowlist_path = a;
    }

    let report = run(&cfg);
    let rendered = if format == "json" {
        report.render_json()
    } else {
        report.render_human()
    };
    print!("{rendered}");
    if let Some(path) = out_file {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("fgrv-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
