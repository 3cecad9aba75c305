//! `fgrv-lint` — workspace static analysis for FinGraV's invariants.
//!
//! FinGraV's value is trustworthy fine-grain power data. The repo holds
//! three versioned untrusted-input codecs (`FGRVPROF`/`FGRVCKPT`/
//! `FGRVWIRE`), `unsafe` confined to the fuzz harness's counting
//! allocator, and lock-free cancellation flags spread across crates —
//! correctness that tests exercise but
//! nothing *enforces*. This tool machine-checks those conventions as
//! deny-by-default diagnostics:
//!
//! * **codec-hygiene** — decoder modules must be panic-free on
//!   untrusted input;
//! * **unsafe-audit** — `unsafe` appears only in
//!   `crates/fgrv-fuzz/src/alloc.rs`, and always with a `// SAFETY:`
//!   comment;
//! * **atomics-discipline** — every `Ordering::` use documents its
//!   happens-before argument in the allowlist;
//! * **format-constants** — magics/versions/tags agree with
//!   `docs/FORMATS.md` and the committed golden fixtures;
//! * **annotation-hygiene** — `#[allow]`/`#[expect]`/`#[ignore]`
//!   require a trailing justification comment;
//! * **allowlist-integrity** — allowlist entries must parse, be
//!   justified, and still match a live finding.
//!
//! Everything is hand-rolled (lexer, parser, TOML subset, JSON
//! output) — the tool takes no dependencies, vendored or otherwise, so
//! it can never be broken by the code it checks. See
//! `docs/ANALYSIS.md` for the full rule catalogue and workflow.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

mod allow;
mod lexer;
mod rules;

pub use allow::{parse_allowlist, AllowEntry};
pub use rules::{ConstVal, FormatConst};

/// One registered rule, for documentation cross-checks.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable rule name, as printed in diagnostics.
    pub name: &'static str,
    /// One-line summary of the invariant the rule enforces.
    pub summary: &'static str,
    /// True when a `lint-allow.toml` entry can suppress findings of
    /// this rule.
    pub suppressible: bool,
}

/// Every rule the binary registers, in catalogue order. The
/// `docs/ANALYSIS.md` rule list is cross-checked against this table by
/// `tests/docs_spec.rs`.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "codec-hygiene",
        summary: "decoder modules stay panic-free on untrusted input: no unwrap/expect/panic!/\
                  unreachable!, no direct slice indexing, no truncating casts on length-derived \
                  values",
        suppressible: true,
    },
    RuleInfo {
        name: "unsafe-audit",
        summary: "unsafe blocks/impls/fns appear only in crates/fgrv-fuzz/src/alloc.rs, and \
                  each carries an adjacent // SAFETY: comment",
        suppressible: false,
    },
    RuleInfo {
        name: "atomics-discipline",
        summary: "every atomic Ordering:: use in non-test code is covered by an allowlist entry \
                  documenting its happens-before argument",
        suppressible: true,
    },
    RuleInfo {
        name: "format-constants",
        summary: "MAGIC/VERSION/frame-tag/section-tag constants agree with the formats document \
                  and the committed golden fixtures",
        suppressible: false,
    },
    RuleInfo {
        name: "annotation-hygiene",
        summary: "#[allow(...)], #[expect(...)] and bare #[ignore] carry a trailing \
                  justification comment",
        suppressible: false,
    },
    RuleInfo {
        name: "allowlist-integrity",
        summary: "allowlist entries parse, carry non-empty justifications, name suppressible \
                  rules, and still match at least one live finding",
        suppressible: false,
    },
];

/// A single finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Repo-relative file (forward slashes), or a doc/fixture path for
    /// workspace-level rules.
    pub file: String,
    /// 1-indexed line; 0 for file-level findings.
    pub line: usize,
    /// Rule that fired.
    pub rule: &'static str,
    /// Trimmed source line, empty for file-level findings.
    pub snippet: String,
    /// Human explanation.
    pub message: String,
}

/// Scan configuration. [`Config::for_root`] fills the conventional
/// paths; tests and the CLI override as needed.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directory to scan (the workspace root in normal use).
    pub root: PathBuf,
    /// The committed allowlist; missing file = empty allowlist.
    pub allowlist_path: PathBuf,
    /// The normative formats document for `format-constants`.
    pub formats_doc: PathBuf,
    /// Directory of committed golden fixtures (`*.fgrv`, `*.fgrvckpt`).
    pub fixture_data: PathBuf,
    /// Path substrings that mark a file as a decoder module.
    pub decoder_patterns: Vec<String>,
}

impl Config {
    /// The conventional layout under `root`.
    pub fn for_root(root: impl Into<PathBuf>) -> Config {
        let root = root.into();
        Config {
            allowlist_path: root.join("lint-allow.toml"),
            formats_doc: root.join("docs/FORMATS.md"),
            fixture_data: root.join("tests/data"),
            decoder_patterns: ["store/", "checkpoint.rs", "transport.rs", "mmap.rs"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            root,
        }
    }
}

/// The workspace root this binary was built in (two levels above the
/// crate manifest).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
}

/// Scan result.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the scan produced no findings.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Human-readable rendering, one block per finding plus a summary
    /// line. Asserted verbatim by the fixture tests — keep stable.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            if d.line == 0 {
                out.push_str(&format!("{}: [{}] {}\n", d.file, d.rule, d.message));
            } else {
                out.push_str(&format!(
                    "{}:{}: [{}] {}\n",
                    d.file, d.line, d.rule, d.message
                ));
            }
            if !d.snippet.is_empty() {
                out.push_str(&format!("    | {}\n", d.snippet));
            }
        }
        if self.is_clean() {
            out.push_str(&format!(
                "fgrv-lint: clean ({} files scanned)\n",
                self.files_scanned
            ));
        } else {
            out.push_str(&format!(
                "fgrv-lint: {} finding(s) in {} files scanned\n",
                self.diagnostics.len(),
                self.files_scanned
            ));
        }
        out
    }

    /// Machine-readable rendering (`--format json`).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"snippet\": {}, \
                 \"message\": {}}}",
                json_str(&d.file),
                d.line,
                json_str(d.rule),
                json_str(&d.snippet),
                json_str(&d.message)
            ));
        }
        out.push_str(&format!(
            "\n  ],\n  \"count\": {},\n  \"files_scanned\": {}\n}}\n",
            self.diagnostics.len(),
            self.files_scanned
        ));
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Per-file context handed to the rules.
pub(crate) struct FileCtx<'a> {
    /// Repo-relative path, forward slashes.
    pub rel_path: String,
    /// Raw source lines (for snippets and allowlist matching).
    pub lines: Vec<&'a str>,
    /// Lexed tokens and comments.
    pub lexed: lexer::Lexed,
    /// `#[cfg(test)] mod …` line ranges (inclusive).
    pub test_regions: Vec<(usize, usize)>,
    /// True for files under `tests/`, `benches/`, or `examples/`.
    pub is_test_file: bool,
    /// True when the path matches a decoder-module pattern.
    pub is_decoder: bool,
}

impl FileCtx<'_> {
    pub fn line_text(&self, line: usize) -> &str {
        self.lines.get(line.wrapping_sub(1)).copied().unwrap_or("")
    }

    pub fn in_test_region(&self, line: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(lo, hi)| line >= lo && line <= hi)
    }
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "vendor", "fixtures", "node_modules"];

fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Finds `#[cfg(test)] mod … { … }` regions by token scan, so in-file
/// unit-test modules are exempt from the non-test rules.
fn find_test_regions(lx: &lexer::Lexed) -> Vec<(usize, usize)> {
    let toks = &lx.tokens;
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        // `#[cfg(…test…)]`
        let is_cfg_test = toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("cfg"));
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let mut j = i + 3;
        let mut depth = 0usize;
        let mut has_test = false;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('[') || t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth = depth.saturating_sub(1);
            } else if t.is_punct(']') {
                if depth == 0 {
                    break;
                }
                depth = depth.saturating_sub(1);
            } else if t.is_ident("test") {
                has_test = true;
            }
            j += 1;
        }
        if !has_test {
            i = j;
            continue;
        }
        // Skip any further attributes, then expect `(pub) mod name {`.
        let mut k = j + 1;
        while toks.get(k).is_some_and(|t| t.is_punct('#')) {
            let mut depth = 0usize;
            k += 1;
            while k < toks.len() {
                let t = &toks[k];
                if t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
        }
        if toks.get(k).is_some_and(|t| t.is_ident("pub")) {
            k += 1;
        }
        if !toks.get(k).is_some_and(|t| t.is_ident("mod")) {
            i = j + 1;
            continue;
        }
        // Find the module's `{ … }` span.
        while k < toks.len() && !toks[k].is_punct('{') {
            k += 1;
        }
        let start_line = toks[i].line;
        let mut brace = 0usize;
        while k < toks.len() {
            if toks[k].is_punct('{') {
                brace += 1;
            } else if toks[k].is_punct('}') {
                brace -= 1;
                if brace == 0 {
                    break;
                }
            }
            k += 1;
        }
        let end_line = toks.get(k).map_or(usize::MAX, |t| t.line);
        regions.push((start_line, end_line));
        i = k + 1;
    }
    regions
}

/// Runs the full scan.
pub fn run(cfg: &Config) -> Report {
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut consts: Vec<rules::FormatConst> = Vec::new();

    let files = collect_rs_files(&cfg.root);
    let files_scanned = files.len();
    for path in &files {
        let rel = rel_path(&cfg.root, path);
        let Ok(src) = std::fs::read_to_string(path) else {
            diagnostics.push(Diagnostic {
                rule: "allowlist-integrity",
                file: rel,
                line: 0,
                snippet: String::new(),
                message: "file could not be read as UTF-8".to_string(),
            });
            continue;
        };
        let lexed = lexer::lex(&src);
        let test_regions = find_test_regions(&lexed);
        let is_test_file = rel
            .split('/')
            .any(|c| c == "tests" || c == "benches" || c == "examples");
        let ctx = FileCtx {
            is_decoder: cfg
                .decoder_patterns
                .iter()
                .any(|p| rel.contains(p.as_str())),
            rel_path: rel,
            lines: src.lines().collect(),
            lexed,
            test_regions,
            is_test_file,
        };
        rules::codec_hygiene(&ctx, &mut diagnostics);
        rules::unsafe_audit(&ctx, &mut diagnostics);
        rules::atomics_discipline(&ctx, &mut diagnostics);
        rules::annotation_hygiene(&ctx, &mut diagnostics);
        rules::extract_format_consts(&ctx, &mut consts);
    }

    // Rule 4 runs workspace-wide over the extracted constants.
    let doc = std::fs::read_to_string(&cfg.formats_doc).ok();
    let doc_rel = rel_path(&cfg.root, &cfg.formats_doc);
    let fixtures = read_fixtures(&cfg.fixture_data, &cfg.root);
    rules::check_format_consts(
        &consts,
        doc.as_deref(),
        &doc_rel,
        &fixtures,
        &mut diagnostics,
    );

    // Allowlist: suppress what a justified entry covers; everything
    // about the allowlist itself is a finding.
    apply_allowlist(cfg, &mut diagnostics);

    diagnostics.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    diagnostics.dedup();
    Report {
        diagnostics,
        files_scanned,
    }
}

/// `path` relative to `root` (as given when outside it), with forward
/// slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

fn read_fixtures(dir: &Path, root: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = path.file_name().map(|n| n.to_string_lossy().to_string());
        let is_fixture = name
            .as_deref()
            .is_some_and(|n| n.ends_with(".fgrv") || n.ends_with(".fgrvckpt"));
        if !is_fixture {
            continue;
        }
        if let Ok(bytes) = std::fs::read(&path) {
            out.push((rel_path(root, &path), bytes));
        }
    }
    out.sort();
    out
}

fn apply_allowlist(cfg: &Config, diagnostics: &mut Vec<Diagnostic>) {
    let rel = rel_path(&cfg.root, &cfg.allowlist_path);
    let entries = match std::fs::read_to_string(&cfg.allowlist_path) {
        Ok(src) => match allow::parse_allowlist(&src) {
            Ok(entries) => entries,
            Err(e) => {
                diagnostics.push(Diagnostic {
                    rule: "allowlist-integrity",
                    file: rel,
                    line: e.line,
                    snippet: String::new(),
                    message: format!("allowlist does not parse: {}", e.msg),
                });
                return;
            }
        },
        Err(_) => Vec::new(),
    };

    let mut hits: BTreeMap<usize, u64> = BTreeMap::new();
    for (idx, e) in entries.iter().enumerate() {
        hits.insert(idx, 0);
        if e.justification.trim().is_empty() {
            diagnostics.push(Diagnostic {
                rule: "allowlist-integrity",
                file: rel.clone(),
                line: e.line,
                snippet: String::new(),
                message: format!(
                    "entry for `{}` in {} has an empty justification",
                    e.pattern, e.file
                ),
            });
        }
        let suppressible = RULES.iter().any(|r| r.name == e.rule && r.suppressible);
        if !suppressible {
            diagnostics.push(Diagnostic {
                rule: "allowlist-integrity",
                file: rel.clone(),
                line: e.line,
                snippet: String::new(),
                message: format!("`{}` is not a suppressible rule", e.rule),
            });
        }
    }

    diagnostics.retain(|d| {
        for (idx, e) in entries.iter().enumerate() {
            let matches = e.rule == d.rule
                && e.file == d.file
                && !e.justification.trim().is_empty()
                && d.snippet.contains(&e.pattern);
            if matches {
                let h = hits.entry(idx).or_insert(0);
                if e.max.is_none_or(|m| *h < m) {
                    *h += 1;
                    return false;
                }
            }
        }
        true
    });

    for (idx, e) in entries.iter().enumerate() {
        if hits.get(&idx) == Some(&0) && !e.justification.trim().is_empty() {
            diagnostics.push(Diagnostic {
                rule: "allowlist-integrity",
                file: rel.clone(),
                line: e.line,
                snippet: String::new(),
                message: format!(
                    "stale allowlist entry: no `{}` finding in {} matches `{}` — delete it",
                    e.rule, e.file, e.pattern
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_for(rel: &str, src: &str, decoder: bool) -> (String, Vec<Diagnostic>) {
        let lexed = lexer::lex(src);
        let test_regions = find_test_regions(&lexed);
        let ctx = FileCtx {
            rel_path: rel.to_string(),
            lines: src.lines().collect(),
            lexed,
            test_regions,
            is_test_file: false,
            is_decoder: decoder,
        };
        let mut out = Vec::new();
        rules::codec_hygiene(&ctx, &mut out);
        rules::atomics_discipline(&ctx, &mut out);
        rules::annotation_hygiene(&ctx, &mut out);
        (rel.to_string(), out)
    }

    #[test]
    fn unwrap_flagged_only_in_decoder_modules() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        let (_, d) = ctx_for("crates/core/src/checkpoint.rs", src, true);
        assert_eq!(d.iter().filter(|d| d.rule == "codec-hygiene").count(), 1);
        let (_, d) = ctx_for("crates/core/src/stats.rs", src, false);
        assert!(d.iter().all(|d| d.rule != "codec-hygiene"));
    }

    #[test]
    fn cfg_test_mod_is_exempt_from_codec_rules() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        let (_, d) = ctx_for("crates/core/src/transport.rs", src, true);
        assert!(d.iter().all(|d| d.rule != "codec-hygiene"), "{d:?}");
    }

    #[test]
    fn indexing_and_casts_flagged() {
        let src = "fn f(b: &[u8], len: u64) -> u8 { let n = len as u32; b[n as usize] }";
        let (_, d) = ctx_for("crates/core/src/store/mod.rs", src, true);
        let msgs: Vec<_> = d.iter().map(|d| d.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("truncating")), "{msgs:?}");
        assert!(
            msgs.iter().any(|m| m.contains("slice indexing")),
            "{msgs:?}"
        );
    }

    #[test]
    fn array_types_and_attributes_are_not_indexing() {
        let src =
            "#[derive(Debug)] // plain\nstruct S { m: [u8; 8] }\nfn f() -> [u8; 4] { *b\"abcd\" }";
        let (_, d) = ctx_for("crates/core/src/mmap.rs", src, true);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn atomics_need_allowlist_and_cmp_ordering_is_exempt() {
        let src = "fn f() { x.load(Ordering::Acquire); y.cmp(&z) == std::cmp::Ordering::Equal; }";
        let (_, d) = ctx_for("crates/core/src/executor.rs", src, false);
        assert_eq!(
            d.iter().filter(|d| d.rule == "atomics-discipline").count(),
            1
        );
    }

    #[test]
    fn annotations_need_justification() {
        let src = "#[allow(dead_code)]\nfn a() {}\n#[allow(dead_code)] // helper kept for parity\nfn b() {}\n#[ignore = \"slow\"]\nfn c() {}\n";
        let (_, d) = ctx_for("crates/core/src/lib.rs", src, false);
        assert_eq!(
            d.iter().filter(|d| d.rule == "annotation-hygiene").count(),
            1
        );
    }

    fn unsafe_audit(rel: &str, src: &str) -> Vec<Diagnostic> {
        let ctx = FileCtx {
            rel_path: rel.to_string(),
            lines: src.lines().collect(),
            lexed: lexer::lex(src),
            test_regions: Vec::new(),
            is_test_file: rel.starts_with("tests/"),
            is_decoder: false,
        };
        let mut d = Vec::new();
        rules::unsafe_audit(&ctx, &mut d);
        d
    }

    #[test]
    fn safety_comment_satisfies_unsafe_audit_locally() {
        let bare = "unsafe impl Send for X {}\n";
        let d = unsafe_audit(rules::UNSAFE_MODULE, bare);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("SAFETY"), "{d:?}");
        let commented = format!("// SAFETY: region is immutable for 'static.\n{bare}");
        assert!(unsafe_audit(rules::UNSAFE_MODULE, &commented).is_empty());
    }

    #[test]
    fn unsafe_is_allowed_only_in_the_unsafe_module() {
        let src = "// SAFETY: region is immutable for 'static.\nunsafe impl Send for X {}\n";
        assert!(unsafe_audit(rules::UNSAFE_MODULE, src).is_empty());
        for rel in ["crates/core/src/mmap.rs", "tests/csv_heap.rs"] {
            let d = unsafe_audit(rel, src);
            assert_eq!(d.len(), 1, "{rel}: {d:?}");
            assert!(d[0].message.contains("outside"), "{rel}: {d:?}");
            assert_eq!(d[0].line, 2);
        }
    }
}
