//! End-to-end fixture tests for the lint scan: the seeded-violation
//! tree produces exactly the golden diagnostics (asserted verbatim),
//! the clean tree produces none, and the real workspace at HEAD scans
//! clean — which is what makes `cargo test` itself a lint gate.

use std::path::PathBuf;

use fgrv_lint::{run, Config};

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The bad fixture holds one violation per rule class; the rendering is
/// asserted byte-for-byte so diagnostic wording, ordering, and the
/// summary line are all pinned.
#[test]
fn bad_fixture_golden_output() {
    let report = run(&Config::for_root(fixture_root("bad")));
    let expected = "\
docs/FORMATS.md: [format-constants] doc never spells out the `WIRE_MAGIC` bytes (42 41 44 46 52 4D 54 21); the layout table must show them
lint-allow.toml:4: [allowlist-integrity] stale allowlist entry: no `codec-hygiene` finding in src/store/decode.rs matches `this pattern matches no source line` — delete it
src/annot.rs:3: [annotation-hygiene] `#[allow(…)]` without a trailing justification comment: say why the suppressed lint does not apply
    | #[allow(dead_code)]
src/engine.rs:7: [atomics-discipline] `Ordering::SeqCst` outside the allowlist: add a lint-allow.toml entry whose justification states the happens-before argument
    | flag.store(true, Ordering::SeqCst);
src/mmap.rs:5: [unsafe-audit] `unsafe` outside `crates/fgrv-fuzz/src/alloc.rs`, the one module allowed to hold it
    | unsafe { *p }
src/mmap.rs:5: [unsafe-audit] `unsafe` without an adjacent `// SAFETY:` comment: state the soundness argument directly above the unsafe site
    | unsafe { *p }
src/store/decode.rs:6: [codec-hygiene] truncating `as u32` cast on a length-derived value: use `try_from`/a checked helper so oversized lengths become typed errors
    | let n = len as u32;
src/store/decode.rs:7: [codec-hygiene] `.unwrap()` in a decoder module: return the typed codec error instead (or allowlist with a proof of infallibility)
    | let first = bytes.first().unwrap();
src/store/decode.rs:8: [codec-hygiene] direct slice indexing in a decoder module: use a bounded-read helper (`get`/`split_at_checked`-based) so corrupt offsets become typed errors
    | first + bytes[n as usize]
tests/data/corrupt.fgrvckpt: [format-constants] fixture magic does not match CKPT_MAGIC
fgrv-lint: 10 finding(s) in 5 files scanned
";
    assert_eq!(report.render_human(), expected);
}

/// Every rule class fires exactly once in the bad fixture — the seeded
/// violations stay in one-to-one correspondence with the rule table.
#[test]
fn bad_fixture_covers_every_rule_class() {
    let report = run(&Config::for_root(fixture_root("bad")));
    for rule in fgrv_lint::RULES {
        let hits = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == rule.name)
            .count();
        assert!(
            hits > 0,
            "rule `{}` produced no finding in the bad fixture",
            rule.name
        );
    }
}

/// The clean fixture (a well-written decoder among other code) must not
/// trip any rule: the negative control against false positives.
#[test]
fn clean_fixture_is_clean() {
    let report = run(&Config::for_root(fixture_root("clean")));
    assert!(
        report.is_clean(),
        "clean fixture produced findings:\n{}",
        report.render_human()
    );
    assert_eq!(report.files_scanned, 2);
}

/// The workspace at HEAD scans clean — the same gate CI enforces, so a
/// plain `cargo test` catches a violation (or a stale allowlist entry)
/// before a push does.
#[test]
fn workspace_head_scans_clean() {
    let report = run(&Config::for_root(fgrv_lint::workspace_root()));
    assert!(
        report.is_clean(),
        "workspace scan is not clean:\n{}",
        report.render_human()
    );
}

/// `--format json` output must be real JSON: parsed back with the
/// test-local [`Json`] reader, field by field, against the typed report.
#[test]
fn json_output_round_trips() {
    let report = run(&Config::for_root(fixture_root("bad")));
    let value = Json::parse(&report.render_json());
    assert_eq!(
        value.field("count"),
        &Json::Num(report.diagnostics.len().to_string())
    );
    let Json::Arr(diags) = value.field("diagnostics") else {
        panic!("diagnostics is not an array");
    };
    assert_eq!(diags.len(), report.diagnostics.len());
    for (json, diag) in diags.iter().zip(&report.diagnostics) {
        assert_eq!(json.field("file"), &Json::Str(diag.file.clone()));
        assert_eq!(json.field("rule"), &Json::Str(diag.rule.to_string()));
        assert_eq!(json.field("line"), &Json::Num(diag.line.to_string()));
        assert_eq!(json.field("snippet"), &Json::Str(diag.snippet.clone()));
        assert_eq!(json.field("message"), &Json::Str(diag.message.clone()));
    }
}

/// A strict reader for the JSON subset `render_json` emits: objects,
/// arrays, strings and unsigned integers. Anything else panics with the
/// byte offset, which fails the test.
#[derive(Debug, PartialEq)]
enum Json {
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut pos = 0;
        let value = Json::value(text.as_bytes(), &mut pos);
        skip_ws(text.as_bytes(), &mut pos);
        assert_eq!(pos, text.len(), "trailing bytes after the document");
        value
    }

    fn field(&self, name: &str) -> &Json {
        let Json::Obj(fields) = self else {
            panic!("{self:?} is not an object");
        };
        fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {name}"))
    }

    fn value(b: &[u8], pos: &mut usize) -> Json {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'"') => Json::Str(string(b, pos)),
            Some(b'0'..=b'9') => {
                let start = *pos;
                while b.get(*pos).is_some_and(u8::is_ascii_digit) {
                    *pos += 1;
                }
                Json::Num(String::from_utf8(b[start..*pos].to_vec()).unwrap())
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                while !eat(b, pos, b']') {
                    if !items.is_empty() {
                        assert!(eat(b, pos, b','), "expected `,` at byte {pos}");
                    }
                    items.push(Json::value(b, pos));
                }
                Json::Arr(items)
            }
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                while !eat(b, pos, b'}') {
                    if !fields.is_empty() {
                        assert!(eat(b, pos, b','), "expected `,` at byte {pos}");
                    }
                    skip_ws(b, pos);
                    let name = string(b, pos);
                    assert!(eat(b, pos, b':'), "expected `:` at byte {pos}");
                    fields.push((name, Json::value(b, pos)));
                }
                Json::Obj(fields)
            }
            other => panic!("unexpected {other:?} at byte {pos}"),
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while b.get(*pos).is_some_and(u8::is_ascii_whitespace) {
        *pos += 1;
    }
}

fn eat(b: &[u8], pos: &mut usize, want: u8) -> bool {
    skip_ws(b, pos);
    let hit = b.get(*pos) == Some(&want);
    *pos += usize::from(hit);
    hit
}

fn string(b: &[u8], pos: &mut usize) -> String {
    assert_eq!(b.get(*pos), Some(&b'"'), "expected a string at byte {pos}");
    *pos += 1;
    let mut out = Vec::new();
    loop {
        let byte = b[*pos];
        *pos += 1;
        let c = match byte {
            b'"' => break,
            b'\\' => {
                *pos += 1;
                match b[*pos - 1] {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'n' => '\n',
                    b'r' => '\r',
                    b't' => '\t',
                    b'u' => {
                        let hex = std::str::from_utf8(&b[*pos..*pos + 4]).unwrap();
                        *pos += 4;
                        char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap()
                    }
                    other => panic!("bad escape {:?} at byte {pos}", other as char),
                }
            }
            raw => {
                out.push(raw);
                continue;
            }
        };
        out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
    }
    String::from_utf8(out).expect("strings are UTF-8")
}
