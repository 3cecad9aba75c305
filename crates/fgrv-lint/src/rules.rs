//! The five FinGraV invariant rule classes.
//!
//! Each rule walks the token stream of [`crate::lexer::lex`] plus the
//! per-line comment map; none of them needs a full AST. The rules are
//! deliberately *deny-by-default*: anything they flag is a hard finding
//! unless a committed allowlist entry argues it away (see
//! `docs/ANALYSIS.md` for which rules are suppressible and why).

use crate::lexer::{TokKind, Token};
use crate::{Diagnostic, FileCtx};

/// Identifiers that can never be the base of an index expression when
/// they appear directly before `[` (they are keywords, so `kw [...]`
/// is a slice pattern or array type, not indexing).
const NON_BASE_KEYWORDS: &[&str] = &[
    "let", "in", "as", "mut", "ref", "return", "break", "continue", "move", "else", "match", "if",
    "while", "for", "loop", "unsafe", "box", "dyn", "impl", "where", "type", "const", "static",
    "fn", "pub", "use", "mod", "crate", "super", "enum", "struct", "trait", "await", "yield",
];

/// Length-derived identifiers: a truncating `as` cast whose operand is
/// one of these (or a call to one of [`LENISH_CALLEES`]) is flagged.
const LENISH_IDENTS: &[&str] = &[
    "len", "length", "size", "count", "total", "entries", "elems",
];

/// Callee names whose results are length-derived.
const LENISH_CALLEES: &[&str] = &["len", "decode", "read_u64", "from_value", "size", "count"];

/// Target types an `as` cast can truncate a length into.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "usize"];

/// Atomic memory-ordering variants (distinguishes `Ordering::Acquire`
/// from `std::cmp::Ordering::Equal`).
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn diag(ctx: &FileCtx<'_>, rule: &'static str, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        file: ctx.rel_path.clone(),
        line,
        snippet: ctx.line_text(line).trim().to_string(),
        message,
    }
}

// ---------------------------------------------------------------------
// Rule 1: codec hygiene
// ---------------------------------------------------------------------

/// In decoder modules (profile store, checkpoint, transport, mmap),
/// non-test code must stay panic-free on untrusted input: no
/// `unwrap`/`expect`/`panic!`/`unreachable!`, no direct slice indexing,
/// and no truncating `as` casts on length-derived values — the bounded
/// read helpers and checked conversions exist for exactly this.
pub fn codec_hygiene(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.is_decoder || ctx.is_test_file {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if ctx.in_test_region(t.line) {
            continue;
        }
        match t.kind {
            TokKind::Ident if t.text == "unwrap" || t.text == "expect" => {
                let after_dot = i > 0 && toks[i - 1].is_punct('.');
                let called = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
                if after_dot && called {
                    out.push(diag(
                        ctx,
                        "codec-hygiene",
                        t.line,
                        format!(
                            "`.{}()` in a decoder module: return the typed codec error instead \
                             (or allowlist with a proof of infallibility)",
                            t.text
                        ),
                    ));
                }
            }
            TokKind::Ident
                if (t.text == "panic" || t.text == "unreachable")
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) =>
            {
                out.push(diag(
                    ctx,
                    "codec-hygiene",
                    t.line,
                    format!(
                        "`{}!` in a decoder module: decoders must fail with a typed error, \
                         never a panic",
                        t.text
                    ),
                ));
            }
            TokKind::Punct if t.text == "[" && is_index_expression(toks, i) => {
                out.push(diag(
                    ctx,
                    "codec-hygiene",
                    t.line,
                    "direct slice indexing in a decoder module: use a bounded-read helper \
                     (`get`/`split_at_checked`-based) so corrupt offsets become typed errors"
                        .to_string(),
                ));
            }
            TokKind::Ident if t.text == "as" => {
                if let Some(target) = truncating_cast_target(toks, i) {
                    out.push(diag(
                        ctx,
                        "codec-hygiene",
                        t.line,
                        format!(
                            "truncating `as {target}` cast on a length-derived value: use \
                             `try_from`/a checked helper so oversized lengths become typed errors"
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// True when the `[` at `toks[i]` opens an index expression: the
/// previous token is a non-keyword identifier, `)`, or `]` (array
/// types, slice patterns, attributes, and `vec![…]` all have a
/// different preceding token).
fn is_index_expression(toks: &[Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| toks.get(p)) else {
        return false;
    };
    match prev.kind {
        TokKind::Ident => !NON_BASE_KEYWORDS.contains(&prev.text.as_str()),
        TokKind::Punct => prev.text == ")" || prev.text == "]",
        _ => false,
    }
}

/// When `toks[i]` is the `as` of a flagged truncating cast, returns the
/// target type name. The operand is length-derived when (skipping one
/// `?`) it is a [`LENISH_IDENTS`] identifier, or a `(…)` call whose
/// callee is in [`LENISH_CALLEES`].
fn truncating_cast_target(toks: &[Token], i: usize) -> Option<&'static str> {
    let next = toks.get(i + 1)?;
    let target = NARROW_TARGETS.iter().find(|t| next.is_ident(t)).copied()?;
    let mut p = i.checked_sub(1)?;
    if toks[p].is_punct('?') {
        p = p.checked_sub(1)?;
    }
    if toks[p].kind == TokKind::Ident {
        if LENISH_IDENTS.contains(&toks[p].text.as_str()) {
            return Some(target);
        }
        return None;
    }
    if toks[p].is_punct(')') {
        // Walk back to the matching `(` and read the callee name.
        let mut depth = 1usize;
        let mut q = p;
        while depth > 0 {
            q = q.checked_sub(1)?;
            if toks[q].is_punct(')') {
                depth += 1;
            } else if toks[q].is_punct('(') {
                depth -= 1;
            }
        }
        let callee = q.checked_sub(1).map(|c| &toks[c])?;
        if callee.kind == TokKind::Ident && LENISH_CALLEES.contains(&callee.text.as_str()) {
            return Some(target);
        }
    }
    None
}

// ---------------------------------------------------------------------
// Rule 2: unsafe audit
// ---------------------------------------------------------------------

/// The one file allowed to hold `unsafe` code: the counting allocator
/// the fuzz harness and the heap tests share. The library crates also
/// forbid `unsafe_code` at compile time; this rule covers what those
/// attributes do not reach (binaries, integration tests, examples).
pub const UNSAFE_MODULE: &str = "crates/fgrv-fuzz/src/alloc.rs";

/// Every `unsafe` keyword must sit in [`UNSAFE_MODULE`] and carry an
/// adjacent `// SAFETY:` comment (within the five lines above it).
pub fn unsafe_audit(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for t in &ctx.lexed.tokens {
        if !t.is_ident("unsafe") {
            continue;
        }
        if ctx.rel_path != UNSAFE_MODULE {
            out.push(diag(
                ctx,
                "unsafe-audit",
                t.line,
                format!("`unsafe` outside `{UNSAFE_MODULE}`, the one module allowed to hold it"),
            ));
        }
        let lo = t.line.saturating_sub(5);
        if !ctx.lexed.comment_in_lines_contains(lo, t.line, "SAFETY:") {
            out.push(diag(
                ctx,
                "unsafe-audit",
                t.line,
                "`unsafe` without an adjacent `// SAFETY:` comment: state the soundness \
                 argument directly above the unsafe site"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule 3: atomics discipline
// ---------------------------------------------------------------------

/// Every atomic `Ordering::` use in non-test code is a finding unless a
/// committed allowlist entry documents its happens-before argument —
/// abort flags, queue counters, and override cells each have one.
pub fn atomics_discipline(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.is_test_file {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("Ordering") || ctx.in_test_region(t.line) {
            continue;
        }
        let path = toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|a| a.is_punct(':'));
        let Some(variant) = toks.get(i + 3) else {
            continue;
        };
        if path && ATOMIC_ORDERINGS.iter().any(|v| variant.is_ident(v)) {
            out.push(diag(
                ctx,
                "atomics-discipline",
                t.line,
                format!(
                    "`Ordering::{}` outside the allowlist: add a lint-allow.toml entry whose \
                     justification states the happens-before argument",
                    variant.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule 4: format-constant consistency
// ---------------------------------------------------------------------

/// A format constant extracted from source.
#[derive(Debug, Clone)]
pub struct FormatConst {
    /// Constant name (`STORE_MAGIC`, `TAG_HELLO`, ...).
    pub name: String,
    /// Its value.
    pub value: ConstVal,
    /// Repo-relative defining file.
    pub file: String,
    /// 1-indexed line of the `const` keyword.
    pub line: usize,
}

/// Value of a format constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstVal {
    /// A byte-string magic (`*b"FGRVPROF"`).
    Bytes(Vec<u8>),
    /// An integer (version, tag, limit).
    Int(u64),
}

/// Extracts `MAGIC`/`VERSION`/`TAG_*`/`SECTION_*`/`MAX_*`
/// constants from a file's non-test code.
pub fn extract_format_consts(ctx: &FileCtx<'_>, out: &mut Vec<FormatConst>) {
    if ctx.is_test_file {
        return;
    }
    let toks = &ctx.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("const") || ctx.in_test_region(t.line) {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        let name = &name_tok.text;
        let interesting = name.ends_with("_MAGIC")
            || name.ends_with("_VERSION")
            || name.starts_with("TAG_")
            || name.starts_with("SECTION_")
            || name.starts_with("MAX_");
        if name_tok.kind != TokKind::Ident || !interesting {
            continue;
        }
        let Some(eq) = toks[i..].iter().position(|t| t.is_punct('=')) else {
            continue;
        };
        let val_toks: Vec<&Token> = toks[i + eq + 1..]
            .iter()
            .take_while(|t| !t.is_punct(';'))
            .collect();
        if let Some(value) = parse_const_value(&val_toks) {
            out.push(FormatConst {
                name: name.clone(),
                value,
                file: ctx.rel_path.clone(),
                line: t.line,
            });
        }
    }
}

/// Parses the right-hand side of a format constant: `*b"…"`, an integer
/// literal, `a << b`, or `u32::MAX` (with an optional cast). Anything
/// else is ignored (not every constant matching the name filter is
/// checkable).
fn parse_const_value(toks: &[&Token]) -> Option<ConstVal> {
    match toks {
        // `u32::MAX as usize` — the decode-cap idiom (`MAX_SEQ_LEN`).
        [t, c1, c2, m, ..]
            if t.is_ident("u32") && c1.is_punct(':') && c2.is_punct(':') && m.is_ident("MAX") =>
        {
            Some(ConstVal::Int(u64::from(u32::MAX)))
        }
        [star, s] if star.is_punct('*') && s.kind == TokKind::Str => {
            byte_string_value(&s.text).map(ConstVal::Bytes)
        }
        [s] if s.kind == TokKind::Str => byte_string_value(&s.text).map(ConstVal::Bytes),
        [n] if n.kind == TokKind::Num => int_value(&n.text).map(ConstVal::Int),
        [a, l1, l2, b]
            if a.kind == TokKind::Num
                && l1.is_punct('<')
                && l2.is_punct('<')
                && b.kind == TokKind::Num =>
        {
            let base = int_value(&a.text)?;
            let shift = int_value(&b.text)?;
            base.checked_shl(u32::try_from(shift).ok()?)
                .map(ConstVal::Int)
        }
        _ => None,
    }
}

/// Decodes a simple `b"…"` literal (no escapes — magics are plain
/// ASCII) to its bytes.
fn byte_string_value(text: &str) -> Option<Vec<u8>> {
    let body = text.strip_prefix("b\"")?.strip_suffix('"')?;
    if body.contains('\\') {
        return None;
    }
    Some(body.as_bytes().to_vec())
}

/// Parses an integer literal with optional `0x` prefix, `_` separators,
/// and a type suffix.
fn int_value(text: &str) -> Option<u64> {
    let t: String = text.chars().filter(|c| *c != '_').collect();
    let (digits, radix) = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(hex) => (hex, 16),
        None => (t.as_str(), 10),
    };
    let digits = digits.trim_end_matches(|c: char| c.is_ascii_alphabetic() && radix == 10);
    // Strip `u32`/`u64`-style suffixes from hex too (cannot confuse with
    // hex digits once a non-hex letter appears).
    let digits = match digits.find(|c: char| !c.is_digit(radix)) {
        Some(pos) => &digits[..pos],
        None => digits,
    };
    u64::from_str_radix(digits, radix).ok()
}

/// A parsed `| n | `Name` |` table row from the formats doc.
#[derive(Debug)]
struct DocRow {
    number: u64,
    name: String,
}

/// Cross-checks the extracted constants against the formats document
/// and the committed golden fixtures.
pub fn check_format_consts(
    consts: &[FormatConst],
    doc: Option<&str>,
    doc_rel: &str,
    fixtures: &[(String, Vec<u8>)],
    out: &mut Vec<Diagnostic>,
) {
    let mut push = |file: &str, line: usize, message: String| {
        out.push(Diagnostic {
            rule: "format-constants",
            file: file.to_string(),
            line,
            snippet: String::new(),
            message,
        });
    };

    // Duplicate definitions with different values are drift by
    // definition.
    for (i, a) in consts.iter().enumerate() {
        for b in &consts[i + 1..] {
            if a.name == b.name && a.value != b.value {
                push(
                    &b.file,
                    b.line,
                    format!(
                        "`{}` is defined with a different value in {} (line {})",
                        b.name, a.file, a.line
                    ),
                );
            }
        }
    }

    let Some(doc) = doc else {
        if !consts.is_empty() {
            push(
                doc_rel,
                0,
                "format constants exist in source but the formats document is missing".to_string(),
            );
        }
        return;
    };
    let rows = parse_doc_rows(doc);

    for c in consts {
        match (c.name.as_str(), &c.value) {
            (name, ConstVal::Bytes(bytes)) if name.ends_with("_MAGIC") => {
                if let Ok(ascii) = std::str::from_utf8(bytes) {
                    if !doc.contains(ascii) {
                        push(
                            doc_rel,
                            0,
                            format!("doc never names the `{ascii}` magic ({name})"),
                        );
                    }
                }
                let hex: Vec<String> = bytes.iter().map(|b| format!("{b:02X}")).collect();
                if !doc.contains(&hex.join(" ")) {
                    push(
                        doc_rel,
                        0,
                        format!(
                            "doc never spells out the `{name}` bytes ({}); the layout table \
                             must show them",
                            hex.join(" ")
                        ),
                    );
                }
                // The format-summary row must cite the version constant
                // paired with this magic (same `X_` prefix).
                if let (Ok(ascii), Some(version)) =
                    (std::str::from_utf8(bytes), paired_version(consts, name))
                {
                    let cited = doc.lines().any(|l| {
                        l.contains(&format!("`{ascii}`")) && first_numeric_cell(l) == Some(version)
                    });
                    if !cited {
                        push(
                            doc_rel,
                            0,
                            format!(
                                "no doc table row pairs the `{ascii}` magic with version \
                                 {version}"
                            ),
                        );
                    }
                }
            }
            (name, ConstVal::Int(v)) if name.starts_with("TAG_") => {
                let suffix: String = name["TAG_".len()..].replace('_', "");
                match rows
                    .iter()
                    .find(|r| r.name.replace('_', "").eq_ignore_ascii_case(&suffix))
                {
                    Some(row) if row.number == *v => {}
                    Some(row) => push(
                        doc_rel,
                        0,
                        format!(
                            "doc frame table gives `{}` tag {} but source says {v} ({name})",
                            row.name, row.number
                        ),
                    ),
                    None => push(
                        doc_rel,
                        0,
                        format!("doc frame table has no row for `{name}` (tag {v})"),
                    ),
                }
            }
            (name, ConstVal::Int(v)) if name.starts_with("SECTION_") => {
                let word = name["SECTION_".len()..].to_ascii_lowercase();
                if !doc.contains(&format!("{v} = {word}")) {
                    push(
                        doc_rel,
                        0,
                        format!("doc never states `{v} = {word}` for section tag {name}"),
                    );
                }
            }
            (name, ConstVal::Int(v)) if name.starts_with("MAX_") => {
                // Decode caps may be spelled `2^n`, `1 << n`, `u32::MAX`,
                // or in plain decimal — any of them pins the value.
                let spellings: Vec<String> = if v.is_power_of_two() {
                    vec![
                        format!("2^{}", v.trailing_zeros()),
                        format!("1 << {}", v.trailing_zeros()),
                    ]
                } else if *v == u64::from(u32::MAX) {
                    vec!["u32::MAX".to_string(), format!("{v}")]
                } else {
                    vec![format!("{v}")]
                };
                if !spellings.iter().any(|s| doc.contains(s.as_str())) {
                    push(
                        doc_rel,
                        0,
                        format!(
                            "doc never states the `{name}` cap (accepted spellings: {})",
                            spellings.join(", ")
                        ),
                    );
                }
            }
            _ => {}
        }
    }

    // Reverse direction: a doc row naming a known tag must agree with
    // the source value (catches the doc drifting ahead of the code).
    for row in &rows {
        let tag_name = format!("TAG_{}", row.name.to_ascii_uppercase());
        if let Some(c) = consts.iter().find(|c| c.name == tag_name) {
            if c.value != ConstVal::Int(row.number) {
                push(
                    doc_rel,
                    0,
                    format!(
                        "doc row `{}` = {} disagrees with {} in {} (line {})",
                        row.name, row.number, tag_name, c.file, c.line
                    ),
                );
            }
        }
    }

    // Golden fixtures must open with the documented magic, version, and
    // a declared section tag.
    let sections: Vec<u64> = consts
        .iter()
        .filter(|c| c.name.starts_with("SECTION_"))
        .filter_map(|c| match c.value {
            ConstVal::Int(v) => Some(v),
            ConstVal::Bytes(_) => None,
        })
        .collect();
    for (name, bytes) in fixtures {
        let (magic_name, version_name, expect_section) = if name.ends_with(".fgrvckpt") {
            ("CKPT_MAGIC", "CKPT_VERSION", true)
        } else {
            ("STORE_MAGIC", "STORE_VERSION", false)
        };
        let Some(magic) = find_const_bytes(consts, magic_name) else {
            continue;
        };
        if bytes.len() < 16 {
            push(name, 0, "fixture is shorter than one header".to_string());
            continue;
        }
        if bytes[0..8] != magic[..] {
            push(
                name,
                0,
                format!("fixture magic does not match {magic_name}"),
            );
        }
        if let Some(version) = find_const_int(consts, version_name) {
            let got = u64::from(u32::from_le_bytes([
                bytes[8], bytes[9], bytes[10], bytes[11],
            ]));
            if got != version {
                push(
                    name,
                    0,
                    format!("fixture claims version {got} but {version_name} is {version}"),
                );
            }
        }
        if expect_section && !sections.is_empty() {
            let got = u64::from(u32::from_le_bytes([
                bytes[12], bytes[13], bytes[14], bytes[15],
            ]));
            if !sections.contains(&got) {
                push(
                    name,
                    0,
                    format!("fixture section tag {got} is not a declared SECTION_* value"),
                );
            }
        }
    }
}

/// The `X_VERSION` integer paired with `X_MAGIC`, if declared.
fn paired_version(consts: &[FormatConst], magic_name: &str) -> Option<u64> {
    let prefix = magic_name.strip_suffix("MAGIC")?;
    find_const_int(consts, &format!("{prefix}VERSION"))
}

fn find_const_bytes<'a>(consts: &'a [FormatConst], name: &str) -> Option<&'a [u8]> {
    consts.iter().find_map(|c| match (&c.name, &c.value) {
        (n, ConstVal::Bytes(b)) if n == name => Some(b.as_slice()),
        _ => None,
    })
}

fn find_const_int(consts: &[FormatConst], name: &str) -> Option<u64> {
    consts.iter().find_map(|c| match (&c.name, &c.value) {
        (n, ConstVal::Int(v)) if n == name => Some(*v),
        _ => None,
    })
}

/// Parses markdown table rows whose first cell is a number and whose
/// second cell is a backticked name — the frame-tag table shape.
fn parse_doc_rows(doc: &str) -> Vec<DocRow> {
    let mut rows = Vec::new();
    for line in doc.lines() {
        let trimmed = line.trim();
        if !trimmed.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = trimmed
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if cells.len() < 2 {
            continue;
        }
        let Ok(number) = cells[0].parse::<u64>() else {
            continue;
        };
        let Some(name) = cells[1].strip_prefix('`').and_then(|s| s.strip_suffix('`')) else {
            continue;
        };
        rows.push(DocRow {
            number,
            name: name.to_string(),
        });
    }
    rows
}

/// First `|`-cell of `line` that parses as an integer, if any.
fn first_numeric_cell(line: &str) -> Option<u64> {
    line.trim()
        .trim_matches('|')
        .split('|')
        .map(str::trim)
        .find_map(|c| c.parse::<u64>().ok())
}

// ---------------------------------------------------------------------
// Rule 5: annotation hygiene
// ---------------------------------------------------------------------

/// `#[allow(...)]`, `#[expect(...)]`, and bare `#[ignore]` require a
/// trailing justification comment on the same line
/// (`#[ignore = "reason"]` is self-justifying).
pub fn annotation_hygiene(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_punct('#') {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct('!')) {
            j += 1;
        }
        if !toks.get(j).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        // Scan the attribute to its closing `]`, looking for the lint
        // suppressions (covers `cfg_attr(…, allow(…))` too).
        let mut depth = 0usize;
        let mut needs = None;
        let mut self_justified = false;
        let mut k = j;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokKind::Ident {
                match t.text.as_str() {
                    "allow" | "expect" => needs = Some(t.text.clone()),
                    "ignore" => {
                        needs = Some(t.text.clone());
                        self_justified = toks.get(k + 1).is_some_and(|n| n.is_punct('='));
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        if let Some(attr) = needs {
            if !self_justified && ctx.lexed.trailing_comment(toks[i].line).is_none() {
                out.push(diag(
                    ctx,
                    "annotation-hygiene",
                    toks[i].line,
                    format!(
                        "`#[{attr}(…)]` without a trailing justification comment: say why the \
                         suppressed lint does not apply"
                    ),
                ));
            }
        }
        i = k.max(i + 1);
    }
}
