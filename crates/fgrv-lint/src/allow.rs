//! The committed allowlist (`lint-allow.toml`).
//!
//! The file uses a minimal TOML subset, parsed here by hand (no
//! crates.io, like everything else in this tool): `#` comments,
//! `[[table]]` array-of-table headers, and `key = value` pairs where a
//! value is a double-quoted string (with `\"`, `\\`, `\n`, `\t`
//! escapes) or an unsigned integer. That subset is all the format needs;
//! anything else is a hard parse error so a typo cannot silently disable
//! an entry.
//!
//! Every entry carries a mandatory, non-empty `justification` string —
//! the point of the file is that suppressing a diagnostic is an
//! explicit, reviewed, *argued* decision.

use std::fmt;

/// One `[[allow]]` entry: suppresses diagnostics of `rule` in `file`
/// whose flagged line contains `pattern`, at most `max` times.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule name the entry suppresses (must be a suppressible rule).
    pub rule: String,
    /// Repo-relative file the entry applies to (forward slashes).
    pub file: String,
    /// Substring the flagged source line must contain.
    pub pattern: String,
    /// Why the finding is acceptable. Required, non-empty.
    pub justification: String,
    /// Maximum number of findings the entry may absorb (`None` =
    /// unbounded). Findings beyond the cap are reported normally.
    pub max: Option<u64>,
    /// 1-indexed line of the entry's `[[allow]]` header.
    pub line: usize,
}

/// Parse error with its 1-indexed line.
#[derive(Debug)]
pub struct ParseError {
    /// 1-indexed line of the offending construct.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

/// A raw `key = value` pair.
#[derive(Debug, Clone)]
enum Value {
    Str(String),
    Int(u64),
}

/// A raw parsed table with its header name and line.
#[derive(Debug)]
struct Table {
    name: String,
    line: usize,
    pairs: Vec<(String, Value)>,
}

fn parse_tables(src: &str) -> Result<Vec<Table>, ParseError> {
    let mut tables: Vec<Table> = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            tables.push(Table {
                name: name.trim().to_string(),
                line: lineno,
                pairs: Vec::new(),
            });
            continue;
        }
        let Some(eq) = line.find('=') else {
            return Err(ParseError {
                line: lineno,
                msg: format!("expected `key = value` or `[[table]]`, got `{line}`"),
            });
        };
        let key = line[..eq].trim().to_string();
        let val = parse_value(line[eq + 1..].trim(), lineno)?;
        let Some(table) = tables.last_mut() else {
            return Err(ParseError {
                line: lineno,
                msg: format!("`{key}` appears before any `[[table]]` header"),
            });
        };
        table.pairs.push((key, val));
    }
    Ok(tables)
}

/// Strips a trailing `#` comment, respecting string quoting.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escaped = false;
    }
    line
}

fn parse_value(s: &str, line: usize) -> Result<Value, ParseError> {
    if let Some(rest) = s.strip_prefix('"') {
        let mut out = String::new();
        let mut chars = rest.chars();
        while let Some(c) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    other => {
                        return Err(ParseError {
                            line,
                            msg: format!("unsupported escape `\\{}`", other.unwrap_or(' ')),
                        })
                    }
                },
                '"' => {
                    let rest: String = chars.collect();
                    if !rest.trim().is_empty() {
                        return Err(ParseError {
                            line,
                            msg: format!("trailing content after string: `{}`", rest.trim()),
                        });
                    }
                    return Ok(Value::Str(out));
                }
                c => out.push(c),
            }
        }
        Err(ParseError {
            line,
            msg: "unterminated string".to_string(),
        })
    } else if s.chars().all(|c| c.is_ascii_digit()) && !s.is_empty() {
        s.parse::<u64>().map(Value::Int).map_err(|e| ParseError {
            line,
            msg: format!("bad integer `{s}`: {e}"),
        })
    } else {
        Err(ParseError {
            line,
            msg: format!("expected a quoted string or integer, got `{s}`"),
        })
    }
}

fn require_str(table: &Table, key: &str) -> Result<String, ParseError> {
    let error = |msg| ParseError {
        line: table.line,
        msg,
    };
    match table.pairs.iter().find(|(k, _)| k == key) {
        Some((_, Value::Str(s))) => Ok(s.clone()),
        Some((_, Value::Int(_))) => Err(error(format!("`{key}` must be a string"))),
        None => Err(error(format!("entry is missing `{key}`"))),
    }
}

/// Parses a `lint-allow.toml` body into `[[allow]]` entries.
pub fn parse_allowlist(src: &str) -> Result<Vec<AllowEntry>, ParseError> {
    let mut out = Vec::new();
    for t in parse_tables(src)? {
        if t.name != "allow" {
            return Err(ParseError {
                line: t.line,
                msg: format!("unknown table `[[{}]]` (expected `[[allow]]`)", t.name),
            });
        }
        let mut max = None;
        for (k, v) in &t.pairs {
            if k == "max" {
                max = match v {
                    Value::Int(n) => Some(*n),
                    Value::Str(_) => {
                        return Err(ParseError {
                            line: t.line,
                            msg: "`max` must be an integer".to_string(),
                        })
                    }
                };
            }
        }
        out.push(AllowEntry {
            rule: require_str(&t, "rule")?,
            file: require_str(&t, "file")?,
            pattern: require_str(&t, "pattern")?,
            justification: require_str(&t, "justification")?,
            max,
            line: t.line,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_with_comments_and_escapes() {
        let src = r##"
# header comment
[[allow]]
rule = "codec-hygiene"     # trailing comment
file = "crates/core/src/store/mod.rs"
pattern = "expect(\"4-byte chunk\")"
justification = "chunks_exact(4) yields 4-byte slices"
max = 3
"##;
        let entries = parse_allowlist(src).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].pattern, "expect(\"4-byte chunk\")");
        assert_eq!(entries[0].max, Some(3));
    }

    #[test]
    fn missing_justification_is_a_parse_error() {
        let src = "[[allow]]\nrule = \"x\"\nfile = \"y\"\npattern = \"z\"\n";
        assert!(parse_allowlist(src).is_err());
    }

    #[test]
    fn unknown_table_rejected() {
        assert!(parse_allowlist("[[typo]]\n").is_err());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let src =
            "[[allow]]\nrule = \"r\"\nfile = \"f\"\npattern = \"a # b\"\njustification = \"j\"\n";
        assert_eq!(parse_allowlist(src).unwrap()[0].pattern, "a # b");
    }
}
