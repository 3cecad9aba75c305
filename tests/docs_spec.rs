//! Keeps the prose documentation honest: `docs/*.md` file references
//! must resolve, and the normative claims in `docs/FORMATS.md` (magics,
//! versions, header layouts, frame grammar) must match the shipped
//! codecs and the committed golden fixtures byte for byte.

use std::path::Path;

use fingrav::core::checkpoint::{CKPT_MAGIC, CKPT_VERSION};
use fingrav::core::profile::ProfilePoint;
use fingrav::core::store::{
    ColumnLayout, ProfileStore, ProfileStoreView, STORE_MAGIC, STORE_VERSION,
};
use fingrav::core::transport::{Frame, MAX_FRAME_LEN, WIRE_MAGIC, WIRE_VERSION};
use fingrav::sim::ComponentPower;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read_doc(name: &str) -> String {
    let path = repo_root().join("docs").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} must exist and be readable: {e}", path.display()))
}

/// Every relative markdown link in `docs/*.md` (and the README) must
/// point at a file or directory that exists.
#[test]
fn doc_links_resolve() {
    let mut checked = 0usize;
    let mut docs: Vec<(String, std::path::PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(repo_root().join("docs")).expect("docs/ exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "md") {
            docs.push((std::fs::read_to_string(&path).unwrap(), path));
        }
    }
    docs.push((
        std::fs::read_to_string(repo_root().join("README.md")).unwrap(),
        repo_root().join("README.md"),
    ));
    for (text, doc_path) in &docs {
        let base = doc_path.parent().unwrap();
        // Markdown links: `](target)`. External URLs and intra-page
        // anchors are skipped; `#section` suffixes are stripped.
        for (pos, _) in text.match_indices("](") {
            let rest = &text[pos + 2..];
            let Some(end) = rest.find(')') else { continue };
            let target = &rest[..end];
            if target.starts_with("http") || target.starts_with('#') || target.is_empty() {
                continue;
            }
            let target = target.split('#').next().unwrap();
            let resolved = base.join(target);
            assert!(
                resolved.exists(),
                "{} links to `{target}`, which does not resolve ({})",
                doc_path.display(),
                resolved.display()
            );
            checked += 1;
        }
    }
    assert!(
        checked >= 10,
        "expected to check many links, found {checked}"
    );
}

/// The version constants and magics cited by FORMATS.md are the shipped
/// ones — the spec cannot silently drift from the code.
#[test]
fn formats_spec_cites_the_shipped_constants() {
    let spec = read_doc("FORMATS.md");

    for (magic, version, expected) in [
        (STORE_MAGIC, STORE_VERSION, 1),
        (CKPT_MAGIC, CKPT_VERSION, 1),
        // The wire moved to v2 when the Heartbeat frame landed; the
        // store and checkpoint encodings are unchanged.
        (WIRE_MAGIC, WIRE_VERSION, 2),
    ] {
        let name = std::str::from_utf8(&magic).unwrap();
        assert!(spec.contains(name), "spec must name the `{name}` magic");
        // The hex spelling of the magic (e.g. "46 47 52 56 50 52 4F 46").
        let hex: Vec<String> = magic.iter().map(|b| format!("{b:02X}")).collect();
        assert!(
            spec.contains(&hex.join(" ")),
            "spec must spell out the `{name}` magic bytes"
        );
        assert_eq!(
            version, expected,
            "this spec revision documents `{name}` version {expected}"
        );
    }

    // The transport protocol version is recorded in exactly one code
    // location; the spec cites it by name and value.
    assert!(
        spec.contains(&format!("WIRE_VERSION = {WIRE_VERSION}")),
        "spec must cite WIRE_VERSION and its value"
    );
    assert!(
        spec.contains("MAX_FRAME_LEN"),
        "spec must name the frame length ceiling"
    );
    let pow = MAX_FRAME_LEN.trailing_zeros();
    assert_eq!(
        1u64 << pow,
        MAX_FRAME_LEN,
        "frame ceiling is a power of two"
    );
    assert!(
        spec.contains(&format!("2^{pow}")),
        "spec must state the frame length ceiling 2^{pow}"
    );
}

/// The committed golden fixtures open with exactly the header this spec
/// describes: magic, version 1, and the documented section tags.
#[test]
fn golden_fixture_headers_match_the_spec() {
    for (file, section) in [
        ("golden_manifest.fgrvckpt", 1u32),
        ("golden_entry.fgrvckpt", 2u32),
        ("golden_stage.fgrvckpt", 3u32),
    ] {
        let path = repo_root().join("tests/data").join(file);
        let bytes = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("golden fixture {file} must exist: {e}"));
        assert_eq!(&bytes[0..8], &CKPT_MAGIC, "{file}: magic");
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            CKPT_VERSION,
            "{file}: version"
        );
        assert_eq!(
            u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
            section,
            "{file}: section tag"
        );
    }
}

/// A freshly encoded store lays out exactly as §2 documents: header
/// offsets, column order, and total size.
#[test]
fn fgrvprof_layout_matches_the_spec() {
    let mut store = ProfileStore::new();
    for i in 0..3u32 {
        store.push(ProfilePoint {
            run: i,
            exec_pos: Some(i * 2),
            toi_ns: Some(100.0 + f64::from(i)),
            run_time_ns: 10.0 * f64::from(i),
            power: ComponentPower::new(1.0, 2.0, 3.0, 4.0),
        });
    }
    let bytes = store.to_bytes();
    let n = 3usize;
    assert_eq!(&bytes[0..8], &STORE_MAGIC);
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        STORE_VERSION
    );
    assert_eq!(u32::from_le_bytes(bytes[12..16].try_into().unwrap()), 0);
    assert_eq!(u64::from_le_bytes(bytes[16..24].try_into().unwrap()), 3);
    // 24-byte header, two u32 columns, six f64 columns, one bitmap word.
    assert_eq!(bytes.len(), 24 + n * (4 + 4 + 8 * 6) + 8);
    // First run value sits right after the header; first exec_pos right
    // after the run column; the bitmap word is last with 3 bits set.
    assert_eq!(u32::from_le_bytes(bytes[24..28].try_into().unwrap()), 0);
    assert_eq!(
        u32::from_le_bytes(bytes[24 + 4 * n..28 + 4 * n].try_into().unwrap()),
        0
    );
    let bitmap = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
    assert_eq!(bitmap, 0b111);
}

/// §2.1's in-place-read rules hold as documented: `ColumnLayout` matches
/// the §2 offset table, the documented total-size formula is exact, the
/// spec states the unaligned-read rule by name, and a store embedded at
/// an *odd* byte offset (so every f64 block is misaligned) still decodes
/// in place to exactly the owned values.
#[test]
fn fgrvprof_inplace_read_rules_match_the_spec() {
    let spec = read_doc("FORMATS.md");
    for phrase in [
        "Alignment and in-place reads",
        "No alignment is guaranteed",
        "from_le_bytes",
        "f64::from_bits",
        "ColumnLayout",
    ] {
        assert!(
            spec.contains(phrase),
            "FORMATS.md §2.1 must state `{phrase}`"
        );
    }
    // The architecture doc carries the matching data-flow section.
    let arch = read_doc("ARCHITECTURE.md");
    for phrase in [
        "Zero-copy data flow",
        "ProfileStoreView",
        "extend_from_view",
    ] {
        assert!(
            arch.contains(phrase),
            "ARCHITECTURE.md must describe `{phrase}`"
        );
    }

    // ColumnLayout is the offset table of §2 in executable form.
    for n in [0usize, 1, 3, 64, 65, 1000] {
        let l = ColumnLayout::for_len(n).expect("layout fits");
        assert_eq!(l.run, 24);
        assert_eq!(l.exec_pos, 24 + 4 * n);
        assert_eq!(l.toi_ns, 24 + 8 * n);
        assert_eq!(l.run_time_ns, l.toi_ns + 8 * n);
        assert_eq!(l.xcd, l.run_time_ns + 8 * n);
        assert_eq!(l.iod, l.xcd + 8 * n);
        assert_eq!(l.hbm, l.iod + 8 * n);
        assert_eq!(l.rest, l.hbm + 8 * n);
        assert_eq!(l.bitmap, l.rest + 8 * n);
        // The documented closed form for the total size.
        assert_eq!(l.total, 24 + 2 * 4 * n + 6 * 8 * n + 8 * n.div_ceil(64));
    }

    // In-place decode at an odd offset: shift the encoding by one byte so
    // no f64 block is 8-aligned, and the view must still serve exact
    // values (the unaligned-read rule in action).
    let mut store = ProfileStore::new();
    for i in 0..5u32 {
        store.push(ProfilePoint {
            run: i,
            exec_pos: Some(i),
            toi_ns: Some(0.1 + f64::from(i)),
            run_time_ns: -3.5 * f64::from(i),
            power: ComponentPower::new(1.25, 2.5, 3.75, 5.0),
        });
    }
    let mut shifted = vec![0xAAu8];
    shifted.extend_from_slice(&store.to_bytes());
    let view = ProfileStoreView::new(&shifted[1..]).expect("misaligned buffer decodes");
    assert_eq!(view.to_store(), store);
    assert_eq!(view.mean_power(), store.mean_power());
}

/// A wire frame lays out exactly as §4.2 documents: u32 tag, u64 payload
/// length, payload.
#[test]
fn fgrvwire_frame_layout_matches_the_spec() {
    let mut bytes = Vec::new();
    Frame::Assign { index: 7 }.write_to(&mut bytes).unwrap();
    assert_eq!(u32::from_le_bytes(bytes[0..4].try_into().unwrap()), 5);
    assert_eq!(u64::from_le_bytes(bytes[4..12].try_into().unwrap()), 8);
    assert_eq!(u64::from_le_bytes(bytes[12..20].try_into().unwrap()), 7);
    assert_eq!(bytes.len(), 20);

    let mut empty = Vec::new();
    Frame::Request.write_to(&mut empty).unwrap();
    assert_eq!(u32::from_le_bytes(empty[0..4].try_into().unwrap()), 4);
    assert_eq!(u64::from_le_bytes(empty[4..12].try_into().unwrap()), 0);
    assert_eq!(empty.len(), 12);
}

/// The transport-hardening claims stay in the docs: FORMATS.md must
/// carry the v2 heartbeat frame row and the deadline fault rules, and
/// ARCHITECTURE.md must describe the campaign service the daemon mode
/// is built on.
#[test]
fn transport_hardening_sections_match_the_code() {
    let spec = read_doc("FORMATS.md");
    for phrase in [
        "`Heartbeat`",
        "Deadline rule (v2)",
        "byte-silence",
        "idle_timeout",
        "io_timeout",
        "evicted",
    ] {
        assert!(
            spec.contains(phrase),
            "FORMATS.md §4 must state `{phrase}` (heartbeat/deadline rules)"
        );
    }
    let arch = read_doc("ARCHITECTURE.md");
    for phrase in [
        "Campaign service",
        "CampaignService",
        "CampaignTicket",
        "DeadlineLapsed",
        "Deadline discipline",
        "exponential backoff",
        "DENY_SEQUENCE_EARLY",
    ] {
        assert!(
            arch.contains(phrase),
            "ARCHITECTURE.md must describe `{phrase}` (campaign service section)"
        );
    }
}

/// The architecture doc's engine hot-loop section names the actual
/// scheduling and dispatch machinery the engine is built on, so the doc
/// cannot silently rot away from the code.
#[test]
fn engine_hot_loop_section_matches_the_engine() {
    let arch = read_doc("ARCHITECTURE.md");
    for phrase in [
        "Engine hot loop",
        "HybridQueue",
        "sequence counter",
        "monomorphizes",
        "TelemetrySink",
        "run_script_with",
        "EngineStats",
        "SampleRing",
        "pm_exact_folds",
    ] {
        assert!(
            arch.contains(phrase),
            "ARCHITECTURE.md engine hot-loop section must describe `{phrase}`"
        );
    }
}

/// The fuzzing doc's target table mirrors the shipped target list
/// (`fgrv_fuzz::targets::TARGETS`) row for row, in order: same count,
/// same CLI names, same descriptions. Adding, removing, renaming, or
/// re-describing a fuzz target without updating `docs/FUZZING.md`
/// fails here.
#[test]
fn fuzzing_doc_matches_the_shipped_targets() {
    let doc = read_doc("FUZZING.md");
    let rows: Vec<&str> = doc
        .lines()
        .filter(|l| l.starts_with("| `") && l.ends_with('|'))
        .collect();
    assert_eq!(
        rows.len(),
        fgrv_fuzz::targets::TARGETS.len(),
        "FUZZING.md target table must have one row per shipped target"
    );
    for (row, info) in rows.iter().zip(fgrv_fuzz::targets::TARGETS) {
        assert!(
            row.starts_with(&format!("| `{}` |", info.name)),
            "FUZZING.md table row order/name drifted: expected `{}`, row is {row:?}",
            info.name
        );
        assert!(
            row.contains(info.description),
            "FUZZING.md row for `{}` must carry its shipped description {:?}",
            info.name,
            info.description
        );
    }

    // The oracle contract stays documented by name.
    for phrase in [
        "No panics",
        "Bounded allocation",
        "One decoder per format",
        "Round trips",
        "NaN-safe",
        "tests/data/fuzz/",
        "--features cover",
    ] {
        assert!(
            doc.contains(phrase),
            "FUZZING.md must state `{phrase}` (oracle/corpus contract)"
        );
    }

    // The committed corpus the doc describes exists for every target.
    for info in fgrv_fuzz::targets::TARGETS {
        let dir = repo_root().join("tests/data/fuzz").join(info.name);
        assert!(
            dir.is_dir() && std::fs::read_dir(&dir).unwrap().next().is_some(),
            "committed corpus for `{}` missing or empty at {}",
            info.name,
            dir.display()
        );
    }
}

/// The analysis doc's rule catalogue is cross-checked against the
/// linter's registered rule table: every rule appears as a table row,
/// the row count matches (no phantom documented rules), and the doc
/// names exactly the suppressible rules in its allowlist section.
#[test]
fn analysis_doc_matches_the_registered_lint_rules() {
    let doc = read_doc("ANALYSIS.md");
    let table_rows: Vec<&str> = doc
        .lines()
        .filter(|l| l.starts_with("| `") && l.ends_with("|"))
        .collect();
    assert_eq!(
        table_rows.len(),
        fgrv_lint::RULES.len(),
        "ANALYSIS.md rule table must have one row per registered rule"
    );
    for rule in fgrv_lint::RULES {
        let cell = format!("| `{}` |", rule.name);
        assert!(
            table_rows.iter().any(|row| row.starts_with(&cell)),
            "ANALYSIS.md rule table is missing a row for `{}`",
            rule.name
        );
        if rule.suppressible {
            assert!(
                doc.contains(&format!("`{}`, ", rule.name))
                    || doc.contains(&format!(", `{}`", rule.name)),
                "ANALYSIS.md must list `{}` among the suppressible rules",
                rule.name
            );
        }
    }
    let suppressible = fgrv_lint::RULES.iter().filter(|r| r.suppressible).count();
    assert_eq!(
        suppressible, 2,
        "the doc describes exactly two suppressible rules"
    );
}
