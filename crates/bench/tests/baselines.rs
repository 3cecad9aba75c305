//! The committed regression-gate baselines stay readable: every file
//! under `baselines/` parses with the criterion shim's reader and
//! re-renders to identical bytes, so the `profile_store` and `engine`
//! gates compare against exactly what was committed.

use std::path::PathBuf;

use criterion::BaselineRecord;

#[test]
fn committed_baselines_round_trip_byte_identically() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("baselines");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("baselines directory")
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    files.sort();
    assert!(
        !files.is_empty(),
        "no committed baselines under {}",
        dir.display()
    );
    for path in files {
        let text = std::fs::read_to_string(&path).expect("baseline is UTF-8");
        let record =
            BaselineRecord::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(record.baseline, "committed", "{}", path.display());
        assert_eq!(
            record.render(),
            text,
            "{} re-renders differently",
            path.display()
        );
    }
}
