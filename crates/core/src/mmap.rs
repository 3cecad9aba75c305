//! Whole-file reads of persisted artefacts for zero-copy decoding.
//!
//! [`MappedProfile`] reads a file into one exactly sized buffer with a
//! single [`std::fs::read`] and exposes its bytes: hand
//! [`MappedProfile::bytes`] to [`ProfileStoreView`] (for `.fgrv` profile
//! stores) or to the checkpoint entry parser (for `.fgrvckpt` shard
//! entries) and the kernels run straight over that buffer — no
//! per-column `Vec`, no decode copy.
//!
//! Reading beats mapping at these file sizes: an entry file is ~144 KB,
//! and one copy out of the page cache costs less than an `mmap`, a
//! minor fault per touched page and an `munmap` whose TLB flush reaches
//! every core the process runs on. A read also cannot fault later: a
//! file truncated by another process is a short buffer that fails to
//! parse with a typed `Truncated` error, where a mapping of it raises
//! `SIGBUS`. The module and type keep their `mmap` names for API
//! stability; importers such as `campaign-bench` name them.

use std::io;
use std::path::Path;

use crate::store::{ProfileStoreView, StoreCodecError};

/// A file's bytes, read once into an owned buffer. See the module docs.
pub struct MappedProfile(Vec<u8>);

impl MappedProfile {
    /// Reads all of `path` into a buffer sized from the file's length,
    /// so a file of `N` bytes costs `N` bytes of heap and no regrowth.
    ///
    /// # Errors
    ///
    /// Any I/O error opening or reading the file.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<MappedProfile> {
        std::fs::read(path).map(MappedProfile)
    }

    /// The file's bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }

    /// Number of bytes in the file.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the file was empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Parses the file as one encoded `FGRVPROF` store and returns the
    /// zero-copy view over the read bytes.
    ///
    /// # Errors
    ///
    /// The [`StoreCodecError`] taxonomy of
    /// [`ProfileStoreView::new`] — the file is validated exactly like
    /// any other in-memory buffer.
    pub fn view(&self) -> Result<ProfileStoreView<'_>, StoreCodecError> {
        ProfileStoreView::new(&self.0)
    }
}

impl std::fmt::Debug for MappedProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedProfile")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ProfilePoint;
    use crate::store::ProfileStore;
    use fingrav_sim::ComponentPower;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fingrav-mmap-{}-{name}", std::process::id()));
        p
    }

    fn sample_store() -> ProfileStore {
        let mut s = ProfileStore::new();
        for i in 0..130u32 {
            let valid = i % 3 != 0;
            s.push(ProfilePoint {
                run: i,
                exec_pos: valid.then_some(i % 7),
                toi_ns: valid.then_some(f64::from(i) * 1.5),
                run_time_ns: f64::from(i) * 10.0,
                power: ComponentPower::new(300.0, 80.0, 60.0, 40.0),
            });
        }
        s
    }

    #[test]
    fn mapped_file_round_trips_through_the_view() {
        let store = sample_store();
        let path = temp_path("roundtrip.fgrv");
        std::fs::write(&path, store.to_bytes()).unwrap();
        let mapped = MappedProfile::open(&path).unwrap();
        assert_eq!(mapped.len(), store.encoded_len());
        let view = mapped.view().unwrap();
        assert_eq!(view.to_store(), store);
        assert_eq!(view.mean_power(), store.mean_power());

        // A file cut short after it was written reads as a short buffer
        // and fails with a typed error instead of faulting.
        let bytes = store.to_bytes();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let short = MappedProfile::open(&path).unwrap();
        assert!(matches!(short.view(), Err(StoreCodecError::Truncated(_))));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_uses_the_owned_fallback() {
        let path = temp_path("empty.fgrv");
        std::fs::write(&path, []).unwrap();
        let mapped = MappedProfile::open(&path).unwrap();
        assert!(mapped.is_empty());
        assert!(mapped.view().is_err(), "an empty file is not a store");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(MappedProfile::open(temp_path("does-not-exist")).is_err());
    }
}
