//! Feature-gated decoder instrumentation driving coverage-guided fuzzing.
//!
//! Every untrusted-input decode path (`FGRVPROF` stores, `FGRVCKPT`
//! checkpoint sections, `FGRVWIRE` frames) reports the validation branch
//! it took through [`hit`], a per-thread bucket counter keyed by the
//! site ids declared below. The `fgrv-fuzz` harness snapshots the table
//! after each input and retains inputs that light up new buckets — the
//! classic coverage-feedback loop, hand-rolled because the build is
//! fully offline.
//!
//! The layer is compiled out by default: without the `fuzz-cover`
//! feature, [`hit`] is an empty `#[inline(always)]` function and no
//! thread-local table exists, so production and benchmark builds carry
//! zero instrumentation cost. Only the site-id constants and
//! [`SITE_NAMES`] stay resident (they are `const` data the harness and
//! its docs need in either configuration). The `fgrv-fuzz` crate keeps
//! the feature behind its own off-by-default `cover` feature so cargo's
//! feature unification can never switch instrumentation on for a
//! default workspace build; `tests/smoke.rs` pins that with a
//! default-build bit-identity test over [`ENABLED`].
//!
//! Counters saturate rather than wrap, and [`snapshot`] always returns
//! a full table (all zeros when the feature is off), so harness code
//! needs no conditional compilation of its own.

/// Declares the instrumentation-site table: sequential `u16` ids plus
/// the parallel [`SITE_NAMES`] table used in coverage reports.
macro_rules! cover_sites {
    ($($name:ident),* $(,)?) => {
        cover_sites!(@assign 0u16; $($name),*);
        /// Number of declared instrumentation sites.
        pub const SITE_COUNT: usize = [$(stringify!($name)),*].len();
        /// Site names, indexed by site id (for coverage reports).
        pub const SITE_NAMES: [&str; SITE_COUNT] = [$(stringify!($name)),*];
    };
    (@assign $idx:expr; $name:ident $(, $rest:ident)*) => {
        #[doc = concat!("Instrumentation site `", stringify!($name), "`.")]
        pub const $name: u16 = $idx;
        cover_sites!(@assign $name + 1; $($rest),*);
    };
    (@assign $idx:expr;) => {};
}

cover_sites! {
    // FGRVPROF: the view decoder (store/view.rs).
    STORE_VIEW_BAD_MAGIC,
    STORE_VIEW_BAD_VERSION,
    STORE_VIEW_TRUNC_HEADER,
    STORE_VIEW_IMPLAUSIBLE_LEN,
    STORE_VIEW_TRUNC_BODY,
    STORE_VIEW_TRAILING,
    STORE_VIEW_OK,
    // FGRVPROF: canonical-form scan (store/columns.rs).
    STORE_CANON_STRAY_BITS,
    STORE_CANON_DIRTY_SLOT,
    // FGRVCKPT: shared codec plumbing (checkpoint.rs).
    CKPT_BAD_MAGIC,
    CKPT_BAD_VERSION,
    CKPT_BAD_SECTION,
    CKPT_HEADER_OK,
    CKPT_TRAILING,
    CKPT_COUNT_OVERFLOW,
    CKPT_COUNT_IMPLAUSIBLE,
    CKPT_STR_IMPLAUSIBLE,
    CKPT_STR_BAD_UTF8,
    CKPT_SEQ_IMPLAUSIBLE,
    CKPT_BOOL_BAD,
    CKPT_OPT_BAD,
    CKPT_HOSTOP_BAD_TAG,
    CKPT_EVENT_BAD_TAG,
    CKPT_KIND_BAD_TAG,
    CKPT_STATUS_BAD_TAG,
    CKPT_HANDLE_IMPLAUSIBLE,
    CKPT_MANIFEST_OK,
    CKPT_ENTRY_OK,
    // FGRVWIRE: preamble and frame reader (transport.rs).
    WIRE_PREAMBLE_BAD_MAGIC,
    WIRE_PREAMBLE_BAD_VERSION,
    WIRE_PREAMBLE_OK,
    WIRE_FRAME_IMPLAUSIBLE_LEN,
    WIRE_BLOCK_IMPLAUSIBLE_LEN,
    WIRE_BAD_TAG,
    WIRE_ERROR_BAD_TAG,
    WIRE_EVENT_BAD_TAG,
    WIRE_OK_HELLO,
    WIRE_OK_WELCOME,
    WIRE_OK_DENY,
    WIRE_OK_REQUEST,
    WIRE_OK_ASSIGN,
    WIRE_OK_FINISHED,
    WIRE_OK_ABORT,
    WIRE_OK_STARTED,
    WIRE_OK_EVENT,
    WIRE_OK_DONE,
    WIRE_OK_FAILED,
    WIRE_OK_FETCH,
    WIRE_OK_ARTIFACT,
    WIRE_OK_BYE,
    WIRE_OK_HEARTBEAT,
    WIRE_HEARTBEAT_SKIPPED,
}

/// True when this build carries the instrumentation (the `fuzz-cover`
/// feature is enabled). Default builds are `false`, and the harness's
/// bit-identity test pins that.
pub const ENABLED: bool = cfg!(feature = "fuzz-cover");

#[cfg(feature = "fuzz-cover")]
thread_local! {
    static HITS: std::cell::RefCell<[u32; SITE_COUNT]> =
        const { std::cell::RefCell::new([0; SITE_COUNT]) };
}

/// Records one hit of instrumentation site `site` on this thread.
/// Compiled to nothing without the `fuzz-cover` feature; out-of-range
/// ids are ignored.
#[inline(always)]
pub fn hit(site: u16) {
    #[cfg(feature = "fuzz-cover")]
    HITS.with(|h| {
        if let Some(slot) = h.borrow_mut().get_mut(usize::from(site)) {
            *slot = slot.saturating_add(1);
        }
    });
    #[cfg(not(feature = "fuzz-cover"))]
    let _ = site;
}

/// Clears this thread's counter table. A no-op without `fuzz-cover`.
pub fn reset() {
    #[cfg(feature = "fuzz-cover")]
    HITS.with(|h| *h.borrow_mut() = [0; SITE_COUNT]);
}

/// This thread's counter table since the last [`reset`]. All zeros
/// without `fuzz-cover`.
pub fn snapshot() -> [u32; SITE_COUNT] {
    #[cfg(feature = "fuzz-cover")]
    {
        HITS.with(|h| *h.borrow())
    }
    #[cfg(not(feature = "fuzz-cover"))]
    {
        [0; SITE_COUNT]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_table_is_consistent() {
        assert_eq!(SITE_NAMES.len(), SITE_COUNT);
        assert_eq!(
            SITE_NAMES[usize::from(STORE_VIEW_BAD_MAGIC)],
            "STORE_VIEW_BAD_MAGIC"
        );
        assert_eq!(
            SITE_NAMES[usize::from(WIRE_HEARTBEAT_SKIPPED)],
            "WIRE_HEARTBEAT_SKIPPED"
        );
        assert_eq!(usize::from(WIRE_HEARTBEAT_SKIPPED), SITE_COUNT - 1);
    }

    #[test]
    fn hit_counts_when_enabled_and_is_silent_when_not() {
        reset();
        hit(STORE_VIEW_OK);
        hit(STORE_VIEW_OK);
        hit(u16::MAX); // out of range: ignored, never a panic
        let snap = snapshot();
        if ENABLED {
            assert_eq!(snap[usize::from(STORE_VIEW_OK)], 2);
        } else {
            assert_eq!(snap, [0; SITE_COUNT]);
        }
        reset();
        assert_eq!(snapshot(), [0; SITE_COUNT]);
    }
}
