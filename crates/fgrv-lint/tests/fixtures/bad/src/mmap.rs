//! Fixture: unsafe with no SAFETY comment, outside the one unsafe module.

/// Two unsafe-audit findings on the same line.
pub fn peek(p: *const u8) -> u8 {
    unsafe { *p }
}
