//! Fixture: stale and reason-less waivers are themselves findings.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::disallowed_types, clippy::allow_attributes_without_reason)]

// hopp-check: allow(unit-hygiene): nothing on the next line trips the rule
pub fn fine() -> u64 {
    42
}

/// A reason-less waiver suppresses nothing and is flagged itself.
pub fn sloppy(p: hopp_types::Ppn) -> usize {
    // hopp-check: allow(unit-hygiene)
    p.raw() as usize
}
