//! Fixture: trailing and standalone unit-hygiene waivers.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::disallowed_types, clippy::allow_attributes_without_reason)]

use hopp_types::{Ppn, Vpn};

/// Launders a loop index into a page number; waived for the fixture.
pub fn vpn_of(i: usize) -> Vpn {
    Vpn::new(i as u64) // hopp-check: allow(unit-hygiene): fixture exercising the trailing-waiver path
}

/// Drops a frame number's unit; waived for the fixture.
pub fn frame_index(p: Ppn) -> usize {
    // hopp-check: allow(unit-hygiene): fixture exercising the standalone-waiver path
    p.raw() as usize
}
