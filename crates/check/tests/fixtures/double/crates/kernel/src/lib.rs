//! Fixture: one waiver suppresses exactly one finding, not a region.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::disallowed_types, clippy::allow_attributes_without_reason)]

use hopp_types::Vpn;

/// Two raw casts on consecutive lines; the waiver covers only the first.
pub fn both(a: usize, b: usize) -> (Vpn, Vpn) {
    // hopp-check: allow(unit-hygiene): fixture: the waiver must cover only the next line
    let x = Vpn::new(a as u64);
    let y = Vpn::new(b as u64);
    (x, y)
}
