//! Fixture: a sim-critical crate root without the lint line. Naming
//! it in a comment does not count:
// #![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::disallowed_types, clippy::allow_attributes_without_reason)]

pub fn answer() -> u64 {
    42
}
