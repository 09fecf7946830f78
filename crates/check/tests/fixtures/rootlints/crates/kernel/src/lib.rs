//! Fixture: the lint line in rustfmt's layout passes.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::disallowed_types,
    clippy::allow_attributes_without_reason
)]

pub fn answer() -> u64 {
    42
}
