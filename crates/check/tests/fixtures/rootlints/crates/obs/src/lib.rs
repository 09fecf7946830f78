//! Fixture: a harness crate root must not carry the sim-critical line.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::disallowed_types, clippy::allow_attributes_without_reason)]
