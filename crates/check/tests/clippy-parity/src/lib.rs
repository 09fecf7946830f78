//! A sim-critical crate root: it carries the same lint line as every
//! crate in `SIM_CRITICAL_CRATES`, so the determinism and panic bans
//! apply to each module below.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::disallowed_types,
    clippy::allow_attributes_without_reason
)]

pub mod ambient;
pub mod dsaware;
pub mod profclock;
pub mod scncritical;
pub mod seeded;
pub mod taintflow;
pub mod waivers;
