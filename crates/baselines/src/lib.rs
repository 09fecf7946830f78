#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::disallowed_types,
    clippy::allow_attributes_without_reason
)]
//! Baseline prefetchers the paper compares against.
//!
//! All of them implement the kernel's fault-driven readahead interface
//! ([`hopp_kernel::Prefetcher`]) — by construction they only ever see
//! the faulting-page history, which is exactly the limitation HoPP's
//! hardware trace removes (§II-B):
//!
//! * [`fastswap::FastswapReadahead`] — Fastswap/Infiniswap-style strict
//!   readahead: prefetch the pages stored in the next few *swap slots*
//!   after the faulting one.
//! * [`leap::LeapPrefetcher`] — Leap's majority-based stride detection
//!   over the recent fault-address window, prefetching along the
//!   detected stride.
//! * [`vma::VmaReadahead`] — Linux 5.4's VMA-based readahead: prefetch
//!   virtually adjacent pages of the same process (a crude form of page
//!   clustering, which is why Fig 22 shows it slightly ahead of
//!   Fastswap).
//! * [`depth_n::DepthN`] — the Depth-N design (§II-C): prefetch the next
//!   `N` virtual pages and inject their PTEs eagerly, with no feedback.
//!
//! The paper's "revamped Leap on the full trace" (§II-B) — page
//! clustering plus a large majority window — is structurally identical
//! to HoPP's SSP-only configuration and is therefore expressed as
//! `HoppEngine` with `TierConfig::ssp_only()` rather than duplicated
//! here.

pub mod depth_n;
pub mod fastswap;
pub mod leap;
pub mod vma;

pub use depth_n::DepthN;
pub use fastswap::FastswapReadahead;
pub use leap::LeapPrefetcher;
pub use vma::VmaReadahead;
