#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::disallowed_types,
    clippy::allow_attributes_without_reason
)]
//! Simulated kernel virtual-memory subsystem.
//!
//! Kernel-based disaggregated-memory systems (Fastswap, Leap, and HoPP's
//! host system) live inside the Linux swap path. This crate reproduces
//! the pieces of that path the paper's results depend on:
//!
//! * [`latency::FaultLatencyModel`] — the measured per-step costs of a
//!   swap fault (§II-A): context switch 0.3 µs, page-table walk 0.6 µs,
//!   swapcache query 0.4 µs, PTE establish 1 µs, plus reclaim cost and
//!   the DRAM-hit cost a prefetch-hit is compared against.
//! * [`swapcache::SwapCache`] — pages fetched (or prefetched) from
//!   remote that have a frame but no PTE yet; hitting one is a *minor*
//!   fault costing 2.3 µs instead of a full remote round trip.
//! * [`lru::LruLists`] — active/inactive page lists driving reclaim.
//!   Early-injected pages land on the active list, which is what makes
//!   inaccurate Depth-N prefetches expensive to get rid of (§II-C).
//! * [`swap::SwapDevice`] — swap-slot allocation; Fastswap's readahead
//!   prefetches pages *adjacent in slot order*, so slot assignment
//!   (i.e. eviction order) shapes its behaviour.
//! * [`cgroup::Cgroup`] — per-application local-memory limits; the
//!   evaluation caps each workload at 50 % / 25 % of its footprint.
//! * [`prefetcher`] — the kernel's readahead interface, implemented by
//!   the baselines in `hopp-baselines`. HoPP itself does *not* use this
//!   interface: it runs on the hot-page trace as a separate data path.

pub mod cgroup;
pub mod latency;
pub mod lru;
pub mod prefetcher;
pub mod swap;
pub mod swapcache;

pub use cgroup::Cgroup;
pub use latency::FaultLatencyModel;
pub use lru::{LruLists, LruTier};
pub use prefetcher::{FaultInfo, NoPrefetch, PrefetchRequest, Prefetcher, SlotView};
pub use swap::SwapDevice;
pub use swapcache::{SwapCache, SwapCacheStats};
