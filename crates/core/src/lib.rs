#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::disallowed_types,
    clippy::allow_attributes_without_reason
)]
//! HoPP's software side: the prefetch training framework, policy engine
//! and execution engine (§III-D, §III-E, §III-F of the paper).
//!
//! The hardware pipeline (`hopp-hw`) delivers an ordered, real-time
//! stream of hot pages `(PID, VPN, flags, t)`. This crate turns that
//! stream into prefetches:
//!
//! 1. [`stt::StreamTrainingTable`] groups hot pages into candidate
//!    streams (64 entries, history length `L = 16`, clustering distance
//!    `Δ_stream = 64`).
//! 2. [`three_tier::ThreeTier`] runs **Adaptive Three-Tier Prefetching**
//!    on each full history window: [`ssp`] (simple streams) first, then
//!    [`lsp`] (ladder streams, Algorithm 1), then [`rsp`] (ripple
//!    streams, Algorithm 2). Each tier can be disabled for ablations.
//! 3. [`policy::PolicyEngine`] applies the two knobs — *prefetch
//!    intensity* and *prefetch offset* — and adapts the offset from
//!    measured timeliness (`T_min = 40 µs`, `T_max = 5 ms`, `α = 0.2`).
//! 4. [`exec::ExecutionEngine`] dedupes requests, issues asynchronous
//!    RDMA reads and reports completions so the kernel side can perform
//!    early PTE injection.
//!
//! [`metrics::PrefetchMetrics`] implements the paper's accuracy /
//! coverage / timeliness definitions (§VI-A) and is shared with the
//! baseline prefetchers so every system is measured identically.
//!
//! # Example
//!
//! ```
//! use hopp_core::{HoppConfig, HoppEngine};
//! use hopp_types::{HotPage, Nanos, PageFlags, Pid, Vpn};
//!
//! let mut engine = HoppEngine::new(HoppConfig::default());
//! // Feed a simple stride-2 stream of hot pages; once the history
//! // window fills, the engine starts predicting ahead of the stream.
//! let mut orders = Vec::new();
//! for k in 0..20u64 {
//!     let hot = HotPage { pid: Pid::new(1), vpn: Vpn::new(100 + 2 * k),
//!                         flags: PageFlags::default(),
//!                         at: Nanos::from_micros(k) };
//!     orders.extend(engine.on_hot_page(&hot));
//! }
//! assert!(!orders.is_empty());
//! // Predictions run ahead with the detected stride (even VPNs).
//! assert!(orders.iter().all(|o| o.vpn.raw() % 2 == 0));
//! ```

pub mod engine;
pub mod exec;
pub mod lsp;
pub mod markov;
pub mod metrics;
pub mod policy;
pub mod rsp;
pub mod ssp;
pub mod stt;
pub mod three_tier;

pub use engine::{HoppConfig, HoppEngine, PrefetchOrder, TrainerKind};
pub use exec::{Completion, ExecStats, ExecutionEngine};
pub use markov::{MarkovConfig, MarkovEngine};
pub use metrics::{MetricsReport, PrefetchMetrics};
pub use policy::{HugeBatchConfig, PolicyConfig, PolicyEngine};
pub use stt::{StreamId, StreamTrainingTable, StreamWindow, SttConfig};
pub use three_tier::{Prediction, ThreeTier, Tier, TierConfig};
