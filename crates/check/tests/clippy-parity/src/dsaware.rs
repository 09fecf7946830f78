//! `hopp_ds` collections pass where `HashMap` fires.

use std::collections::HashMap;

use hopp_ds::{DetMap, Lru, PageMap};

/// Hot-path state built only from deterministic collections.
pub struct HotState {
    pub inflight: DetMap<u64, u64>,
    pub frames: PageMap<usize, u32>,
    pub recency: Lru<u64>,
}

/// Non-deterministic twin of [`HotState`].
pub struct BadState {
    pub inflight: HashMap<u64, u64>,
}
