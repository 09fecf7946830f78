//! The prefetch policy engine — §III-E of the paper.
//!
//! Real-time trace supply lets HoPP tune *how much* and *how far* to
//! prefetch, per stream:
//!
//! * **Prefetch intensity** — pages issued per hot page of an
//!   identified stream (1 by default; more when the network is the
//!   bottleneck for the stream's access rate).
//! * **Prefetch offset** `i` — how far ahead along the pattern to
//!   fetch. HoPP measures the *timeliness* `T` of each prefetched page
//!   (arrival → first hit) and steers `i` to keep `T` inside
//!   `[T_min, T_max]`: too small a `T` risks late pages (`i ×= 1+α`);
//!   too large a `T` wastes local memory (`i ×= 1−α`). Defaults:
//!   `α = 0.2`, `i ≤ 1K`, `T_min = 40 µs`, `T_max = 5 ms`.

use std::collections::BTreeMap;

use hopp_types::{Nanos, Pid, Vpn};

use crate::stt::{StreamId, StreamWindow};
use crate::three_tier::{Prediction, Tier};

/// Huge-page batching (§IV of the paper): once a stream has proven
/// itself long enough, swap 512 consecutive future pages with one
/// prefetch request instead of page-by-page fetches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HugeBatchConfig {
    /// Stream confirmations (classified windows) required before
    /// batching kicks in.
    pub min_confirmations: u32,
    /// Pages per batch (512 = one 2 MB huge page).
    pub batch_pages: u32,
}

impl Default for HugeBatchConfig {
    fn default() -> Self {
        HugeBatchConfig {
            min_confirmations: 64,
            batch_pages: 512,
        }
    }
}

/// Policy-engine parameters (paper defaults).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PolicyConfig {
    /// Pages issued per classified hot page.
    pub intensity: u32,
    /// Multiplicative offset adjustment step `α`.
    pub alpha: f64,
    /// Offset ceiling `i_max`.
    pub max_offset: f64,
    /// Lower timeliness bound `T_min`.
    pub t_min: Nanos,
    /// Upper timeliness bound `T_max`.
    pub t_max: Nanos,
    /// When `Some(i)`, the offset is pinned to `i` and timeliness
    /// feedback is ignored (the "HoPP (offset=1)" / "(offset=20K)"
    /// configurations of Fig 22).
    pub fixed_offset: Option<f64>,
    /// Optional huge-page batching for proven long stride-1 streams
    /// (§IV, disabled by default as in the paper's prototype).
    pub huge_batch: Option<HugeBatchConfig>,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            intensity: 1,
            alpha: 0.2,
            max_offset: 1024.0,
            t_min: Nanos::from_micros(40),
            t_max: Nanos::from_millis(5),
            fixed_offset: None,
            huge_batch: None,
        }
    }
}

impl PolicyConfig {
    /// A policy with the offset pinned (disables timeliness feedback).
    pub fn fixed_offset(i: f64) -> Self {
        PolicyConfig {
            fixed_offset: Some(i),
            ..Default::default()
        }
    }

    /// A policy with default huge-page batching enabled.
    pub fn with_huge_batch() -> Self {
        PolicyConfig {
            huge_batch: Some(HugeBatchConfig::default()),
            ..Default::default()
        }
    }
}

/// One prefetch decision from the policy engine: `span` consecutive
/// pages starting at `vpn` (span is 1 except for huge-page batches).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PolicyOrder {
    /// Owning process.
    pub pid: Pid,
    /// First target page.
    pub vpn: Vpn,
    /// Number of consecutive pages to fetch in one request.
    pub span: u32,
    /// The stream the decision came from (routes timeliness feedback).
    pub stream: StreamId,
    /// The tier that classified the stream (per-tier metrics).
    pub tier: Tier,
}

/// Policy counters.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct PolicyStats {
    /// Orders emitted.
    pub orders: u64,
    /// Timeliness samples below `T_min` (offset increased).
    pub too_late: u64,
    /// Timeliness samples above `T_max` (offset decreased).
    pub too_early: u64,
}

/// The policy engine: per-stream offset state plus the two knobs.
#[derive(Clone, Debug)]
pub struct PolicyEngine {
    config: PolicyConfig,
    offsets: BTreeMap<StreamId, f64>,
    /// Classified windows seen per stream (huge-batch qualification).
    confirmations: BTreeMap<StreamId, u32>,
    /// First page not yet covered by an issued batch, per stream.
    batched_until: BTreeMap<StreamId, u64>,
    stats: PolicyStats,
}

impl PolicyEngine {
    /// Creates an engine with the given knobs.
    pub fn new(config: PolicyConfig) -> Self {
        PolicyEngine {
            config,
            offsets: BTreeMap::new(),
            confirmations: BTreeMap::new(),
            batched_until: BTreeMap::new(),
            stats: PolicyStats::default(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> PolicyConfig {
        self.config
    }

    /// The current offset for a stream (starts at 1).
    pub fn offset_of(&self, stream: StreamId) -> f64 {
        self.config
            .fixed_offset
            .unwrap_or_else(|| self.offsets.get(&stream).copied().unwrap_or(1.0))
    }

    /// Turns a tier prediction into concrete orders, appended to
    /// `orders`: `intensity` pages at offsets `i, i+1, …` along the
    /// pattern — or, for a proven long stride-1 stream with huge
    /// batching enabled, one span-512 order.
    pub fn finalize(
        &mut self,
        window: &StreamWindow,
        prediction: Prediction,
        orders: &mut Vec<PolicyOrder>,
    ) {
        let before = orders.len();
        if !self.try_huge_batch(window, prediction, orders) {
            let base = self.offset_of(window.stream).round().max(1.0) as i64;
            let vpn_a = window.vpn_a();
            for j in 0..i64::from(self.config.intensity) {
                if let Some(vpn) = prediction.target(vpn_a, base + j) {
                    orders.push(PolicyOrder {
                        pid: window.pid,
                        vpn,
                        span: 1,
                        stream: window.stream,
                        tier: prediction.tier(),
                    });
                }
            }
        }
        self.stats.orders += (orders.len() - before) as u64;
    }

    /// §IV: long stride-1 streams are served in 2 MB batches. Returns
    /// `true` when batching takes over order generation for this window
    /// (possibly with no order, when the stream is already covered).
    fn try_huge_batch(
        &mut self,
        window: &StreamWindow,
        prediction: Prediction,
        orders: &mut Vec<PolicyOrder>,
    ) -> bool {
        let Some(hb) = self.config.huge_batch else {
            return false;
        };
        // Only unit-stride forward streams map onto a contiguous 2 MB
        // region worth of future pages.
        let unit_stride = matches!(
            prediction,
            Prediction::Simple { stride: 1 } | Prediction::Ripple
        );
        if !unit_stride {
            return false;
        }
        let count = self.confirmations.entry(window.stream).or_insert(0);
        *count += 1;
        if *count < hb.min_confirmations {
            return false;
        }
        let vpn_a = window.vpn_a().raw();
        let covered = self
            .batched_until
            .get(&window.stream)
            .copied()
            .unwrap_or(vpn_a + 1);
        // Re-batch when consumption approaches the covered frontier.
        let lookahead = u64::from(hb.batch_pages) / 4;
        if vpn_a + lookahead < covered {
            return true;
        }
        let start = covered.max(vpn_a + 1);
        self.batched_until
            .insert(window.stream, start + u64::from(hb.batch_pages));
        orders.push(PolicyOrder {
            pid: window.pid,
            vpn: Vpn::new(start),
            span: hb.batch_pages,
            stream: window.stream,
            tier: prediction.tier(),
        });
        true
    }

    /// Feeds back the measured timeliness of a prefetched page of
    /// `stream`, steering its offset (§III-E).
    pub fn record_timeliness(&mut self, stream: StreamId, t: Nanos) {
        if self.config.fixed_offset.is_some() {
            return;
        }
        let entry = self.offsets.entry(stream).or_insert(1.0);
        if t < self.config.t_min {
            *entry = (*entry * (1.0 + self.config.alpha)).min(self.config.max_offset);
            self.stats.too_late += 1;
        } else if t > self.config.t_max {
            *entry = (*entry * (1.0 - self.config.alpha)).max(1.0);
            self.stats.too_early += 1;
        }
    }

    /// Forgets the offset state of streams no longer in the STT (called
    /// occasionally to bound memory).
    pub fn retain_streams(&mut self, keep: impl Fn(StreamId) -> bool) {
        self.offsets.retain(|s, _| keep(*s));
        self.confirmations.retain(|s, _| keep(*s));
        self.batched_until.retain(|s, _| keep(*s));
    }

    /// Policy counters.
    pub fn stats(&self) -> PolicyStats {
        self.stats
    }

    /// Streams with live policy state (offset, confirmations or batch
    /// frontier) — bounded by the STT size once pruning runs.
    pub fn tracked_streams(&self) -> usize {
        let mut ids: std::collections::BTreeSet<&StreamId> = self.offsets.keys().collect();
        ids.extend(self.confirmations.keys());
        ids.extend(self.batched_until.keys());
        ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stt::{StreamId, StreamWindow};

    fn sid(slot: u16) -> StreamId {
        // StreamId's fields are private to stt; build one through a
        // window produced by a tiny STT instead.
        let mut stt = crate::stt::StreamTrainingTable::new(crate::stt::SttConfig {
            history: 4,
            ..Default::default()
        })
        .unwrap();
        let mut last = None;
        for k in 0..4u64 {
            last = stt.observe(
                &hopp_types::HotPage {
                    pid: Pid::new(slot + 1),
                    vpn: Vpn::new(1_000 * u64::from(slot + 1) + k),
                    flags: hopp_types::PageFlags::default(),
                    at: Nanos::ZERO,
                },
                &mut hopp_obs::NopRecorder,
            );
        }
        last.unwrap().stream
    }

    fn finalize(
        pe: &mut PolicyEngine,
        window: &StreamWindow,
        prediction: Prediction,
    ) -> Vec<PolicyOrder> {
        let mut orders = Vec::new();
        pe.finalize(window, prediction, &mut orders);
        orders
    }

    fn window(stream: StreamId) -> StreamWindow<'static> {
        StreamWindow {
            stream,
            pid: Pid::new(1),
            vpn_history: Vec::leak(vec![
                Vpn::new(100),
                Vpn::new(102),
                Vpn::new(104),
                Vpn::new(106),
            ]),
            stride_history: &[2, 2, 2],
            at: Nanos::ZERO,
        }
    }

    #[test]
    fn default_offset_is_one() {
        let mut pe = PolicyEngine::new(PolicyConfig::default());
        let s = sid(0);
        let orders = finalize(&mut pe, &window(s), Prediction::Simple { stride: 2 });
        assert_eq!(orders.len(), 1);
        assert_eq!(orders[0].vpn, Vpn::new(108), "VPN_A + 1*stride");
        assert_eq!(orders[0].tier, Tier::Simple);
    }

    #[test]
    fn late_pages_push_offset_up() {
        let mut pe = PolicyEngine::new(PolicyConfig::default());
        let s = sid(0);
        for _ in 0..4 {
            pe.record_timeliness(s, Nanos::from_micros(10)); // < T_min
        }
        // 1.0 * 1.2^4 ≈ 2.07 → rounds to 2.
        let orders = finalize(&mut pe, &window(s), Prediction::Simple { stride: 2 });
        assert_eq!(orders[0].vpn, Vpn::new(110), "VPN_A + 2*stride");
        assert_eq!(pe.stats().too_late, 4);
    }

    #[test]
    fn early_pages_pull_offset_down_to_floor() {
        let mut pe = PolicyEngine::new(PolicyConfig::default());
        let s = sid(0);
        for _ in 0..10 {
            pe.record_timeliness(s, Nanos::from_micros(10));
        }
        let up = pe.offset_of(s);
        assert!(up > 2.0);
        for _ in 0..100 {
            pe.record_timeliness(s, Nanos::from_secs(1)); // > T_max
        }
        assert_eq!(pe.offset_of(s), 1.0, "offset floors at 1");
        assert!(pe.stats().too_early >= 10);
    }

    #[test]
    fn offset_is_capped_at_max() {
        let mut pe = PolicyEngine::new(PolicyConfig::default());
        let s = sid(0);
        for _ in 0..100 {
            pe.record_timeliness(s, Nanos::ZERO);
        }
        assert_eq!(pe.offset_of(s), 1024.0);
    }

    #[test]
    fn in_band_timeliness_changes_nothing() {
        let mut pe = PolicyEngine::new(PolicyConfig::default());
        let s = sid(0);
        pe.record_timeliness(s, Nanos::from_micros(100)); // in [40us, 5ms]
        assert_eq!(pe.offset_of(s), 1.0);
        assert_eq!(pe.stats().too_late + pe.stats().too_early, 0);
    }

    #[test]
    fn fixed_offset_ignores_feedback() {
        let mut pe = PolicyEngine::new(PolicyConfig::fixed_offset(20_000.0));
        let s = sid(0);
        pe.record_timeliness(s, Nanos::ZERO);
        assert_eq!(pe.offset_of(s), 20_000.0);
        let orders = finalize(&mut pe, &window(s), Prediction::Ripple);
        assert_eq!(orders[0].vpn, Vpn::new(106 + 20_000));
    }

    #[test]
    fn intensity_issues_consecutive_offsets() {
        let mut pe = PolicyEngine::new(PolicyConfig {
            intensity: 3,
            ..Default::default()
        });
        let s = sid(0);
        let orders = finalize(&mut pe, &window(s), Prediction::Simple { stride: 2 });
        let vpns: Vec<u64> = orders.iter().map(|o| o.vpn.raw()).collect();
        assert_eq!(vpns, vec![108, 110, 112]);
    }

    /// Two distinct streams trained in one table.
    fn two_streams() -> (StreamId, StreamId) {
        let mut stt = crate::stt::StreamTrainingTable::new(crate::stt::SttConfig {
            history: 4,
            ..Default::default()
        })
        .unwrap();
        let mut ids = Vec::new();
        for base in [1_000u64, 900_000] {
            let mut last = None;
            for k in 0..4u64 {
                last = stt.observe(
                    &hopp_types::HotPage {
                        pid: Pid::new(1),
                        vpn: Vpn::new(base + k),
                        flags: hopp_types::PageFlags::default(),
                        at: Nanos::ZERO,
                    },
                    &mut hopp_obs::NopRecorder,
                );
            }
            ids.push(last.unwrap().stream);
        }
        (ids[0], ids[1])
    }

    #[test]
    fn huge_batch_takes_over_after_confirmations() {
        let mut pe = PolicyEngine::new(PolicyConfig {
            huge_batch: Some(HugeBatchConfig {
                min_confirmations: 3,
                batch_pages: 512,
            }),
            ..Default::default()
        });
        let s = sid(0);
        let w = |last: u64| StreamWindow {
            stream: s,
            pid: Pid::new(1),
            vpn_history: Vec::leak(vec![
                Vpn::new(last - 3),
                Vpn::new(last - 2),
                Vpn::new(last - 1),
                Vpn::new(last),
            ]),
            stride_history: &[1, 1, 1],
            at: Nanos::ZERO,
        };
        // First two confirmations: plain single-page orders.
        for k in 0..2u64 {
            let o = finalize(&mut pe, &w(1_000 + k), Prediction::Simple { stride: 1 });
            assert_eq!(o.len(), 1);
            assert_eq!(o[0].span, 1);
        }
        // Third: one 512-page batch starting right after VPN_A.
        let o = finalize(&mut pe, &w(1_002), Prediction::Simple { stride: 1 });
        assert_eq!(o.len(), 1);
        assert_eq!(o[0].span, 512);
        assert_eq!(o[0].vpn, Vpn::new(1_003));
        // While consumption is far from the frontier: nothing issued.
        let o = finalize(&mut pe, &w(1_003), Prediction::Simple { stride: 1 });
        assert!(o.is_empty());
        // Approaching the frontier (within batch/4): the next batch.
        let o = finalize(
            &mut pe,
            &w(1_003 + 512 - 100),
            Prediction::Simple { stride: 1 },
        );
        assert_eq!(o.len(), 1);
        assert_eq!(o[0].vpn, Vpn::new(1_003 + 512));
        assert_eq!(o[0].span, 512);
    }

    #[test]
    fn huge_batch_ignores_non_unit_strides() {
        let mut pe = PolicyEngine::new(PolicyConfig {
            huge_batch: Some(HugeBatchConfig {
                min_confirmations: 1,
                batch_pages: 512,
            }),
            ..Default::default()
        });
        let s = sid(0);
        let o = finalize(&mut pe, &window(s), Prediction::Simple { stride: 2 });
        assert_eq!(o.len(), 1);
        assert_eq!(o[0].span, 1, "stride-2 streams are not batchable");
    }

    #[test]
    fn per_stream_offsets_are_independent() {
        let mut pe = PolicyEngine::new(PolicyConfig::default());
        let (a, b) = two_streams();
        assert_ne!(a, b);
        for _ in 0..5 {
            pe.record_timeliness(a, Nanos::ZERO);
        }
        assert!(pe.offset_of(a) > 1.0);
        assert_eq!(pe.offset_of(b), 1.0);
        pe.retain_streams(|s| s == b);
        assert_eq!(pe.offset_of(a), 1.0, "state dropped");
    }
}
