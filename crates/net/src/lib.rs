#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::disallowed_types,
    clippy::allow_attributes_without_reason
)]
//! RDMA remote-memory substrate.
//!
//! The paper's testbed moves 4 KB pages between two servers over a
//! 56 Gbps InfiniBand link; reading one page takes about 4 µs (§II-A,
//! step 4). This crate models that link:
//!
//! * [`RdmaEngine`] — a single shared link with a base (propagation +
//!   processing) latency and a serialization rate. Concurrent reads
//!   queue behind each other, so a prefetcher that over-issues inflates
//!   everyone's latency — the congestion effect HoPP's *prefetch
//!   intensity* knob reacts to (§III-E).
//! * [`CompletionQueue`] — a time-ordered queue of in-flight operations,
//!   the analogue of an RDMA CQ polled by the execution engine.
//!
//! # Example
//!
//! ```
//! use hopp_net::{RdmaConfig, RdmaEngine};
//! use hopp_types::{Nanos, PAGE_SIZE};
//!
//! let cfg = RdmaConfig::default();
//! let mut link = RdmaEngine::new(cfg);
//! let done = link.issue_page_read(Nanos::ZERO);
//! // An idle link completes in exactly base + serialization — ~4 us
//! // with the default (paper) parameters.
//! assert_eq!(done, cfg.base_latency + cfg.serialization(PAGE_SIZE));
//! ```

use std::collections::BinaryHeap;

use hopp_obs::{Event, NopRecorder, Recorder};
use hopp_types::{Nanos, PAGE_SIZE};

/// Deterministic latency volatility: the datacenter fabric periodically
/// congests, multiplying the base latency for part of each period.
///
/// §III-E motivates the prefetch-offset controller with exactly this:
/// "the remote swap latency is volatile … the asynchronous data path
/// enables fine-grained control and scheduling on prefetching, thus can
/// timely and dynamically react to latency volatility." A square-wave
/// burst model keeps runs reproducible while exercising the controller.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LinkJitter {
    /// Latency multiplier during the congested part of the period.
    pub burst_factor: f64,
    /// Full period of the congestion wave.
    pub period: Nanos,
    /// Fraction of each period spent congested (0..1).
    pub duty: f64,
}

impl LinkJitter {
    /// A moderate datacenter-style profile: every 2 ms the fabric
    /// congests for a quarter of the period at 8x latency.
    pub fn bursty() -> Self {
        LinkJitter {
            burst_factor: 8.0,
            period: Nanos::from_millis(2),
            duty: 0.25,
        }
    }

    /// The latency multiplier at time `now`.
    pub fn factor_at(&self, now: Nanos) -> f64 {
        let phase = now.as_nanos() % self.period.as_nanos().max(1);
        if (phase as f64) < self.period.as_nanos() as f64 * self.duty {
            self.burst_factor
        } else {
            1.0
        }
    }
}

/// Link parameters.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RdmaConfig {
    /// Fixed per-operation latency: NIC processing, switch hops,
    /// propagation. Default 3.4 µs.
    pub base_latency: Nanos,
    /// Serialization rate in bytes per nanosecond. Default 7.0 (56 Gbps),
    /// giving ~0.585 µs per 4 KB page; base + serialization ≈ the 4 µs
    /// page-read the paper measures.
    pub bytes_per_ns: f64,
    /// Optional periodic congestion (None = the paper's quiet testbed).
    pub jitter: Option<LinkJitter>,
}

impl Default for RdmaConfig {
    fn default() -> Self {
        RdmaConfig {
            base_latency: Nanos::from_nanos(3_400),
            bytes_per_ns: 7.0,
            jitter: None,
        }
    }
}

impl RdmaConfig {
    /// The default link with bursty congestion enabled.
    pub fn volatile() -> Self {
        RdmaConfig {
            jitter: Some(LinkJitter::bursty()),
            ..Self::default()
        }
    }

    /// Serialization delay for a transfer of `bytes`.
    pub fn serialization(&self, bytes: usize) -> Nanos {
        debug_assert!(self.bytes_per_ns > 0.0);
        Nanos::from_nanos((bytes as f64 / self.bytes_per_ns).ceil() as u64)
    }

    /// The base latency experienced by an operation issued at `now`.
    pub fn latency_at(&self, now: Nanos) -> Nanos {
        match self.jitter {
            Some(j) => self.base_latency.scale(j.factor_at(now)),
            None => self.base_latency,
        }
    }
}

/// Counters for link activity.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct RdmaStats {
    /// Read operations issued.
    pub reads: u64,
    /// Write operations issued (dirty-page writebacks).
    pub writes: u64,
    /// Bytes moved.
    pub bytes: u64,
    /// Total time operations spent queued behind earlier transfers.
    pub queueing: Nanos,
}

/// A single shared RDMA link with FIFO serialization.
///
/// The model: every transfer occupies the wire for its serialization
/// time, in issue order; completion happens when the transfer has left
/// the wire plus the base latency. An idle link therefore completes a
/// page read in `base_latency + page/bandwidth` ≈ 4 µs, and a saturated
/// link backs up linearly — which is what makes prefetch timeliness
/// volatile (§III-E).
#[derive(Clone, Debug)]
pub struct RdmaEngine {
    config: RdmaConfig,
    wire_free_at: Nanos,
    stats: RdmaStats,
}

impl RdmaEngine {
    /// Creates an idle link.
    pub fn new(config: RdmaConfig) -> Self {
        RdmaEngine {
            config,
            wire_free_at: Nanos::ZERO,
            stats: RdmaStats::default(),
        }
    }

    /// The link parameters.
    pub fn config(&self) -> RdmaConfig {
        self.config
    }

    /// Issues a read of `bytes` at time `now`; returns its completion
    /// time.
    pub fn issue_read(&mut self, now: Nanos, bytes: usize) -> Nanos {
        self.issue_read_rec(now, bytes, &mut NopRecorder)
    }

    /// [`RdmaEngine::issue_read`], recording an [`Event::RdmaRead`]
    /// whose latency includes time queued behind earlier transfers.
    pub fn issue_read_rec(&mut self, now: Nanos, bytes: usize, rec: &mut dyn Recorder) -> Nanos {
        let start = now.max(self.wire_free_at);
        self.stats.queueing += start.saturating_since(now);
        let ser = self.config.serialization(bytes);
        self.wire_free_at = start + ser;
        self.stats.reads += 1;
        self.stats.bytes += bytes as u64;
        let done = self.wire_free_at + self.config.latency_at(start);
        if rec.is_enabled() {
            rec.record(
                done,
                Event::RdmaRead {
                    bytes: bytes as u64,
                    latency: done.saturating_since(now),
                },
            );
        }
        done
    }

    /// Issues a 4 KB page read at `now`; returns its completion time.
    pub fn issue_page_read(&mut self, now: Nanos) -> Nanos {
        self.issue_read(now, PAGE_SIZE)
    }

    /// [`RdmaEngine::issue_page_read`] with event recording.
    pub fn issue_page_read_rec(&mut self, now: Nanos, rec: &mut dyn Recorder) -> Nanos {
        self.issue_read_rec(now, PAGE_SIZE, rec)
    }

    /// Issues a 4 KB page *write* (dirty-page writeback during reclaim)
    /// at `now`; returns its completion time. Writes share the wire with
    /// reads and therefore delay them.
    pub fn issue_page_write(&mut self, now: Nanos) -> Nanos {
        self.issue_page_write_rec(now, &mut NopRecorder)
    }

    /// [`RdmaEngine::issue_page_write`], recording an
    /// [`Event::RdmaWrite`].
    pub fn issue_page_write_rec(&mut self, now: Nanos, rec: &mut dyn Recorder) -> Nanos {
        let start = now.max(self.wire_free_at);
        self.stats.queueing += start.saturating_since(now);
        let ser = self.config.serialization(PAGE_SIZE);
        self.wire_free_at = start + ser;
        self.stats.writes += 1;
        self.stats.bytes += PAGE_SIZE as u64;
        let done = self.wire_free_at + self.config.latency_at(start);
        if rec.is_enabled() {
            rec.record(
                done,
                Event::RdmaWrite {
                    bytes: PAGE_SIZE as u64,
                    latency: done.saturating_since(now),
                },
            );
        }
        done
    }

    /// The earliest time a newly issued transfer could start.
    pub fn wire_free_at(&self) -> Nanos {
        self.wire_free_at
    }

    /// Accumulated counters.
    pub fn stats(&self) -> RdmaStats {
        self.stats
    }
}

/// An in-flight operation: completion time plus a caller-chosen payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Inflight<T> {
    due: Nanos,
    seq: u64,
    payload: T,
}

impl<T: Eq> Ord for Inflight<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest first.
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

impl<T: Eq> PartialOrd for Inflight<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A completion queue: operations become visible in completion-time
/// order, ties broken by issue order.
///
/// # Example
///
/// ```
/// use hopp_net::CompletionQueue;
/// use hopp_types::Nanos;
///
/// let mut cq = CompletionQueue::new();
/// cq.push(Nanos::from_nanos(50), "b");
/// cq.push(Nanos::from_nanos(10), "a");
/// assert_eq!(cq.pop_due(Nanos::from_nanos(20)), Some((Nanos::from_nanos(10), "a")));
/// assert_eq!(cq.pop_due(Nanos::from_nanos(20)), None);
/// ```
#[derive(Clone, Debug)]
pub struct CompletionQueue<T: Eq> {
    heap: BinaryHeap<Inflight<T>>,
    seq: u64,
}

impl<T: Eq> Default for CompletionQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Eq> CompletionQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CompletionQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` in-flight
    /// operations before the heap reallocates (hot-path pre-sizing).
    pub fn with_capacity(capacity: usize) -> Self {
        CompletionQueue {
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
        }
    }

    /// The queue's current allocation capacity (steady-state allocation
    /// tests watch this).
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Registers an operation completing at `due`.
    pub fn push(&mut self, due: Nanos, payload: T) {
        self.heap.push(Inflight {
            due,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Pops the earliest operation if it has completed by `now`.
    pub fn pop_due(&mut self, now: Nanos) -> Option<(Nanos, T)> {
        if self.heap.peek().is_some_and(|op| op.due <= now) {
            self.heap.pop().map(|op| (op.due, op.payload))
        } else {
            None
        }
    }

    /// Pops the earliest operation regardless of the clock (used to
    /// drain at end of simulation).
    pub fn pop_any(&mut self) -> Option<(Nanos, T)> {
        self.heap.pop().map(|op| (op.due, op.payload))
    }

    /// Completion time of the earliest in-flight operation.
    pub fn next_due(&self) -> Option<Nanos> {
        self.heap.peek().map(|op| op.due)
    }

    /// Number of in-flight operations.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_link_page_read_is_about_4us() {
        let mut link = RdmaEngine::new(RdmaConfig::default());
        let done = link.issue_page_read(Nanos::ZERO);
        let us = done.as_micros_f64();
        assert!((3.9..4.1).contains(&us), "got {us}");
    }

    #[test]
    fn queueing_backs_up_fifo() {
        let mut link = RdmaEngine::new(RdmaConfig::default());
        let ser = RdmaConfig::default().serialization(PAGE_SIZE);
        let d1 = link.issue_page_read(Nanos::ZERO);
        let d2 = link.issue_page_read(Nanos::ZERO);
        let d3 = link.issue_page_read(Nanos::ZERO);
        assert_eq!(d2, d1 + ser);
        assert_eq!(d3, d2 + ser);
        assert_eq!(link.stats().reads, 3);
        assert!(link.stats().queueing > Nanos::ZERO);
    }

    #[test]
    fn idle_gaps_do_not_accumulate() {
        let mut link = RdmaEngine::new(RdmaConfig::default());
        let d1 = link.issue_page_read(Nanos::ZERO);
        // Issue long after the wire went idle.
        let later = d1 + Nanos::from_micros(100);
        let d2 = link.issue_page_read(later);
        assert_eq!(
            d2,
            later
                + RdmaConfig::default().serialization(PAGE_SIZE)
                + RdmaConfig::default().base_latency
        );
    }

    #[test]
    fn serialization_scales_with_bytes() {
        let cfg = RdmaConfig::default();
        let one = cfg.serialization(PAGE_SIZE).as_nanos();
        let two = cfg.serialization(PAGE_SIZE * 2).as_nanos();
        // Within rounding of double (ceil may differ by 1 ns).
        assert!(two >= 2 * one - 2 && two <= 2 * one);
        assert!(cfg.serialization(64) < cfg.serialization(PAGE_SIZE));
    }

    #[test]
    fn jitter_multiplies_latency_during_bursts() {
        let cfg = RdmaConfig::volatile();
        let j = cfg.jitter.unwrap();
        // Start of the period: congested (duty 0.25 of 2 ms).
        assert_eq!(j.factor_at(Nanos::ZERO), 8.0);
        assert_eq!(j.factor_at(Nanos::from_micros(499)), 8.0);
        // After the burst: quiet.
        assert_eq!(j.factor_at(Nanos::from_micros(501)), 1.0);
        // Next period bursts again.
        assert_eq!(j.factor_at(Nanos::from_micros(2_001)), 8.0);

        let mut link = RdmaEngine::new(cfg);
        let burst = link.issue_page_read(Nanos::ZERO);
        let mut quiet_link = RdmaEngine::new(cfg);
        let quiet = quiet_link.issue_page_read(Nanos::from_micros(600));
        let burst_latency = burst.as_nanos();
        let quiet_latency = quiet.saturating_since(Nanos::from_micros(600)).as_nanos();
        assert!(
            burst_latency > 5 * quiet_latency,
            "{burst_latency} vs {quiet_latency}"
        );
    }

    #[test]
    fn completion_queue_orders_by_due_then_fifo() {
        let mut cq = CompletionQueue::new();
        cq.push(Nanos::from_nanos(30), 1u32);
        cq.push(Nanos::from_nanos(10), 2);
        cq.push(Nanos::from_nanos(10), 3);
        assert_eq!(cq.len(), 3);
        assert_eq!(cq.pop_due(Nanos::from_nanos(5)), None);
        assert_eq!(
            cq.pop_due(Nanos::from_nanos(10)),
            Some((Nanos::from_nanos(10), 2))
        );
        assert_eq!(
            cq.pop_due(Nanos::from_nanos(10)),
            Some((Nanos::from_nanos(10), 3))
        );
        assert_eq!(cq.next_due(), Some(Nanos::from_nanos(30)));
        assert_eq!(cq.pop_any(), Some((Nanos::from_nanos(30), 1)));
        assert!(cq.is_empty());
    }

    #[test]
    fn stats_count_bytes() {
        let mut link = RdmaEngine::new(RdmaConfig::default());
        link.issue_read(Nanos::ZERO, 100);
        link.issue_read(Nanos::ZERO, 200);
        assert_eq!(link.stats().bytes, 300);
    }

    #[test]
    fn recorded_ops_carry_queueing_in_latency() {
        use hopp_obs::TraceSink;
        let mut sink = TraceSink::new(16);
        let mut link = RdmaEngine::new(RdmaConfig::default());
        let d1 = link.issue_page_read_rec(Nanos::ZERO, &mut sink);
        let d2 = link.issue_page_read_rec(Nanos::ZERO, &mut sink);
        link.issue_page_write_rec(Nanos::ZERO, &mut sink);
        let events = sink.into_events();
        assert_eq!(events.len(), 3);
        match (events[0].event, events[1].event, events[2].event) {
            (
                Event::RdmaRead { latency: l1, bytes },
                Event::RdmaRead { latency: l2, .. },
                Event::RdmaWrite { .. },
            ) => {
                assert_eq!(bytes, PAGE_SIZE as u64);
                assert_eq!(l1, d1);
                assert_eq!(l2, d2, "second read's latency includes queueing");
                assert!(l2 > l1);
            }
            other => panic!("unexpected events {other:?}"),
        }
        // Events are stamped at completion time.
        assert_eq!(events[0].at, d1);
    }

    #[test]
    fn over_issued_reads_queue_fifo_and_complete_in_issue_order() {
        // Saturate the link: 64 page reads issued at irregular (but
        // non-decreasing) instants, far faster than the wire drains.
        let cfg = RdmaConfig::default();
        let ser = cfg.serialization(PAGE_SIZE);
        let mut link = RdmaEngine::new(cfg);
        let mut cq = CompletionQueue::new();
        let mut dones = Vec::new();
        for i in 0..64u64 {
            let issue = Nanos::from_nanos(i * 13); // ≪ ser ≈ 586 ns apart
            let done = link.issue_page_read(issue);
            cq.push(done, i);
            dones.push(done);
        }
        // FIFO: each op completes exactly one serialization slot after
        // its predecessor once the wire is the bottleneck.
        for w in dones.windows(2) {
            assert_eq!(w[1], w[0] + ser, "wire drains strictly FIFO");
        }
        // The completion queue hands them back in issue order.
        let mut order = Vec::new();
        while let Some((_, i)) = cq.pop_any() {
            order.push(i);
        }
        assert_eq!(order, (0..64).collect::<Vec<_>>());
        // Queueing accounted: op k waited k*ser - issue_gap in total.
        assert!(link.stats().queueing > Nanos::ZERO);
    }

    #[test]
    fn completion_times_are_monotone_in_issue_time() {
        // On a quiet link (constant base latency) the wire is FIFO and
        // latency is added after draining, so a later issue can never
        // complete before an earlier one — whatever the issue gaps.
        let mut link = RdmaEngine::new(RdmaConfig::default());
        let mut last = Nanos::ZERO;
        let mut issue = Nanos::ZERO;
        for i in 0..200u64 {
            // Irregular but non-decreasing issue times: bursts of
            // back-to-back ops separated by occasional long gaps.
            issue += Nanos::from_nanos((i * 37) % 4_000);
            let done = link.issue_page_read(issue);
            assert!(
                done >= last,
                "op issued at {issue:?} completed at {done:?}, before {last:?}"
            );
            assert!(done > issue, "completion strictly after issue");
            last = done;
        }
        // Under jitter the *wire* still drains FIFO even though a
        // burst-phase op may carry a larger base latency than its
        // successor.
        let mut jl = RdmaEngine::new(RdmaConfig::volatile());
        let mut last_free = Nanos::ZERO;
        for i in 0..50u64 {
            jl.issue_page_read(Nanos::from_nanos(i * 100));
            assert!(jl.wire_free_at() > last_free);
            last_free = jl.wire_free_at();
        }
    }

    #[test]
    fn writes_share_the_wire_with_reads() {
        let mut link = RdmaEngine::new(RdmaConfig::default());
        let w = link.issue_page_write(Nanos::ZERO);
        let r = link.issue_page_read(Nanos::ZERO);
        assert!(r > w, "the read queues behind the writeback");
        assert_eq!(link.stats().writes, 1);
        assert_eq!(link.stats().reads, 1);
    }
}
