//! Synthetic page-access pattern generators.
//!
//! §II-B of the paper classifies the stream shapes found in full memory
//! traces of real applications:
//!
//! * **simple streams** — consecutive page accesses with a fixed stride;
//! * **ladder streams** — a repetitive spatial pattern of concentrated
//!   accesses across streams (the *tread*) followed by a larger stable
//!   stride (the *rise*), common in blocked matrix code (HPL);
//! * **ripple streams** — stride-1 streams distorted by out-of-order and
//!   across-stream accesses (NPB-MG);
//! * **interference pages** — accesses that belong to no stream at all.
//!
//! Each generator here produces one such shape deterministically (any
//! randomness comes from a caller-provided seed), and [`Interleaver`]
//! merges several generators to model concurrent threads — the very
//! situation that confuses fault-history-only prefetchers (§II-B ②).

use hopp_types::rng::SplitMix64;
use hopp_types::{AccessKind, PageAccess, Pid, Vpn, LINES_PER_PAGE};

/// A source of page accesses: the interface between workload models and
/// the simulator.
///
/// Implementations must be deterministic for a given construction (seed
/// included) so every experiment is reproducible.
pub trait AccessStream {
    /// Produces the next page touch, or `None` when the stream is done.
    fn next_access(&mut self) -> Option<PageAccess>;

    /// A short human-readable label (used in experiment output).
    fn name(&self) -> &str {
        "stream"
    }
}

impl AccessStream for Box<dyn AccessStream> {
    fn next_access(&mut self) -> Option<PageAccess> {
        (**self).next_access()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

/// Common per-touch knobs shared by the concrete generators.
#[derive(Clone, Copy, Debug)]
struct TouchShape {
    lines: u8,
    think_ns: u32,
    kind: AccessKind,
}

impl Default for TouchShape {
    fn default() -> Self {
        TouchShape {
            lines: LINES_PER_PAGE as u8,
            think_ns: 0,
            kind: AccessKind::Read,
        }
    }
}

impl TouchShape {
    fn touch(&self, pid: Pid, vpn: Vpn) -> PageAccess {
        PageAccess {
            pid,
            vpn,
            kind: self.kind,
            lines: self.lines,
            think_ns: self.think_ns,
        }
    }
}

/// A simple stream: `len` pages starting at `start` with a fixed stride.
///
/// # Example
///
/// ```
/// use hopp_trace::patterns::{SimpleStream, AccessStream};
/// use hopp_types::{Pid, Vpn};
/// let mut s = SimpleStream::new(Pid::new(1), Vpn::new(10), -2, 3);
/// let v: Vec<u64> = std::iter::from_fn(|| s.next_access()).map(|a| a.vpn.raw()).collect();
/// assert_eq!(v, vec![10, 8, 6]);
/// ```
#[derive(Clone, Debug)]
pub struct SimpleStream {
    pid: Pid,
    next: Option<Vpn>,
    stride: i64,
    remaining: u64,
    shape: TouchShape,
}

impl SimpleStream {
    /// Creates a stream of `len` touches from `start` with stride
    /// `stride` (in pages; may be negative).
    pub fn new(pid: Pid, start: Vpn, stride: i64, len: u64) -> Self {
        SimpleStream {
            pid,
            next: Some(start),
            stride,
            remaining: len,
            shape: TouchShape::default(),
        }
    }

    /// Sets the cachelines covered per touch (1..=64).
    ///
    /// # Panics
    ///
    /// Panics if `lines` is 0 or greater than 64.
    pub fn with_lines(mut self, lines: u8) -> Self {
        assert!(lines >= 1 && lines as usize <= LINES_PER_PAGE);
        self.shape.lines = lines;
        self
    }

    /// Sets per-touch compute time.
    pub fn with_think(mut self, think_ns: u32) -> Self {
        self.shape.think_ns = think_ns;
        self
    }

    /// Makes the stream issue writes instead of reads.
    pub fn writes(mut self) -> Self {
        self.shape.kind = AccessKind::Write;
        self
    }
}

impl AccessStream for SimpleStream {
    fn next_access(&mut self) -> Option<PageAccess> {
        if self.remaining == 0 {
            return None;
        }
        let vpn = self.next?;
        self.remaining -= 1;
        self.next = vpn.offset(self.stride);
        Some(self.shape.touch(self.pid, vpn))
    }

    fn name(&self) -> &str {
        "simple"
    }
}

/// A ladder stream: the stride sequence cycles through `tread_strides`
/// followed by one `rise_stride`, repeated `rungs` times.
///
/// With `tread_strides = [2, 2, 2]` and `rise_stride = 12` this produces
/// the exact shape of the paper's Figure 2: three small hops across the
/// interleaved streams, then a jump to the next rung.
#[derive(Clone, Debug)]
pub struct LadderStream {
    pid: Pid,
    current: Option<Vpn>,
    strides: Vec<i64>,
    pos: usize,
    remaining: u64,
    shape: TouchShape,
}

impl LadderStream {
    /// Creates a ladder of `rungs` repetitions of the
    /// `tread_strides ++ [rise_stride]` stride cycle, starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `tread_strides` is empty.
    pub fn new(pid: Pid, start: Vpn, tread_strides: &[i64], rise_stride: i64, rungs: u64) -> Self {
        assert!(
            !tread_strides.is_empty(),
            "a ladder needs at least one tread stride"
        );
        let mut strides = tread_strides.to_vec();
        strides.push(rise_stride);
        let touches_per_rung = strides.len() as u64;
        LadderStream {
            pid,
            current: Some(start),
            strides,
            pos: 0,
            remaining: rungs * touches_per_rung,
            shape: TouchShape::default(),
        }
    }

    /// Sets the cachelines covered per touch.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is 0 or greater than 64.
    pub fn with_lines(mut self, lines: u8) -> Self {
        assert!(lines >= 1 && lines as usize <= LINES_PER_PAGE);
        self.shape.lines = lines;
        self
    }

    /// Sets per-touch compute time.
    pub fn with_think(mut self, think_ns: u32) -> Self {
        self.shape.think_ns = think_ns;
        self
    }
}

impl AccessStream for LadderStream {
    fn next_access(&mut self) -> Option<PageAccess> {
        if self.remaining == 0 {
            return None;
        }
        let vpn = self.current?;
        self.remaining -= 1;
        let stride = self.strides[self.pos];
        self.pos = (self.pos + 1) % self.strides.len();
        self.current = vpn.offset(stride);
        Some(self.shape.touch(self.pid, vpn))
    }

    fn name(&self) -> &str {
        "ladder"
    }
}

/// A ripple stream: a stride-1 scan distorted by bounded out-of-order
/// swaps and occasional hops to a far page that return immediately.
///
/// `jitter` is the probability (0..1) that two adjacent touches are
/// swapped; `hop_every` inserts a far-away interference access every so
/// many touches (0 disables hops). The *cumulative* stride keeps
/// returning to 1, which is the property RSP detects.
#[derive(Clone, Debug)]
pub struct RippleStream {
    pid: Pid,
    queue: Vec<Vpn>,
    pos: usize,
    hop_every: u64,
    hop_base: Vpn,
    issued: u64,
    shape: TouchShape,
}

impl RippleStream {
    /// Creates a ripple stream over pages `start .. start+len`, with the
    /// given out-of-order jitter and hop cadence, deterministically
    /// shuffled from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is not within `0.0..=1.0`.
    pub fn new(pid: Pid, start: Vpn, len: u64, jitter: f64, hop_every: u64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&jitter), "jitter must be in 0..=1");
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut queue: Vec<Vpn> = (0..len)
            .map(|i| Vpn::new(start.raw().saturating_add(i)))
            .collect();
        // Bounded out-of-order: swap adjacent pairs with probability
        // `jitter`. Displacement is at most one page, so |cumulative
        // stride| returns to <= 2 — within RSP's max_stride tolerance.
        let mut i = 0;
        while i + 1 < queue.len() {
            if rng.gen_bool(jitter) {
                queue.swap(i, i + 1);
                i += 2;
            } else {
                i += 1;
            }
        }
        RippleStream {
            pid,
            queue,
            pos: 0,
            hop_every,
            hop_base: Vpn::new(start.raw().saturating_add(len).saturating_add(1 << 20)),
            issued: 0,
            shape: TouchShape::default(),
        }
    }

    /// Sets the cachelines covered per touch.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is 0 or greater than 64.
    pub fn with_lines(mut self, lines: u8) -> Self {
        assert!(lines >= 1 && lines as usize <= LINES_PER_PAGE);
        self.shape.lines = lines;
        self
    }

    /// Sets per-touch compute time.
    pub fn with_think(mut self, think_ns: u32) -> Self {
        self.shape.think_ns = think_ns;
        self
    }

    /// Places the across-stream hop targets at an explicit base (e.g. a
    /// boundary-exchange buffer inside the workload's footprint) instead
    /// of the default far-away region. Hops cycle through 64 pages from
    /// the base.
    pub fn with_hop_base(mut self, base: Vpn) -> Self {
        self.hop_base = base;
        self
    }
}

impl AccessStream for RippleStream {
    fn next_access(&mut self) -> Option<PageAccess> {
        if self.pos >= self.queue.len() {
            return None;
        }
        self.issued += 1;
        if self.hop_every > 0 && self.issued.is_multiple_of(self.hop_every) {
            // A cross-stream access that does not advance the scan.
            let hop = Vpn::new(self.hop_base.raw() + (self.issued / self.hop_every) % 64);
            return Some(self.shape.touch(self.pid, hop));
        }
        let vpn = self.queue[self.pos];
        self.pos += 1;
        Some(self.shape.touch(self.pid, vpn))
    }

    fn name(&self) -> &str {
        "ripple"
    }
}

/// Interference: uniformly random pages in `[lo, hi)` that belong to no
/// stream. Prefetchers must filter these out (§II-B ③).
#[derive(Clone, Debug)]
pub struct NoiseStream {
    pid: Pid,
    lo: u64,
    hi: u64,
    remaining: u64,
    rng: SplitMix64,
    shape: TouchShape,
}

impl NoiseStream {
    /// Creates `len` random touches over the page range `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn new(pid: Pid, lo: Vpn, hi: Vpn, len: u64, seed: u64) -> Self {
        assert!(lo < hi, "noise range must be non-empty");
        NoiseStream {
            pid,
            lo: lo.raw(),
            hi: hi.raw(),
            remaining: len,
            rng: SplitMix64::seed_from_u64(seed),
            shape: TouchShape {
                lines: 4, // random touches rarely cover a full page
                ..TouchShape::default()
            },
        }
    }

    /// Sets the cachelines covered per touch.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is 0 or greater than 64.
    pub fn with_lines(mut self, lines: u8) -> Self {
        assert!(lines >= 1 && lines as usize <= LINES_PER_PAGE);
        self.shape.lines = lines;
        self
    }
}

impl AccessStream for NoiseStream {
    fn next_access(&mut self) -> Option<PageAccess> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let vpn = Vpn::new(self.rng.gen_range(self.lo..self.hi));
        Some(self.shape.touch(self.pid, vpn))
    }

    fn name(&self) -> &str {
        "noise"
    }
}

/// Runs child streams one after another: the access-pattern analogue of
/// program *phases* (quicksort's shrinking partitions, a multigrid
/// V-cycle, Spark stages).
pub struct Chain {
    children: Vec<Box<dyn AccessStream>>,
    current: usize,
}

impl std::fmt::Debug for Chain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chain")
            .field("children", &self.children.len())
            .field("current", &self.current)
            .finish()
    }
}

impl Chain {
    /// Chains `children` in order.
    pub fn new(children: Vec<Box<dyn AccessStream>>) -> Self {
        Chain {
            children,
            current: 0,
        }
    }
}

impl AccessStream for Chain {
    fn next_access(&mut self) -> Option<PageAccess> {
        while self.current < self.children.len() {
            if let Some(acc) = self.children[self.current].next_access() {
                return Some(acc);
            }
            self.current += 1;
        }
        None
    }

    fn name(&self) -> &str {
        "chain"
    }
}

/// How an [`Interleaver`] schedules its child streams.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Schedule {
    /// Strict rotation among live children.
    RoundRobin,
    /// Weighted random choice among live children.
    Weighted,
}

/// Merges several streams into one, modelling concurrent threads whose
/// accesses intertwine on the memory bus.
pub struct Interleaver {
    children: Vec<Box<dyn AccessStream>>,
    weights: Vec<u32>,
    live: Vec<bool>,
    schedule: Schedule,
    next_rr: usize,
    rng: SplitMix64,
    label: String,
}

impl std::fmt::Debug for Interleaver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interleaver")
            .field("children", &self.children.len())
            .field("schedule", &self.schedule)
            .finish()
    }
}

impl Interleaver {
    /// Strict round-robin interleaving of `children`.
    pub fn round_robin(children: Vec<Box<dyn AccessStream>>) -> Self {
        let n = children.len();
        Interleaver {
            weights: vec![1; n],
            live: vec![true; n],
            children,
            schedule: Schedule::RoundRobin,
            next_rr: 0,
            rng: SplitMix64::seed_from_u64(0),
            label: "interleave-rr".to_string(),
        }
    }

    /// Weighted random interleaving: child `i` is chosen with probability
    /// proportional to `weights[i]` among children that still have
    /// accesses to give.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != children.len()` or any weight is zero.
    pub fn weighted(children: Vec<Box<dyn AccessStream>>, weights: Vec<u32>, seed: u64) -> Self {
        assert_eq!(children.len(), weights.len());
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        let n = children.len();
        Interleaver {
            live: vec![true; n],
            children,
            weights,
            schedule: Schedule::Weighted,
            next_rr: 0,
            rng: SplitMix64::seed_from_u64(seed),
            label: "interleave-w".to_string(),
        }
    }

    fn pick_live(&mut self) -> Option<usize> {
        match self.schedule {
            Schedule::RoundRobin => {
                let n = self.children.len();
                for step in 0..n {
                    let idx = (self.next_rr + step) % n;
                    if self.live[idx] {
                        self.next_rr = (idx + 1) % n;
                        return Some(idx);
                    }
                }
                None
            }
            Schedule::Weighted => {
                let total: u64 = self
                    .live
                    .iter()
                    .zip(&self.weights)
                    .filter(|(l, _)| **l)
                    .map(|(_, w)| u64::from(*w))
                    .sum();
                if total == 0 {
                    return None;
                }
                let mut pick = self.rng.gen_range(0..total);
                self.live
                    .iter()
                    .zip(&self.weights)
                    .enumerate()
                    .filter(|(_, (&live, _))| live)
                    .find_map(|(idx, (_, &w))| {
                        if pick < u64::from(w) {
                            return Some(idx);
                        }
                        pick -= u64::from(w);
                        None
                    })
            }
        }
    }
}

impl AccessStream for Interleaver {
    fn next_access(&mut self) -> Option<PageAccess> {
        while let Some(idx) = self.pick_live() {
            if let Some(acc) = self.children[idx].next_access() {
                return Some(acc);
            }
            self.live[idx] = false;
        }
        None
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(mut s: impl AccessStream) -> Vec<u64> {
        std::iter::from_fn(|| s.next_access())
            .map(|a| a.vpn.raw())
            .collect()
    }

    #[test]
    fn simple_stream_emits_fixed_stride() {
        let s = SimpleStream::new(Pid::new(1), Vpn::new(100), 3, 4);
        assert_eq!(collect(s), vec![100, 103, 106, 109]);
    }

    #[test]
    fn simple_stream_stops_at_address_zero() {
        let s = SimpleStream::new(Pid::new(1), Vpn::new(2), -2, 5);
        // 2, 0, then underflow terminates early.
        assert_eq!(collect(s), vec![2, 0]);
    }

    #[test]
    fn simple_stream_shape_builders() {
        let mut s = SimpleStream::new(Pid::new(1), Vpn::new(0), 1, 1)
            .with_lines(8)
            .with_think(25)
            .writes();
        let a = s.next_access().unwrap();
        assert_eq!(a.lines, 8);
        assert_eq!(a.think_ns, 25);
        assert_eq!(a.kind, AccessKind::Write);
    }

    #[test]
    fn ladder_stream_matches_figure_2() {
        // Tread strides [2,2,2], rise 12: exactly fig. 2's shape.
        let s = LadderStream::new(Pid::new(1), Vpn::new(0), &[2, 2, 2], 12, 2);
        assert_eq!(collect(s), vec![0, 2, 4, 6, 18, 20, 22, 24]);
    }

    #[test]
    fn ladder_stride_sequence_is_cyclic() {
        let s = LadderStream::new(Pid::new(1), Vpn::new(10), &[1], 5, 3);
        let v = collect(s);
        let strides: Vec<i64> = v.windows(2).map(|w| w[1] as i64 - w[0] as i64).collect();
        assert_eq!(strides, vec![1, 5, 1, 5, 1]);
    }

    #[test]
    fn ripple_stream_covers_every_page_once() {
        let s = RippleStream::new(Pid::new(1), Vpn::new(50), 40, 0.3, 0, 7);
        let mut v = collect(s);
        v.sort_unstable();
        let expect: Vec<u64> = (50..90).collect();
        assert_eq!(v, expect);
    }

    #[test]
    fn ripple_jitter_keeps_cumulative_stride_bounded() {
        let s = RippleStream::new(Pid::new(1), Vpn::new(0), 64, 0.5, 0, 3);
        let v = collect(s);
        // Every page must appear within 1 position of its in-order slot.
        for (pos, page) in v.iter().enumerate() {
            assert!((*page as i64 - pos as i64).abs() <= 1);
        }
    }

    #[test]
    fn ripple_hops_leave_and_return() {
        let s = RippleStream::new(Pid::new(1), Vpn::new(0), 10, 0.0, 4, 1);
        let v = collect(s);
        // Every 4th issued access is a far hop; the scan still covers 0..10.
        let in_range: Vec<u64> = v.iter().copied().filter(|p| *p < 10).collect();
        assert_eq!(in_range, (0..10).collect::<Vec<_>>());
        assert!(v.iter().any(|p| *p >= 10), "expected at least one hop");
    }

    #[test]
    fn noise_stays_in_range_and_is_deterministic() {
        let a = collect(NoiseStream::new(
            Pid::new(1),
            Vpn::new(10),
            Vpn::new(20),
            100,
            42,
        ));
        let b = collect(NoiseStream::new(
            Pid::new(1),
            Vpn::new(10),
            Vpn::new(20),
            100,
            42,
        ));
        assert_eq!(a, b);
        assert!(a.iter().all(|p| (10..20).contains(p)));
    }

    #[test]
    fn round_robin_alternates_and_drains() {
        let s1 = SimpleStream::new(Pid::new(1), Vpn::new(0), 1, 3);
        let s2 = SimpleStream::new(Pid::new(2), Vpn::new(100), 1, 1);
        let inter = Interleaver::round_robin(vec![Box::new(s1), Box::new(s2)]);
        assert_eq!(collect(inter), vec![0, 100, 1, 2]);
    }

    #[test]
    fn weighted_interleaver_is_deterministic_and_complete() {
        let make = || {
            let s1 = SimpleStream::new(Pid::new(1), Vpn::new(0), 1, 50);
            let s2 = SimpleStream::new(Pid::new(2), Vpn::new(1000), 1, 50);
            Interleaver::weighted(vec![Box::new(s1), Box::new(s2)], vec![3, 1], 9)
        };
        let a = collect(make());
        let b = collect(make());
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert_eq!(a.iter().filter(|p| **p < 1000).count(), 50);
    }

    #[test]
    fn chain_runs_children_in_order() {
        let s1 = SimpleStream::new(Pid::new(1), Vpn::new(0), 1, 2);
        let s2 = SimpleStream::new(Pid::new(1), Vpn::new(100), 1, 2);
        let c = Chain::new(vec![Box::new(s1), Box::new(s2)]);
        assert_eq!(collect(c), vec![0, 1, 100, 101]);
    }

    #[test]
    fn chain_skips_empty_children() {
        let empty = SimpleStream::new(Pid::new(1), Vpn::new(0), 1, 0);
        let s = SimpleStream::new(Pid::new(1), Vpn::new(5), 1, 1);
        let c = Chain::new(vec![Box::new(empty), Box::new(s)]);
        assert_eq!(collect(c), vec![5]);
        assert!(Chain::new(vec![]).next_access().is_none());
    }

    #[test]
    #[should_panic]
    fn weighted_rejects_zero_weight() {
        let s1 = SimpleStream::new(Pid::new(1), Vpn::new(0), 1, 1);
        let _ = Interleaver::weighted(vec![Box::new(s1)], vec![0], 1);
    }
}
