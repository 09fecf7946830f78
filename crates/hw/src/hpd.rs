//! Hot Page Detection (HPD) table — §III-B of the paper.
//!
//! The memory controller sees cacheline-granular LLC misses. Feeding the
//! raw trace to software would consume excessive bandwidth, so the HPD
//! table condenses it into *hot pages*: pages read-missed at least `N`
//! times while resident in the small table. The table is a 16-way,
//! 4-set associative cache (64 entries) with LRU replacement; the lowest
//! two PPN bits select the set. Each entry holds the PPN, an access
//! counter, and a *send bit* marking pages already emitted (further
//! accesses to them are dropped until the entry is evicted).
//!
//! Only READ misses are counted: write misses appear first as reads on
//! the bus, and RDMA DMA-writes of fetched pages would otherwise be
//! indistinguishable from application writes (§III-B).

use hopp_types::{AccessKind, Error, LineAddr, Ppn, Result};

/// Geometry and threshold of the HPD table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HpdConfig {
    /// Hotness threshold `N`: reads required before a page is emitted.
    /// Must be in `1..=64` (a 4 KB page has 64 cachelines). Default 8.
    pub threshold: u32,
    /// Associativity. Default 16.
    pub ways: usize,
    /// Number of sets (indexed by the low PPN bits). Default 4.
    pub sets: usize,
}

impl Default for HpdConfig {
    fn default() -> Self {
        HpdConfig {
            threshold: 8,
            ways: 16,
            sets: 4,
        }
    }
}

impl HpdConfig {
    /// A default-geometry table with a custom threshold `n`.
    pub fn with_threshold(n: u32) -> Self {
        HpdConfig {
            threshold: n,
            ..HpdConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the threshold is outside
    /// `1..=64`, a dimension is zero, or `sets` is not a power of two.
    pub fn validate(&self) -> Result<()> {
        if self.threshold == 0 || self.threshold > hopp_types::LINES_PER_PAGE as u32 {
            return Err(Error::InvalidConfig {
                what: "hpd threshold",
                constraint: "1..=64",
            });
        }
        if self.ways == 0 || self.sets == 0 || !self.sets.is_power_of_two() {
            return Err(Error::InvalidConfig {
                what: "hpd geometry",
                constraint: "ways > 0, sets a power of two",
            });
        }
        Ok(())
    }
}

/// Counters describing HPD behaviour; Table II is derived from these.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct HpdStats {
    /// Read misses processed (the table's input volume).
    pub reads: u64,
    /// Write misses seen and ignored.
    pub writes_ignored: u64,
    /// Hot pages emitted.
    pub hot_pages: u64,
    /// Accesses dropped because the entry's send bit was set.
    pub send_bit_drops: u64,
    /// Entries evicted before reaching the threshold (hotness lost).
    pub cold_evictions: u64,
    /// Evicted entries that had already been sent (re-detection likely).
    pub sent_evictions: u64,
}

impl HpdStats {
    /// Accumulates another channel's counters into this one.
    pub fn merge(&mut self, other: HpdStats) {
        self.reads += other.reads;
        self.writes_ignored += other.writes_ignored;
        self.hot_pages += other.hot_pages;
        self.send_bit_drops += other.send_bit_drops;
        self.cold_evictions += other.cold_evictions;
        self.sent_evictions += other.sent_evictions;
    }

    /// Table II's metric: hot pages emitted per memory access processed.
    pub fn hot_ratio(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.hot_pages as f64 / self.reads as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct HpdEntry {
    ppn: Ppn,
    count: u32,
    sent: bool,
    valid: bool,
    lru: u64,
}

const INVALID: HpdEntry = HpdEntry {
    ppn: Ppn::new(0),
    count: 0,
    sent: false,
    valid: false,
    lru: 0,
};

/// The hot page detection table.
///
/// The entries live in one flat, set-major array (`set * ways + way`).
///
/// # Example
///
/// ```
/// use hopp_hw::hpd::{HotPageDetector, HpdConfig};
/// use hopp_types::{AccessKind, Ppn};
///
/// let mut hpd = HotPageDetector::new(HpdConfig::with_threshold(2))?;
/// let page = Ppn::new(40);
/// assert_eq!(hpd.on_miss(page.line(0), AccessKind::Read), None);
/// assert_eq!(hpd.on_miss(page.line(1), AccessKind::Read), Some(page));
/// // Send bit set: further accesses are dropped.
/// assert_eq!(hpd.on_miss(page.line(2), AccessKind::Read), None);
/// // Three misses of another page in one lookup: the second one fires.
/// assert_eq!(hpd.on_misses(Ppn::new(41), AccessKind::Read, 3), Some(1));
/// # Ok::<(), hopp_types::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct HotPageDetector {
    config: HpdConfig,
    entries: Vec<HpdEntry>,
    set_mask: u64,
    clock: u64,
    stats: HpdStats,
}

impl HotPageDetector {
    /// Builds an empty table.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `config` is invalid.
    pub fn new(config: HpdConfig) -> Result<Self> {
        config.validate()?;
        Ok(HotPageDetector {
            entries: vec![INVALID; config.ways * config.sets],
            set_mask: config.sets as u64 - 1,
            config,
            clock: 0,
            stats: HpdStats::default(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> HpdConfig {
        self.config
    }

    /// Processes one LLC miss; returns the PPN if this miss makes the
    /// page hot.
    pub fn on_miss(&mut self, line: LineAddr, kind: AccessKind) -> Option<Ppn> {
        let ppn = line.ppn();
        self.on_misses(ppn, kind, 1).map(|_| ppn)
    }

    /// Processes `k` consecutive LLC misses of one page with a single
    /// set lookup, exactly as `k` calls to [`HotPageDetector::on_miss`]
    /// would. Returns the index (`0..k`) of the miss that makes the
    /// page hot, if one does; the misses after it are send-bit drops.
    pub fn on_misses(&mut self, ppn: Ppn, kind: AccessKind, k: u32) -> Option<u32> {
        if k == 0 {
            return None;
        }
        if !kind.is_read() {
            self.stats.writes_ignored += u64::from(k);
            return None;
        }
        self.stats.reads += u64::from(k);
        let first = ((ppn.raw() & self.set_mask) as usize) * self.config.ways;
        let set = &mut self.entries[first..first + self.config.ways];
        let entry = match set.iter().position(|e| e.valid && e.ppn == ppn) {
            Some(way) => &mut set[way],
            None => {
                // Insert, evicting LRU if the set is full; the entry
                // then counts its misses like a resident one.
                #[expect(
                    clippy::expect_used,
                    reason = "HpdConfig::validate rejects zero ways at construction"
                )]
                let victim = set
                    .iter_mut()
                    .min_by_key(|e| if e.valid { e.lru } else { 0 })
                    .expect("ways >= 1 validated");
                if victim.valid {
                    if victim.sent {
                        self.stats.sent_evictions += 1;
                    } else {
                        self.stats.cold_evictions += 1;
                    }
                }
                *victim = HpdEntry {
                    ppn,
                    valid: true,
                    ..INVALID
                };
                victim
            }
        };
        // Every miss advanced the clock and touched the entry; only the
        // last stamp survives.
        self.clock += u64::from(k);
        entry.lru = self.clock;
        if entry.sent {
            self.stats.send_bit_drops += u64::from(k);
            return None;
        }
        // An unsent entry is below the threshold, so `need >= 1`.
        let need = self.config.threshold - entry.count;
        if k < need {
            entry.count += k;
            return None;
        }
        entry.count = self.config.threshold;
        entry.sent = true;
        self.stats.hot_pages += 1;
        self.stats.send_bit_drops += u64::from(k - need);
        Some(need - 1)
    }

    /// Invalidate the entry of a page leaving DRAM, so its counter does
    /// not linger.
    pub fn invalidate(&mut self, ppn: Ppn) {
        let first = ((ppn.raw() & self.set_mask) as usize) * self.config.ways;
        for entry in &mut self.entries[first..first + self.config.ways] {
            if entry.valid && entry.ppn == ppn {
                entry.valid = false;
            }
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> HpdStats {
        self.stats
    }

    /// Clears the counters (table contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = HpdStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hpd(n: u32) -> HotPageDetector {
        HotPageDetector::new(HpdConfig::with_threshold(n)).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(HpdConfig::with_threshold(0).validate().is_err());
        assert!(HpdConfig::with_threshold(65).validate().is_err());
        assert!(HpdConfig::with_threshold(8).validate().is_ok());
        assert!(HpdConfig {
            sets: 3,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(HpdConfig {
            ways: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn page_becomes_hot_exactly_at_threshold() {
        let mut h = hpd(8);
        let page = Ppn::new(100);
        for i in 0..7 {
            assert_eq!(h.on_miss(page.line(i), AccessKind::Read), None);
        }
        assert_eq!(h.on_miss(page.line(7), AccessKind::Read), Some(page));
        assert_eq!(h.stats().hot_pages, 1);
    }

    #[test]
    fn send_bit_suppresses_repeats() {
        let mut h = hpd(2);
        let page = Ppn::new(4);
        h.on_miss(page.line(0), AccessKind::Read);
        assert_eq!(h.on_miss(page.line(1), AccessKind::Read), Some(page));
        for i in 2..10 {
            assert_eq!(h.on_miss(page.line(i), AccessKind::Read), None);
        }
        assert_eq!(h.stats().send_bit_drops, 8);
        assert_eq!(h.stats().hot_pages, 1);
    }

    #[test]
    fn writes_are_ignored() {
        let mut h = hpd(1);
        assert_eq!(h.on_miss(Ppn::new(1).line(0), AccessKind::Write), None);
        assert_eq!(h.stats().writes_ignored, 1);
        assert_eq!(h.stats().reads, 0);
    }

    #[test]
    fn threshold_one_fires_immediately() {
        let mut h = hpd(1);
        let page = Ppn::new(9);
        assert_eq!(h.on_miss(page.line(0), AccessKind::Read), Some(page));
    }

    #[test]
    fn lru_eviction_loses_cold_counts() {
        let mut h = hpd(8);
        // 17 pages mapping to set 0 (ppn % 4 == 0): one more than the ways.
        let pages: Vec<Ppn> = (0..17u64).map(|i| Ppn::new(i * 4)).collect();
        for p in &pages {
            h.on_miss(p.line(0), AccessKind::Read);
        }
        assert_eq!(h.stats().cold_evictions, 1);
        // pages[0] was evicted: its count restarts, so 7 more accesses
        // don't make it hot (1+7 == 8 would, but the old count is gone).
        for i in 1..8 {
            assert_eq!(h.on_miss(pages[0].line(i), AccessKind::Read), None);
        }
        assert_eq!(
            h.on_miss(pages[0].line(8), AccessKind::Read),
            Some(pages[0])
        );
    }

    #[test]
    fn eviction_of_sent_entry_allows_re_detection() {
        let mut h = hpd(1);
        let hot = Ppn::new(0);
        assert_eq!(h.on_miss(hot.line(0), AccessKind::Read), Some(hot));
        // Evict it by filling the set with 16 other pages.
        for i in 1..=16u64 {
            h.on_miss(Ppn::new(i * 4).line(0), AccessKind::Read);
        }
        assert_eq!(h.stats().sent_evictions, 1);
        // The page can be detected hot again — software dedups (§III-B).
        assert_eq!(h.on_miss(hot.line(1), AccessKind::Read), Some(hot));
        assert_eq!(h.stats().hot_pages, 18);
    }

    #[test]
    fn sets_are_independent() {
        let mut h = hpd(2);
        // Pages in different sets never evict each other.
        let a = Ppn::new(0); // set 0
        let b = Ppn::new(1); // set 1
        h.on_miss(a.line(0), AccessKind::Read);
        h.on_miss(b.line(0), AccessKind::Read);
        assert_eq!(h.on_miss(a.line(1), AccessKind::Read), Some(a));
        assert_eq!(h.on_miss(b.line(1), AccessKind::Read), Some(b));
        assert_eq!(h.stats().cold_evictions, 0);
    }

    #[test]
    fn invalidate_resets_progress() {
        let mut h = hpd(2);
        let page = Ppn::new(12);
        h.on_miss(page.line(0), AccessKind::Read);
        h.invalidate(page);
        assert_eq!(h.on_miss(page.line(1), AccessKind::Read), None);
        assert_eq!(h.on_miss(page.line(2), AccessKind::Read), Some(page));
    }

    #[test]
    fn hot_ratio_matches_counts() {
        let mut h = hpd(4);
        let page = Ppn::new(8);
        for i in 0..4 {
            h.on_miss(page.line(i), AccessKind::Read);
        }
        assert!((h.stats().hot_ratio() - 0.25).abs() < 1e-12);
        h.reset_stats();
        assert_eq!(h.stats().hot_ratio(), 0.0);
    }
}
