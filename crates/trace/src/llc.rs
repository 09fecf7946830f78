//! A set-associative last-level cache model.
//!
//! The memory controller — and therefore HoPP's hot page detection —
//! only sees accesses that *miss* in the LLC (§II-D: "MC processes
//! LLC-misses, which automatically reduces the access volume by
//! filtering out those in-LLC accesses"). This model reproduces that
//! filtering: the simulator walks each page touch through
//! [`LastLevelCache::access_page`], which returns the lines that missed;
//! hits are absorbed, misses are forwarded to the MC model.
//!
//! The cache is physically indexed (the simulator translates VPN→PPN
//! before touching it) and uses true-LRU replacement within each set,
//! which is accurate enough at the page-stream granularity HoPP cares
//! about.

use std::ops::Range;

use hopp_types::{AccessKind, Error, LineAddr, Ppn, Result, LINES_PER_PAGE};

/// Geometry of the modelled LLC.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LlcConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (lines per set).
    pub ways: usize,
}

impl LlcConfig {
    /// A 16 MB, 16-way LLC — representative of the 14-core Xeons in the
    /// paper's testbed.
    pub const fn default_server() -> Self {
        LlcConfig {
            capacity_bytes: 16 * 1024 * 1024,
            ways: 16,
        }
    }

    /// A small 256 KB, 8-way cache, useful in tests where eviction
    /// behaviour must be exercised quickly.
    pub const fn tiny() -> Self {
        LlcConfig {
            capacity_bytes: 256 * 1024,
            ways: 8,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the geometry does not divide
    /// into a power-of-two number of non-empty sets.
    pub fn sets(&self) -> Result<usize> {
        let lines = self.capacity_bytes / hopp_types::LINE_SIZE;
        if self.ways == 0 || lines == 0 || !lines.is_multiple_of(self.ways) {
            return Err(Error::InvalidConfig {
                what: "llc geometry",
                constraint: "capacity must be a multiple of ways * 64B",
            });
        }
        let sets = lines / self.ways;
        if !sets.is_power_of_two() {
            return Err(Error::InvalidConfig {
                what: "llc sets",
                constraint: "set count must be a power of two",
            });
        }
        Ok(sets)
    }
}

/// Hit/miss counters for the cache model.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct LlcStats {
    /// Accesses that hit in the cache.
    pub hits: u64,
    /// Accesses that missed and went to memory.
    pub misses: u64,
    /// Lines invalidated because their page left DRAM.
    pub invalidations: u64,
}

impl LlcStats {
    /// Total accesses observed.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of accesses that hit (0 when no accesses were made).
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }
}

/// A set-associative, physically-indexed LLC with true-LRU replacement.
///
/// The ways live in two flat, set-major arrays (`set * ways + way`):
/// `tags` stores `tag + 1` so that 0 marks an invalid way, and `stamps`
/// stores the LRU clock of the way's last touch (0 once invalidated).
/// A victim is the first way with the smallest stamp, which is the
/// first invalid way if there is one and the least recently used way
/// otherwise.
///
/// # Example
///
/// ```
/// use hopp_trace::llc::{LastLevelCache, LlcConfig};
/// use hopp_types::{AccessKind, Ppn};
///
/// let mut llc = LastLevelCache::new(LlcConfig::tiny())?;
/// let line = Ppn::new(1).line(0);
/// assert!(!llc.access(line, AccessKind::Read)); // cold miss
/// assert!(llc.access(line, AccessKind::Read));  // now a hit
/// // A page touch walks its lines once and reports the misses.
/// assert_eq!(llc.access_page(Ppn::new(1), 3, AccessKind::Read), 0b110);
/// # Ok::<(), hopp_types::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct LastLevelCache {
    tags: Vec<u64>,
    stamps: Vec<u64>,
    ways: usize,
    set_mask: u64,
    set_shift: u32,
    clock: u64,
    stats: LlcStats,
}

impl LastLevelCache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the geometry is invalid (see
    /// [`LlcConfig::sets`]).
    pub fn new(config: LlcConfig) -> Result<Self> {
        let sets = config.sets()?;
        Ok(LastLevelCache {
            tags: vec![0; sets * config.ways],
            stamps: vec![0; sets * config.ways],
            ways: config.ways,
            set_mask: sets as u64 - 1,
            set_shift: sets.trailing_zeros(),
            clock: 0,
            stats: LlcStats::default(),
        })
    }

    /// Performs one cacheline access; returns `true` on a hit.
    ///
    /// On a miss the line is installed, evicting the LRU way of its set.
    /// Writes allocate just like reads (write-allocate policy), matching
    /// the "write miss first appears as a read on the bus" behaviour the
    /// paper leans on.
    pub fn access(&mut self, line: LineAddr, _kind: AccessKind) -> bool {
        let set = (line.raw() & self.set_mask) as usize;
        self.touch(set, line.raw() >> self.set_shift)
    }

    /// Accesses lines `0..lines` of `ppn` in order, exactly as `lines`
    /// calls to [`LastLevelCache::access`] would, and returns the miss
    /// mask: bit `i` is set when line `i` missed.
    pub fn access_page(&mut self, ppn: Ppn, lines: u8, _kind: AccessKind) -> u64 {
        let base = ppn.line(0).raw();
        let mut misses = 0u64;
        for i in 0..u64::from(lines) {
            let addr = base | i;
            let set = (addr & self.set_mask) as usize;
            if !self.touch(set, addr >> self.set_shift) {
                misses |= 1 << i;
            }
        }
        misses
    }

    /// Looks `tag` up in `set`, installing it on a miss; returns `true`
    /// on a hit.
    fn touch(&mut self, set: usize, tag: u64) -> bool {
        self.clock += 1;
        // Line addresses are `ppn * 64 + line`, far below `u64::MAX`, so
        // `tag + 1` never wraps onto the invalid marker.
        let stored = tag.wrapping_add(1);
        let ways = set * self.ways..(set + 1) * self.ways;
        let tags = &mut self.tags[ways.clone()];
        let stamps = &mut self.stamps[ways];
        if let Some(way) = tags.iter().position(|&t| t == stored) {
            stamps[way] = self.clock;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        // The victim is the first way with the smallest stamp: the first
        // invalid way (stamp 0) if any, else the LRU way. `new` rejects
        // zero-way geometries, so one always exists.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (way, &stamp) in stamps.iter().enumerate() {
            if stamp < oldest {
                oldest = stamp;
                victim = way;
            }
        }
        tags[victim] = stored;
        stamps[victim] = self.clock;
        false
    }

    /// Drops every line belonging to `ppn`.
    ///
    /// Called when a page is reclaimed to remote memory: its cached lines
    /// must not keep serving hits for data that is no longer local.
    pub fn invalidate_page(&mut self, ppn: Ppn) {
        let base = ppn.line(0).raw();
        if self.set_mask >= LINES_PER_PAGE as u64 - 1 {
            // With at least 64 sets the page's lines share one tag and
            // fill 64 consecutive sets: one contiguous scan.
            let first = (base & self.set_mask) as usize * self.ways;
            let stored = (base >> self.set_shift).wrapping_add(1);
            self.invalidate_ways(first..first + LINES_PER_PAGE * self.ways, stored);
            return;
        }
        for i in 0..LINES_PER_PAGE as u64 {
            let addr = base | i;
            let set = (addr & self.set_mask) as usize;
            let stored = (addr >> self.set_shift).wrapping_add(1);
            self.invalidate_ways(set * self.ways..(set + 1) * self.ways, stored);
        }
    }

    /// Invalidates every way in `span` that holds `stored`.
    fn invalidate_ways(&mut self, span: Range<usize>, stored: u64) {
        let tags = &mut self.tags[span.clone()];
        if !tags.contains(&stored) {
            return;
        }
        for (tag, stamp) in tags.iter_mut().zip(&mut self.stamps[span]) {
            if *tag == stored {
                *tag = 0;
                *stamp = 0;
                self.stats.invalidations += 1;
            }
        }
    }

    /// Hit/miss counters accumulated so far.
    pub fn stats(&self) -> LlcStats {
        self.stats
    }

    /// Clears the counters (the cache contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = LlcStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopp_types::LINE_SIZE;

    fn cache() -> LastLevelCache {
        LastLevelCache::new(LlcConfig::tiny()).unwrap()
    }

    #[test]
    fn geometry_validation() {
        assert!(LlcConfig {
            capacity_bytes: 0,
            ways: 8
        }
        .sets()
        .is_err());
        assert!(LlcConfig {
            capacity_bytes: 1024,
            ways: 0
        }
        .sets()
        .is_err());
        // 3 sets: not a power of two.
        assert!(LlcConfig {
            capacity_bytes: 3 * 8 * LINE_SIZE,
            ways: 8
        }
        .sets()
        .is_err());
        assert_eq!(LlcConfig::tiny().sets().unwrap(), 512);
        assert_eq!(LlcConfig::default_server().sets().unwrap(), 16384);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut llc = cache();
        let line = Ppn::new(42).line(3);
        assert!(!llc.access(line, AccessKind::Read));
        assert!(llc.access(line, AccessKind::Read));
        assert_eq!(llc.stats().hits, 1);
        assert_eq!(llc.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut llc = cache();
        // Fill one set: lines that share the low set-index bits. tiny() has
        // 512 sets, 8 ways; construct 9 lines mapping to set 0.
        let lines: Vec<LineAddr> = (0..9u64).map(|i| LineAddr::new(i * 512)).collect();
        for l in &lines[..8] {
            assert!(!llc.access(*l, AccessKind::Read));
        }
        // Touch line 0 so line 1 becomes the LRU victim.
        assert!(llc.access(lines[0], AccessKind::Read));
        assert!(!llc.access(lines[8], AccessKind::Read)); // evicts lines[1]
        assert!(llc.access(lines[0], AccessKind::Read)); // still resident
        assert!(!llc.access(lines[1], AccessKind::Read)); // was evicted
    }

    #[test]
    fn invalidate_page_drops_all_its_lines() {
        let mut llc = cache();
        let ppn = Ppn::new(7);
        for line in 0..LINES_PER_PAGE as u8 {
            llc.access(ppn.line(line), AccessKind::Read);
        }
        llc.invalidate_page(ppn);
        assert_eq!(llc.stats().invalidations, LINES_PER_PAGE as u64);
        assert!(!llc.access(ppn.line(0), AccessKind::Read));
    }

    #[test]
    fn hit_rate_reporting() {
        let mut llc = cache();
        assert_eq!(llc.stats().hit_rate(), 0.0);
        let line = Ppn::new(1).line(1);
        llc.access(line, AccessKind::Read);
        llc.access(line, AccessKind::Read);
        llc.access(line, AccessKind::Read);
        let s = llc.stats();
        assert_eq!(s.total(), 3);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        llc.reset_stats();
        assert_eq!(llc.stats().total(), 0);
    }

    #[test]
    fn writes_allocate_like_reads() {
        let mut llc = cache();
        let line = Ppn::new(9).line(9);
        assert!(!llc.access(line, AccessKind::Write));
        assert!(llc.access(line, AccessKind::Read));
    }
}
