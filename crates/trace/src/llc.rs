//! A set-associative last-level cache model.
//!
//! The memory controller — and therefore HoPP's hot page detection —
//! only sees accesses that *miss* in the LLC (§II-D: "MC processes
//! LLC-misses, which automatically reduces the access volume by
//! filtering out those in-LLC accesses"). This model reproduces that
//! filtering: the simulator pushes every cacheline access through
//! [`LastLevelCache::access`]; hits are absorbed, misses are forwarded
//! to the MC model.
//!
//! The cache is physically indexed (the simulator translates VPN→PPN
//! before touching it) and uses true-LRU replacement within each set,
//! which is accurate enough at the page-stream granularity HoPP cares
//! about.

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

/// One cache way: the stored tag plus an LRU stamp.
#[derive(Clone, Copy, Debug)]
struct Way {
    tag: u64,
    valid: bool,
    lru: u64,
}

/// A set-associative, physically-indexed LLC with true-LRU replacement.
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
/// # Ok::<(), hopp_types::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct LastLevelCache {
    sets: Vec<Vec<Way>>,
    set_mask: u64,
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
            sets: vec![
                vec![
                    Way {
                        tag: 0,
                        valid: false,
                        lru: 0
                    };
                    config.ways
                ];
                sets
            ],
            set_mask: sets as u64 - 1,
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
        self.clock += 1;
        let set_idx = (line.raw() & self.set_mask) as usize;
        let tag = line.raw() >> self.set_mask.trailing_ones();
        let set = &mut self.sets[set_idx];

        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.lru = self.clock;
            self.stats.hits += 1;
            return true;
        }

        self.stats.misses += 1;
        // Install, preferring an invalid way, else the LRU way. `new`
        // rejects zero-way geometries, so a victim always exists; a set
        // with no ways could hold nothing and the access stays a miss.
        let Some(victim) = set
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru } else { 0 })
        else {
            return false;
        };
        victim.tag = tag;
        victim.valid = true;
        victim.lru = self.clock;
        false
    }

    /// Drops every line belonging to `ppn`.
    ///
    /// Called when a page is reclaimed to remote memory: its cached lines
    /// must not keep serving hits for data that is no longer local.
    pub fn invalidate_page(&mut self, ppn: Ppn) {
        for line in 0..LINES_PER_PAGE as u8 {
            let addr = ppn.line(line);
            let set_idx = (addr.raw() & self.set_mask) as usize;
            let tag = addr.raw() >> self.set_mask.trailing_ones();
            for way in &mut self.sets[set_idx] {
                if way.valid && way.tag == tag {
                    way.valid = false;
                    self.stats.invalidations += 1;
                }
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
