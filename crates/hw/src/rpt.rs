//! Reverse Page Table (RPT) and its in-MC cache — §III-C of the paper.
//!
//! The memory controller works in physical addresses; prefetching works
//! in `(PID, VPN)` space. The RPT maps each PPN back to its owner. The
//! authoritative copy lives in a reserved, *uncached* DRAM region (8 B
//! per frame: 16-bit PID, 40-bit VPN, shared flag, 2-bit huge flag); the
//! MC holds a small 16-way write-back cache in front of it. All RPT
//! reads and writes pass through the cache, so no extra coherence
//! machinery is needed.
//!
//! The kernel keeps the RPT current by notifying it from its PTE
//! install/clear paths — [`ReversePageTable`] implements
//! [`hopp_mem::PteListener`] for exactly that purpose. The DRAM copy is
//! only updated lazily when the cache writes back dirty entries, as in
//! the paper.

use hopp_ds::PageMap;
use hopp_mem::PteListener;
use hopp_types::{Error, PageFlags, Pid, Ppn, Result, Vpn};

/// Size of one RPT entry in bytes (64 bits per the paper's layout).
pub const RPT_ENTRY_BYTES: usize = 8;

/// One RPT record: the owner and flags of a physical frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RptEntry {
    /// Owning process (16 bits in hardware).
    pub pid: Pid,
    /// Virtual page within that process (40 bits in hardware).
    pub vpn: Vpn,
    /// Shared/huge flags, forwarded to software unconsumed.
    pub flags: PageFlags,
}

/// Geometry of the in-MC RPT cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RptCacheConfig {
    /// Cache capacity in bytes (entries are 8 B each). Default 64 KB.
    pub capacity_bytes: usize,
    /// Associativity. Default 16.
    pub ways: usize,
}

impl Default for RptCacheConfig {
    fn default() -> Self {
        RptCacheConfig {
            capacity_bytes: 64 * 1024,
            ways: 16,
        }
    }
}

impl RptCacheConfig {
    /// A default-associativity cache of `kib` kibibytes.
    pub fn with_kib(kib: usize) -> Self {
        RptCacheConfig {
            capacity_bytes: kib * 1024,
            ways: 16,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the capacity does not divide
    /// into a power-of-two number of non-empty sets.
    pub fn sets(&self) -> Result<usize> {
        let entries = self.capacity_bytes / RPT_ENTRY_BYTES;
        if self.ways == 0 || entries == 0 || !entries.is_multiple_of(self.ways) {
            return Err(Error::InvalidConfig {
                what: "rpt cache geometry",
                constraint: "capacity must be a multiple of ways * 8B",
            });
        }
        let sets = entries / self.ways;
        if !sets.is_power_of_two() {
            return Err(Error::InvalidConfig {
                what: "rpt cache sets",
                constraint: "set count must be a power of two",
            });
        }
        Ok(sets)
    }
}

/// RPT activity counters; Table III (hit rate) and the RPT row of
/// Table V (DRAM traffic) derive from these.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct RptStats {
    /// Hot-page lookups served.
    pub lookups: u64,
    /// Lookups satisfied by the cache.
    pub hits: u64,
    /// Lookups that had to read the DRAM RPT.
    pub dram_reads: u64,
    /// Dirty entries written back to the DRAM RPT.
    pub dram_writebacks: u64,
    /// Lookups that found no mapping at all (frame not owned).
    pub unresolved: u64,
    /// PTE-hook updates applied.
    pub updates: u64,
}

impl RptStats {
    /// Cache hit rate over lookups (Table III's metric).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Total 8-byte DRAM RPT transfers (reads + writebacks).
    pub fn dram_accesses(&self) -> u64 {
        self.dram_reads + self.dram_writebacks
    }
}

#[derive(Clone, Copy, Debug)]
struct CacheWay {
    ppn: Ppn,
    entry: Option<RptEntry>, // None encodes a cached "no mapping"
    valid: bool,
    dirty: bool,
    lru: u64,
}

const INVALID_WAY: CacheWay = CacheWay {
    ppn: Ppn::new(0),
    entry: None,
    valid: false,
    dirty: false,
    lru: 0,
};

/// The reverse page table: DRAM copy + in-MC cache.
///
/// # Example
///
/// ```
/// use hopp_hw::rpt::{ReversePageTable, RptCacheConfig};
/// use hopp_mem::PteListener;
/// use hopp_types::{Pid, Ppn, Vpn};
///
/// let mut rpt = ReversePageTable::new(RptCacheConfig::default())?;
/// // The kernel installs a PTE; the hook keeps the RPT current.
/// rpt.pte_set(Pid::new(1), Vpn::new(0x10), Ppn::new(3));
/// let e = rpt.lookup(Ppn::new(3)).unwrap();
/// assert_eq!((e.pid, e.vpn), (Pid::new(1), Vpn::new(0x10)));
/// # Ok::<(), hopp_types::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct ReversePageTable {
    dram: PageMap<Ppn, RptEntry>,
    sets: Vec<Vec<CacheWay>>,
    set_mask: u64,
    clock: u64,
    stats: RptStats,
}

impl ReversePageTable {
    /// Builds an empty RPT with the given cache geometry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for invalid geometry.
    pub fn new(config: RptCacheConfig) -> Result<Self> {
        let sets = config.sets()?;
        Ok(ReversePageTable {
            dram: PageMap::new(),
            sets: vec![vec![INVALID_WAY; config.ways]; sets],
            set_mask: sets as u64 - 1,
            clock: 0,
            stats: RptStats::default(),
        })
    }

    /// Builds the initial RPT by walking all existing page tables, as
    /// HoPP does at startup (§III-C). `owned` yields every allocated
    /// frame with its owner (see [`hopp_mem::FrameAllocator::iter_owned`]).
    pub fn bootstrap<I>(&mut self, owned: I)
    where
        I: IntoIterator<Item = (Ppn, Pid, Vpn)>,
    {
        for (ppn, pid, vpn) in owned {
            self.dram.insert(
                ppn,
                RptEntry {
                    pid,
                    vpn,
                    flags: PageFlags::default(),
                },
            );
        }
    }

    fn set_of(&self, ppn: Ppn) -> usize {
        (ppn.raw() & self.set_mask) as usize
    }

    /// Finds the cache way holding `ppn`, updating LRU on hit.
    fn cache_find(&mut self, ppn: Ppn) -> Option<(usize, usize)> {
        let set_idx = self.set_of(ppn);
        let clock = self.clock;
        self.sets[set_idx]
            .iter_mut()
            .position(|w| w.valid && w.ppn == ppn)
            .map(|way_idx| {
                self.sets[set_idx][way_idx].lru = clock;
                (set_idx, way_idx)
            })
    }

    /// Installs `(ppn, entry)` in the cache, writing back the dirty
    /// victim if needed.
    fn cache_fill(&mut self, ppn: Ppn, entry: Option<RptEntry>, dirty: bool) {
        let set_idx = self.set_of(ppn);
        let clock = self.clock;
        let set = &mut self.sets[set_idx];
        #[expect(
            clippy::expect_used,
            reason = "RptCacheConfig::validate rejects zero ways at construction"
        )]
        let victim_idx = set
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| if w.valid { w.lru } else { 0 })
            .map(|(i, _)| i)
            .expect("ways >= 1 validated");
        let victim = set[victim_idx];
        if victim.valid && victim.dirty {
            // Lazy DRAM update on writeback (§V).
            match victim.entry {
                Some(e) => {
                    self.dram.insert(victim.ppn, e);
                }
                None => {
                    self.dram.remove(victim.ppn);
                }
            }
            self.stats.dram_writebacks += 1;
        }
        self.sets[set_idx][victim_idx] = CacheWay {
            ppn,
            entry,
            valid: true,
            dirty,
            lru: clock,
        };
    }

    /// Resolves a hot PPN to its owner, via the cache.
    ///
    /// Returns `None` when the frame has no current mapping (e.g. it was
    /// freed between detection and lookup) — such hot pages are dropped.
    pub fn lookup(&mut self, ppn: Ppn) -> Option<RptEntry> {
        self.clock += 1;
        self.stats.lookups += 1;
        if let Some((set_idx, way_idx)) = self.cache_find(ppn) {
            self.stats.hits += 1;
            let entry = self.sets[set_idx][way_idx].entry;
            if entry.is_none() {
                self.stats.unresolved += 1;
            }
            return entry;
        }
        // Miss: read the DRAM copy and fill.
        let _prof = hopp_prof::span("hw/rpt_walk");
        self.stats.dram_reads += 1;
        let entry = self.dram.get(ppn).copied();
        if entry.is_none() {
            self.stats.unresolved += 1;
        }
        self.cache_fill(ppn, entry, false);
        entry
    }

    /// Updates the shared/huge flags of a mapping (write-through the
    /// cache like any other update).
    pub fn set_flags(&mut self, ppn: Ppn, flags: PageFlags) {
        self.clock += 1;
        if let Some((set_idx, way_idx)) = self.cache_find(ppn) {
            if let Some(e) = &mut self.sets[set_idx][way_idx].entry {
                e.flags = flags;
                self.sets[set_idx][way_idx].dirty = true;
                return;
            }
        }
        if let Some(e) = self.dram.get(ppn).copied() {
            self.cache_fill(ppn, Some(RptEntry { flags, ..e }), true);
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> RptStats {
        self.stats
    }

    /// Clears the counters (contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = RptStats::default();
    }

    /// Number of mappings currently in the DRAM copy (test/debug aid;
    /// dirty cache entries may supersede some of them).
    pub fn dram_entries(&self) -> usize {
        self.dram.len()
    }
}

impl PteListener for ReversePageTable {
    /// `set_pte_at` hook: record the new mapping (write-back: cache now,
    /// DRAM at eviction).
    fn pte_set(&mut self, pid: Pid, vpn: Vpn, ppn: Ppn) {
        self.clock += 1;
        self.stats.updates += 1;
        let entry = Some(RptEntry {
            pid,
            vpn,
            flags: PageFlags::default(),
        });
        if let Some((set_idx, way_idx)) = self.cache_find(ppn) {
            let way = &mut self.sets[set_idx][way_idx];
            way.entry = entry;
            way.dirty = true;
        } else {
            self.cache_fill(ppn, entry, true);
        }
    }

    /// `pte_clear` hook: drop the mapping.
    fn pte_clear(&mut self, _pid: Pid, _vpn: Vpn, ppn: Ppn) {
        self.clock += 1;
        self.stats.updates += 1;
        if let Some((set_idx, way_idx)) = self.cache_find(ppn) {
            let way = &mut self.sets[set_idx][way_idx];
            way.entry = None;
            way.dirty = true;
        } else {
            self.cache_fill(ppn, None, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rpt() -> ReversePageTable {
        ReversePageTable::new(RptCacheConfig::default()).unwrap()
    }

    fn small_rpt() -> ReversePageTable {
        // 1 set x 2 ways, to force evictions easily.
        ReversePageTable::new(RptCacheConfig {
            capacity_bytes: 2 * RPT_ENTRY_BYTES,
            ways: 2,
        })
        .unwrap()
    }

    #[test]
    fn geometry_validation() {
        assert_eq!(RptCacheConfig::default().sets().unwrap(), 512);
        assert_eq!(RptCacheConfig::with_kib(1).sets().unwrap(), 8);
        assert!(RptCacheConfig {
            capacity_bytes: 24,
            ways: 16
        }
        .sets()
        .is_err());
        assert!(RptCacheConfig {
            capacity_bytes: 0,
            ways: 16
        }
        .sets()
        .is_err());
    }

    #[test]
    fn hook_then_lookup_hits_cache() {
        let mut r = rpt();
        r.pte_set(Pid::new(1), Vpn::new(0x99), Ppn::new(5));
        let e = r.lookup(Ppn::new(5)).unwrap();
        assert_eq!(e.pid, Pid::new(1));
        assert_eq!(e.vpn, Vpn::new(0x99));
        assert_eq!(r.stats().hits, 1);
        assert_eq!(r.stats().dram_reads, 0);
    }

    #[test]
    fn clear_hook_invalidates_mapping() {
        let mut r = rpt();
        r.pte_set(Pid::new(1), Vpn::new(1), Ppn::new(2));
        r.pte_clear(Pid::new(1), Vpn::new(1), Ppn::new(2));
        assert_eq!(r.lookup(Ppn::new(2)), None);
        assert_eq!(r.stats().unresolved, 1);
    }

    #[test]
    fn bootstrap_fills_dram_and_miss_reads_it() {
        let mut r = rpt();
        r.bootstrap([(Ppn::new(7), Pid::new(2), Vpn::new(70))]);
        let e = r.lookup(Ppn::new(7)).unwrap();
        assert_eq!(e.vpn, Vpn::new(70));
        assert_eq!(r.stats().dram_reads, 1);
        assert_eq!(r.stats().hits, 0);
        // Second lookup hits the cache.
        r.lookup(Ppn::new(7)).unwrap();
        assert_eq!(r.stats().hits, 1);
    }

    #[test]
    fn dirty_eviction_writes_back_lazily() {
        let mut r = small_rpt();
        r.pte_set(Pid::new(1), Vpn::new(10), Ppn::new(0));
        r.pte_set(Pid::new(1), Vpn::new(11), Ppn::new(1));
        assert_eq!(r.dram_entries(), 0, "write-back: DRAM untouched so far");
        // Third distinct PPN evicts the LRU dirty entry.
        r.pte_set(Pid::new(1), Vpn::new(12), Ppn::new(2));
        assert_eq!(r.stats().dram_writebacks, 1);
        assert_eq!(r.dram_entries(), 1);
        // The written-back mapping is still resolvable (via DRAM read).
        let e = r.lookup(Ppn::new(0)).unwrap();
        assert_eq!(e.vpn, Vpn::new(10));
    }

    #[test]
    fn cleared_mapping_eviction_removes_from_dram() {
        let mut r = small_rpt();
        r.bootstrap([(Ppn::new(0), Pid::new(1), Vpn::new(10))]);
        r.pte_clear(Pid::new(1), Vpn::new(10), Ppn::new(0));
        // Evict the tombstone.
        r.pte_set(Pid::new(1), Vpn::new(11), Ppn::new(1));
        r.pte_set(Pid::new(1), Vpn::new(12), Ppn::new(2));
        assert_eq!(r.lookup(Ppn::new(0)), None);
    }

    #[test]
    fn remap_supersedes_previous_owner() {
        let mut r = rpt();
        r.pte_set(Pid::new(1), Vpn::new(10), Ppn::new(3));
        r.pte_clear(Pid::new(1), Vpn::new(10), Ppn::new(3));
        r.pte_set(Pid::new(2), Vpn::new(20), Ppn::new(3));
        let e = r.lookup(Ppn::new(3)).unwrap();
        assert_eq!((e.pid, e.vpn), (Pid::new(2), Vpn::new(20)));
    }

    #[test]
    fn flags_update_via_cache() {
        let mut r = rpt();
        r.pte_set(Pid::new(1), Vpn::new(1), Ppn::new(9));
        r.set_flags(
            Ppn::new(9),
            PageFlags {
                shared: true,
                huge: false,
            },
        );
        assert!(r.lookup(Ppn::new(9)).unwrap().flags.shared);
    }

    #[test]
    fn hit_rate_reflects_locality() {
        let mut r = rpt();
        r.bootstrap((0..100u64).map(|i| (Ppn::new(i), Pid::new(1), Vpn::new(i))));
        // First pass: all misses. Second pass: all hits.
        for i in 0..100u64 {
            r.lookup(Ppn::new(i));
        }
        for i in 0..100u64 {
            r.lookup(Ppn::new(i));
        }
        assert!((r.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unknown_frame_is_unresolved() {
        let mut r = rpt();
        assert_eq!(r.lookup(Ppn::new(12345)), None);
        assert_eq!(r.stats().unresolved, 1);
    }
}
