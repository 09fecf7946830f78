//! The swapcache: remote pages that have a local frame but no PTE yet.
//!
//! Baseline prefetchers (Fastswap, Leap) fill the swapcache; when the
//! application later faults on a cached page the fault is *minor* — a
//! prefetch-hit costing 2.3 µs instead of a remote round trip. HoPP
//! bypasses this structure entirely for its own prefetches (early PTE
//! injection turns would-be prefetch-hits into plain DRAM hits), which
//! is one of its headline wins (§II-C).

use hopp_ds::DetMap;
use hopp_types::{Nanos, Pid, Ppn, SwapSlot, Vpn};

/// Why a page entered the swapcache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheFill {
    /// Brought in by the faulting path itself (demand fill, in flight).
    Demand,
    /// Brought in speculatively by a prefetcher.
    Prefetch,
}

/// A swapcache entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheEntry {
    /// The local frame holding the data.
    pub ppn: Ppn,
    /// The swap slot the data came from (freed when the page is mapped).
    pub slot: Option<SwapSlot>,
    /// Demand fill or prefetch.
    pub fill: CacheFill,
    /// When the data finished arriving.
    pub ready_at: Nanos,
}

/// Swapcache activity counters.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct SwapCacheStats {
    /// Entries inserted.
    pub inserts: u64,
    /// Faults that found their page here (prefetch-hits).
    pub hits: u64,
    /// Entries reclaimed before ever being hit (wasted prefetches).
    pub evicted_unused: u64,
}

/// The swapcache proper.
///
/// # Example
///
/// ```
/// use hopp_kernel::swapcache::{CacheFill, SwapCache};
/// use hopp_types::{Nanos, Pid, Ppn, Vpn};
///
/// let mut sc = SwapCache::new();
/// sc.insert(Pid::new(1), Vpn::new(5), Ppn::new(9), None, CacheFill::Prefetch, Nanos::ZERO);
/// assert!(sc.contains(Pid::new(1), Vpn::new(5)));
/// let entry = sc.take(Pid::new(1), Vpn::new(5)).unwrap();
/// assert_eq!(entry.ppn, Ppn::new(9));
/// assert_eq!(sc.stats().hits, 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SwapCache {
    entries: DetMap<(Pid, Vpn), CacheEntry>,
    stats: SwapCacheStats,
}

impl SwapCache {
    /// Creates an empty swapcache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a page. Returns the previous entry if one existed (the
    /// caller must free its frame — duplicate fills race in real
    /// kernels; here the newer fill wins).
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per field of the cache entry"
    )]
    pub fn insert(
        &mut self,
        pid: Pid,
        vpn: Vpn,
        ppn: Ppn,
        slot: Option<SwapSlot>,
        fill: CacheFill,
        ready_at: Nanos,
    ) -> Option<CacheEntry> {
        self.stats.inserts += 1;
        self.entries.insert(
            (pid, vpn),
            CacheEntry {
                ppn,
                slot,
                fill,
                ready_at,
            },
        )
    }

    /// True if the page is cached.
    pub fn contains(&self, pid: Pid, vpn: Vpn) -> bool {
        self.entries.contains_key(&(pid, vpn))
    }

    /// Looks up without consuming (no hit is recorded).
    pub fn peek(&self, pid: Pid, vpn: Vpn) -> Option<&CacheEntry> {
        self.entries.get(&(pid, vpn))
    }

    /// Consumes an entry on a fault: the page is about to be mapped.
    /// Records a prefetch-hit.
    pub fn take(&mut self, pid: Pid, vpn: Vpn) -> Option<CacheEntry> {
        let entry = self.entries.remove(&(pid, vpn));
        if entry.is_some() {
            self.stats.hits += 1;
        }
        entry
    }

    /// Drops an entry during reclaim (it never got hit).
    pub fn evict(&mut self, pid: Pid, vpn: Vpn) -> Option<CacheEntry> {
        let entry = self.entries.remove(&(pid, vpn));
        if entry.is_some() {
            self.stats.evicted_unused += 1;
        }
        entry
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Activity counters.
    pub fn stats(&self) -> SwapCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> (Pid, Vpn) {
        (Pid::new(1), Vpn::new(100))
    }

    #[test]
    fn insert_take_records_hit() {
        let mut sc = SwapCache::new();
        let (pid, vpn) = key();
        sc.insert(
            pid,
            vpn,
            Ppn::new(1),
            None,
            CacheFill::Prefetch,
            Nanos::ZERO,
        );
        assert_eq!(sc.len(), 1);
        let e = sc.take(pid, vpn).unwrap();
        assert_eq!(e.fill, CacheFill::Prefetch);
        assert_eq!(sc.stats().hits, 1);
        assert!(sc.take(pid, vpn).is_none());
        assert_eq!(sc.stats().hits, 1, "a miss records no hit");
    }

    #[test]
    fn evict_records_waste_not_hit() {
        let mut sc = SwapCache::new();
        let (pid, vpn) = key();
        sc.insert(
            pid,
            vpn,
            Ppn::new(1),
            None,
            CacheFill::Prefetch,
            Nanos::ZERO,
        );
        sc.evict(pid, vpn).unwrap();
        assert_eq!(sc.stats().evicted_unused, 1);
        assert_eq!(sc.stats().hits, 0);
        assert!(sc.is_empty());
    }

    #[test]
    fn duplicate_insert_returns_previous() {
        let mut sc = SwapCache::new();
        let (pid, vpn) = key();
        sc.insert(pid, vpn, Ppn::new(1), None, CacheFill::Demand, Nanos::ZERO);
        let prev = sc
            .insert(
                pid,
                vpn,
                Ppn::new(2),
                None,
                CacheFill::Prefetch,
                Nanos::ZERO,
            )
            .unwrap();
        assert_eq!(prev.ppn, Ppn::new(1));
        assert_eq!(sc.peek(pid, vpn).unwrap().ppn, Ppn::new(2));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut sc = SwapCache::new();
        let (pid, vpn) = key();
        sc.insert(pid, vpn, Ppn::new(1), None, CacheFill::Demand, Nanos::ZERO);
        assert!(sc.peek(pid, vpn).is_some());
        assert!(sc.contains(pid, vpn));
        assert_eq!(sc.stats().hits, 0);
    }

    #[test]
    fn entries_are_per_process() {
        let mut sc = SwapCache::new();
        sc.insert(
            Pid::new(1),
            Vpn::new(5),
            Ppn::new(1),
            None,
            CacheFill::Demand,
            Nanos::ZERO,
        );
        assert!(!sc.contains(Pid::new(2), Vpn::new(5)));
    }
}
