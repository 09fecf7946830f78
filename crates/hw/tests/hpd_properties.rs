//! Property tests for the HPD semantics of §III-B, checked against a
//! deliberately naive reference model on seeded random streams (no
//! `proptest`: the workspace is dependency-free, and seeded
//! `SplitMix64` streams give reproducible counter-examples).
//!
//! Properties:
//! * a page becomes hot on exactly its `N`-th counted read while
//!   resident, never earlier, never later;
//! * the send bit suppresses re-emission until the entry leaves the
//!   table (eviction or invalidation);
//! * sets are isolated: traffic in one set never disturbs another;
//! * replacement is exact LRU over 16 ways × 4 sets, preferring
//!   invalid ways;
//! * `k` misses applied with one lookup (`on_misses`, and per page
//!   across channels with `McPipeline::on_page_misses`) behave exactly
//!   like `k` single misses: same firing miss, hot pages, counters and
//!   bandwidth ledger.

use hopp_hw::hpd::{HotPageDetector, HpdConfig};
use hopp_hw::{McPipeline, RptCacheConfig};
use hopp_mem::PteListener;
use hopp_obs::NopRecorder;
use hopp_types::rng::SplitMix64;
use hopp_types::{AccessKind, Nanos, Pid, Ppn, Vpn, LINES_PER_PAGE};

/// A transparent reference model of one HPD set: a plain vector with
/// the documented LRU policy, no cleverness. The real table must match
/// it emission-for-emission.
struct RefModel {
    config: HpdConfig,
    /// `sets[s]` holds `(ppn, count, sent, lru)` for each valid entry.
    sets: Vec<Vec<(Ppn, u32, bool, u64)>>,
    clock: u64,
}

impl RefModel {
    fn new(config: HpdConfig) -> Self {
        RefModel {
            sets: vec![Vec::new(); config.sets],
            config,
            clock: 0,
        }
    }

    fn on_read(&mut self, ppn: Ppn) -> Option<Ppn> {
        self.clock += 1;
        let set = &mut self.sets[(ppn.raw() % self.config.sets as u64) as usize];
        if let Some(e) = set.iter_mut().find(|e| e.0 == ppn) {
            e.3 = self.clock;
            if e.2 {
                return None;
            }
            e.1 += 1;
            if e.1 >= self.config.threshold {
                e.2 = true;
                return Some(ppn);
            }
            return None;
        }
        if set.len() == self.config.ways {
            // Evict the least recently used entry.
            let victim = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.3)
                .map(|(i, _)| i)
                .unwrap();
            set.swap_remove(victim);
        }
        let sent = self.config.threshold == 1;
        set.push((ppn, 1, sent, self.clock));
        sent.then_some(ppn)
    }

    fn invalidate(&mut self, ppn: Ppn) {
        let set = &mut self.sets[(ppn.raw() % self.config.sets as u64) as usize];
        set.retain(|e| e.0 != ppn);
    }
}

#[test]
fn table_matches_the_reference_model_on_random_streams() {
    // The load sweeps from "fits comfortably" to "3× overcommitted" so
    // both the no-eviction and constant-thrash regimes are exercised.
    for (seed, pages, threshold) in [
        (1u64, 16u64, 1u32),
        (2, 32, 2),
        (3, 48, 4),
        (4, 64, 8),
        (5, 96, 8),
        (6, 192, 4),
        (7, 192, 64),
    ] {
        let config = HpdConfig::with_threshold(threshold);
        let mut real = HotPageDetector::new(config).unwrap();
        let mut reference = RefModel::new(config);
        let mut rng = SplitMix64::seed_from_u64(seed);
        for step in 0..50_000u32 {
            let ppn = Ppn::new(rng.gen_range(0..pages));
            if rng.gen_range(0..16) == 0 {
                real.invalidate(ppn);
                reference.invalidate(ppn);
                continue;
            }
            let line = rng.gen_range(0..64) as u8;
            let got = real.on_miss(ppn.line(line), AccessKind::Read);
            let want = reference.on_read(ppn);
            assert_eq!(
                got, want,
                "seed {seed} pages {pages} N {threshold}: diverged at step {step}"
            );
        }
    }
}

#[test]
fn page_goes_hot_on_exactly_its_nth_resident_read() {
    let mut rng = SplitMix64::seed_from_u64(11);
    for _ in 0..200 {
        let n = 1 + rng.gen_range(0..64) as u32;
        let mut h = HotPageDetector::new(HpdConfig::with_threshold(n)).unwrap();
        let ppn = Ppn::new(rng.gen_range(0..1 << 20));
        // No other traffic: the page cannot be evicted, so the counter
        // must fire on exactly the n-th read — cacheline choice is
        // irrelevant, repeats included.
        for i in 1..=(2 * n) {
            let line = rng.gen_range(0..64) as u8;
            let hot = h.on_miss(ppn.line(line), AccessKind::Read);
            assert_eq!(
                hot,
                (i == n).then_some(ppn),
                "N={n}: wrong emission at read {i}"
            );
        }
        assert_eq!(h.stats().hot_pages, 1);
        assert_eq!(h.stats().send_bit_drops, u64::from(n));
    }
}

#[test]
fn send_bit_holds_until_the_entry_leaves_the_table() {
    let mut rng = SplitMix64::seed_from_u64(23);
    for _ in 0..100 {
        let n = 1 + rng.gen_range(0..8) as u32;
        let config = HpdConfig::with_threshold(n);
        let mut h = HotPageDetector::new(config).unwrap();
        let ppn = Ppn::new(4 * rng.gen_range(0..1000)); // set 0
        for i in 0..n {
            h.on_miss(ppn.line(i as u8), AccessKind::Read);
        }
        assert_eq!(h.stats().hot_pages, 1);
        // Arbitrarily many further reads: suppressed.
        for _ in 0..rng.gen_range(1..200) {
            let line = rng.gen_range(0..64) as u8;
            assert_eq!(h.on_miss(ppn.line(line), AccessKind::Read), None);
        }
        // The entry leaves the table — by explicit invalidation or by
        // LRU pressure from 16 fresh set-mates — and the page is
        // detectable again from a zeroed counter.
        if rng.gen_range(0..2) == 0 {
            h.invalidate(ppn);
        } else {
            for i in 1..=16u64 {
                h.on_miss(Ppn::new(ppn.raw() + 4 * i).line(0), AccessKind::Read);
            }
        }
        let before = h.stats().hot_pages;
        for i in 1..=n {
            let hot = h.on_miss(ppn.line(0), AccessKind::Read);
            assert_eq!(hot, (i == n).then_some(ppn), "re-detection at read {i}");
        }
        assert_eq!(h.stats().hot_pages, before + 1);
    }
}

#[test]
fn sets_are_fully_isolated() {
    // Interleave four independent per-set streams; each set must behave
    // exactly as it does when run alone.
    let config = HpdConfig::default();
    let mut interleaved = HotPageDetector::new(config).unwrap();
    let mut solo: Vec<HotPageDetector> = (0..4)
        .map(|_| HotPageDetector::new(config).unwrap())
        .collect();
    let mut rng = SplitMix64::seed_from_u64(31);
    let mut interleaved_hot = vec![Vec::new(); 4];
    let mut solo_hot = vec![Vec::new(); 4];
    for _ in 0..40_000 {
        let set = rng.gen_range(0..4);
        // 32 pages per set: twice the associativity, steady eviction.
        let ppn = Ppn::new(rng.gen_range(0..32) * 4 + set);
        let line = rng.gen_range(0..64) as u8;
        let set = set as usize;
        interleaved_hot[set].extend(interleaved.on_miss(ppn.line(line), AccessKind::Read));
        solo_hot[set].extend(solo[set].on_miss(ppn.line(line), AccessKind::Read));
    }
    for set in 0..4 {
        assert_eq!(
            interleaved_hot[set], solo_hot[set],
            "set {set} was disturbed by traffic in other sets"
        );
        assert!(
            !interleaved_hot[set].is_empty(),
            "set {set} stream too cold"
        );
    }
}

#[test]
fn replacement_is_exact_lru_over_sixteen_ways() {
    let mut h = HotPageDetector::new(HpdConfig::with_threshold(8)).unwrap();
    // Fill set 0 with pages 0*4..16*4, touching them in order.
    let pages: Vec<Ppn> = (0..16u64).map(|i| Ppn::new(i * 4)).collect();
    for p in &pages {
        h.on_miss(p.line(0), AccessKind::Read);
    }
    // Refresh everything except pages[5]: it becomes the unique LRU.
    for (i, p) in pages.iter().enumerate() {
        if i != 5 {
            h.on_miss(p.line(1), AccessKind::Read);
        }
    }
    // A 17th page must evict pages[5] and nothing else: every other
    // page retains its count (2) and goes hot after 6 more reads, while
    // pages[5] restarts from zero and needs a full 8.
    h.on_miss(Ppn::new(16 * 4).line(0), AccessKind::Read);
    assert_eq!(h.stats().cold_evictions, 1);
    for (i, p) in pages.iter().enumerate() {
        if i == 5 {
            continue;
        }
        for line in 2..7 {
            assert_eq!(h.on_miss(p.line(line), AccessKind::Read), None);
        }
        assert_eq!(
            h.on_miss(p.line(7), AccessKind::Read),
            Some(*p),
            "page {i} lost its counter despite never being LRU"
        );
    }
    for line in 2..9 {
        assert_eq!(h.on_miss(pages[5].line(line), AccessKind::Read), None);
    }
    assert_eq!(
        h.on_miss(pages[5].line(9), AccessKind::Read),
        Some(pages[5])
    );
}

/// A random read or write of a random page, `None` for a reclaim.
fn random_op(rng: &mut SplitMix64, pages: u64) -> (Ppn, Option<AccessKind>) {
    let ppn = Ppn::new(rng.gen_range(0..pages));
    match rng.gen_range(0..16) {
        0 => (ppn, None),
        1..=3 => (ppn, Some(AccessKind::Write)),
        _ => (ppn, Some(AccessKind::Read)),
    }
}

#[test]
fn batched_misses_match_single_misses() {
    for (seed, pages, threshold) in [
        (11u64, 16u64, 1u32),
        (12, 48, 2),
        (13, 96, 8),
        (14, 192, 64),
        (15, 64, 8),
    ] {
        let config = HpdConfig::with_threshold(threshold);
        let mut batched = HotPageDetector::new(config).unwrap();
        let mut single = batched.clone();
        let mut reference = RefModel::new(config);
        let mut rng = SplitMix64::seed_from_u64(seed);
        for step in 0..20_000u32 {
            let (ppn, kind) = random_op(&mut rng, pages);
            let Some(kind) = kind else {
                batched.invalidate(ppn);
                single.invalidate(ppn);
                reference.invalidate(ppn);
                continue;
            };
            let k = rng.gen_range(0..LINES_PER_PAGE as u64 + 1) as u32;
            let mut want = None;
            for i in 0..k {
                let line = ppn.line(i as u8);
                let fired = single.on_miss(line, kind).is_some();
                if kind.is_read() {
                    assert_eq!(fired, reference.on_read(ppn).is_some());
                }
                if fired {
                    want = want.or(Some(i));
                }
            }
            assert_eq!(
                batched.on_misses(ppn, kind, k),
                want,
                "seed {seed}: step {step}, {k} misses of {ppn:?}"
            );
            assert_eq!(batched.stats(), single.stats(), "seed {seed}: step {step}");
        }
    }
}

#[test]
fn page_walks_match_per_line_misses_on_every_channel_count() {
    const PAGES: u64 = 160;
    for channels in 1..=4 {
        for threshold in [1u32, 2, 8, 64] {
            let hpd = HpdConfig::with_threshold(threshold);
            let mut per_line =
                McPipeline::with_channels(hpd, RptCacheConfig::default(), channels).unwrap();
            // Two pages in three resolve, so dropped hot pages show too.
            for p in (0..PAGES).filter(|p| p % 3 != 0) {
                per_line.pte_set(Pid::new(1), Vpn::new(0x1000 + p), Ppn::new(p));
            }
            let mut per_page = per_line.clone();
            let mut rng = SplitMix64::seed_from_u64(channels as u64 * 100 + u64::from(threshold));
            let mut fired = Vec::new();
            for step in 0..4_000u64 {
                let (ppn, kind) = random_op(&mut rng, PAGES);
                let Some(kind) = kind else {
                    per_line.on_page_reclaimed(ppn);
                    per_page.on_page_reclaimed(ppn);
                    continue;
                };
                // A random subset of a random-length walk missed.
                let lines = rng.gen_range(1..LINES_PER_PAGE as u64 + 1) as u32;
                let walked = u64::MAX.checked_shr(64 - lines).unwrap_or(0);
                let mask = if rng.gen_bool(0.5) {
                    walked
                } else {
                    rng.next_u64() & walked
                };
                let now = Nanos::from_nanos(step);
                let mut want_fired = Vec::new();
                let mut want_hot = Vec::new();
                for i in (0..64u8).filter(|i| mask >> i & 1 == 1) {
                    let before = per_line.hpd_stats().hot_pages;
                    let hot = per_line.on_llc_miss(ppn.line(i), kind, now);
                    if per_line.hpd_stats().hot_pages > before {
                        want_fired.push(i);
                    }
                    want_hot.extend(hot);
                }
                fired.clear();
                per_page.on_page_misses(ppn, kind, mask, &mut fired);
                let got_hot: Vec<_> = fired
                    .iter()
                    .filter_map(|_| per_page.resolve_hot(ppn, now, &mut NopRecorder))
                    .collect();
                let at = format!("{channels} channel(s), N {threshold}, step {step}");
                assert_eq!(fired, want_fired, "{at}: fired lines");
                assert_eq!(got_hot, want_hot, "{at}: hot pages");
                assert_eq!(per_page.hpd_stats(), per_line.hpd_stats(), "{at}: stats");
                assert_eq!(per_page.ledger(), per_line.ledger(), "{at}: ledger");
            }
            assert!(per_page.hpd_stats().hot_pages > 0);
        }
    }
}
