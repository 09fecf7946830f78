//! Differential test of the flat-array LLC against the original
//! `Vec<Vec<Way>>` model, kept here as an oracle.
//!
//! Seeded random streams of line accesses, page walks and page
//! invalidations run through both caches; every hit/miss answer, every
//! miss mask and every counter must agree. The geometries cover the
//! contiguous invalidation path (`tiny`: 512 sets, `default_server`:
//! 16,384 sets) and the per-line one (32 sets, fewer than a page's 64
//! lines).

use hopp_trace::llc::{LastLevelCache, LlcConfig, LlcStats};
use hopp_types::rng::SplitMix64;
use hopp_types::{AccessKind, LineAddr, Ppn, LINES_PER_PAGE};

#[derive(Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    lru: u64,
}

/// The pre-flattening cache: one heap-allocated vector per set.
struct Oracle {
    sets: Vec<Vec<Way>>,
    set_mask: u64,
    clock: u64,
    stats: LlcStats,
}

impl Oracle {
    fn new(config: LlcConfig) -> Self {
        let sets = config.sets().expect("valid geometry");
        let way = Way {
            tag: 0,
            valid: false,
            lru: 0,
        };
        Oracle {
            sets: vec![vec![way; config.ways]; sets],
            set_mask: sets as u64 - 1,
            clock: 0,
            stats: LlcStats::default(),
        }
    }

    fn access(&mut self, line: LineAddr) -> bool {
        self.clock += 1;
        let set = &mut self.sets[(line.raw() & self.set_mask) as usize];
        let tag = line.raw() >> self.set_mask.trailing_ones();
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.lru = self.clock;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let victim = set
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru } else { 0 })
            .expect("ways >= 1");
        *victim = Way {
            tag,
            valid: true,
            lru: self.clock,
        };
        false
    }

    /// Walks lines `0..lines` of `ppn` and returns the miss mask.
    fn access_page(&mut self, ppn: Ppn, lines: u8) -> u64 {
        (0..lines).fold(0, |mask, i| {
            if self.access(ppn.line(i)) {
                mask
            } else {
                mask | 1 << i
            }
        })
    }

    fn invalidate_page(&mut self, ppn: Ppn) {
        for line in 0..LINES_PER_PAGE as u8 {
            let addr = ppn.line(line);
            let tag = addr.raw() >> self.set_mask.trailing_ones();
            for way in &mut self.sets[(addr.raw() & self.set_mask) as usize] {
                if way.valid && way.tag == tag {
                    way.valid = false;
                    self.stats.invalidations += 1;
                }
            }
        }
    }
}

fn geometries() -> [LlcConfig; 3] {
    [
        LlcConfig::tiny(),
        LlcConfig::default_server(),
        LlcConfig {
            capacity_bytes: 32 * 1024,
            ways: 16,
        },
    ]
}

/// Runs `ops` random operations over `pages` distinct frames spaced
/// `stride` apart (few frames means hits; frames that alias onto the
/// same sets mean evictions).
fn differential(config: LlcConfig, pages: u64, stride: u64, ops: usize, seed: u64) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut llc = LastLevelCache::new(config).expect("valid geometry");
    let mut oracle = Oracle::new(config);
    for op in 0..ops {
        let ppn = Ppn::new(rng.gen_range(0..pages) * stride);
        let kind = if rng.gen_bool(0.3) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        match rng.gen_range(0..10) {
            0 => {
                llc.invalidate_page(ppn);
                oracle.invalidate_page(ppn);
            }
            1..=3 => {
                let line = ppn.line(rng.gen_range(0..LINES_PER_PAGE as u64) as u8);
                assert_eq!(
                    llc.access(line, kind),
                    oracle.access(line),
                    "{config:?} op {op}: access {line:?}"
                );
            }
            _ => {
                let lines = rng.gen_range(1..LINES_PER_PAGE as u64 + 1) as u8;
                assert_eq!(
                    llc.access_page(ppn, lines, kind),
                    oracle.access_page(ppn, lines),
                    "{config:?} op {op}: access_page {ppn:?} x{lines}"
                );
            }
        }
        assert_eq!(llc.stats(), oracle.stats, "{config:?} op {op}: stats");
    }
}

#[test]
fn flat_cache_matches_the_oracle_under_light_pressure() {
    for (i, config) in geometries().into_iter().enumerate() {
        differential(config, 8, 1, 4_000, 11 + i as u64);
    }
}

#[test]
fn flat_cache_matches_the_oracle_under_eviction_pressure() {
    for (i, config) in geometries().into_iter().enumerate() {
        // Frames one cache-span apart share their 64 sets, so 40 of
        // them overflow 8 or 16 ways many times over.
        let sets = config.sets().expect("valid geometry") as u64;
        let stride = (sets / LINES_PER_PAGE as u64).max(1);
        differential(config, 40, stride, 6_000, 97 + i as u64);
    }
}

#[test]
fn distant_frames_keep_distinct_tags() {
    // Frames far apart alias onto the same sets; their tags must stay
    // distinct from each other and from the invalid marker.
    for config in geometries() {
        let mut llc = LastLevelCache::new(config).expect("valid geometry");
        let mut oracle = Oracle::new(config);
        for ppn in [0u64, 1 << 20, 1 << 40, (1 << 57) + 3, 0, 1 << 40] {
            let ppn = Ppn::new(ppn);
            assert_eq!(
                llc.access_page(ppn, 64, AccessKind::Read),
                oracle.access_page(ppn, 64)
            );
        }
        llc.invalidate_page(Ppn::new(1 << 40));
        oracle.invalidate_page(Ppn::new(1 << 40));
        assert_eq!(llc.stats(), oracle.stats);
    }
}
