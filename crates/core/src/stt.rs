//! The Stream Training Table (STT) — §III-D(1) of the paper.
//!
//! The STT groups the hot-page stream into candidate page streams. It
//! has 64 entries managed LRU; each entry holds a PID, the last `L`
//! VPNs received for that stream (`VPN_history`) and the `L-1` strides
//! between them (`stride_history`). A new hot page joins an existing
//! entry when the PID matches and its VPN is within `Δ_stream` pages of
//! the entry's most recent VPN (*page clustering* — streams live in
//! separate address subspaces). Once an entry's history is full, every
//! further hot page yields a [`StreamWindow`] for the prefetch
//! algorithms to analyse.

use hopp_obs::{Event, Recorder};
use hopp_types::{Error, HotPage, Nanos, Pid, Result, Vpn};

/// Identifies a stream across the lifetime of a run.
///
/// STT entries are recycled (LRU), so the slot index alone is
/// ambiguous; a generation counter disambiguates. Policy state
/// (prefetch offsets, timeliness) is keyed by `StreamId`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct StreamId {
    pub(crate) slot: u16,
    pub(crate) generation: u32,
}

impl StreamId {
    /// The STT slot currently (or formerly) hosting the stream.
    pub fn slot(self) -> usize {
        self.slot as usize
    }

    /// How many times the slot has been recycled before this stream.
    pub fn generation(self) -> u32 {
        self.generation
    }
}

/// STT parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SttConfig {
    /// Number of table entries (streams trackable at once). Default 64.
    pub entries: usize,
    /// History length `L`. Larger `L` is a stricter stream condition
    /// and more robust to interference. Default 16.
    pub history: usize,
    /// Page clustering distance `Δ_stream`. Default 64.
    pub delta_stream: u64,
}

impl Default for SttConfig {
    fn default() -> Self {
        SttConfig {
            entries: 64,
            history: 16,
            delta_stream: 64,
        }
    }
}

impl SttConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `entries == 0`, `history < 4`
    /// (the algorithms need at least a few strides) or
    /// `delta_stream == 0`.
    pub fn validate(&self) -> Result<()> {
        if self.entries == 0 {
            return Err(Error::InvalidConfig {
                what: "stt entries",
                constraint: "at least 1",
            });
        }
        if self.history < 4 {
            return Err(Error::InvalidConfig {
                what: "stt history",
                constraint: "at least 4",
            });
        }
        if self.delta_stream == 0 {
            return Err(Error::InvalidConfig {
                what: "delta_stream",
                constraint: "at least 1",
            });
        }
        Ok(())
    }
}

/// A full training window: the state handed to the prefetch algorithms.
///
/// The histories are borrowed from the STT entry, so producing a window
/// copies nothing.
///
/// `vpn_history[L-1]` is the newest page (the paper's `VPN_A`);
/// `stride_history[i] = vpn_history[i+1] - vpn_history[i]`, so
/// `stride_history[L-2]` is the newest stride (`stride_A`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StreamWindow<'a> {
    /// The stream's identity (for policy state).
    pub stream: StreamId,
    /// Owning process.
    pub pid: Pid,
    /// The last `L` VPNs, oldest first.
    pub vpn_history: &'a [Vpn],
    /// The `L-1` strides between consecutive VPNs.
    pub stride_history: &'a [i64],
    /// Arrival time of the newest hot page.
    pub at: Nanos,
}

impl StreamWindow<'_> {
    /// The newest page, `VPN_A`.
    #[expect(
        clippy::expect_used,
        reason = "windows are built from at least one hot page; emptiness is a construction bug"
    )]
    pub fn vpn_a(&self) -> Vpn {
        *self.vpn_history.last().expect("window is non-empty")
    }

    /// The newest stride, `stride_A`.
    #[expect(
        clippy::expect_used,
        reason = "reported windows carry >= 2 pages, hence >= 1 stride, by the report threshold"
    )]
    pub fn stride_a(&self) -> i64 {
        *self.stride_history.last().expect("window has strides")
    }

    /// History length `L`.
    pub fn len(&self) -> usize {
        self.vpn_history.len()
    }

    /// Windows are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// One stream's history. `vpns` and `strides` grow up to `2L` slots and
/// then slide their newest `L - 1` and `L - 2` values back to the front,
/// so the newest `L` VPNs and `L - 1` strides are always one contiguous
/// tail (the window) and nothing shifts or allocates per hot page.
#[derive(Clone, Debug)]
struct SttEntry {
    pid: Pid,
    vpns: Vec<Vpn>,
    strides: Vec<i64>,
    lru: u64,
    generation: u32,
    valid: bool,
}

impl SttEntry {
    /// Appends `vpn` to a non-empty history of window length `l`.
    fn extend(&mut self, vpn: Vpn, l: usize) {
        if self.vpns.len() == 2 * l {
            self.vpns.copy_within(l + 1.., 0);
            self.vpns.truncate(l - 1);
            self.strides.copy_within(l + 1.., 0);
            self.strides.truncate(l - 2);
        }
        #[expect(
            clippy::expect_used,
            reason = "a valid entry always holds its seed page; emptiness is an insertion bug"
        )]
        let last = *self.vpns.last().expect("valid entries are non-empty");
        self.vpns.push(vpn);
        self.strides.push(vpn.stride_from(last));
    }
}

/// STT activity counters.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct SttStats {
    /// Hot pages consumed.
    pub observed: u64,
    /// Hot pages dropped as duplicates of a stream's newest page.
    pub deduped: u64,
    /// Entries recycled for a new stream.
    pub evictions: u64,
    /// Full windows produced.
    pub windows: u64,
}

/// The stream training table.
///
/// # Example
///
/// ```
/// use hopp_core::stt::{StreamTrainingTable, SttConfig};
/// use hopp_obs::NopRecorder;
/// use hopp_types::{HotPage, Nanos, PageFlags, Pid, Vpn};
///
/// let mut stt = StreamTrainingTable::new(SttConfig { history: 4, ..Default::default() })?;
/// let mut windows = 0;
/// for k in 0..6u64 {
///     let hot = HotPage { pid: Pid::new(1), vpn: Vpn::new(10 + k), flags: PageFlags::default(),
///                         at: Nanos::ZERO };
///     if stt.observe(&hot, &mut NopRecorder).is_some() { windows += 1; }
/// }
/// assert_eq!(windows, 3); // windows at the 4th, 5th and 6th page
/// # Ok::<(), hopp_types::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct StreamTrainingTable {
    config: SttConfig,
    entries: Vec<SttEntry>,
    clock: u64,
    stats: SttStats,
}

impl StreamTrainingTable {
    /// Builds an empty table.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for invalid parameters.
    pub fn new(config: SttConfig) -> Result<Self> {
        config.validate()?;
        Ok(StreamTrainingTable {
            entries: (0..config.entries)
                .map(|_| SttEntry {
                    pid: Pid::KERNEL,
                    vpns: Vec::with_capacity(2 * config.history),
                    strides: Vec::with_capacity(2 * config.history),
                    lru: 0,
                    generation: 0,
                    valid: false,
                })
                .collect(),
            config,
            clock: 0,
            stats: SttStats::default(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> SttConfig {
        self.config
    }

    /// Feeds one hot page; returns a training window when the page
    /// extends a stream whose history is full. Records stream lifecycle
    /// events: [`Event::StreamUpdated`] when a hot page extends an
    /// existing stream, [`Event::StreamEvicted`] +
    /// [`Event::StreamCreated`] when a new one recycles a slot.
    pub fn observe<R: Recorder + ?Sized>(
        &mut self,
        hot: &HotPage,
        rec: &mut R,
    ) -> Option<StreamWindow<'_>> {
        self.clock += 1;
        self.stats.observed += 1;

        // Find the best matching entry: same PID, newest VPN within
        // Δ_stream. Among several matches take the closest, so two
        // nearby streams don't steal each other's pages.
        let mut best: Option<(usize, u64)> = None;
        for (idx, e) in self.entries.iter().enumerate() {
            if !e.valid || e.pid != hot.pid {
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "a valid entry always holds its seed page; emptiness is an insertion bug"
            )]
            let last = *e.vpns.last().expect("valid entries are non-empty");
            let dist = last.raw().abs_diff(hot.vpn.raw());
            if dist <= self.config.delta_stream && best.is_none_or(|(_, d)| dist < d) {
                best = Some((idx, dist));
            }
        }

        let l = self.config.history;
        match best {
            Some((idx, dist)) => {
                if dist == 0 {
                    // Repeated extraction of the same hot page —
                    // de-duplicated in the training framework (§III-B).
                    self.entries[idx].lru = self.clock;
                    self.stats.deduped += 1;
                    return None;
                }
                let clock = self.clock;
                let e = &mut self.entries[idx];
                e.lru = clock;
                e.extend(hot.vpn, l);
                if rec.is_enabled() {
                    rec.record(
                        hot.at,
                        Event::StreamUpdated {
                            slot: idx as u16,
                            generation: e.generation,
                            pid: hot.pid,
                            vpn: hot.vpn,
                        },
                    );
                }
                if e.vpns.len() >= l {
                    self.stats.windows += 1;
                    let e = &self.entries[idx];
                    return Some(StreamWindow {
                        stream: StreamId {
                            slot: idx as u16,
                            generation: e.generation,
                        },
                        pid: hot.pid,
                        vpn_history: &e.vpns[e.vpns.len() - l..],
                        stride_history: &e.strides[e.strides.len() - (l - 1)..],
                        at: hot.at,
                    });
                }
                None
            }
            None => {
                // Allocate a new entry, recycling the LRU victim.
                #[expect(
                    clippy::expect_used,
                    reason = "SttConfig::validate rejects zero entries at construction"
                )]
                let victim = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| if e.valid { e.lru } else { 0 })
                    .map(|(i, _)| i)
                    .expect("entries >= 1 validated");
                let clock = self.clock;
                let e = &mut self.entries[victim];
                if e.valid {
                    self.stats.evictions += 1;
                    if rec.is_enabled() {
                        rec.record(
                            hot.at,
                            Event::StreamEvicted {
                                slot: victim as u16,
                                generation: e.generation,
                            },
                        );
                    }
                    e.generation += 1;
                }
                e.pid = hot.pid;
                e.vpns.clear();
                e.strides.clear();
                e.vpns.push(hot.vpn);
                e.lru = clock;
                e.valid = true;
                if rec.is_enabled() {
                    rec.record(
                        hot.at,
                        Event::StreamCreated {
                            slot: victim as u16,
                            generation: e.generation,
                            pid: hot.pid,
                            vpn: hot.vpn,
                        },
                    );
                }
                None
            }
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> SttStats {
        self.stats
    }

    /// Number of valid (in-training) entries.
    pub fn active_streams(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    /// True while `stream` is resident in the table. Policy state for
    /// streams that are not belongs to evicted streams and can be
    /// dropped.
    pub fn is_live(&self, stream: StreamId) -> bool {
        self.entries
            .get(stream.slot())
            .is_some_and(|e| e.valid && e.generation == stream.generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopp_obs::NopRecorder;
    use hopp_types::PageFlags;

    fn hot(pid: u16, vpn: u64) -> HotPage {
        HotPage {
            pid: Pid::new(pid),
            vpn: Vpn::new(vpn),
            flags: PageFlags::default(),
            at: Nanos::ZERO,
        }
    }

    fn stt(history: usize) -> StreamTrainingTable {
        StreamTrainingTable::new(SttConfig {
            history,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(SttConfig {
            entries: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SttConfig {
            history: 3,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SttConfig {
            delta_stream: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SttConfig::default().validate().is_ok());
    }

    #[test]
    fn window_appears_when_history_fills() {
        let mut t = stt(4);
        assert!(t.observe(&hot(1, 10), &mut NopRecorder).is_none());
        assert!(t.observe(&hot(1, 12), &mut NopRecorder).is_none());
        assert!(t.observe(&hot(1, 14), &mut NopRecorder).is_none());
        let w = t.observe(&hot(1, 16), &mut NopRecorder).unwrap();
        assert_eq!(
            w.vpn_history,
            vec![Vpn::new(10), Vpn::new(12), Vpn::new(14), Vpn::new(16)]
        );
        assert_eq!(w.stride_history, vec![2, 2, 2]);
        assert_eq!(w.vpn_a(), Vpn::new(16));
        assert_eq!(w.stride_a(), 2);
    }

    #[test]
    fn window_slides_after_full() {
        let mut t = stt(4);
        for v in [10, 12, 14, 16] {
            t.observe(&hot(1, v), &mut NopRecorder);
        }
        let w = t.observe(&hot(1, 18), &mut NopRecorder).unwrap();
        assert_eq!(w.vpn_history[0], Vpn::new(12));
        assert_eq!(w.vpn_a(), Vpn::new(18));
        assert_eq!(t.stats().windows, 2);
    }

    #[test]
    fn pid_separates_streams() {
        let mut t = stt(4);
        // Two processes interleave the *same* VPNs; each gets its own
        // stream (the hot-page trace carries PIDs, §VI-B).
        for v in [10, 11, 12] {
            t.observe(&hot(1, v), &mut NopRecorder);
            t.observe(&hot(2, v), &mut NopRecorder);
        }
        assert_eq!(t.active_streams(), 2);
        assert!(t.observe(&hot(1, 13), &mut NopRecorder).is_some());
        assert!(t.observe(&hot(2, 13), &mut NopRecorder).is_some());
    }

    #[test]
    fn clustering_separates_address_subspaces() {
        let mut t = stt(4);
        // Two streams 1M pages apart, interleaved: page clustering keeps
        // them in separate entries (the Leap failure mode of §II-B).
        for k in 0..4u64 {
            t.observe(&hot(1, 1000 + k), &mut NopRecorder);
            t.observe(&hot(1, 2_000_000 + 2 * k), &mut NopRecorder);
        }
        assert_eq!(t.active_streams(), 2);
        let w = t.observe(&hot(1, 1004), &mut NopRecorder).unwrap();
        assert_eq!(w.stride_history, vec![1, 1, 1]);
    }

    #[test]
    fn duplicate_hot_pages_are_deduped() {
        let mut t = stt(4);
        t.observe(&hot(1, 10), &mut NopRecorder);
        assert!(t.observe(&hot(1, 10), &mut NopRecorder).is_none());
        assert_eq!(t.stats().deduped, 1);
        // The stream is not polluted by the duplicate.
        t.observe(&hot(1, 11), &mut NopRecorder);
        t.observe(&hot(1, 12), &mut NopRecorder);
        let w = t.observe(&hot(1, 13), &mut NopRecorder).unwrap();
        assert_eq!(w.stride_history, vec![1, 1, 1]);
    }

    #[test]
    fn closest_stream_wins_on_overlap() {
        let mut t = stt(4);
        // Stream A sits at 100; stream B starts at 200 (too far to join
        // A) and walks down towards it.
        t.observe(&hot(1, 100), &mut NopRecorder);
        for v in [200, 190, 180, 170] {
            t.observe(&hot(1, v), &mut NopRecorder);
        }
        assert_eq!(t.active_streams(), 2);
        // Page 150 is within Δ=64 of both streams (50 from A's 100,
        // 20 from B's 170): the closer stream B absorbs it.
        t.observe(&hot(1, 150), &mut NopRecorder);
        t.observe(&hot(1, 148), &mut NopRecorder);
        let w = t.observe(&hot(1, 146), &mut NopRecorder).unwrap();
        assert_eq!(w.vpn_history[0], Vpn::new(170));
        assert_eq!(t.active_streams(), 2, "stream A is untouched");
    }

    #[test]
    fn lru_eviction_bumps_generation() {
        let mut t = StreamTrainingTable::new(SttConfig {
            entries: 2,
            history: 4,
            delta_stream: 4,
        })
        .unwrap();
        t.observe(&hot(1, 0), &mut NopRecorder);
        t.observe(&hot(1, 1000), &mut NopRecorder);
        // A third far-away stream evicts the LRU entry (slot of page 0).
        t.observe(&hot(1, 2000), &mut NopRecorder);
        assert_eq!(t.stats().evictions, 1);
        // Complete the recycled stream: its id differs by generation.
        t.observe(&hot(1, 2001), &mut NopRecorder);
        t.observe(&hot(1, 2002), &mut NopRecorder);
        let w = t.observe(&hot(1, 2003), &mut NopRecorder).unwrap();
        assert_eq!(w.stream.slot(), 0);
        // Build a window in slot 0 again after another eviction cycle
        // and verify the generation moved on.
        let first_gen = w.stream;
        t.observe(&hot(1, 5000), &mut NopRecorder); // evicts slot 1 (page 1000 stream)
        t.observe(&hot(1, 7000), &mut NopRecorder); // evicts slot 0
        t.observe(&hot(1, 7001), &mut NopRecorder);
        t.observe(&hot(1, 7002), &mut NopRecorder);
        let w2 = t.observe(&hot(1, 7003), &mut NopRecorder).unwrap();
        assert_eq!(w2.stream.slot(), 0);
        assert_ne!(w2.stream, first_gen);
        let second_gen = w2.stream;
        assert!(t.is_live(second_gen));
        assert!(!t.is_live(first_gen), "the recycled stream is gone");
    }

    #[test]
    fn long_streams_window_their_newest_pages() {
        // 40 pages run the 2L-slot history through several slides.
        let mut t = stt(4);
        for v in 0..40u64 {
            if let Some(w) = t.observe(&hot(1, 3 * v), &mut NopRecorder) {
                let want: Vec<Vpn> = (v - 3..=v).map(|k| Vpn::new(3 * k)).collect();
                assert_eq!(w.vpn_history, want);
                assert_eq!(w.stride_history, [3, 3, 3]);
            }
        }
        assert_eq!(t.stats().windows, 37);
    }

    #[test]
    fn stream_lifecycle_is_recorded() {
        use hopp_obs::TraceSink;
        let mut sink = TraceSink::new(64);
        let mut t = StreamTrainingTable::new(SttConfig {
            entries: 2,
            history: 4,
            delta_stream: 4,
        })
        .unwrap();
        t.observe(&hot(1, 0), &mut sink); // created (slot 0)
        t.observe(&hot(1, 1), &mut sink); // updated
        t.observe(&hot(1, 1000), &mut sink); // created (slot 1)
        t.observe(&hot(1, 2000), &mut sink); // evicts + creates
        let names: Vec<&str> = sink.events().map(|e| e.event.name()).collect();
        assert_eq!(
            names,
            [
                "stream_created",
                "stream_updated",
                "stream_created",
                "stream_evicted",
                "stream_created"
            ]
        );
    }

    #[test]
    fn negative_strides_are_tracked() {
        let mut t = stt(4);
        for v in [100, 97, 94] {
            t.observe(&hot(1, v), &mut NopRecorder);
        }
        let w = t.observe(&hot(1, 91), &mut NopRecorder).unwrap();
        assert_eq!(w.stride_history, vec![-3, -3, -3]);
    }
}
