//! Fastswap's strict readahead: prefetch by swap-slot adjacency.
//!
//! Fastswap (and Infiniswap) reuse the kernel's swap readahead, which
//! prefetches the pages stored in the slots following the faulting
//! page's slot. Slot order is *eviction* order, so this works when
//! pages are evicted and re-faulted in the same order, and degrades
//! badly when streams interleave — the paper's Fig 22 microbenchmark
//! shows exactly that (VMA-based readahead beats it because virtual
//! adjacency is a better proxy than swap-offset adjacency).

use hopp_kernel::{FaultInfo, PrefetchRequest, Prefetcher, SlotView};

/// The Fastswap readahead policy.
#[derive(Clone, Copy, Debug)]
pub struct FastswapReadahead {
    /// Pages prefetched per fault (Linux's `page_cluster = 3` reads a
    /// cluster of 8).
    window: usize,
}

impl Default for FastswapReadahead {
    fn default() -> Self {
        FastswapReadahead { window: 8 }
    }
}

impl FastswapReadahead {
    /// Creates a readahead with the default window of 8 pages.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a readahead prefetching `window` pages per fault.
    pub fn with_window(window: usize) -> Self {
        FastswapReadahead { window }
    }
}

impl Prefetcher for FastswapReadahead {
    fn name(&self) -> &str {
        "fastswap"
    }

    fn on_fault(
        &mut self,
        fault: &FaultInfo,
        slots: &dyn SlotView,
        out: &mut Vec<PrefetchRequest>,
    ) {
        // Readahead needs the faulting slot; swapcache hits (slot
        // already consumed) and first touches don't trigger it.
        let Some(slot) = fault.slot else { return };
        for k in 1..=self.window as i64 {
            let Some(next) = slot.offset(k) else { break };
            if let Some((pid, vpn)) = slots.page_at(next) {
                out.push(PrefetchRequest {
                    pid,
                    vpn,
                    inject: false,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopp_kernel::SwapDevice;
    use hopp_obs::NopRecorder;
    use hopp_types::{Nanos, Pid, SwapSlot, Vpn};

    /// Swaps `vpn` of process 1 out at time zero, recording nothing.
    fn swap_out(dev: &mut SwapDevice, vpn: u64) -> SwapSlot {
        dev.alloc(Pid::new(1), Vpn::new(vpn), Nanos::ZERO, &mut NopRecorder)
            .unwrap()
    }

    fn fault(vpn: u64, slot: Option<SwapSlot>) -> FaultInfo {
        FaultInfo {
            pid: Pid::new(1),
            vpn: Vpn::new(vpn),
            now: Nanos::ZERO,
            hit_swapcache: false,
            slot,
        }
    }

    #[test]
    fn prefetches_following_slots() {
        let mut dev = SwapDevice::new();
        // Pages evicted in order 10, 11, 12, 13: adjacent slots.
        let slots: Vec<SwapSlot> = (10..14).map(|v| swap_out(&mut dev, v)).collect();
        let mut fs = FastswapReadahead::with_window(2);
        let mut out = Vec::new();
        fs.on_fault(&fault(10, Some(slots[0])), &dev, &mut out);
        let vpns: Vec<u64> = out.iter().map(|r| r.vpn.raw()).collect();
        assert_eq!(vpns, vec![11, 12]);
        assert!(out.iter().all(|r| !r.inject));
    }

    #[test]
    fn interleaved_eviction_confuses_slot_order() {
        let mut dev = SwapDevice::new();
        // Two streams evicted alternately: slot neighbours belong to the
        // *other* stream half the time — the §II-B limitation.
        let mut slots = Vec::new();
        for k in 0..4u64 {
            slots.push(swap_out(&mut dev, 100 + k));
            slots.push(swap_out(&mut dev, 9_000 + k));
        }
        let mut fs = FastswapReadahead::with_window(2);
        let mut out = Vec::new();
        fs.on_fault(&fault(100, Some(slots[0])), &dev, &mut out);
        let vpns: Vec<u64> = out.iter().map(|r| r.vpn.raw()).collect();
        // It prefetches 9000 (wrong stream) along with 101.
        assert_eq!(vpns, vec![9_000, 101]);
    }

    #[test]
    fn no_slot_means_no_readahead() {
        let dev = SwapDevice::new();
        let mut fs = FastswapReadahead::new();
        let mut out = Vec::new();
        fs.on_fault(&fault(10, None), &dev, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_slots_are_skipped() {
        let mut dev = SwapDevice::new();
        let s0 = swap_out(&mut dev, 10);
        let s1 = swap_out(&mut dev, 11);
        dev.free(s1); // slot 1 now empty
        let s2 = swap_out(&mut dev, 12); // reuses slot 1
        assert_eq!(s2, s1);
        let mut fs = FastswapReadahead::with_window(4);
        let mut out = Vec::new();
        fs.on_fault(&fault(10, Some(s0)), &dev, &mut out);
        // Slot 1 holds page 12 now; slots 2..4 are empty and skipped.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].vpn, Vpn::new(12));
    }
}
