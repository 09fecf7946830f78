//! Native (non-JVM) compute workloads: K-means, quicksort, HPL, and the
//! §VI-E microbenchmark.

use hopp_trace::patterns::{AccessStream, Chain, Interleaver, LadderStream, SimpleStream};
use hopp_types::Pid;

use crate::HEAP_BASE;

/// Per-page compute time for arithmetic-heavy loops: 512 additions per
/// page (§VI-E's benchmark body) at ~1 ns each.
const ADD_THINK_NS: u32 = 500;

/// Cachelines that actually miss the LLC per streaming page touch.
/// Real CPUs hide a good fraction of a sequential page's 64 lines
/// behind hardware line prefetchers and open DRAM rows; 24 observable
/// misses per page keeps the compute/remote-stall ratio close to the
/// paper's testbed.
const SCAN_LINES: u8 = 40;

/// OMP K-means: a large contiguous array of points scanned fully on
/// every iteration by two worker threads, each owning half the array
/// (§VI-B: "OMP-Kmeans allocates a large array and writes all the data
/// into a contiguous memory"). Three iterations.
pub fn kmeans_omp(pid: Pid, footprint: u64, _seed: u64) -> Box<dyn AccessStream> {
    let half = footprint / 2;
    let iters = 3;
    let threads: Vec<Box<dyn AccessStream>> = (0..2u64)
        .map(|t| {
            let base = HEAP_BASE + t * half;
            let passes: Vec<Box<dyn AccessStream>> = (0..iters)
                .map(|_| {
                    Box::new(
                        SimpleStream::new(pid, base.into(), 1, half)
                            .with_lines(SCAN_LINES)
                            .with_think(ADD_THINK_NS),
                    ) as Box<dyn AccessStream>
                })
                .collect();
            Box::new(Chain::new(passes)) as Box<dyn AccessStream>
        })
        .collect();
    Box::new(Interleaver::round_robin(threads))
}

/// Quicksort: each recursion level sequentially scans its partition to
/// pivot and swap, producing phase-chained scans over shrinking,
/// adjacent ranges. Recursion stops at 32-page partitions.
pub fn quicksort(pid: Pid, footprint: u64, _seed: u64) -> Box<dyn AccessStream> {
    let mut phases: Vec<Box<dyn AccessStream>> = Vec::new();
    // Iterative DFS over (start, len) partitions, mimicking the actual
    // call order of quicksort.
    let mut stack = vec![(0u64, footprint)];
    while let Some((start, len)) = stack.pop() {
        if len < 32 {
            continue;
        }
        phases.push(Box::new(
            SimpleStream::new(pid, (HEAP_BASE + start).into(), 1, len)
                .with_lines(SCAN_LINES)
                .with_think(ADD_THINK_NS),
        ));
        let left = len / 2;
        // Push right first so the left half is scanned next (DFS order).
        stack.push((start + left, len - left));
        stack.push((start, left));
    }
    Box::new(Chain::new(phases))
}

/// High Performance Linpack: blocked LU factorization over an
/// `n x n`-page matrix. Each panel step scans the panel column block,
/// then the trailing-matrix update walks every row's block — the
/// canonical *ladder* footprint of Figure 2 (tread = pages within a
/// row-block, rise = jump to the next row). A final full sweep models
/// the back-substitution.
pub fn hpl(pid: Pid, footprint: u64, _seed: u64) -> Box<dyn AccessStream> {
    let n = (footprint as f64).sqrt() as u64;
    let block = 4u64.min(n.saturating_sub(1)).max(2);
    let panels = 3u64;
    let mut phases: Vec<Box<dyn AccessStream>> = Vec::new();
    // Initial read of the whole matrix.
    phases.push(Box::new(
        SimpleStream::new(pid, HEAP_BASE.into(), 1, n * n)
            .with_lines(SCAN_LINES)
            .with_think(ADD_THINK_NS),
    ));
    for k in 0..panels {
        let col0 = (k * block) % (n - block).max(1);
        // Panel: one column block, walked row by row (a stride-1 tread
        // with an immediate rise).
        let panel = LadderStream::new(
            pid,
            (HEAP_BASE + col0).into(),
            &vec![1; (block - 1) as usize],
            (n - block + 1) as i64,
            n,
        )
        .with_lines(SCAN_LINES)
        .with_think(ADD_THINK_NS);
        phases.push(Box::new(panel));
        // Trailing update: the dominant O(n^3) term. For each column
        // block, the update reads two operands whose row-blocks sit half
        // a matrix apart; strict alternation between them produces the
        // periodic cross-stream stride pattern of Figure 2 (no majority
        // stride, but a repeating 2-stride pattern for LSP).
        for cb in 0..4u64 {
            let col = (col0 + cb * block) % (n - block).max(1);
            let ladder_a = LadderStream::new(
                pid,
                (HEAP_BASE + col).into(),
                &vec![1; (block - 1) as usize],
                (n - block + 1) as i64,
                n,
            )
            .with_lines(SCAN_LINES)
            .with_think(ADD_THINK_NS);
            let ladder_b = LadderStream::new(
                pid,
                (HEAP_BASE + (col + n / 2) % (n - block)).into(),
                &vec![1; (block - 1) as usize],
                (n - block + 1) as i64,
                n,
            )
            .with_lines(SCAN_LINES)
            .with_think(ADD_THINK_NS);
            phases.push(Box::new(Interleaver::round_robin(vec![
                Box::new(ladder_a),
                Box::new(ladder_b),
            ])));
        }
    }
    // Back-substitution sweep.
    phases.push(Box::new(
        SimpleStream::new(pid, HEAP_BASE.into(), 1, n * n)
            .with_lines(SCAN_LINES)
            .with_think(ADD_THINK_NS),
    ));
    Box::new(Chain::new(phases))
}

/// The §VI-E microbenchmark: two threads, each reading and adding up
/// all 8-byte words of its 2 GB (scaled: `footprint/2` pages)
/// partition — 512 additions per page. Two passes, as the benchmark
/// loops over the data.
pub fn microbench(pid: Pid, footprint: u64, _seed: u64) -> Box<dyn AccessStream> {
    let half = footprint / 2;
    let threads: Vec<Box<dyn AccessStream>> = (0..2u64)
        .map(|t| {
            let base = HEAP_BASE + t * half;
            let passes: Vec<Box<dyn AccessStream>> = (0..2)
                .map(|_| {
                    Box::new(
                        SimpleStream::new(pid, base.into(), 1, half)
                            .with_lines(SCAN_LINES)
                            .with_think(ADD_THINK_NS),
                    ) as Box<dyn AccessStream>
                })
                .collect();
            Box::new(Chain::new(passes)) as Box<dyn AccessStream>
        })
        .collect();
    Box::new(Interleaver::round_robin(threads))
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "test code is exempt from the determinism bans"
)]
mod tests {
    use super::*;

    fn pages(mut s: Box<dyn AccessStream>) -> Vec<u64> {
        std::iter::from_fn(|| s.next_access())
            .map(|a| a.vpn.raw() - HEAP_BASE)
            .collect()
    }

    #[test]
    fn kmeans_interleaves_two_halves() {
        let v = pages(kmeans_omp(Pid::new(1), 1_024, 0));
        assert_eq!(v.len(), 3 * 1_024);
        // Round-robin: first two accesses come from the two halves.
        assert_eq!(v[0], 0);
        assert_eq!(v[1], 512);
        assert_eq!(v[2], 1);
    }

    #[test]
    fn quicksort_phases_shrink() {
        let v = pages(quicksort(Pid::new(1), 512, 0));
        // First phase scans the whole array.
        assert_eq!(&v[..512], (0..512).collect::<Vec<_>>().as_slice());
        // Then the left half.
        assert_eq!(&v[512..768], (0..256).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn quicksort_work_is_n_log_n_like() {
        let small = pages(quicksort(Pid::new(1), 512, 0)).len();
        let large = pages(quicksort(Pid::new(1), 2_048, 0)).len();
        // 4x data => a bit more than 4x work (one extra level).
        assert!(large > 4 * small);
        assert!(large < 8 * small);
    }

    #[test]
    fn hpl_produces_ladder_strides() {
        let v = pages(hpl(Pid::new(1), 1_024, 0));
        // After the first panel scan, strides must alternate between
        // small (tread) and large (rise) values.
        let n = 32; // sqrt(1024)
        let tail = &v[(4 * n as usize)..];
        let strides: Vec<i64> = tail.windows(2).map(|w| w[1] as i64 - w[0] as i64).collect();
        assert!(strides.iter().any(|&s| s.abs() > 8), "has rises");
        assert!(strides.iter().any(|&s| s.abs() <= 2), "has treads");
    }

    #[test]
    fn microbench_covers_everything_twice() {
        let v = pages(microbench(Pid::new(1), 512, 0));
        assert_eq!(v.len(), 2 * 512);
        let mut counts = std::collections::HashMap::new();
        for p in v {
            *counts.entry(p).or_insert(0u32) += 1;
        }
        assert!(counts.values().all(|&c| c == 2));
    }
}
