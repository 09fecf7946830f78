//! NAS Parallel Benchmark kernels: CG, FT, LU, MG, IS.

use hopp_trace::patterns::{
    AccessStream, Chain, Interleaver, NoiseStream, RippleStream, SimpleStream,
};
use hopp_types::Pid;

use crate::HEAP_BASE;

const THINK_NS: u32 = 400;

/// Observable LLC misses per streaming page touch (see
/// `compute::SCAN_LINES` for the rationale).
const SCAN_LINES: u8 = 40;

/// CG — conjugate gradient: repeated sequential sweeps over the
/// iteration vectors interleaved with sparse, effectively random
/// accesses into the matrix-indexed gather region.
pub fn cg(pid: Pid, footprint: u64, seed: u64) -> Box<dyn AccessStream> {
    let vectors = footprint / 2; // p, q, r, x vectors region
    let gather = footprint - vectors; // A's column-index gathers
    let iters = 3;
    let passes: Vec<Box<dyn AccessStream>> = (0..iters)
        .map(|i| {
            let sweep = SimpleStream::new(pid, HEAP_BASE.into(), 1, vectors)
                .with_lines(SCAN_LINES)
                .with_think(THINK_NS);
            let sparse = NoiseStream::new(
                pid,
                (HEAP_BASE + vectors).into(),
                (HEAP_BASE + vectors + gather).into(),
                vectors / 4,
                seed.wrapping_add(i),
            );
            Box::new(Interleaver::weighted(
                vec![Box::new(sweep), Box::new(sparse)],
                vec![2, 1],
                seed ^ i,
            )) as Box<dyn AccessStream>
        })
        .collect();
    Box::new(Chain::new(passes))
}

/// FT — 3-D FFT: one stride-1 pass per dimension followed by a
/// transposed pass that walks columns (stride = the plane width),
/// which no single-stride window can follow but clustering + majority
/// can.
pub fn ft(pid: Pid, footprint: u64, _seed: u64) -> Box<dyn AccessStream> {
    let n = (footprint as f64).sqrt() as u64; // plane width in pages
    let mut phases: Vec<Box<dyn AccessStream>> = Vec::new();
    // Dimension 1: row-major sweep.
    phases.push(Box::new(
        SimpleStream::new(pid, HEAP_BASE.into(), 1, n * n)
            .with_lines(SCAN_LINES)
            .with_think(THINK_NS),
    ));
    // Dimension 2: column-major sweep — n streams of stride n.
    let columns: Vec<Box<dyn AccessStream>> = (0..n)
        .map(|c| {
            Box::new(
                SimpleStream::new(pid, (HEAP_BASE + c).into(), n as i64, n)
                    .with_lines(SCAN_LINES)
                    .with_think(THINK_NS),
            ) as Box<dyn AccessStream>
        })
        .collect();
    phases.push(Box::new(Chain::new(columns)));
    // Inverse transform: row-major again.
    phases.push(Box::new(
        SimpleStream::new(pid, HEAP_BASE.into(), 1, n * n)
            .with_lines(SCAN_LINES)
            .with_think(THINK_NS),
    ));
    Box::new(Chain::new(phases))
}

/// LU — wavefront factorization: several aligned stride-1 streams move
/// through the grid together (one per pipeline stage), plus a
/// boundary-exchange stream.
pub fn lu(pid: Pid, footprint: u64, _seed: u64) -> Box<dyn AccessStream> {
    let lanes = 4u64;
    let lane_len = footprint / lanes;
    let streams: Vec<Box<dyn AccessStream>> = (0..lanes)
        .map(|l| {
            Box::new(
                SimpleStream::new(pid, (HEAP_BASE + l * lane_len).into(), 1, lane_len)
                    .with_lines(SCAN_LINES)
                    .with_think(THINK_NS),
            ) as Box<dyn AccessStream>
        })
        .collect();
    let sweep = Interleaver::round_robin(streams);
    // Second sweep (back-substitution) in reverse order.
    let back: Vec<Box<dyn AccessStream>> = (0..lanes)
        .map(|l| {
            Box::new(
                SimpleStream::new(
                    pid,
                    (HEAP_BASE + (l + 1) * lane_len - 1).into(),
                    -1,
                    lane_len,
                )
                .with_lines(SCAN_LINES)
                .with_think(THINK_NS),
            ) as Box<dyn AccessStream>
        })
        .collect();
    Box::new(Chain::new(vec![
        Box::new(sweep),
        Box::new(Interleaver::round_robin(back)),
    ]))
}

/// MG — multigrid V-cycle: ripple streams (stride-1 with out-of-order
/// stencil accesses) over grids of halving size on the way down and
/// doubling size on the way up. The paper calls out NPB-MG as the
/// ripple-stream example (§II-B, Fig 3).
pub fn mg(pid: Pid, footprint: u64, seed: u64) -> Box<dyn AccessStream> {
    let mut phases: Vec<Box<dyn AccessStream>> = Vec::new();
    // Finest grid takes half the footprint; each coarser level is a
    // quarter of the previous, packed after it, so all levels fit.
    let mut level_sizes = Vec::new();
    let mut size = footprint / 2;
    while size >= 64 {
        level_sizes.push(size);
        size /= 4;
    }
    let mut offsets = Vec::new();
    let mut off = 0u64;
    for &s in &level_sizes {
        offsets.push(off);
        off += s;
    }
    debug_assert!(off <= footprint);
    // Boundary-exchange buffer: the across-stream hop target that makes
    // these ripple streams (irregular hops defeat pattern matching and
    // leave RSP as the only tier that can follow them, §II-B).
    let exchange = HEAP_BASE + footprint - 64;
    let down = level_sizes.iter().zip(&offsets);
    let up = level_sizes.iter().zip(&offsets).rev().skip(1);
    for (i, (&s, &o)) in down.chain(up).enumerate() {
        phases.push(Box::new(
            RippleStream::new(
                pid,
                (HEAP_BASE + o).into(),
                s,
                0.35,
                6,
                seed.wrapping_add(i as u64),
            )
            .with_hop_base(exchange.into())
            .with_lines(SCAN_LINES)
            .with_think(THINK_NS),
        ));
    }
    Box::new(Chain::new(phases))
}

/// IS — integer sort: a sequential scan of the key array interleaved
/// with random accesses into the bucket/histogram region, then a
/// permuted write-out pass (modelled as another noisy region pass).
pub fn is(pid: Pid, footprint: u64, seed: u64) -> Box<dyn AccessStream> {
    let keys = footprint * 3 / 4;
    let _buckets = footprint - keys;
    let count_pass = Interleaver::weighted(
        vec![
            Box::new(
                SimpleStream::new(pid, HEAP_BASE.into(), 1, keys)
                    .with_lines(SCAN_LINES)
                    .with_think(THINK_NS),
            ),
            Box::new(NoiseStream::new(
                pid,
                (HEAP_BASE + keys).into(),
                (HEAP_BASE + footprint).into(),
                keys / 2,
                seed,
            )),
        ],
        vec![2, 1],
        seed,
    );
    let rank_pass = Interleaver::weighted(
        vec![
            Box::new(
                SimpleStream::new(pid, HEAP_BASE.into(), 1, keys)
                    .with_lines(SCAN_LINES)
                    .with_think(THINK_NS),
            ),
            Box::new(NoiseStream::new(
                pid,
                (HEAP_BASE + keys).into(),
                (HEAP_BASE + footprint).into(),
                keys / 4,
                seed ^ 0xdead,
            )),
        ],
        vec![3, 1],
        seed ^ 1,
    );
    Box::new(Chain::new(vec![Box::new(count_pass), Box::new(rank_pass)]))
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
    fn ft_has_a_column_phase() {
        let v = pages(ft(Pid::new(1), 1_024, 0));
        let n = 32u64;
        // The middle third contains stride-n jumps.
        let mid = &v[(n * n) as usize..(2 * n * n) as usize];
        let stride_n = mid
            .windows(2)
            .filter(|w| w[1] as i64 - w[0] as i64 == n as i64)
            .count();
        assert!(stride_n > mid.len() / 2);
    }

    #[test]
    fn lu_interleaves_lanes_both_ways() {
        let v = pages(lu(Pid::new(1), 1_024, 0));
        assert_eq!(v.len(), 2 * 1_024);
        // Forward sweep starts at each lane's base.
        assert_eq!(&v[..4], &[0, 256, 512, 768]);
        // Backward sweep starts at each lane's top.
        assert_eq!(&v[1_024..1_028], &[255, 511, 767, 1_023]);
    }

    #[test]
    fn mg_walks_a_v_cycle() {
        let v = pages(mg(Pid::new(1), 4_096, 3));
        // Levels: 2048, 512, 128 (down), then 512, 2048 (up), plus one
        // exchange-buffer hop per 6 accesses.
        let grid = 2_048 + 512 + 128 + 512 + 2_048;
        assert!(v.len() as u64 >= grid && v.len() as u64 <= grid + grid / 5 + 5);
        // Across-stream hops land in the 64-page exchange buffer.
        assert!(v.iter().any(|&p| p >= 4_096 - 64));
        // Everything stays inside the footprint.
        assert!(v.iter().all(|&p| p < 4_096));
        // Every grid page of every level is still covered.
        let distinct: std::collections::HashSet<u64> =
            v.iter().copied().filter(|&p| p < 2_688).collect();
        assert_eq!(distinct.len() as u64, 2_688);
    }

    #[test]
    fn cg_mixes_sweep_and_gather() {
        let v = pages(cg(Pid::new(1), 1_024, 9));
        let sweep = v.iter().filter(|&&p| p < 512).count();
        let gather = v.iter().filter(|&&p| p >= 512).count();
        assert!(sweep > 0 && gather > 0);
        assert!(sweep > gather, "the sweep dominates");
    }

    #[test]
    fn is_touches_keys_and_buckets() {
        let v = pages(is(Pid::new(1), 1_024, 5));
        assert!(v.iter().any(|&p| p < 768));
        assert!(v.iter().any(|&p| p >= 768));
    }
}
