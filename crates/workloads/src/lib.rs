#![warn(missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::disallowed_types,
    clippy::allow_attributes_without_reason
)]
//! Synthetic access-pattern models of the paper's 15 applications.
//!
//! The paper evaluates real binaries (Spark/GraphX jobs, NPB kernels,
//! HPL, quicksort, K-means) on a hardware testbed. A prefetcher,
//! however, only ever observes each application's *page access
//! sequence*, so for simulation purposes a workload is fully
//! characterized by the stream mix it produces. Each model here
//! composes the pattern generators of `hopp-trace` to reproduce the
//! pattern classes §II-B and §VI-D attribute to the corresponding
//! application:
//!
//! | model | dominant patterns |
//! |---|---|
//! | `Kmeans` (OMP) | long stride-1 simple streams, 2 threads |
//! | `Quicksort` | phase-chained shrinking sequential scans |
//! | `Hpl` | ladder streams (blocked matrix updates) |
//! | `NpbCg` | vector stream + sparse random column accesses |
//! | `NpbFt` | dimension passes: stride-1 then large-stride column scans |
//! | `NpbLu` | several aligned wavefront streams |
//! | `NpbMg` | ripple streams over a multigrid V-cycle |
//! | `NpbIs` | sequential key scan + random bucket traffic |
//! | `GraphBfs/Cc/Pr/Lp` | edge-list streams + vertex ripples + noise |
//! | `SparkKmeans/SparkBayes` | short per-stage streams + GC noise (JVM) |
//! | `Microbench` | §VI-E's two-thread read-and-add benchmark |
//!
//! Every model is deterministic in `(pid, footprint, seed)`.
//!
//! # Example
//!
//! ```
//! use hopp_workloads::WorkloadKind;
//! use hopp_trace::AccessStream;
//! use hopp_types::Pid;
//!
//! let mut w = WorkloadKind::Kmeans.build(Pid::new(1), 1_024, 42);
//! let first = w.next_access().unwrap();
//! assert_eq!(first.pid, Pid::new(1));
//! ```

pub mod compute;
pub mod graph;
pub mod npb;
pub mod spark;

use hopp_trace::AccessStream;
use hopp_types::Pid;

/// Base virtual page of every workload's heap, far from page zero so
/// negative-stride prediction never underflows the address space.
pub const HEAP_BASE: u64 = 1 << 20;

/// The workload catalogue (Table IV of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WorkloadKind {
    /// OMP K-means: two threads scanning a large array repeatedly.
    Kmeans,
    /// Quicksort over a 4 GB array (scaled).
    Quicksort,
    /// High Performance Linpack: blocked matrix factorization.
    Hpl,
    /// NPB conjugate gradient.
    NpbCg,
    /// NPB 3-D FFT.
    NpbFt,
    /// NPB LU factorization (wavefront).
    NpbLu,
    /// NPB multigrid.
    NpbMg,
    /// NPB integer sort.
    NpbIs,
    /// GraphX breadth-first search (on Spark).
    GraphBfs,
    /// GraphX connected components (on Spark).
    GraphCc,
    /// GraphX PageRank (on Spark).
    GraphPr,
    /// GraphX label propagation (on Spark).
    GraphLp,
    /// Spark K-means.
    SparkKmeans,
    /// Spark Bayes.
    SparkBayes,
    /// The §VI-E microbenchmark: 2 threads read-and-add all 8-byte
    /// words of their 2 GB partitions.
    Microbench,
}

impl WorkloadKind {
    /// All fifteen workloads.
    pub const ALL: [WorkloadKind; 15] = [
        WorkloadKind::Kmeans,
        WorkloadKind::Quicksort,
        WorkloadKind::Hpl,
        WorkloadKind::NpbCg,
        WorkloadKind::NpbFt,
        WorkloadKind::NpbLu,
        WorkloadKind::NpbMg,
        WorkloadKind::NpbIs,
        WorkloadKind::GraphBfs,
        WorkloadKind::GraphCc,
        WorkloadKind::GraphPr,
        WorkloadKind::GraphLp,
        WorkloadKind::SparkKmeans,
        WorkloadKind::SparkBayes,
        WorkloadKind::Microbench,
    ];

    /// The non-JVM programs of Fig 9–11 and Fig 16–21.
    pub const NON_JVM: [WorkloadKind; 8] = [
        WorkloadKind::Kmeans,
        WorkloadKind::Quicksort,
        WorkloadKind::Hpl,
        WorkloadKind::NpbCg,
        WorkloadKind::NpbFt,
        WorkloadKind::NpbLu,
        WorkloadKind::NpbMg,
        WorkloadKind::NpbIs,
    ];

    /// The Spark/JVM workloads of Fig 12–14.
    pub const SPARK: [WorkloadKind; 6] = [
        WorkloadKind::GraphBfs,
        WorkloadKind::GraphCc,
        WorkloadKind::GraphPr,
        WorkloadKind::GraphLp,
        WorkloadKind::SparkKmeans,
        WorkloadKind::SparkBayes,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Kmeans => "Kmeans-OMP",
            WorkloadKind::Quicksort => "Quicksort",
            WorkloadKind::Hpl => "HPL",
            WorkloadKind::NpbCg => "NPB-CG",
            WorkloadKind::NpbFt => "NPB-FT",
            WorkloadKind::NpbLu => "NPB-LU",
            WorkloadKind::NpbMg => "NPB-MG",
            WorkloadKind::NpbIs => "NPB-IS",
            WorkloadKind::GraphBfs => "GraphX-BFS",
            WorkloadKind::GraphCc => "GraphX-CC",
            WorkloadKind::GraphPr => "GraphX-PR",
            WorkloadKind::GraphLp => "GraphX-LP",
            WorkloadKind::SparkKmeans => "Kmeans-Spark",
            WorkloadKind::SparkBayes => "Bayes-Spark",
            WorkloadKind::Microbench => "Microbench",
        }
    }

    /// True for JVM-hosted workloads (different memory layout; §VI-B).
    pub fn is_jvm(self) -> bool {
        matches!(
            self,
            WorkloadKind::GraphBfs
                | WorkloadKind::GraphCc
                | WorkloadKind::GraphPr
                | WorkloadKind::GraphLp
                | WorkloadKind::SparkKmeans
                | WorkloadKind::SparkBayes
        )
    }

    /// The footprint the paper's instance of this workload occupies
    /// (Table IV), in GB. The GraphX jobs share one 33 GB Spark heap.
    pub fn paper_footprint_gb(self) -> f64 {
        match self {
            WorkloadKind::GraphBfs
            | WorkloadKind::GraphCc
            | WorkloadKind::GraphPr
            | WorkloadKind::GraphLp
            | WorkloadKind::SparkBayes => 33.0,
            WorkloadKind::SparkKmeans => 13.0,
            WorkloadKind::Kmeans => 3.2,
            WorkloadKind::Hpl => 1.2,
            WorkloadKind::NpbCg
            | WorkloadKind::NpbFt
            | WorkloadKind::NpbLu
            | WorkloadKind::NpbMg
            | WorkloadKind::NpbIs => 4.0, // NPB spans 1-7 GB; midpoint
            WorkloadKind::Quicksort => 4.0,
            WorkloadKind::Microbench => 4.0, // 2 threads x 2 GB
        }
    }

    /// The cores the paper assigns the workload (Table IV).
    pub fn paper_cores(self) -> u32 {
        match self {
            WorkloadKind::GraphBfs
            | WorkloadKind::GraphCc
            | WorkloadKind::GraphPr
            | WorkloadKind::GraphLp => 14,
            WorkloadKind::SparkBayes => 4,
            WorkloadKind::SparkKmeans => 3,
            WorkloadKind::Kmeans => 2,
            WorkloadKind::Hpl => 2,
            WorkloadKind::NpbCg
            | WorkloadKind::NpbFt
            | WorkloadKind::NpbLu
            | WorkloadKind::NpbMg
            | WorkloadKind::NpbIs => 2,
            WorkloadKind::Quicksort => 1,
            WorkloadKind::Microbench => 2,
        }
    }

    /// A one-line description of the access-pattern model.
    pub fn description(self) -> &'static str {
        match self {
            WorkloadKind::Kmeans => "two threads scanning a contiguous array, 3 iterations",
            WorkloadKind::Quicksort => "phase-chained sequential scans over shrinking partitions",
            WorkloadKind::Hpl => "blocked LU: panel scans + ladder-shaped trailing updates",
            WorkloadKind::NpbCg => "vector sweeps + sparse random gathers",
            WorkloadKind::NpbFt => "row-major sweeps + large-stride column passes",
            WorkloadKind::NpbLu => "aligned wavefront streams, forward then backward",
            WorkloadKind::NpbMg => "ripple streams over a multigrid V-cycle with exchange hops",
            WorkloadKind::NpbIs => "key scan + random bucket traffic, two passes",
            WorkloadKind::GraphBfs => "fragmented frontier scans, heavy neighbour noise",
            WorkloadKind::GraphCc => "label updates: edge scans + vertex ripple + noise",
            WorkloadKind::GraphPr => "regular per-iteration edge sweeps, mild noise",
            WorkloadKind::GraphLp => "edge sweeps + vertex ripple, moderate noise",
            WorkloadKind::SparkKmeans => "staged JVM regions, 3 passes per stage, GC noise",
            WorkloadKind::SparkBayes => "more, shorter stages, heavier shuffle/GC noise",
            WorkloadKind::Microbench => "2 threads read-and-add their 2 GB halves (§VI-E)",
        }
    }

    /// Builds the access stream for one run.
    ///
    /// `footprint_pages` is the model's heap size in 4 KB pages; the
    /// stream touches pages in `[HEAP_BASE, HEAP_BASE + footprint)`.
    /// `seed` drives all randomness deterministically.
    pub fn build(self, pid: Pid, footprint_pages: u64, seed: u64) -> Box<dyn AccessStream> {
        assert!(
            footprint_pages >= 256,
            "footprint too small to be meaningful"
        );
        match self {
            WorkloadKind::Kmeans => compute::kmeans_omp(pid, footprint_pages, seed),
            WorkloadKind::Quicksort => compute::quicksort(pid, footprint_pages, seed),
            WorkloadKind::Hpl => compute::hpl(pid, footprint_pages, seed),
            WorkloadKind::NpbCg => npb::cg(pid, footprint_pages, seed),
            WorkloadKind::NpbFt => npb::ft(pid, footprint_pages, seed),
            WorkloadKind::NpbLu => npb::lu(pid, footprint_pages, seed),
            WorkloadKind::NpbMg => npb::mg(pid, footprint_pages, seed),
            WorkloadKind::NpbIs => npb::is(pid, footprint_pages, seed),
            WorkloadKind::GraphBfs => graph::bfs(pid, footprint_pages, seed),
            WorkloadKind::GraphCc => graph::cc(pid, footprint_pages, seed),
            WorkloadKind::GraphPr => graph::pr(pid, footprint_pages, seed),
            WorkloadKind::GraphLp => graph::lp(pid, footprint_pages, seed),
            WorkloadKind::SparkKmeans => spark::kmeans(pid, footprint_pages, seed),
            WorkloadKind::SparkBayes => spark::bayes(pid, footprint_pages, seed),
            WorkloadKind::Microbench => compute::microbench(pid, footprint_pages, seed),
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_types,
    reason = "test code is exempt from the determinism bans"
)]
mod tests {
    use super::*;

    fn drain(kind: WorkloadKind) -> Vec<hopp_types::PageAccess> {
        let mut s = kind.build(Pid::new(7), 1_024, 11);
        std::iter::from_fn(|| s.next_access()).collect()
    }

    #[test]
    fn every_workload_produces_accesses_within_bounds() {
        for kind in WorkloadKind::ALL {
            let accs = drain(kind);
            assert!(
                accs.len() >= 1_000,
                "{} produced only {} accesses",
                kind.name(),
                accs.len()
            );
            for a in &accs {
                assert_eq!(a.pid, Pid::new(7), "{}", kind.name());
                assert!(
                    a.vpn.raw() >= HEAP_BASE && a.vpn.raw() < HEAP_BASE + 1_024,
                    "{} escaped its footprint: {:?}",
                    kind.name(),
                    a.vpn
                );
            }
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        for kind in WorkloadKind::ALL {
            let a = drain(kind);
            let b = drain(kind);
            assert_eq!(a, b, "{} is not deterministic", kind.name());
        }
    }

    #[test]
    fn seeds_change_randomized_workloads() {
        let a: Vec<_> = {
            let mut s = WorkloadKind::GraphBfs.build(Pid::new(1), 1_024, 1);
            std::iter::from_fn(|| s.next_access())
                .map(|a| a.vpn)
                .collect()
        };
        let b: Vec<_> = {
            let mut s = WorkloadKind::GraphBfs.build(Pid::new(1), 1_024, 2);
            std::iter::from_fn(|| s.next_access())
                .map(|a| a.vpn)
                .collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn footprint_is_actually_used() {
        // Each workload must touch a large fraction of its declared
        // footprint (it is an in-memory application, not a point probe).
        for kind in WorkloadKind::ALL {
            let accs = drain(kind);
            let distinct: std::collections::HashSet<u64> =
                accs.iter().map(|a| a.vpn.raw()).collect();
            assert!(
                distinct.len() as u64 >= 1_024 / 2,
                "{} touched only {} of 1024 pages",
                kind.name(),
                distinct.len()
            );
        }
    }

    #[test]
    fn groups_partition_the_catalogue() {
        assert_eq!(
            WorkloadKind::NON_JVM.len() + WorkloadKind::SPARK.len() + 1,
            15
        );
        for k in WorkloadKind::SPARK {
            assert!(k.is_jvm());
        }
        for k in WorkloadKind::NON_JVM {
            assert!(!k.is_jvm());
        }
    }

    #[test]
    #[should_panic]
    fn tiny_footprints_are_rejected() {
        let _ = WorkloadKind::Kmeans.build(Pid::new(1), 8, 0);
    }

    #[test]
    fn table_iv_metadata_is_complete() {
        for kind in WorkloadKind::ALL {
            assert!(kind.paper_footprint_gb() > 0.0, "{}", kind.name());
            assert!(kind.paper_cores() >= 1, "{}", kind.name());
            assert!(!kind.description().is_empty(), "{}", kind.name());
        }
        // Spot checks against Table IV.
        assert_eq!(WorkloadKind::GraphBfs.paper_cores(), 14);
        assert_eq!(WorkloadKind::Quicksort.paper_cores(), 1);
        assert_eq!(WorkloadKind::SparkKmeans.paper_footprint_gb(), 13.0);
        assert_eq!(WorkloadKind::Hpl.paper_footprint_gb(), 1.2);
    }
}
