//! The sharded remote-memory pool, end to end: the degenerate pool is
//! bit-identical to the paper's single-link testbed, scripted node
//! faults replay deterministically, and node loss completes via
//! failover instead of killing the run.

use hopp::fabric::{FabricConfig, FaultScript, PlacementKind};
use hopp::sim::runner::SOLO_PID;
use hopp::sim::{
    run_workload, run_workload_with, solo_app, BaselineKind, SimConfig, SimReport, Simulator,
    SystemConfig,
};
use hopp::types::{Error, NodeId, Result};
use hopp::workloads::WorkloadKind;

/// Runs `kind` (seed 42) at 50% local memory with `script` attached
/// to the pool.
fn run_with_faults(
    config: SimConfig,
    kind: WorkloadKind,
    footprint_pages: u64,
    script: &FaultScript,
) -> Result<SimReport> {
    let stream = kind.build(SOLO_PID, footprint_pages, 42);
    let mut sim = Simulator::new(
        config,
        vec![solo_app(SOLO_PID, stream, footprint_pages, 0.5)],
    )?;
    sim.set_fault_script(script)?;
    sim.run()
}

fn pool_config(nodes: usize, replication: usize, system: SystemConfig) -> SimConfig {
    SimConfig {
        fabric: FabricConfig {
            nodes,
            replication,
            ..FabricConfig::default()
        },
        ..SimConfig::with_system(system)
    }
}

/// Acceptance: `--mem-nodes 1` with replication off and no fault script
/// produces metrics bit-identical to the plain single-link simulator.
#[test]
fn single_node_pool_is_bit_identical_to_the_plain_link() {
    for system in [
        SystemConfig::Baseline(BaselineKind::Fastswap),
        SystemConfig::hopp_default(),
    ] {
        let plain = run_workload(WorkloadKind::Kmeans, 1_024, 42, system, 0.5).unwrap();
        let pooled = run_workload_with(
            pool_config(1, 1, system),
            WorkloadKind::Kmeans,
            1_024,
            42,
            0.5,
        )
        .unwrap();
        assert_eq!(
            plain.metrics_json(),
            pooled.metrics_json(),
            "explicit 1-node pool must be a transparent pass-through"
        );
        assert!(pooled.fabric.is_none(), "degenerate pool adds no report");
    }
}

/// Satellite: identical seed + identical fault script ⇒ byte-identical
/// metrics JSON across two runs.
#[test]
fn fault_runs_replay_byte_identically() {
    let script = FaultScript::parse("2:0:slow:3:4,6:2:fail:2,9:1:down").unwrap();
    let run = || {
        run_with_faults(
            pool_config(4, 2, SystemConfig::hopp_default()),
            WorkloadKind::Kmeans,
            1_024,
            &script,
        )
        .unwrap()
        .metrics_json()
    };
    assert_eq!(run(), run(), "same seed + script must replay exactly");
}

/// Acceptance: a scripted node loss mid-run completes via failover
/// re-reads on the replicas.
#[test]
fn node_loss_completes_via_failover() {
    // 20 ms is mid-run: pages already live on node 1 when it dies.
    let script = FaultScript::parse("20:1:down").unwrap();
    let report = run_with_faults(
        pool_config(4, 2, SystemConfig::Baseline(BaselineKind::Fastswap)),
        WorkloadKind::Kmeans,
        2_048,
        &script,
    )
    .unwrap();
    let fabric = report.fabric.as_ref().expect("multi-node pool reports");
    assert!(fabric.nodes[1].lost, "the scripted node is marked lost");
    assert!(
        fabric.failovers > 0,
        "reads of node 1's pages must fail over to replicas"
    );
    let healthy = run_workload_with(
        pool_config(4, 2, SystemConfig::Baseline(BaselineKind::Fastswap)),
        WorkloadKind::Kmeans,
        2_048,
        42,
        0.5,
    )
    .unwrap();
    assert_eq!(
        report.counters.accesses, healthy.counters.accesses,
        "the workload ran to completion despite the loss"
    );
    assert!(
        report.completion >= healthy.completion,
        "failover can only cost time"
    );
    // The loss shows up in the metrics JSON for downstream tooling.
    let json = report.metrics_json();
    assert!(json.contains("\"fabric\":{"), "fabric section present");
    assert!(json.contains("\"lost\":true"), "lost node serialized");
}

/// Placement policies shard work across every node; each policy keeps
/// the run's totals identical because placement only picks *where*
/// pages live, never *whether* they move.
#[test]
fn every_placement_policy_uses_all_nodes() {
    for placement in [
        PlacementKind::StaticHash,
        PlacementKind::RoundRobin,
        PlacementKind::StreamAware,
    ] {
        let config = SimConfig {
            fabric: FabricConfig {
                nodes: 4,
                placement,
                ..FabricConfig::default()
            },
            ..SimConfig::with_system(SystemConfig::hopp_default())
        };
        let report = run_workload_with(config, WorkloadKind::Kmeans, 2_048, 42, 0.25).unwrap();
        let fabric = report.fabric.as_ref().expect("multi-node pool reports");
        let busy = fabric.nodes.iter().filter(|n| n.link.reads > 0).count();
        assert!(
            busy >= 2,
            "{}: expected >= 2 nodes serving reads, got {busy}",
            placement.name()
        );
        let node_reads: u64 = fabric.nodes.iter().map(|n| n.link.reads).sum();
        assert_eq!(node_reads, report.rdma.reads, "per-node reads sum to total");
    }
}

/// An unreplicated pool cannot survive losing a node that still holds
/// pages: the run reports a typed [`Error::PageUnreachable`] naming the
/// page and node rather than panicking or fabricating data.
#[test]
fn unreplicated_node_loss_is_a_typed_error() {
    let script = FaultScript::parse("20:1:down").unwrap();
    let err = run_with_faults(
        pool_config(4, 1, SystemConfig::Baseline(BaselineKind::Fastswap)),
        WorkloadKind::Kmeans,
        2_048,
        &script,
    )
    .unwrap_err();
    assert!(
        matches!(
            err,
            Error::PageUnreachable {
                primary,
                replication: 1,
                ..
            } if primary == NodeId::new(1)
        ),
        "expected PageUnreachable for node 1, got {err}"
    );
}
