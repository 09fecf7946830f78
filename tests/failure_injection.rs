//! Failure injection: the stack must fail loudly and precisely when its
//! operating assumptions break — misconfiguration, resource exhaustion,
//! protocol violations — rather than silently producing wrong results.

use hopp::hw::rtl_rpt::{RptRtl, MSHR_ENTRIES};
use hopp::hw::{HpdConfig, McPipeline, RptCacheConfig};
use hopp::kernel::SwapDevice;
use hopp::sim::runner::SOLO_PID;
use hopp::sim::{
    solo_app, AppSpec, BaselineKind, FabricConfig, FaultScript, SimConfig, Simulator, SystemConfig,
};
use hopp::trace::hmtt::{HmttRecord, TraceRing};
use hopp::trace::llc::LlcConfig;
use hopp::trace::patterns::SimpleStream;
use hopp::types::{AccessKind, Error, LineAccess, LineAddr, Nanos, NodeId, Pid, Ppn, Vpn};
use hopp::workloads::WorkloadKind;

fn scan_app(pages: u64, limit: usize) -> AppSpec {
    AppSpec {
        pid: Pid::new(1),
        stream: Box::new(SimpleStream::new(Pid::new(1), Vpn::new(1 << 20), 1, pages)),
        limit_pages: limit,
    }
}

#[test]
fn invalid_geometries_are_rejected_up_front() {
    // Every bad knob surfaces at Simulator::new, not mid-run.
    let bad_llc = SimConfig {
        llc: LlcConfig {
            capacity_bytes: 100, // not a multiple of ways * 64B
            ways: 16,
        },
        ..SimConfig::default()
    };
    assert!(Simulator::new(bad_llc, vec![scan_app(512, 512)]).is_err());

    let bad_hpd = SimConfig {
        hpd: HpdConfig::with_threshold(0),
        ..SimConfig::default()
    };
    assert!(Simulator::new(bad_hpd, vec![scan_app(512, 512)]).is_err());

    let bad_rpt = SimConfig {
        rpt: RptCacheConfig {
            capacity_bytes: 24,
            ways: 16,
        },
        ..SimConfig::default()
    };
    assert!(Simulator::new(bad_rpt, vec![scan_app(512, 512)]).is_err());

    let bad_channels = SimConfig {
        channels: 0,
        ..SimConfig::default()
    };
    assert!(Simulator::new(bad_channels, vec![scan_app(512, 512)]).is_err());
}

#[test]
fn zero_cgroup_limit_is_rejected() {
    assert!(Simulator::new(SimConfig::default(), vec![scan_app(512, 0)]).is_err());
}

#[test]
fn remote_exhaustion_is_a_typed_error_not_a_panic() {
    // 2000 pages must spill ~1000 to remote, but the node only holds 64.
    let config = SimConfig {
        remote_capacity_pages: Some(64),
        ..SimConfig::with_system(SystemConfig::Baseline(BaselineKind::NoPrefetch))
    };
    let err = Simulator::new(config, vec![scan_app(2_000, 1_000)])
        .unwrap()
        .run()
        .unwrap_err();
    assert!(matches!(
        err,
        Error::RemoteMemoryExhausted { capacity_pages: 64 }
    ));
    assert_eq!(err.to_string(), "remote memory node full (64 pages)");
}

#[test]
fn remote_capacity_that_fits_is_fine() {
    let config = SimConfig {
        remote_capacity_pages: Some(4_096),
        ..SimConfig::with_system(SystemConfig::Baseline(BaselineKind::Fastswap))
    };
    let r = Simulator::new(config, vec![scan_app(2_000, 1_000)])
        .unwrap()
        .run()
        .unwrap();
    assert!(r.counters.reclaimed > 0);
}

#[test]
fn losing_every_replica_surfaces_page_unreachable_with_context() {
    // Unreplicated 2-node pool; node 0 dies mid-run, after pages have
    // been hashed onto it. The first major fault on a page whose primary
    // was node 0 must surface as a typed error carrying the page and
    // node, not a panic or a silent stall.
    let config = SimConfig {
        fabric: FabricConfig {
            nodes: 2,
            replication: 1,
            ..FabricConfig::default()
        },
        ..SimConfig::with_system(SystemConfig::Baseline(BaselineKind::Fastswap))
    };
    let script = FaultScript::parse("20:0:down").unwrap();
    let stream = WorkloadKind::Kmeans.build(SOLO_PID, 2_048, 42);
    let mut sim = Simulator::new(config, vec![solo_app(SOLO_PID, stream, 2_048, 0.5)]).unwrap();
    sim.set_fault_script(&script).unwrap();
    let err = sim.run().unwrap_err();
    let msg = err.to_string();
    match err {
        Error::PageUnreachable {
            primary,
            replication,
            ..
        } => {
            assert_eq!(primary, NodeId::new(0), "only the downed node is lost");
            assert_eq!(replication, 1);
        }
        other => panic!("expected PageUnreachable, got {other}"),
    }
    assert!(msg.contains("unreachable"), "{msg}");
    assert!(msg.contains("--replication"), "points at the remedy: {msg}");
}

#[test]
fn swap_device_surfaces_exhaustion_as_an_error() {
    let mut dev = SwapDevice::with_capacity(1);
    dev.alloc(Pid::new(1), Vpn::new(1)).unwrap();
    let err = dev.alloc(Pid::new(1), Vpn::new(2)).unwrap_err();
    assert!(matches!(
        err,
        Error::RemoteMemoryExhausted { capacity_pages: 1 }
    ));
    assert_eq!(err.to_string(), "remote memory node full (1 pages)");
}

#[test]
fn hmtt_ring_overrun_is_counted_not_hidden() {
    // A consumer that stalls loses the oldest records, and the loss is
    // observable — the debugging story for an undersized reserved area.
    let mut ring = TraceRing::new(8);
    for i in 0..100u64 {
        ring.push(HmttRecord::capture(
            i,
            &LineAccess {
                addr: LineAddr::new(i),
                kind: AccessKind::Read,
                at: Nanos::from_nanos(i * 64),
            },
        ));
    }
    assert_eq!(ring.overruns(), 92);
    assert_eq!(ring.len(), 8);
    // The survivors are the newest records, in order.
    let first = ring.pop().unwrap();
    assert_eq!(first.seqno(), 92);
}

#[test]
#[should_panic(expected = "MSHR overflow")]
fn rpt_rtl_enforces_its_outstanding_miss_budget() {
    let mut cache = RptRtl::new(RptCacheConfig::default()).unwrap();
    for p in 0..=MSHR_ENTRIES as u64 {
        let _ = cache.lookup(Ppn::new(p));
    }
}

#[test]
fn unresolvable_hot_pages_never_reach_software() {
    // A frame becomes hot but was never mapped (e.g. freed in the race
    // window): the pipeline drops it instead of fabricating an identity.
    let mut mc = McPipeline::new(HpdConfig::with_threshold(1), RptCacheConfig::default()).unwrap();
    let hot = mc.on_llc_miss(Ppn::new(1234).line(0), AccessKind::Read, Nanos::ZERO);
    assert!(hot.is_none());
    assert_eq!(mc.rpt().stats().unresolved, 1);
}

#[test]
fn workload_rejects_meaningless_footprints() {
    let result =
        std::panic::catch_unwind(|| hopp::workloads::WorkloadKind::Hpl.build(Pid::new(1), 16, 0));
    assert!(result.is_err(), "tiny footprints are a configuration bug");
}
