//! The golden matrix: report fingerprints pinned across every workload,
//! scenario, system and the knobs that reach otherwise dark paths.
//!
//! Each cell runs at tiny scale and hashes its `--metrics-json` report,
//! plus the LLC, HPD, RPT, bandwidth-ledger and tier counters, with
//! FNV-1a. The committed manifests under `tests/golden/matrix/`
//! hold one `cell fingerprint` line per cell, so a rewrite of a shared
//! hot layer (LLC, HPD, RPT, training) that changes any simulated
//! number in any cell fails here and names the cell.
//!
//! To re-bless after an *intentional* behaviour change, run
//! `HOPP_BLESS=1 cargo test --test golden_matrix` and commit the updated
//! manifests with a written reason.

use std::path::Path;

use hopp::core::{HoppConfig, HugeBatchConfig, MarkovConfig, TrainerKind};
use hopp::fabric::{FabricConfig, FaultScript};
use hopp::scn::{fnv1a64, load_dir, Scenario, WorkloadSource};
use hopp::sim::runner::SOLO_PID;
use hopp::sim::{solo_app, BaselineKind, SimConfig, Simulator, SystemConfig};
use hopp::types::Nanos;
use hopp::workloads::WorkloadKind;

const FOOTPRINT: u64 = 512;
const SEED: u64 = 7;
const RATIO: f64 = 0.5;

fn systems() -> [SystemConfig; 6] {
    [
        SystemConfig::Baseline(BaselineKind::NoPrefetch),
        SystemConfig::Baseline(BaselineKind::Fastswap),
        SystemConfig::Baseline(BaselineKind::Leap),
        SystemConfig::Baseline(BaselineKind::Vma),
        SystemConfig::Baseline(BaselineKind::DepthN(16)),
        SystemConfig::hopp_default(),
    ]
}

fn system_label(system: SystemConfig) -> String {
    match system {
        SystemConfig::Baseline(BaselineKind::DepthN(n)) => format!("depth-{n}"),
        other => other.name().to_string(),
    }
}

/// One cell of the matrix.
struct Cell {
    name: String,
    source: WorkloadSource,
    config: SimConfig,
    faults: Option<&'static str>,
}

impl Cell {
    fn new(name: String, source: WorkloadSource, config: SimConfig) -> Self {
        Cell {
            name,
            source,
            config,
            faults: None,
        }
    }

    fn fingerprint(&self) -> u64 {
        let footprint = self.source.footprint(FOOTPRINT, FOOTPRINT);
        let stream = self.source.build(SOLO_PID, footprint, SEED);
        let mut sim = Simulator::new(
            self.config,
            vec![solo_app(SOLO_PID, stream, footprint, RATIO)],
        )
        .unwrap_or_else(|e| panic!("{}: {e}", self.name));
        if let Some(script) = self.faults {
            let script = FaultScript::parse(script).expect("fault script parses");
            sim.set_fault_script(&script).expect("fault script fits");
        }
        let report = sim.run().unwrap_or_else(|e| panic!("{}: {e}", self.name));
        // The metrics JSON omits the hardware tables' own counters, so
        // they are hashed too: a cell whose completion time survives an
        // LLC or HPD change still fails.
        let hardware = format!(
            "{:?}",
            (
                report.llc,
                report.hpd,
                report.rpt,
                report.ledger,
                report.tier_stats
            )
        );
        fnv1a64(format!("{}\n{hardware}", report.metrics_json()).as_bytes())
    }
}

/// Every source × every system.
fn grid(sources: &[WorkloadSource]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for source in sources {
        for system in systems() {
            cells.push(Cell::new(
                format!("{}/{}", source.name(), system_label(system)),
                source.clone(),
                SimConfig::with_system(system),
            ));
        }
    }
    cells
}

fn hopp_with(edit: impl Fn(&mut HoppConfig)) -> SystemConfig {
    let mut config = HoppConfig::default();
    edit(&mut config);
    SystemConfig::hopp_with(config)
}

/// A small scenario with write phases, so dirty reclaim, writebacks and
/// the HPD's ignored write misses all carry traffic.
const WRITES_SCENARIO: &str = r#"
[scenario]
name = "writes"
seed = 5
footprint = 768

[[phase]]
name = "fill"

[[phase.mix]]
pattern = "simple"
start = 0
len = 512
stride = 1
writes = true

[[phase]]
name = "update"

[[phase.mix]]
pattern = "ripple"
start = 0
len = 512
jitter = 0.1
hop_every = 0
weight = 3

[[phase.mix]]
pattern = "simple"
start = 512
len = 256
stride = 1
writes = true
weight = 1
"#;

/// Knob variants on two workloads under HoPP (and Fastswap where the
/// knob is a shared layer).
fn knob_cells() -> Vec<Cell> {
    let writes = WorkloadSource::Scenario(
        Scenario::from_text(WRITES_SCENARIO, "writes.toml", "writes").expect("scenario parses"),
    );
    let fastswap = SystemConfig::Baseline(BaselineKind::Fastswap);
    let hopp = SystemConfig::hopp_default();
    let mut cells = Vec::new();
    for kind in [WorkloadKind::Kmeans, WorkloadKind::NpbMg] {
        let source = WorkloadSource::Catalogue(kind);
        let name = kind.name();
        let mut knob = |label: &str, config: SimConfig| {
            cells.push(Cell::new(format!("{name}/{label}"), source.clone(), config));
        };
        for channels in [3, 4] {
            knob(
                &format!("hopp --channels {channels}"),
                SimConfig {
                    channels,
                    ..SimConfig::with_system(hopp)
                },
            );
        }
        for threshold in [1, 64] {
            let mut config = SimConfig::with_system(hopp);
            config.hpd.threshold = threshold;
            knob(&format!("hopp --hpd-threshold {threshold}"), config);
        }
        for system in [fastswap, hopp] {
            let mut config = SimConfig::with_system(system);
            config.llc.capacity_bytes = 32 * 1024;
            knob(&format!("{} --llc-kb 32", system.name()), config);
        }
        knob(
            "hopp --huge-batch",
            SimConfig::with_system(hopp_with(|c| {
                c.policy.huge_batch = Some(HugeBatchConfig::default());
            })),
        );
        knob(
            "hopp --markov",
            SimConfig::with_system(hopp_with(|c| {
                c.trainer = TrainerKind::Markov(MarkovConfig::default());
            })),
        );
        knob(
            "hopp --direct-reclaim",
            SimConfig {
                reclaim_in_advance: false,
                ..SimConfig::with_system(hopp)
            },
        );
        // Two windows: 2 ms is short enough that a hot page's exact
        // timestamp decides some second chances.
        for ms in [2, 100] {
            knob(
                &format!("hopp --reclaim-window {ms}"),
                SimConfig {
                    trace_assisted_reclaim: Some(Nanos::from_millis(ms)),
                    ..SimConfig::with_system(hopp)
                },
            );
        }
    }
    for system in [fastswap, hopp] {
        cells.push(Cell::new(
            format!("writes/{}", system.name()),
            writes.clone(),
            SimConfig::with_system(system),
        ));
        let mut small_llc = SimConfig::with_system(system);
        small_llc.llc.capacity_bytes = 32 * 1024;
        cells.push(Cell::new(
            format!("writes/{} --llc-kb 32", system.name()),
            writes.clone(),
            small_llc,
        ));
    }
    for system in [fastswap, hopp] {
        for source in [
            WorkloadSource::Catalogue(WorkloadKind::Kmeans),
            writes.clone(),
        ] {
            let mut cell = Cell::new(
                format!(
                    "{}/{} --mem-nodes 4 --replication 2 --fault-script 1:1:fail:3,3:2:down",
                    source.name(),
                    system.name()
                ),
                source,
                SimConfig {
                    fabric: FabricConfig {
                        nodes: 4,
                        replication: 2,
                        ..FabricConfig::default()
                    },
                    ..SimConfig::with_system(system)
                },
            );
            cell.faults = Some("1:1:fail:3,3:2:down");
            cells.push(cell);
        }
    }
    cells
}

/// Computes every cell and compares it against (or, with `HOPP_BLESS`
/// set, writes) the manifest `tests/golden/matrix/<group>.txt`.
fn check(group: &str, cells: &[Cell]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/matrix")
        .join(format!("{group}.txt"));
    let got: String = cells
        .iter()
        .map(|c| format!("{:016x} {}\n", c.fingerprint(), c.name))
        .collect();
    #[expect(
        clippy::disallowed_methods,
        reason = "re-blessing is an explicit developer action, not a simulation input"
    )]
    let bless = std::env::var_os("HOPP_BLESS").is_some();
    if bless {
        std::fs::create_dir_all(path.parent().expect("manifest dir")).expect("create dir");
        std::fs::write(&path, &got).expect("write manifest");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with HOPP_BLESS=1)", path.display()));
    let drifted: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  got {g}\n want {w}"))
        .collect();
    assert!(
        drifted.is_empty() && got.lines().count() == want.lines().count(),
        "{} cell(s) of {group} drifted from the golden matrix \
         (re-bless with HOPP_BLESS=1 only for an intentional change):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

#[test]
fn catalogue_cells_match_the_golden_matrix() {
    let sources: Vec<WorkloadSource> = WorkloadKind::ALL
        .into_iter()
        .map(WorkloadSource::Catalogue)
        .collect();
    check("catalogue", &grid(&sources));
}

#[test]
fn scenario_cells_match_the_golden_matrix() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let sources: Vec<WorkloadSource> = load_dir(&dir)
        .expect("checked-in scenarios parse")
        .into_iter()
        .map(WorkloadSource::Scenario)
        .collect();
    assert_eq!(sources.len(), 6, "one cell row per checked-in scenario");
    check("scenarios", &grid(&sources));
}

#[test]
fn knob_cells_match_the_golden_matrix() {
    check("knobs", &knob_cells());
}
