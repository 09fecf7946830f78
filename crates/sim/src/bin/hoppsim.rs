#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::disallowed_types,
    clippy::allow_attributes_without_reason
)]
//! `hoppsim` — run a disaggregated-memory simulation from the command
//! line.
//!
//! ```text
//! hoppsim --workload kmeans --system hopp --ratio 0.5
//! hoppsim --workload npb-mg --system depth-32 --footprint 8192
//! hoppsim --workload microbench --system hopp --intensity 2 --channels 4
//! hoppsim --workload kmeans --system hopp --trace-out t.json --metrics-json m.json
//! hoppsim --scenario scenarios/drifting-mix.toml --system hopp
//! hoppsim --workload kmeans --record-trace k.hst --metrics-json a.json
//! hoppsim --replay-trace k.hst --metrics-json b.json   # a.json == b.json
//! hoppsim --list
//! ```
//!
//! Every flag is one entry of [`FLAGS`]: its name, value, help text,
//! the `SimConfig` field it sets, a setter and a reader for its current
//! value. `--help` and the table in `docs/config.md` are both rendered
//! from it, with defaults read from the state parsing starts from
//! ([`Cli::default`]).

use std::fmt::Write as _;
use std::path::Path;

use hopp_core::policy::HugeBatchConfig;
use hopp_core::{HoppConfig, MarkovConfig, TrainerKind};
use hopp_net::RdmaConfig;
use hopp_obs::{events_to_chrome_trace_with_extra, ObsLevel};
use hopp_scn::{hst, HstHeader, HstTrace, Scenario};
use hopp_sim::runner::SOLO_PID;
use hopp_sim::{
    run_stream_with, solo_app, BaselineKind, FaultScript, PlacementKind, SimConfig, SimReport,
    Simulator, SystemConfig,
};
use hopp_trace::AccessStream;
use hopp_types::Nanos;
use hopp_workloads::WorkloadKind;

/// Count heap allocations per thread so `--prof-json` spans can report
/// allocation churn alongside wall time (allocators are per-binary).
#[global_allocator]
static ALLOC: hopp_prof::alloc::CountingAlloc = hopp_prof::alloc::CountingAlloc;

/// Everything the command line sets: the simulated machine plus the
/// run around it.
#[derive(Clone, PartialEq, Debug)]
struct Cli {
    /// The machine and the system under test.
    config: SimConfig,
    /// HoPP's software knobs, folded into `config.system` after parsing
    /// when the system is HoPP.
    hopp: HoppConfig,
    /// Scripted pool faults, attached to the simulator before the run.
    fault_script: Option<FaultScript>,
    workload: WorkloadKind,
    scenario: Option<String>,
    record_trace: Option<String>,
    replay_trace: Option<String>,
    ratio: f64,
    footprint: u64,
    seed: u64,
    trace_out: Option<String>,
    metrics_json: Option<String>,
    timeline_out: Option<String>,
    prof_json: Option<String>,
    prof_folded: Option<String>,
}

impl Default for Cli {
    /// The state parsing starts from: `SimConfig::default()` with HoPP
    /// as the system under test, plus the CLI's run defaults.
    fn default() -> Self {
        Cli {
            config: SimConfig::with_system(SystemConfig::hopp_default()),
            hopp: HoppConfig::default(),
            fault_script: None,
            workload: WorkloadKind::Kmeans,
            scenario: None,
            record_trace: None,
            replay_trace: None,
            ratio: 0.5,
            footprint: 4_096,
            seed: 42,
            trace_out: None,
            metrics_json: None,
            timeline_out: None,
            prof_json: None,
            prof_folded: None,
        }
    }
}

/// Why a command line does not start a run.
#[derive(PartialEq, Debug)]
enum Stop {
    /// A bad command line, with what was wrong: usage, exit 2.
    Bad(String),
    /// `--help`: usage, exit 2.
    Help,
    /// `--list`: the workload catalogue, exit 0.
    List,
}

impl Stop {
    fn code(&self) -> i32 {
        match self {
            Stop::List => 0,
            Stop::Bad(_) | Stop::Help => 2,
        }
    }

    fn exit(self) -> ! {
        match &self {
            Stop::List => print_catalogue(),
            Stop::Bad(why) => eprintln!("{why}\n{}", usage()),
            Stop::Help => eprintln!("{}", usage()),
        }
        std::process::exit(self.code());
    }
}

/// One command-line flag.
struct Flag {
    name: &'static str,
    /// Value placeholder; empty for a switch.
    value: &'static str,
    /// The `SimConfig` field the flag sets; empty for run flags.
    field: &'static str,
    help: &'static str,
    set: fn(&mut Cli, &str) -> Result<(), Stop>,
    /// The current value as flag text; `None` when unset. Read from
    /// [`Cli::default`] it is the default `--help` and the docs show.
    show: fn(&Cli) -> Option<String>,
}

fn bad(why: impl std::fmt::Display) -> Stop {
    Stop::Bad(why.to_string())
}

fn num<T: std::str::FromStr>(v: &str) -> Result<T, Stop> {
    v.parse().map_err(|_| bad(format!("not a number: {v:?}")))
}

fn pick<T>(v: &str, parse: impl Fn(&str) -> Option<T>) -> Result<T, Stop> {
    parse(v).ok_or_else(|| bad(format!("unknown value {v:?}")))
}

fn path(v: &str) -> Result<Option<String>, Stop> {
    Ok(Some(v.to_string()))
}

fn switch(c: &mut Cli, on: fn(&mut Cli)) -> Result<(), Stop> {
    on(c);
    Ok(())
}

fn unset(_: &Cli) -> Option<String> {
    None
}

fn jitter(v: &str) -> Option<RdmaConfig> {
    match v {
        "bursty" => Some(RdmaConfig::volatile()),
        "off" => Some(RdmaConfig::default()),
        _ => None,
    }
}

/// Every flag `hoppsim` accepts, in `--help` order within each section.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--workload", value: "<name>", field: "",
        help: "one of the 15 paper workloads, see --list",
        set: |c, v| pick(v, workload_by_name).map(|k| c.workload = k),
        show: |c| Some(c.workload.name().to_string()) },
    Flag { name: "--system", value: "<name>", field: "system",
        help: "hopp | fastswap | leap | vma | no-prefetch | depth-<N>",
        set: |c, v| pick(v, system_by_name).map(|s| c.config.system = s),
        show: |c| Some(c.config.system.name().to_string()) },
    Flag { name: "--ratio", value: "<f>", field: "",
        help: "local memory / footprint",
        set: |c, v| num(v).map(|n| c.ratio = n),
        show: |c| Some(c.ratio.to_string()) },
    Flag { name: "--footprint", value: "<pages>", field: "",
        help: "heap size in 4 KB pages",
        set: |c, v| num(v).map(|n| c.footprint = n),
        show: |c| Some(c.footprint.to_string()) },
    Flag { name: "--seed", value: "<n>", field: "",
        help: "workload RNG seed",
        set: |c, v| num(v).map(|n| c.seed = n),
        show: |c| Some(c.seed.to_string()) },
    Flag { name: "--channels", value: "<n>", field: "channels",
        help: "interleaved memory channels, each with an HPD at threshold N / channels",
        set: |c, v| num(v).map(|n| c.config.channels = n),
        show: |c| Some(c.config.channels.to_string()) },
    Flag { name: "--llc-kb", value: "<n>", field: "llc",
        help: "LLC capacity in KiB (16 ways)",
        set: |c, v| pick(v, |v| v.parse::<usize>().ok()?.checked_mul(1024))
            .map(|bytes| c.config.llc.capacity_bytes = bytes),
        show: |c| Some((c.config.llc.capacity_bytes / 1024).to_string()) },
    Flag { name: "--llc-hit-ns", value: "<n>", field: "llc_hit",
        help: "LLC hit cost in ns",
        set: |c, v| num(v).map(|ns| c.config.llc_hit = Nanos::from_nanos(ns)),
        show: |c| Some(c.config.llc_hit.as_nanos().to_string()) },
    Flag { name: "--hpd-threshold", value: "<n>", field: "hpd",
        help: "HPD hot-page threshold N: LLC-miss reads before a page is hot",
        set: |c, v| num(v).map(|n| c.config.hpd.threshold = n),
        show: |c| Some(c.config.hpd.threshold.to_string()) },
    Flag { name: "--rpt-kb", value: "<n>", field: "rpt",
        help: "RPT cache capacity in KiB (16 ways)",
        set: |c, v| num(v).map(|kb| c.config.rpt = hopp_hw::RptCacheConfig::with_kib(kb)),
        show: |c| Some((c.config.rpt.capacity_bytes / 1024).to_string()) },
    Flag { name: "--slack-frames", value: "<n>", field: "slack_frames",
        help: "frame headroom beyond the cgroup limits, for un-charged swapcache pages",
        set: |c, v| num(v).map(|n| c.config.slack_frames = n),
        show: |c| Some(c.config.slack_frames.to_string()) },
    Flag { name: "--reclaim-cost-ns", value: "<n>", field: "latency",
        help: "per-page reclaim cost in ns",
        set: |c, v| num(v).map(|ns| c.config.latency.reclaim_per_page = Nanos::from_nanos(ns)),
        show: |c| Some(c.config.latency.reclaim_per_page.as_nanos().to_string()) },
    Flag { name: "--direct-reclaim", value: "", field: "reclaim_in_advance",
        help: "charge reclaim to the faulting path (pre-v5.8 kernels)",
        set: |c, _| switch(c, |c| c.config.reclaim_in_advance = false),
        show: unset },
    Flag { name: "--intensity", value: "<n>", field: "system",
        help: "pages prefetched per hot page (hopp only)",
        set: |c, v| num(v).map(|n| c.hopp.policy.intensity = n),
        show: |c| Some(c.hopp.policy.intensity.to_string()) },
    Flag { name: "--offset", value: "<i>", field: "system",
        help: "pin the prefetch offset (hopp only)",
        set: |c, v| num(v).map(|i| c.hopp.policy.fixed_offset = Some(i)),
        show: |c| c.hopp.policy.fixed_offset.map(|i| i.to_string()) },
    Flag { name: "--huge-batch", value: "", field: "system",
        help: "enable 2 MB batched prefetch (hopp only)",
        set: |c, _| switch(c, |c| c.hopp.policy.huge_batch = Some(HugeBatchConfig::default())),
        show: unset },
    Flag { name: "--markov", value: "", field: "system",
        help: "use the Markov trainer instead of three-tier (hopp only)",
        set: |c, _| switch(c, |c| c.hopp.trainer = TrainerKind::Markov(MarkovConfig::default())),
        show: unset },
    Flag { name: "--scenario", value: "<file>", field: "",
        help: "run a scenario DSL file instead of --workload (docs/scenarios.md)",
        set: |c, v| path(v).map(|p| c.scenario = p),
        show: |c| c.scenario.clone() },
    Flag { name: "--record-trace", value: "<file>", field: "",
        help: "capture the run's accesses as a .hst trace, then run normally",
        set: |c, v| path(v).map(|p| c.record_trace = p),
        show: |c| c.record_trace.clone() },
    Flag { name: "--replay-trace", value: "<file>", field: "",
        help: "replay a .hst trace bit-identically (ignores --workload and --scenario)",
        set: |c, v| path(v).map(|p| c.replay_trace = p),
        show: |c| c.replay_trace.clone() },
    Flag { name: "--jitter", value: "<mode>", field: "rdma",
        help: "bursty (periodic 8x network congestion bursts) | off",
        set: |c, v| pick(v, jitter).map(|rdma| c.config.rdma = rdma),
        show: |c| ["off", "bursty"].into_iter()
            .find(|&m| jitter(m) == Some(c.config.rdma)).map(Into::into) },
    Flag { name: "--mem-nodes", value: "<n>", field: "fabric",
        help: "memory nodes in the remote pool",
        set: |c, v| num(v).map(|n| c.config.fabric.nodes = n),
        show: |c| Some(c.config.fabric.nodes.to_string()) },
    Flag { name: "--placement", value: "<p>", field: "fabric",
        help: "hash | rr | stream page placement",
        set: |c, v| pick(v, PlacementKind::parse).map(|p| c.config.fabric.placement = p),
        show: |c| Some(c.config.fabric.placement.name().to_string()) },
    Flag { name: "--replication", value: "<r>", field: "fabric",
        help: "replicas per page, 1..=nodes",
        set: |c, v| num(v).map(|n| c.config.fabric.replication = n),
        show: |c| Some(c.config.fabric.replication.to_string()) },
    Flag { name: "--fault-script", value: "<s>", field: "",
        help: "scripted node faults, e.g. \"5:0:slow:4,20:1:down\"",
        set: |c, v| FaultScript::parse(v).map(|s| c.fault_script = Some(s)).map_err(bad),
        show: unset },
    Flag { name: "--imprecise-lru", value: "", field: "precise_lru",
        help: "fault-order LRU (no accessed-bit scans)",
        set: |c, _| switch(c, |c| c.config.precise_lru = false),
        show: unset },
    Flag { name: "--reclaim-window", value: "<ms>", field: "trace_assisted_reclaim",
        help: "trace-assisted reclaim: pages hot within the window get a second chance",
        set: |c, v| num(v).map(|ms| c.config.trace_assisted_reclaim = Some(Nanos::from_millis(ms))),
        show: |c| c.config.trace_assisted_reclaim.map(|w| (w.as_nanos() / 1_000_000).to_string()) },
    Flag { name: "--remote-capacity", value: "<pages>", field: "remote_capacity_pages",
        help: "cap the remote memory node",
        set: |c, v| num(v).map(|n| c.config.remote_capacity_pages = Some(n)),
        show: |c| c.config.remote_capacity_pages.map(|n| n.to_string()) },
    Flag { name: "--timeline", value: "<accesses>", field: "timeline_every",
        help: "print fault counts per window of N accesses, 0 = off",
        set: |c, v| num(v).map(|n| c.config.timeline_every = n),
        show: |c| Some(c.config.timeline_every.to_string()) },
    Flag { name: "--obs-level", value: "<l>", field: "obs_level",
        help: "off | counters | full",
        set: |c, v| pick(v, ObsLevel::parse).map(|l| c.config.obs_level = l),
        show: |c| Some(c.config.obs_level.label().to_string()) },
    Flag { name: "--trace-out", value: "<file>", field: "",
        help: "write a Chrome/Perfetto trace (implies --obs-level full)",
        set: |c, v| path(v).map(|p| c.trace_out = p),
        show: |c| c.trace_out.clone() },
    Flag { name: "--metrics-json", value: "<file>", field: "",
        help: "write counters + latency percentiles as JSON",
        set: |c, v| path(v).map(|p| c.metrics_json = p),
        show: |c| c.metrics_json.clone() },
    Flag { name: "--timeline-out", value: "<file>", field: "",
        help: "write timeline samples as CSV (every 1000 accesses unless --timeline)",
        set: |c, v| path(v).map(|p| c.timeline_out = p),
        show: |c| c.timeline_out.clone() },
    Flag { name: "--prof-json", value: "<file>", field: "",
        help: "write the host self-profile (time + allocs per span) as JSON",
        set: |c, v| path(v).map(|p| c.prof_json = p),
        show: |c| c.prof_json.clone() },
    Flag { name: "--prof-folded", value: "<file>", field: "",
        help: "write the host self-profile as collapsed stacks (flamegraph input)",
        set: |c, v| path(v).map(|p| c.prof_folded = p),
        show: |c| c.prof_folded.clone() },
    Flag { name: "--list", value: "", field: "",
        help: "list workloads and exit",
        set: |_, _| Err(Stop::List),
        show: unset },
    Flag { name: "--help", value: "", field: "",
        help: "show this message (also -h)",
        set: |_, _| Err(Stop::Help),
        show: unset },
];

const fn same(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// Ties [`FLAGS`] to `SimConfig` at compile time. The destructure has
/// no `..`, so a new `SimConfig` field fails to compile until it is
/// listed here; the build then fails until a flag sets it. A flag
/// naming a field that does not exist, or a flag listed twice, fails
/// the build too.
const _: () = {
    macro_rules! fields {
        ($($field:ident),* $(,)?) => {{
            const fn _exhaustive(c: &SimConfig) {
                let SimConfig { $($field: _),* } = c;
            }
            [$(stringify!($field)),*]
        }};
    }
    let fields = fields!(
        llc,
        hpd,
        rpt,
        rdma,
        fabric,
        latency,
        system,
        slack_frames,
        llc_hit,
        channels,
        trace_assisted_reclaim,
        timeline_every,
        reclaim_in_advance,
        remote_capacity_pages,
        precise_lru,
        obs_level,
    );
    let mut i = 0;
    while i < fields.len() {
        let mut j = 0;
        while j < FLAGS.len() && !same(FLAGS[j].field, fields[i]) {
            j += 1;
        }
        assert!(j < FLAGS.len(), "a SimConfig field has no flag in FLAGS");
        i += 1;
    }
    let mut j = 0;
    while j < FLAGS.len() {
        let mut i = 0;
        while i < fields.len() && !same(FLAGS[j].field, fields[i]) {
            i += 1;
        }
        assert!(
            FLAGS[j].field.is_empty() || i < fields.len(),
            "a flag names a field SimConfig does not have"
        );
        let mut k = j + 1;
        while k < FLAGS.len() {
            assert!(
                !same(FLAGS[j].name, FLAGS[k].name),
                "a flag is listed twice"
            );
            k += 1;
        }
        j += 1;
    }
};

/// Applies `args` to [`Cli::default`] through [`FLAGS`], then settles
/// the settings that depend on more than one flag.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, Stop> {
    let mut cli = Cli::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let name = if arg == "-h" { "--help" } else { arg.as_str() };
        let flag = FLAGS
            .iter()
            .find(|f| f.name == name)
            .ok_or_else(|| bad(format!("unknown flag {arg}")))?;
        let value = match flag.value {
            "" => String::new(),
            _ => args
                .next()
                .ok_or_else(|| bad(format!("missing value for {name}")))?,
        };
        (flag.set)(&mut cli, &value).map_err(|stop| match stop {
            Stop::Bad(why) => bad(format!("{name}: {why}")),
            other => other,
        })?;
    }
    if let SystemConfig::Hopp { config, .. } = &mut cli.config.system {
        *config = cli.hopp;
    }
    // --trace-out needs the event stream.
    if cli.trace_out.is_some() && !cli.config.obs_level.events() {
        cli.config.obs_level = ObsLevel::Full;
    }
    // --timeline-out needs samples: default to one per 1000 accesses.
    if cli.timeline_out.is_some() && cli.config.timeline_every == 0 {
        cli.config.timeline_every = 1_000;
    }
    Ok(cli)
}

/// The `--help` text, rendered from [`FLAGS`]: run flags first, then
/// the flags that set the simulated machine.
fn usage() -> String {
    let defaults = Cli::default();
    let mut out = String::from("usage: hoppsim [options]\n");
    for (title, machine) in [("run", false), ("machine (docs/config.md)", true)] {
        let _ = write!(out, "\n{title}:");
        for f in FLAGS.iter().filter(|f| f.field.is_empty() != machine) {
            let head = format!("{} {}", f.name, f.value);
            let _ = write!(out, "\n  {head:<25} {}", f.help);
            if let Some(default) = (f.show)(&defaults) {
                let _ = write!(out, " (default {default})");
            }
        }
    }
    out
}

fn print_catalogue() {
    println!("{:<13} {:>6} {:>5}  model", "workload", "GB", "cores");
    for k in WorkloadKind::ALL {
        println!(
            "{:<13} {:>6} {:>5}  {}",
            k.name(),
            k.paper_footprint_gb(),
            k.paper_cores(),
            k.description()
        );
    }
}

fn system_by_name(name: &str) -> Option<SystemConfig> {
    if let Some(depth) = name.strip_prefix("depth-") {
        return Some(SystemConfig::Baseline(BaselineKind::DepthN(
            depth.parse().ok()?,
        )));
    }
    Some(match name {
        "hopp" => SystemConfig::hopp_default(),
        "fastswap" => SystemConfig::Baseline(BaselineKind::Fastswap),
        "leap" => SystemConfig::Baseline(BaselineKind::Leap),
        "vma" => SystemConfig::Baseline(BaselineKind::Vma),
        "no-prefetch" | "none" => SystemConfig::Baseline(BaselineKind::NoPrefetch),
        _ => return None,
    })
}

fn workload_by_name(name: &str) -> Option<WorkloadKind> {
    let exact = WorkloadKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name) || slug(k.name()) == slug(name));
    if exact.is_some() {
        return exact;
    }
    // The paper's shorthand for the OMP variant.
    if slug(name) == "kmeans" {
        return Some(WorkloadKind::Kmeans);
    }
    // Fall back to a unique prefix ("quick" → "quicksort").
    let mut hits = WorkloadKind::ALL
        .into_iter()
        .filter(|k| slug(k.name()).starts_with(&slug(name)));
    let first = hits.next()?;
    hits.next().is_none().then_some(first)
}

fn slug(s: &str) -> String {
    s.to_ascii_lowercase().replace(['-', '_'], "")
}

/// A fatal run error (lost page, exhausted pool) ends the CLI with the
/// error's full context on stderr and a non-zero exit code. Takes the
/// error by value to slot into `unwrap_or_else` directly.
#[allow(
    clippy::needless_pass_by_value,
    reason = "slots into `unwrap_or_else` directly"
)]
fn fail_run(e: hopp_types::Error) -> SimReport {
    eprintln!("run failed: {e}");
    std::process::exit(1);
}

fn print_report(cli: &Cli, label: &str, local_ns: f64, r: &SimReport) {
    let normalized = local_ns / r.completion.as_nanos() as f64;
    println!("workload          {label}");
    println!(
        "system            {} ({:.0}% local)",
        r.system,
        cli.ratio * 100.0
    );
    println!("completion        {}", r.completion);
    println!("normalized perf   {normalized:.3}");
    let c = &r.counters;
    println!(
        "faults            {} major, {} prefetch-hit, {} first-touch, {} in-flight waits",
        c.major_faults, c.minor_faults, c.first_touches, c.inflight_waits
    );
    println!(
        "prefetching       accuracy {:.1}%  coverage {:.1}%  (fault-path {:.1}% + hopp-injected {:.1}%)",
        r.accuracy() * 100.0,
        r.coverage() * 100.0,
        r.coverage_swapcache() * 100.0,
        r.coverage_injected() * 100.0
    );
    println!(
        "network           {} reads, {} writebacks, {} MB moved",
        r.rdma.reads,
        r.rdma.writes,
        r.rdma.bytes / (1024 * 1024)
    );
    if let Some(f) = &r.fabric {
        println!(
            "memory pool       {} nodes, {} placement, replication {}, {} failovers, {} failed writes",
            f.nodes.len(),
            f.placement,
            f.replication,
            f.failovers,
            f.failed_writes
        );
        for n in &f.nodes {
            println!(
                "  {}           {} reads, {} writes, {} placed, {} retries, {} timeouts{}",
                n.node,
                n.link.reads,
                n.link.writes,
                n.placed,
                n.retries,
                n.timeouts,
                if n.lost { ", LOST" } else { "" }
            );
        }
    }
    println!(
        "hardware          {} hot pages ({:.2}% of misses), RPT hit rate {:.1}%, HPD bw {:.3}%",
        r.hpd.hot_pages,
        r.hpd.hot_ratio() * 100.0,
        r.rpt.hit_rate() * 100.0,
        r.ledger.hpd_overhead_percent()
    );
    if let Some(h) = &r.hopp {
        println!(
            "hopp data path    {} injected, {} DRAM-hits, mean timeliness {}",
            h.prefetched, h.prefetch_hits, h.mean_timeliness
        );
    }
    if let Some(t) = &r.tier_stats {
        println!(
            "tier mix          SSP {}  LSP {}  RSP {}  unclassified {}",
            t.simple, t.ladder, t.ripple, t.unclassified
        );
    }
    if r.obs.level.histograms() {
        let l = &r.obs.latency;
        let fmt = |s: &hopp_obs::HistogramSummary| {
            format!(
                "p50 {} p99 {} max {} ({} samples)",
                hopp_types::Nanos::from_nanos(s.p50),
                hopp_types::Nanos::from_nanos(s.p99),
                hopp_types::Nanos::from_nanos(s.max),
                s.count
            )
        };
        println!("major-fault lat   {}", fmt(&l.major_fault));
        println!("timeliness        {}", fmt(&l.timeliness));
        println!("inflight wait     {}", fmt(&l.inflight_wait));
        println!("rdma read         {}", fmt(&l.rdma_read));
        if l.rdma_write.count > 0 {
            println!("rdma write        {}", fmt(&l.rdma_write));
        }
    }
    if !r.timeline.is_empty() {
        println!("\ntimeline (per-window major faults / prefetch-hits):");
        let mut prev = (0u64, 0u64);
        for (i, s) in r.timeline.iter().enumerate() {
            println!(
                "  w{:<3} @{:<12} major {:<6} p-hit {:<6}",
                i + 1,
                format!("{}", s.at),
                s.major_faults - prev.0,
                s.minor_faults - prev.1,
            );
            prev = (s.major_faults, s.minor_faults);
        }
    }
}

/// True when the run should carry the host self-profiler.
fn profiling(cli: &Cli) -> bool {
    cli.prof_json.is_some() || cli.prof_folded.is_some()
}

/// Arms the profiler for the measured run (a no-op when no `--prof-*`
/// flag was given). Span events — needed only to merge host spans onto
/// the Chrome trace — are retained only when a trace is requested.
fn prof_begin(cli: &Cli, workload: &str) {
    if profiling(cli) {
        hopp_prof::enable(cli.trace_out.is_some());
        hopp_prof::set_key(workload, cli.config.system.name(), "run");
    }
}

/// Writes the side outputs (`--trace-out`, `--metrics-json`,
/// `--timeline-out`, `--prof-json`, `--prof-folded`) after a run.
fn write_outputs(cli: &Cli, r: &SimReport, prof: Option<&hopp_prof::ProfReport>) {
    let write = |path: &str, contents: String, what: &str| {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("writing {what} to {path}: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &cli.trace_out {
        // Host profiler spans ride along as a second process ("host")
        // next to the simulated-time tracks.
        let extra = prof.map(hopp_prof::ProfReport::chrome_trace_fragment);
        let trace =
            events_to_chrome_trace_with_extra(&r.obs.events, extra.as_deref().unwrap_or(""));
        write(path, trace, "trace");
        println!(
            "\ntrace             {} events -> {path} ({} dropped; open in Perfetto)",
            r.obs.events.len(),
            r.obs.dropped_events
        );
    }
    if let Some(path) = &cli.metrics_json {
        write(path, r.metrics_json(), "metrics");
        println!("metrics           -> {path}");
    }
    if let Some(path) = &cli.timeline_out {
        write(path, r.timeline_csv(), "timeline");
        println!("timeline          {} samples -> {path}", r.timeline.len());
    }
    if let Some(p) = prof {
        if let Some(path) = &cli.prof_json {
            write(path, p.to_json(), "profile");
            println!(
                "profile           {} spans, {} of host time -> {path}",
                p.nodes.len(),
                hopp_types::Nanos::from_nanos(p.attributed_ns())
            );
        }
        if let Some(path) = &cli.prof_folded {
            write(path, p.to_folded(), "folded profile");
            println!("folded profile    -> {path} (feed to flamegraph.pl / inferno)");
        }
    }
}

/// Where a run's accesses come from.
enum Origin {
    Catalogue(WorkloadKind),
    Scenario(Scenario),
    Trace(HstTrace),
}

/// The run's access stream: its origin, the header a `.hst` recording
/// of it carries (pid, footprint, seed, name) and its report label.
struct Source {
    origin: Origin,
    header: HstHeader,
    label: String,
}

impl Source {
    /// Opens `--replay-trace`, else `--scenario`, else `--workload`.
    /// Exits on an unreadable trace (1) or scenario (2).
    fn open(cli: &Cli) -> Source {
        if let Some(path) = &cli.replay_trace {
            let trace = hst::read_file(Path::new(path)).unwrap_or_else(|e| {
                eprintln!("replay-trace failed: {e}");
                std::process::exit(1);
            });
            let h = trace.header.clone();
            println!(
                "replaying {} accesses ({path} recorded from {} at {} pages, seed {})\n",
                trace.accesses.len(),
                h.source,
                h.footprint_pages,
                h.seed
            );
            let label = format!(
                "replay of {path} ({}, {} pages, seed {})",
                h.source, h.footprint_pages, h.seed
            );
            return Source {
                origin: Origin::Trace(trace),
                header: h,
                label,
            };
        }
        let header = |source: &str, footprint_pages| HstHeader {
            pid: SOLO_PID,
            footprint_pages,
            seed: cli.seed,
            source: source.to_string(),
        };
        if let Some(path) = &cli.scenario {
            let s = Scenario::from_file(Path::new(path)).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            });
            let h = header(&s.name, s.spec.footprint.unwrap_or(cli.footprint));
            let label = format!(
                "{} (scenario, {} pages, seed {})",
                h.source, h.footprint_pages, h.seed
            );
            return Source {
                origin: Origin::Scenario(s),
                header: h,
                label,
            };
        }
        let h = header(cli.workload.name(), cli.footprint);
        let label = format!(
            "{} ({} pages, seed {})",
            h.source, h.footprint_pages, h.seed
        );
        Source {
            origin: Origin::Catalogue(cli.workload),
            header: h,
            label,
        }
    }

    /// A fresh copy of the stream; every copy yields the same accesses.
    fn stream(&self) -> Box<dyn AccessStream> {
        let h = &self.header;
        match &self.origin {
            Origin::Catalogue(k) => k.build(h.pid, h.footprint_pages, h.seed),
            Origin::Scenario(s) => s.spec.build(&s.name, h.pid, h.footprint_pages, h.seed),
            Origin::Trace(t) => Box::new(t.clone().into_stream()),
        }
    }
}

/// The measured run: the configured machine on `source`, with the
/// `--fault-script` attached when one is given.
fn run(cli: &Cli, source: &Source) -> hopp_types::Result<SimReport> {
    let h = &source.header;
    let app = solo_app(h.pid, source.stream(), h.footprint_pages, cli.ratio);
    let mut sim = Simulator::new(cli.config, vec![app])?;
    if let Some(script) = &cli.fault_script {
        sim.set_fault_script(script)?;
    }
    sim.run()
}

fn main() {
    let cli = parse(std::env::args().skip(1)).unwrap_or_else(|stop| stop.exit());
    let source = Source::open(&cli);
    let h = &source.header;

    // --record-trace: capture a fresh copy of the access stream first;
    // streams are deterministic, so the recording is exactly what the
    // run consumes and its replay reproduces the run byte for byte.
    if let Some(path) = &cli.record_trace {
        let n = hst::record_file(Path::new(path), h, &mut *source.stream()).unwrap_or_else(|e| {
            eprintln!("record-trace failed: {e}");
            std::process::exit(1);
        });
        println!("recorded {n} accesses to {path} (.hst)\n");
    }

    // The all-local reference run (`CT_local`) for normalized perf.
    let local = run_stream_with(
        SimConfig::with_system(SystemConfig::Baseline(BaselineKind::NoPrefetch)),
        h.pid,
        source.stream(),
        h.footprint_pages,
        1.25,
    )
    .unwrap_or_else(fail_run);
    // Profile only the measured run, not the normalization run.
    prof_begin(&cli, &h.source);
    let report = run(&cli, &source).unwrap_or_else(fail_run);
    let prof = hopp_prof::disable();
    print_report(
        &cli,
        &source.label,
        local.completion.as_nanos() as f64,
        &report,
    );
    write_outputs(&cli, &report, prof.as_ref());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Cli, Stop> {
        parse(args.iter().map(|a| a.to_string()))
    }

    fn repo_file(rel: &str) -> String {
        format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn workload_names_resolve_with_any_casing() {
        assert_eq!(workload_by_name("kmeans-omp"), Some(WorkloadKind::Kmeans));
        assert_eq!(workload_by_name("KMEANS_OMP"), Some(WorkloadKind::Kmeans));
        assert_eq!(workload_by_name("npb-mg"), Some(WorkloadKind::NpbMg));
        assert_eq!(workload_by_name("npbmg"), Some(WorkloadKind::NpbMg));
        assert_eq!(workload_by_name("GraphX-PR"), Some(WorkloadKind::GraphPr));
        assert_eq!(workload_by_name("nope"), None);
    }

    #[test]
    fn unique_prefixes_resolve_ambiguous_ones_do_not() {
        assert_eq!(workload_by_name("kmeans"), Some(WorkloadKind::Kmeans));
        // "npb" prefixes several NPB workloads: ambiguous.
        assert_eq!(workload_by_name("npb"), None);
    }

    #[test]
    fn every_catalogue_name_resolves_to_itself() {
        for k in WorkloadKind::ALL {
            assert_eq!(workload_by_name(k.name()), Some(k), "{}", k.name());
        }
    }

    #[test]
    fn system_parsing_covers_depth_variants() {
        assert!(matches!(
            system_by_name("depth-16"),
            Some(SystemConfig::Baseline(BaselineKind::DepthN(16)))
        ));
        assert!(matches!(
            system_by_name("fastswap"),
            Some(SystemConfig::Baseline(BaselineKind::Fastswap))
        ));
        assert!(matches!(
            system_by_name("hopp"),
            Some(SystemConfig::Hopp { .. })
        ));
        assert_eq!(system_by_name("depth-x"), None);
    }

    /// The `docs/config.md` flag table, as the docs test expects it.
    fn docs_table() -> String {
        let defaults = Cli::default();
        let mut out =
            String::from("| flag | default | `SimConfig` field | meaning |\n|---|---|---|---|\n");
        for f in FLAGS {
            let flag = format!("{} {}", f.name, f.value);
            let default = match (f.show)(&defaults) {
                Some(d) => format!("`{d}`"),
                None => "—".to_string(),
            };
            let field = match f.field {
                "" => "—".to_string(),
                field => format!("`{field}`"),
            };
            let help = f.help.replace('|', "\\|");
            let _ = writeln!(
                out,
                "| `{}` | {default} | {field} | {help} |",
                flag.trim_end()
            );
        }
        out
    }

    #[test]
    fn docs_config_table_is_the_generated_one() {
        const BEGIN: &str = "<!-- BEGIN flag table -->\n";
        const END: &str = "<!-- END flag table -->";
        let docs = std::fs::read_to_string(repo_file("docs/config.md")).unwrap();
        let start = docs
            .find(BEGIN)
            .expect("docs/config.md has the BEGIN marker")
            + BEGIN.len();
        let end = docs.find(END).expect("docs/config.md has the END marker");
        let want = docs_table();
        assert!(
            docs[start..end] == want,
            "docs/config.md is stale; replace the text between its markers with:\n{want}"
        );
    }

    #[test]
    fn help_defaults_parse_back_to_the_defaults() {
        let base = parse_strs(&[]).unwrap();
        let defaults = Cli::default();
        let help = usage();
        for f in FLAGS {
            match (f.show)(&defaults) {
                // A shown default, passed explicitly, changes nothing.
                Some(d) => {
                    assert!(help.contains(&format!("(default {d})")), "{}", f.name);
                    assert_eq!(
                        parse_strs(&[f.name, &d]),
                        Ok(base.clone()),
                        "{} {d}",
                        f.name
                    );
                }
                // A switch is off by default: giving it changes the state.
                None if f.value.is_empty() => {
                    assert_ne!(parse_strs(&[f.name]), Ok(base.clone()), "{}", f.name);
                }
                None => {}
            }
        }
    }

    #[test]
    fn retired_flags_are_unknown_and_exit_2() {
        for flag in ["--record", "--replay", "--volatile"] {
            let stop = parse_strs(&[flag, "x"]).unwrap_err();
            assert_eq!(stop, Stop::Bad(format!("unknown flag {flag}")));
            assert_eq!(stop.code(), 2);
        }
        assert_eq!(parse_strs(&["--list"]).unwrap_err().code(), 0);
    }

    #[test]
    fn bad_values_name_their_flag() {
        let stop = parse_strs(&["--hpd-threshold", "many"]).unwrap_err();
        assert_eq!(
            stop,
            Stop::Bad("--hpd-threshold: not a number: \"many\"".into())
        );
        let stop = parse_strs(&["--seed"]).unwrap_err();
        assert_eq!(stop, Stop::Bad("missing value for --seed".into()));
    }

    const FABRIC: [&str; 6] = [
        "--mem-nodes",
        "4",
        "--replication",
        "2",
        "--fault-script",
        "5:1:down",
    ];

    #[test]
    fn scenario_runs_attach_the_fault_script() {
        let scenario = repo_file("scenarios/ladder-stress.toml");
        let mut args = vec!["--scenario", scenario.as_str()];
        args.extend(FABRIC);
        let cli = parse_strs(&args).unwrap();
        let source = Source::open(&cli);
        let via_cli = run(&cli, &source).unwrap();

        let s = Scenario::from_file(Path::new(&scenario)).unwrap();
        let footprint = s.spec.footprint.unwrap();
        let stream = s.spec.build(&s.name, SOLO_PID, footprint, 42);
        let mut sim =
            Simulator::new(cli.config, vec![solo_app(SOLO_PID, stream, footprint, 0.5)]).unwrap();
        sim.set_fault_script(&FaultScript::parse("5:1:down").unwrap())
            .unwrap();
        let direct = sim.run().unwrap();

        assert!(direct.fabric.as_ref().unwrap().nodes[1].lost);
        assert_eq!(via_cli.metrics_json(), direct.metrics_json());
    }

    #[test]
    fn replayed_traces_keep_the_fault_script() {
        let mut args = vec!["--footprint", "1024"];
        args.extend(FABRIC);
        let cli = parse_strs(&args).unwrap();
        let recorded = Source::open(&cli);
        let path = std::env::temp_dir().join(format!("hoppsim-test-{}.hst", std::process::id()));
        hst::record_file(&path, &recorded.header, &mut *recorded.stream()).unwrap();

        let shown = path.display().to_string();
        args.extend(["--replay-trace", shown.as_str()]);
        let replay_cli = parse_strs(&args).unwrap();
        let replayed = Source::open(&replay_cli);
        std::fs::remove_file(&path).unwrap();

        let a = run(&cli, &recorded).unwrap();
        let b = run(&replay_cli, &replayed).unwrap();
        assert!(a.fabric.as_ref().unwrap().failovers > 0);
        assert_eq!(a.metrics_json(), b.metrics_json());
    }
}
