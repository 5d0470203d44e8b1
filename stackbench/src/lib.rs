//! Socket-path benchmark of the whole Nerpa stack.
//!
//! One process hosts every plane, connected over loopback TCP: a
//! durable OVSDB server, the controller (lockstep `Controller` or the
//! threaded `ShardRuntime`), and one P4 control service per switch.
//! Every layer is measured from outside, by timing the benchmark's own
//! calls into its public API. See `README.md` for the workloads, the
//! metrics and the reasons behind them.

pub mod gen;
pub mod stack;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stack::RpcCounts;
use trace::{Breakdown, Tracer};
use workloads::{Env, MacLearn, PortChurn, VlanBurst, Workload};

/// Scratch files (databases, span dumps) go here, under the directory
/// the benchmark runs from.
pub const WORK_DIR: &str = ".bench_work";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    PortChurn,
    VlanBurst,
    MacLearn,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "port_churn" => Some(Kind::PortChurn),
            "vlan_burst" => Some(Kind::VlanBurst),
            "mac_learn" => Some(Kind::MacLearn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::PortChurn => "port_churn",
            Kind::VlanBurst => "vlan_burst",
            Kind::MacLearn => "mac_learn",
        }
    }
}

/// Rounds per run: each sets up a fresh stack and measures it for an
/// equal share of the run.
const ROUNDS: usize = 4;
/// How long each alternating untraced/traced segment of a traced run lasts.
const TRACE_SEGMENT: Duration = Duration::from_millis(250);
/// A run stops measuring after this many failed ops in a row.
const MAX_FAILS_IN_A_ROW: u64 = 3;

pub struct Config {
    pub kind: Kind,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Run exactly this many ops, spread over the rounds, instead of
    /// `seconds`; a traced run then traces every op.
    pub ops: Option<u64>,
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Observations behind the value.
    pub samples: u64,
}

pub struct Outcome {
    /// `Err` names the first check that failed.
    pub gate: Result<(), String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub spans_file: Option<PathBuf>,
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.kind {
        Kind::PortChurn => run_with::<PortChurn>(cfg),
        Kind::VlanBurst => run_with::<VlanBurst>(cfg),
        Kind::MacLearn => run_with::<MacLearn>(cfg),
    }
}

/// Nearest-rank quantile of sorted samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// User plus system CPU time of the whole process, in µs.
fn cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse().ok())
        .collect();
    // The kernel reports clock ticks of 1/100 s on Linux.
    f.iter().sum::<f64>() * 10_000.0
}

/// Peak resident set of the process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Time spent and ops completed in one tracing mode.
#[derive(Default)]
struct Pace {
    ops: u64,
    busy: Duration,
}

impl Pace {
    fn per_s(&self) -> f64 {
        self.ops as f64 / self.busy.as_secs_f64().max(1e-9)
    }
}

/// What the measured phases of a run add up to.
#[derive(Default)]
struct Totals {
    latencies_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    wall: Duration,
    cpu_us: f64,
    /// Untraced and traced ops.
    paces: [Pace; 2],
    update_bytes: u64,
    /// Write RPCs, updates, multicast RPCs.
    rpcs: [u64; 3],
    work_tuples: u64,
    state_bytes: u64,
    commits: u64,
    coalesced: u64,
    queue_hwm: u64,
    /// `VmHWM` when the first round's measured phase ended.
    peak_rss_mb: f64,
}

/// Measure one deployed stack for `budget` (or `ops` ops).
fn measure<W: Workload>(
    w: &mut W,
    cfg: &Config,
    budget: Duration,
    ops: Option<u64>,
    tracer: &Tracer,
    counts: &RpcCounts,
    t: &mut Totals,
) {
    let rpc0 = counts.snapshot();
    let engine0 = w.engine();
    let shards0 = w.shards();
    let cpu0 = cpu_us();
    let (mut attempted, mut fails_in_a_row) = (0u64, 0u64);
    let start = Instant::now();
    loop {
        let done = match ops {
            Some(n) => attempted >= n,
            None => start.elapsed() >= budget,
        };
        if done || fails_in_a_row >= MAX_FAILS_IN_A_ROW {
            break;
        }
        let traced = cfg.trace
            && (ops.is_some() || (start.elapsed().as_nanos() / TRACE_SEGMENT.as_nanos()) % 2 == 1);
        tracer.set_on(traced);
        let began = Instant::now();
        let op = w.prepare();
        let opened = tracer.begin_op();
        let t0 = Instant::now();
        let result = w.execute(op);
        let took = t0.elapsed();
        tracer.end_op(opened);
        attempted += 1;
        match result.and_then(|()| w.settle(traced)) {
            Ok(bytes) => {
                t.latencies_us.push(took.as_secs_f64() * 1e6);
                t.update_bytes += bytes;
                fails_in_a_row = 0;
                let pace = &mut t.paces[traced as usize];
                pace.ops += 1;
                pace.busy += began.elapsed();
            }
            Err(e) => {
                eprintln!("op {} failed: {e}", t.attempted + attempted);
                t.failed += 1;
                fails_in_a_row += 1;
            }
        }
    }
    t.wall += start.elapsed();
    tracer.set_on(false);
    t.cpu_us += cpu_us() - cpu0;
    t.attempted += attempted;
    let rpc1 = counts.snapshot();
    for i in 0..3 {
        t.rpcs[i] += rpc1[i] - rpc0[i];
    }
    if let (Some(e0), Some(e1)) = (engine0, w.engine()) {
        t.work_tuples += e1.0 - e0.0;
        t.state_bytes = e1.1;
    }
    if let (Some(s0), Some(s1)) = (shards0, w.shards()) {
        t.commits += s1.commits - s0.commits;
        t.coalesced += s1.coalesced - s0.coalesced;
        t.queue_hwm = t.queue_hwm.max(s1.queue_hwm);
    }
}

/// A run is `ROUNDS` rounds of: set the stack up (timed), measure
/// it for an equal share of the run, check it, tear it down. Pooling
/// several fresh stacks evens out what differs between them.
fn run_with<W: Workload>(cfg: &Config) -> Result<Outcome, String> {
    let tracer = Arc::new(Tracer::default());
    let counts = Arc::new(RpcCounts::default());
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("{WORK_DIR}: {e}"))?;

    let rounds = ROUNDS as u64;
    let budget = Duration::from_secs_f64(cfg.seconds / rounds as f64);
    let mut setup_s = Vec::new();
    let mut t = Totals::default();
    let mut gate = Ok(());
    for k in 0..ROUNDS {
        let env = Env {
            seed: cfg.seed,
            dir: PathBuf::from(WORK_DIR).join(format!(
                "db-{}-{}-{k}",
                cfg.kind.name(),
                std::process::id()
            )),
            tracer: tracer.clone(),
            counts: counts.clone(),
        };
        let started = Instant::now();
        let mut w = W::setup(&env)?;
        setup_s.push(started.elapsed().as_secs_f64());
        // Ops mode splits the ops evenly; the first rounds take the remainder.
        let ops = cfg
            .ops
            .map(|n| n / rounds + u64::from((k as u64) < n % rounds));
        measure(&mut w, cfg, budget, ops, &tracer, &counts, &mut t);
        if k == 0 {
            // Later rounds would add what the allocator retains from
            // torn-down stacks; the first shows one stack's footprint.
            t.peak_rss_mb = peak_rss_mb();
        }
        if gate.is_ok() {
            gate = w.gate().map_err(|e| format!("round {k}: {e}"));
        }
        w.teardown();
    }
    let Totals {
        mut latencies_us,
        attempted,
        failed,
        paces,
        ..
    } = t;
    let ok_ops = latencies_us.len() as u64;
    let per_op = |v: f64| v / ok_ops.max(1) as f64;
    let mut metrics = Vec::new();
    let mut spans_file = None;
    let mut m = |name, value: f64, unit, samples| {
        metrics.push(Metric {
            name,
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            samples,
        })
    };
    if cfg.trace {
        let spans = tracer.take();
        let b = Breakdown::of(&spans);
        if b.unaccounted_ops > b.ops * trace::STRAY_OPS_PER_100 / 100 && gate.is_ok() {
            gate = Err(format!(
                "conservation: {} of {} traced ops have under {:.0}% of their wall time \
                 accounted for by layer spans (lowest {:.1}%)",
                b.unaccounted_ops,
                b.ops,
                trace::CONSERVATION * 100.0,
                b.min_accounted * 100.0
            ));
        }
        let path = PathBuf::from(WORK_DIR).join(format!(
            "spans-{}-seed{}.jsonl",
            cfg.kind.name(),
            cfg.seed
        ));
        trace::write_spans(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        spans_file = Some(path);

        let n = b.ops;
        let rpc = |i: usize| per_op(t.rpcs[i] as f64);
        let traced_ops = paces[1].ops;
        m("ovsdb.transact_us", b.us_per_op("ovsdb.transact"), "us", n);
        m(
            "ovsdb.monitor_wait_us",
            b.us_per_op("ovsdb.monitor_wait"),
            "us",
            n,
        );
        m(
            "ovsdb.update_bytes_per_op",
            t.update_bytes as f64 / traced_ops.max(1) as f64,
            "bytes",
            traced_ops,
        );
        m("core.self_us", b.us_per_op("core.handle"), "us", n);
        m(
            "ddlog.work_tuples_per_op",
            per_op(t.work_tuples as f64),
            "count",
            ok_ops,
        );
        m("ddlog.state_bytes", t.state_bytes as f64, "bytes", 1);
        m("shard.enqueue_us", b.us_per_op("shard.enqueue"), "us", n);
        m(
            "shard.flush_wait_us",
            b.us_per_op("shard.flush_wait"),
            "us",
            n,
        );
        m(
            "shard.commits_per_op",
            per_op(t.commits as f64),
            "count",
            ok_ops,
        );
        m(
            "shard.coalesced_per_op",
            per_op(t.coalesced as f64),
            "count",
            ok_ops,
        );
        m("shard.queue_hwm", t.queue_hwm as f64, "count", 1);
        m("p4sim.write_rpcs_per_op", rpc(0), "count", ok_ops);
        m("p4sim.mcast_rpcs_per_op", rpc(2), "count", ok_ops);
        m("p4sim.updates_per_op", rpc(1), "count", ok_ops);
        let spans_of = |name: &str| b.by_name.get(name).map_or(0, |e| e.0);
        m(
            "p4sim.write_us",
            b.us_per_span("p4sim.write"),
            "us",
            spans_of("p4sim.write"),
        );
        m(
            "p4sim.mcast_us",
            b.us_per_span("p4sim.mcast"),
            "us",
            spans_of("p4sim.mcast"),
        );
        m("p4sim.inject_us", b.us_per_op("p4sim.inject"), "us", n);
        m(
            "p4sim.digest_delivery_us",
            b.us_per_span("p4sim.digest_wait"),
            "us",
            spans_of("p4sim.digest_wait"),
        );
        m("bench.self_us", b.us_per_op("op"), "us", n);
        m("trace.min_accounted_pct", b.min_accounted * 100.0, "%", n);
        m(
            "trace.unaccounted_ops",
            b.unaccounted_ops as f64,
            "count",
            n,
        );
        m(
            "process.cpu_us_per_op",
            t.cpu_us / attempted.max(1) as f64,
            "us",
            attempted,
        );
        let overhead = if cfg.ops.is_some() {
            0.0
        } else {
            (1.0 - paces[1].per_s() / paces[0].per_s()) * 100.0
        };
        m(
            "trace_overhead_pct",
            overhead,
            "%",
            paces[0].ops + paces[1].ops,
        );
    } else {
        setup_s.sort_by(f64::total_cmp);
        latencies_us.sort_by(f64::total_cmp);
        m(
            "setup_s",
            quantile(&setup_s, 0.5),
            "s",
            setup_s.len() as u64,
        );
        let wall = t.wall.as_secs_f64();
        m("ops_per_s", ok_ops as f64 / wall, "ops/s", ok_ops);
        m("op_p50_us", quantile(&latencies_us, 0.5), "us", ok_ops);
        m("op_p99_us", quantile(&latencies_us, 0.99), "us", ok_ops);
        m("peak_rss_mb", t.peak_rss_mb, "MiB", 1);
    }
    Ok(Outcome {
        gate,
        attempted,
        failed,
        metrics,
        spans_file,
    })
}
