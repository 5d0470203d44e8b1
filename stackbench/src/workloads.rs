//! The three workloads. Each sets the stack up, emits seeded changes
//! one op at a time, and checks the devices against its own model.
//!
//! * `port_churn`: the paper's latency unit. One port insert, delete
//!   or retag per transaction, one in flight, through the lockstep
//!   `Controller`.
//! * `vlan_burst`: 16 access↔trunk flips per op through the threaded
//!   `ShardRuntime`, with a second, passive monitor subscriber.
//! * `mac_learn`: 16 frames per op into the switches; their digests go
//!   to the `ShardRuntime` over the TCP digest streams; 16 old MACs age.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::Arc;

use baselines::fullrecompute::FullRecompute;
use baselines::model::{LearnedMac, PortConfig};
use crossbeam_channel::Receiver;
use nerpa::controller::{Controller, DataPlane};
use p4sim::runtime::{Digest, TableEntry};
use serde_json::Value as Json;
use shard::{PartitionSpec, Router, ShardRuntime};

use crate::gen::{self, Learned, Macs, Ports, Rng};
use crate::stack::{
    self, next_update, transact, Db, Flusher, RpcCounts, ShardFaults, Switches, DEADLINE,
};
use crate::trace::Tracer;

/// Switches in every deployment.
pub const SWITCHES: usize = 2;
/// Changes or frames per burst op.
pub const BURST: usize = 16;
/// Live learned MACs per switch in `mac_learn`.
pub const MACS_PER_SWITCH: usize = 4000;

/// What every set-up gets from the runner.
pub struct Env {
    pub seed: u64,
    pub dir: PathBuf,
    pub tracer: Arc<Tracer>,
    pub counts: Arc<RpcCounts>,
}

/// Shard-runtime counters summed over shards.
#[derive(Clone, Copy, Default)]
pub struct ShardStats {
    pub commits: u64,
    pub coalesced: u64,
    /// Deepest input queue of any shard seen right after an op's
    /// enqueue calls: the peak of the measured phase, set-up excluded.
    pub queue_hwm: u64,
}

pub trait Workload: Sized {
    type Op;
    /// Bring the stack up and sync the initial population through it.
    fn setup(env: &Env) -> Result<Self, String>;
    /// Generate the next op's inputs (untimed).
    fn prepare(&mut self) -> Self::Op;
    /// Run one op (timed).
    fn execute(&mut self, op: Self::Op) -> Result<(), String>;
    /// Untimed follow-up of an op. Returns the monitor-update bytes the
    /// op caused when `measure` is set (0 otherwise).
    fn settle(&mut self, measure: bool) -> Result<u64, String>;
    /// Compare every device with the model (untimed, after the run).
    fn gate(&self) -> Result<(), String>;
    /// Cumulative engine work (tuples) and state bytes, lockstep only.
    fn engine(&self) -> Option<(u64, u64)> {
        None
    }
    fn shards(&self) -> Option<ShardStats> {
        None
    }
    fn teardown(self);
}

fn json_bytes(v: &Json) -> u64 {
    serde_json::to_string(v).map_or(0, |s| s.len() as u64)
}

/// Compare one switch's installed state with the full-recompute spec.
fn check_switch(
    switches: &Switches,
    sw: usize,
    ports: &[PortConfig],
    macs: &[LearnedMac],
) -> Result<(), String> {
    let (entries, groups) = switches.installed(sw);
    let (spec, spec_groups) = FullRecompute::desired_state(ports, macs);
    let spec: BTreeSet<TableEntry> = spec.into_iter().collect();
    if entries != spec {
        let extra: Vec<_> = entries.difference(&spec).take(3).collect();
        let missing: Vec<_> = spec.difference(&entries).take(3).collect();
        return Err(format!(
            "switch {sw}: {} entries installed, {} expected; extra {extra:?}, missing {missing:?}",
            entries.len(),
            spec.len()
        ));
    }
    let spec_groups: BTreeMap<u16, BTreeSet<u16>> = spec_groups
        .into_iter()
        .filter(|(_, m)| !m.is_empty())
        .collect();
    if groups != spec_groups {
        return Err(format!(
            "switch {sw}: multicast groups differ from the spec"
        ));
    }
    Ok(())
}

/// Management-plane side shared by every deployment: the durable
/// server, an admin connection and the controller's monitor connection.
struct Mgmt {
    db: Db,
    admin: ovsdb::Client,
    mon: ovsdb::Client,
    updates: Receiver<Json>,
}

impl Mgmt {
    /// Start the server and subscribe; `initial` receives the (empty)
    /// initial monitor state.
    fn start(
        env: &Env,
        schema: &ovsdb::Schema,
        mut initial: impl FnMut(&Json) -> Result<(), String>,
    ) -> Result<Mgmt, String> {
        let db = Db::open(env.dir.clone(), schema)?;
        let mon = db.connect()?;
        let (init, updates) = stack::monitor(&mon, "nerpa", &["Port", "Switch"])?;
        initial(&init)?;
        let admin = db.connect()?;
        Ok(Mgmt {
            db,
            admin,
            mon,
            updates,
        })
    }

    /// Create the switches and ports, handing each monitor update on.
    fn populate(
        &self,
        ports: &Ports,
        mut handle: impl FnMut(&Json) -> Result<(), String>,
    ) -> Result<(), String> {
        for txn in ports.population_txns(SWITCHES, 100) {
            transact(&self.admin, txn)?;
            handle(&next_update(&self.updates)?)?;
        }
        Ok(())
    }

    fn close(self) {
        self.admin.close();
        self.mon.close();
        drop(self.db);
    }
}

// ------------------------------------------------------------ port_churn

pub struct PortChurn {
    rng: Rng,
    ports: Ports,
    mgmt: Mgmt,
    switches: Switches,
    controller: Controller,
    tracer: Arc<Tracer>,
    last: Option<Json>,
}

impl Workload for PortChurn {
    type Op = Json;

    fn setup(env: &Env) -> Result<PortChurn, String> {
        let mut rng = Rng::new(env.seed);
        let (program, p4) = stack::snvs_program()?;
        let switches = Switches::start(&p4, SWITCHES)?;
        let mut controller = Controller::new(&program)?;
        for probe in switches.probes(&env.counts, &env.tracer)? {
            controller.add_switch(Box::new(probe));
        }
        let mgmt = Mgmt::start(env, &program.schema, |u| {
            controller.handle_monitor_update(u).map(drop)
        })?;
        let ports = Ports::initial(&mut rng, 0);
        mgmt.populate(&ports, |u| controller.handle_monitor_update(u).map(drop))?;
        Ok(PortChurn {
            rng,
            ports,
            mgmt,
            switches,
            controller,
            tracer: env.tracer.clone(),
            last: None,
        })
    }

    fn prepare(&mut self) -> Json {
        self.ports.churn(&mut self.rng)
    }

    fn execute(&mut self, op: Json) -> Result<(), String> {
        let tr = &self.tracer;
        tr.span("ovsdb.transact", || transact(&self.mgmt.admin, op))?;
        let update = tr.span("ovsdb.monitor_wait", || next_update(&self.mgmt.updates))?;
        tr.span("core.handle", || {
            self.controller.handle_monitor_update(&update)
        })?;
        self.last = Some(update);
        Ok(())
    }

    fn settle(&mut self, measure: bool) -> Result<u64, String> {
        let update = self.last.take();
        Ok(match update {
            Some(u) if measure => json_bytes(&u),
            _ => 0,
        })
    }

    fn gate(&self) -> Result<(), String> {
        let ports = self.ports.configs();
        (0..SWITCHES).try_for_each(|sw| check_switch(&self.switches, sw, &ports, &[]))
    }

    fn engine(&self) -> Option<(u64, u64)> {
        let e = self.controller.engine();
        Some((
            e.cumulative_profile().total_tuples(),
            e.approx_bytes() as u64,
        ))
    }

    fn teardown(self) {
        self.mgmt.close();
    }
}

// ------------------------------------------------- sharded deployments

/// The threaded shard runtime (one shard per switch) with the
/// management plane in front of it, populated and flushed.
struct Sharded {
    mgmt: Mgmt,
    switches: Switches,
    flusher: Flusher,
    faults: ShardFaults,
    /// Each shard's input-queue depth gauge.
    depths: Vec<telemetry::Gauge>,
    queue_peak: Cell<u64>,
}

impl Sharded {
    fn start(env: &Env, ports: &Ports) -> Result<Sharded, String> {
        let (program, p4) = stack::snvs_program()?;
        let switches = Switches::start(&p4, SWITCHES)?;
        let planes: Vec<(usize, Box<dyn DataPlane>)> = switches
            .probes(&env.counts, &env.tracer)?
            .into_iter()
            .enumerate()
            .map(|(i, p)| (i, Box::new(p) as Box<dyn DataPlane>))
            .collect();
        let router = Router::new(PartitionSpec::snvs(), SWITCHES);
        let runtime = ShardRuntime::start(&program, router, planes)?;
        let faults = ShardFaults::read(&runtime);
        let flusher = Flusher::start(runtime)?;
        let rt = flusher.runtime();
        let mgmt = Mgmt::start(env, &program.schema, |u| rt.handle_monitor_update(u))?;
        mgmt.populate(ports, |u| rt.handle_monitor_update(u))?;
        flusher.flush()?;
        let depths = (0..flusher.runtime().router().shards())
            .map(|s| {
                telemetry::global().registry.gauge_with(
                    "nerpa_shard_queue_depth",
                    "Pending inputs in the shard's worker queue",
                    &[("shard", &s.to_string())],
                )
            })
            .collect();
        Ok(Sharded {
            mgmt,
            switches,
            flusher,
            faults,
            depths,
            queue_peak: Cell::new(0),
        })
    }

    /// Hand inputs to the runtime inside a `shard.enqueue` span, then
    /// sample every shard's input-queue depth. Only ops enqueue through
    /// here, so the peak leaves set-up out.
    fn enqueue(
        &self,
        tr: &Tracer,
        f: impl FnOnce(&ShardRuntime) -> Result<(), String>,
    ) -> Result<(), String> {
        tr.span("shard.enqueue", || f(self.rt()))?;
        let depth = self.depths.iter().map(|g| g.get().max(0) as u64).max();
        self.queue_peak
            .set(self.queue_peak.get().max(depth.unwrap_or(0)));
        Ok(())
    }

    fn rt(&self) -> &ShardRuntime {
        self.flusher.runtime()
    }

    fn stats(&self) -> ShardStats {
        let rt = self.rt();
        let shards = 0..rt.router().shards();
        ShardStats {
            commits: shards.clone().map(|s| rt.commits(s)).sum(),
            coalesced: shards.map(|s| rt.coalesced_writes(s)).sum(),
            queue_hwm: self.queue_peak.get(),
        }
    }

    fn gate(&self, ports: &Ports, macs: impl Fn(usize) -> Vec<LearnedMac>) -> Result<(), String> {
        ShardFaults::check_since(self.rt(), &self.faults)?;
        let ports = ports.configs();
        (0..SWITCHES).try_for_each(|sw| check_switch(&self.switches, sw, &ports, &macs(sw)))
    }

    fn close(self) {
        self.mgmt.close();
        self.flusher.shutdown();
    }
}

// ------------------------------------------------------------ vlan_burst

pub struct VlanBurst {
    rng: Rng,
    ports: Ports,
    stack: Sharded,
    /// The second subscriber, on the admin connection.
    passive: Receiver<Json>,
    /// Changes committed but not yet seen by the passive subscriber.
    unseen: usize,
    /// Changes the passive subscriber never saw.
    missed: usize,
    tracer: Arc<Tracer>,
    handled: Vec<Json>,
}

impl Workload for VlanBurst {
    type Op = Vec<Json>;

    fn setup(env: &Env) -> Result<VlanBurst, String> {
        let mut rng = Rng::new(env.seed);
        let ports = Ports::initial(&mut rng, 50);
        let stack = Sharded::start(env, &ports)?;
        let (_, passive) = stack::monitor(&stack.mgmt.admin, "passive", &["Port"])?;
        Ok(VlanBurst {
            rng,
            ports,
            stack,
            passive,
            unseen: 0,
            missed: 0,
            tracer: env.tracer.clone(),
            handled: Vec::new(),
        })
    }

    fn prepare(&mut self) -> Vec<Json> {
        (0..BURST).map(|_| self.ports.flip(&mut self.rng)).collect()
    }

    fn execute(&mut self, flips: Vec<Json>) -> Result<(), String> {
        let tr = &self.tracer;
        for flip in flips {
            tr.span("ovsdb.transact", || transact(&self.stack.mgmt.admin, flip))?;
            self.unseen += 1;
            let update = tr.span("ovsdb.monitor_wait", || {
                next_update(&self.stack.mgmt.updates)
            })?;
            self.stack
                .enqueue(tr, |rt| rt.handle_monitor_update(&update))?;
            self.handled.push(update);
        }
        tr.span("shard.flush_wait", || self.stack.flusher.flush())
    }

    fn settle(&mut self, measure: bool) -> Result<u64, String> {
        let mut bytes = 0;
        if measure {
            bytes += self.handled.iter().map(json_bytes).sum::<u64>();
        }
        self.handled.clear();
        while self.unseen > 0 {
            let update = match next_update(&self.passive) {
                Ok(u) => u,
                Err(e) => {
                    self.missed += self.unseen;
                    self.unseen = 0;
                    return Err(format!("passive subscriber: {e}"));
                }
            };
            if update.get("Port").is_none() {
                return Err(format!("passive subscriber got a non-Port update {update}"));
            }
            if measure {
                bytes += json_bytes(&update);
            }
            self.unseen -= 1;
        }
        Ok(bytes)
    }

    fn gate(&self) -> Result<(), String> {
        if self.missed > 0 {
            return Err(format!("passive subscriber missed {} changes", self.missed));
        }
        self.stack.gate(&self.ports, |_| Vec::new())
    }

    fn shards(&self) -> Option<ShardStats> {
        Some(self.stack.stats())
    }

    fn teardown(self) {
        self.stack.close();
    }
}

// ------------------------------------------------------------- mac_learn

pub struct MacOp {
    /// Each frame with the fact it must raise.
    frames: Vec<(Learned, Vec<u8>, [Digest; 1])>,
    /// Retractions per switch.
    aged: Vec<Vec<Digest>>,
}

pub struct MacLearn {
    rng: Rng,
    ports: Ports,
    macs: Macs,
    stack: Sharded,
    digests: Vec<Receiver<Vec<Digest>>>,
    tracer: Arc<Tracer>,
}

impl Workload for MacLearn {
    type Op = MacOp;

    fn setup(env: &Env) -> Result<MacLearn, String> {
        let mut rng = Rng::new(env.seed);
        let ports = Ports::initial(&mut rng, 0);
        let stack = Sharded::start(env, &ports)?;
        let digests = stack.switches.digest_streams()?;
        // Preload the learned-MAC table as synthesized digests in large
        // batches, alternating switches like the measured traffic does.
        let mut macs = Macs::new(&ports);
        for _ in 0..MACS_PER_SWITCH {
            for sw in 0..SWITCHES {
                macs.fresh(&mut rng, sw);
            }
        }
        // Flushing after every batch keeps the writers from coalescing
        // the whole preload into one huge write, whose size would
        // depend on timing and make peak memory vary from run to run.
        let rt = stack.rt();
        for chunk in macs.fifo.iter().collect::<Vec<_>>().chunks(1000) {
            for sw in 0..SWITCHES {
                let batch = chunk.iter().filter(|l| l.switch == sw).map(|l| l.digest());
                rt.handle_digests(sw, batch.collect())?;
            }
            stack.flusher.flush()?;
        }
        Ok(MacLearn {
            rng,
            ports,
            macs,
            stack,
            digests,
            tracer: env.tracer.clone(),
        })
    }

    fn prepare(&mut self) -> MacOp {
        let frames = (0..BURST)
            .map(|i| {
                let sw = i % SWITCHES;
                let moved = if self.rng.below(8) == 0 {
                    self.macs.moved(&mut self.rng, sw)
                } else {
                    None
                };
                let l = moved.unwrap_or_else(|| self.macs.fresh(&mut self.rng, sw));
                (l, gen::frame(l.mac.mac), [l.digest()])
            })
            .collect();
        let aged = self.macs.age(BURST);
        let aged = (0..SWITCHES)
            .map(|sw| {
                aged.iter()
                    .filter(|l| l.switch == sw)
                    .map(Learned::digest)
                    .collect()
            })
            .collect();
        MacOp { frames, aged }
    }

    fn execute(&mut self, op: MacOp) -> Result<(), String> {
        let tr = &self.tracer;
        for (l, frame, expected) in op.frames {
            let device = &self.stack.switches.devices[l.switch];
            tr.span("p4sim.inject", || device.inject(l.mac.port, &frame));
            let batch = tr
                .span("p4sim.digest_wait", || {
                    self.digests[l.switch].recv_timeout(DEADLINE)
                })
                .map_err(|_| "digest batch missed its deadline".to_string())?;
            if batch != expected {
                return Err(format!("unexpected digests {batch:?} for {l:?}"));
            }
            self.stack
                .enqueue(tr, |rt| rt.handle_digests(l.switch, batch))?;
        }
        for (sw, aged) in op.aged.into_iter().enumerate() {
            self.stack.enqueue(tr, |rt| rt.retract_digests(sw, aged))?;
        }
        tr.span("shard.flush_wait", || self.stack.flusher.flush())
    }

    fn settle(&mut self, _measure: bool) -> Result<u64, String> {
        Ok(0)
    }

    fn gate(&self) -> Result<(), String> {
        for sw in 0..SWITCHES {
            if self.macs.distinct(sw) > 4096 {
                return Err(format!("switch {sw}: model exceeds MacLearned's size"));
            }
        }
        self.stack.gate(&self.ports, |sw| self.macs.of_switch(sw))
    }

    fn shards(&self) -> Option<ShardStats> {
        Some(self.stack.stats())
    }

    fn teardown(self) {
        self.stack.close();
    }
}
