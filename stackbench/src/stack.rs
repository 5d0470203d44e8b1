//! The deployed stack: a durable OVSDB server, P4 switches behind TCP
//! control services, and the benchmark's data-plane wrapper through
//! which the control plane reaches them.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam_channel::{Receiver, RecvTimeoutError, Sender};
use nerpa::codegen::CodegenOptions;
use nerpa::controller::{DataPlane, NerpaProgram};
use p4sim::runtime::{TableEntry, Update};
use p4sim::service::{ControlClient, ControlService, SwitchDevice};
use serde_json::{json, Value as Json};
use shard::ShardRuntime;

use crate::trace::Tracer;

/// How long any single wait (monitor update, digest batch, flush) may
/// take before the op that waits counts as failed.
pub const DEADLINE: Duration = Duration::from_secs(2);

/// Data-plane RPCs issued through the wrapper.
#[derive(Default)]
pub struct RpcCounts {
    writes: AtomicU64,
    updates: AtomicU64,
    mcasts: AtomicU64,
}

impl RpcCounts {
    /// Write RPCs, updates written, multicast RPCs.
    pub fn snapshot(&self) -> [u64; 3] {
        [
            self.writes.load(Ordering::Relaxed),
            self.updates.load(Ordering::Relaxed),
            self.mcasts.load(Ordering::Relaxed),
        ]
    }
}

/// The control plane's view of one switch: a TCP control client whose
/// write and multicast RPCs are counted and, while tracing, timed.
pub struct Probe {
    client: ControlClient,
    counts: Arc<RpcCounts>,
    tracer: Arc<Tracer>,
}

impl DataPlane for Probe {
    fn write_updates(&self, updates: &[Update]) -> Result<(), String> {
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        self.counts
            .updates
            .fetch_add(updates.len() as u64, Ordering::Relaxed);
        self.tracer
            .span("p4sim.write", || self.client.write_updates(updates))
    }

    fn write_updates_traced(&self, updates: &[Update], trace: u64) -> Result<(), String> {
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        self.counts
            .updates
            .fetch_add(updates.len() as u64, Ordering::Relaxed);
        self.tracer.span("p4sim.write", || {
            self.client.write_updates_traced(updates, trace)
        })
    }

    fn set_mcast_group(&self, group: u16, ports: Vec<u16>) -> Result<(), String> {
        self.counts.mcasts.fetch_add(1, Ordering::Relaxed);
        self.tracer.span("p4sim.mcast", || {
            DataPlane::set_mcast_group(&self.client, group, ports)
        })
    }

    fn read_all_tables(&self) -> Result<Vec<(String, Vec<TableEntry>)>, String> {
        self.client.read_all_tables()
    }
}

/// The snvs program, compiled from its three artifacts.
pub fn snvs_program() -> Result<(NerpaProgram, p4sim::ast::Program), String> {
    let schema = ovsdb::Schema::parse(snvs::assets::SNVS_SCHEMA).map_err(|e| e.to_string())?;
    let p4 = p4sim::parse_p4(snvs::assets::SNVS_P4).map_err(|e| e.to_string())?;
    let program = NerpaProgram {
        schema,
        p4info: p4sim::P4Info::from_program(&p4),
        rules: snvs::assets::SNVS_RULES.to_string(),
        options: CodegenOptions { per_switch: true },
    };
    Ok((program, p4))
}

/// P4 switches, each behind its own control service.
pub struct Switches {
    pub devices: Vec<SwitchDevice>,
    services: Vec<ControlService>,
}

impl Switches {
    pub fn start(p4: &p4sim::ast::Program, n: usize) -> Result<Switches, String> {
        let mut devices = Vec::new();
        let mut services = Vec::new();
        for _ in 0..n {
            let device = SwitchDevice::new(p4sim::Switch::new(p4.clone()));
            services.push(
                ControlService::start(device.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?,
            );
            devices.push(device);
        }
        Ok(Switches { devices, services })
    }

    /// One wrapped control connection per switch, in switch order.
    pub fn probes(
        &self,
        counts: &Arc<RpcCounts>,
        tracer: &Arc<Tracer>,
    ) -> Result<Vec<Probe>, String> {
        self.services
            .iter()
            .map(|s| {
                Ok(Probe {
                    client: ControlClient::connect(s.local_addr()).map_err(|e| e.to_string())?,
                    counts: counts.clone(),
                    tracer: tracer.clone(),
                })
            })
            .collect()
    }

    /// A digest stream per switch over its own TCP connection.
    pub fn digest_streams(&self) -> Result<Vec<Receiver<Vec<p4sim::runtime::Digest>>>, String> {
        self.services
            .iter()
            .map(|s| {
                ControlClient::connect(s.local_addr())
                    .map_err(|e| e.to_string())?
                    .subscribe_digests()
            })
            .collect()
    }

    /// Installed table entries and multicast groups of switch `sw`.
    pub fn installed(&self, sw: usize) -> (BTreeSet<TableEntry>, BTreeMap<u16, BTreeSet<u16>>) {
        let d = &self.devices[sw];
        let entries = d
            .read_all_tables()
            .into_iter()
            .flat_map(|(_, e)| e)
            .collect();
        (entries, d.mcast_snapshot())
    }
}

/// A durable OVSDB server in a scratch directory, removed on drop.
pub struct Db {
    server: ovsdb::Server,
    dir: PathBuf,
}

impl Db {
    pub fn open(dir: PathBuf, schema: &ovsdb::Schema) -> Result<Db, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let (db, _) = ovsdb::Database::open(&dir, schema.clone(), Default::default())
            .map_err(|e| format!("open {}: {e:?}", dir.display()))?;
        let server = ovsdb::Server::start(db, "127.0.0.1:0").map_err(|e| e.to_string())?;
        Ok(Db { server, dir })
    }

    pub fn connect(&self) -> Result<ovsdb::Client, String> {
        ovsdb::Client::connect(self.server.local_addr()).map_err(|e| e.to_string())
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Run one transaction and fail on any per-operation error, or on an
/// update or delete that matched no row (it would produce no monitor
/// update, and a wait for one would only time out).
pub fn transact(client: &ovsdb::Client, ops: Json) -> Result<(), String> {
    let results = client.transact("snvs", ops)?;
    for r in results
        .as_array()
        .ok_or("transact result is not an array")?
    {
        if let Some(e) = r.get("error") {
            return Err(format!("transaction failed: {e}"));
        }
        if r.get("count").and_then(Json::as_u64) == Some(0) {
            return Err("transaction matched no row".into());
        }
    }
    Ok(())
}

/// Wait for the next monitor update, up to the deadline.
pub fn next_update(rx: &Receiver<Json>) -> Result<Json, String> {
    rx.recv_timeout(DEADLINE).map_err(|e| match e {
        RecvTimeoutError::Timeout => "monitor update missed its deadline".to_string(),
        RecvTimeoutError::Disconnected => "monitor channel closed".to_string(),
    })
}

/// Subscribe to the tables the controller consumes.
pub fn monitor(
    client: &ovsdb::Client,
    id: &str,
    tables: &[&str],
) -> Result<(Json, Receiver<Json>), String> {
    let req: serde_json::Map<String, Json> =
        tables.iter().map(|t| (t.to_string(), json!({}))).collect();
    client.monitor("snvs", json!(id), Json::Object(req))
}

/// A thread that runs [`ShardRuntime::flush`] on request, so the
/// benchmark can wait for the barrier with a deadline.
pub struct Flusher {
    runtime: Arc<ShardRuntime>,
    requests: Option<Sender<Sender<()>>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Flusher {
    pub fn start(runtime: ShardRuntime) -> Result<Flusher, String> {
        let runtime = Arc::new(runtime);
        let (tx, rx) = crossbeam_channel::unbounded::<Sender<()>>();
        let rt = runtime.clone();
        let thread = std::thread::Builder::new()
            .name("bench-flusher".into())
            .spawn(move || {
                while let Ok(reply) = rx.recv() {
                    rt.flush();
                    let _ = reply.send(());
                }
            })
            .map_err(|e| e.to_string())?;
        Ok(Flusher {
            runtime,
            requests: Some(tx),
            thread: Some(thread),
        })
    }

    pub fn runtime(&self) -> &ShardRuntime {
        &self.runtime
    }

    pub fn flush(&self) -> Result<(), String> {
        let (tx, rx) = crossbeam_channel::bounded(1);
        self.requests
            .as_ref()
            .expect("flusher running")
            .send(tx)
            .map_err(|_| "flusher gone".to_string())?;
        rx.recv_timeout(DEADLINE)
            .map_err(|_| "flush missed its deadline".to_string())
    }

    /// Stop the flusher and shut the runtime down, joining its threads.
    pub fn shutdown(mut self) {
        drop(self.requests.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        if let Ok(rt) = Arc::try_unwrap(self.runtime) {
            rt.shutdown();
        }
    }
}

/// Per-shard fault counters, read as deltas: the series are
/// process-wide and shared by every runtime a run starts.
pub struct ShardFaults(Vec<[u64; 3]>);

impl ShardFaults {
    pub fn read(rt: &ShardRuntime) -> ShardFaults {
        ShardFaults(
            (0..rt.router().shards())
                .map(|s| {
                    [
                        rt.commit_errors(s),
                        rt.shed_inputs(s),
                        rt.watchdog_restarts(s),
                    ]
                })
                .collect(),
        )
    }

    /// Describe any fault counted since `base`, or any dirty switch.
    pub fn check_since(rt: &ShardRuntime, base: &ShardFaults) -> Result<(), String> {
        let now = ShardFaults::read(rt);
        for (s, (a, b)) in now.0.iter().zip(&base.0).enumerate() {
            let names = ["commit_errors", "shed_inputs", "watchdog_restarts"];
            for i in 0..3 {
                if a[i] != b[i] {
                    return Err(format!(
                        "shard {s}: {} {} since set-up",
                        a[i] - b[i],
                        names[i]
                    ));
                }
            }
            let dirty = rt.dirty_switches(s);
            if !dirty.is_empty() {
                return Err(format!("shard {s}: dirty switches {dirty:?}"));
            }
        }
        Ok(())
    }
}
