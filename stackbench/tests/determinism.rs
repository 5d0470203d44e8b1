//! The per-op work counts of `port_churn` depend only on the seed: the
//! lockstep controller handles one change at a time, so the same
//! changes must produce the same P4 RPCs and the same engine work. A
//! count that drifts between two runs exposes nondeterminism in the
//! stack or in the generator.

use stackbench::{run, Config, Kind};

const COUNTS: [&str; 4] = [
    "p4sim.write_rpcs_per_op",
    "p4sim.mcast_rpcs_per_op",
    "p4sim.updates_per_op",
    "ddlog.work_tuples_per_op",
];

fn counts(seed: u64) -> Vec<(&'static str, f64)> {
    let out = run(&Config {
        kind: Kind::PortChurn,
        seed,
        seconds: 60.0,
        trace: true,
        ops: Some(400),
    })
    .expect("port_churn runs");
    assert_eq!(out.gate, Ok(()));
    assert_eq!((out.attempted, out.failed), (400, 0));
    out.metrics
        .iter()
        .filter(|m| COUNTS.contains(&m.name))
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn port_churn_counts_repeat_exactly_for_a_seed() {
    let first = counts(7);
    assert_eq!(first.len(), COUNTS.len());
    assert!(first.iter().all(|(_, v)| *v > 0.0), "{first:?}");
    assert_eq!(first, counts(7));
}
