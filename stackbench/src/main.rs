//! `stackbench --workload <port_churn|vlan_burst|mac_learn> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints each metric with its unit and sample count, then, as the last
//! line, one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Exits non-zero without that line if the run cannot complete.

use std::time::Duration;

use stackbench::{run, Config, Kind};

/// The whole run, set-up included, must finish within this.
const RUN_LIMIT: Duration = Duration::from_secs(170);

fn usage(msg: &str) -> ! {
    eprintln!("stackbench: {msg}");
    eprintln!(
        "usage: stackbench --workload <port_churn|vlan_burst|mac_learn> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.len().is_multiple_of(2) {
        usage("arguments come in --flag value pairs");
    }
    let mut kind = None;
    let mut cfg = Config {
        kind: Kind::PortChurn,
        seed: 1,
        seconds: 10.0,
        trace: false,
        ops: None,
    };
    for pair in args.chunks(2) {
        let v = &pair[1];
        let bad = || -> ! { usage(&format!("bad value {v:?} for {}", pair[0])) };
        match pair[0].as_str() {
            "--workload" => kind = Some(Kind::parse(v).unwrap_or_else(|| bad())),
            "--seed" => cfg.seed = v.parse().unwrap_or_else(|_| bad()),
            "--seconds" => {
                cfg.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| bad())
            }
            "--trace" => {
                cfg.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    cfg.kind = kind.unwrap_or_else(|| usage("--workload is required"));

    // A wedged stack must not hang the run: give up loudly instead.
    std::thread::spawn(|| {
        std::thread::sleep(RUN_LIMIT);
        eprintln!("stackbench: run exceeded {RUN_LIMIT:?}; aborting");
        std::process::exit(3);
    });

    let out = match run(&cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("stackbench: {}: {e}", cfg.kind.name());
            std::process::exit(1);
        }
    };
    let failed_pct = 100.0 * out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "workload {} seed {} trace {}: {} ops attempted, {} failed ({failed_pct:.2}%)",
        cfg.kind.name(),
        cfg.seed,
        cfg.trace as u8,
        out.attempted,
        out.failed
    );
    for m in &out.metrics {
        println!(
            "  {:<28} {:>14.3} {:<6} n={:<8} failed={failed_pct:.2}%",
            m.name, m.value, m.unit, m.samples
        );
    }
    if let Some(path) = &out.spans_file {
        println!("  spans written to {}", path.display());
    }
    match &out.gate {
        Ok(()) => println!("correctness gate: passed"),
        Err(e) => println!("correctness gate: FAILED: {e}"),
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.gate.is_ok(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
