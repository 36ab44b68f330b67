//! pclbench — end-to-end benchmark of `pclabel-netd`, with a traced
//! per-layer breakdown.
//!
//! usage: pclbench --netd BIN --run-dir DIR --workload NAME --seed N
//!                 --seconds S --trace 0|1 [--client-cpu CPU --server-cpu CPU]
//!
//! Usually started through `run.py`, which builds the daemon and this
//! harness first. The human-readable report goes to stderr; the last
//! line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). See `README.md` and
//! `METRICS.md` beside this package for the workloads and metrics.

mod affinity;
mod data;
mod oracle;
mod replay;
mod session;
mod trace;
mod util;
mod wire;
mod workloads;

use std::path::PathBuf;

use pclabel_engine::json::Json;

use session::Config;

const WORKLOADS: [&str; 2] = ["search_register", "ingest_cold"];

fn usage(message: &str) -> ! {
    eprintln!("pclbench: {message}");
    eprintln!(
        "usage: pclbench --netd BIN --run-dir DIR --workload {} --seed N --seconds S --trace 0|1 [--client-cpu CPU --server-cpu CPU]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut netd = None;
    let mut run_dir = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut client_cpu = None;
    let mut server_cpu = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--netd" => netd = Some(PathBuf::from(value)),
            "--run-dir" => run_dir = Some(PathBuf::from(value)),
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => usage(&format!("unknown workload {value:?}")),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--client-cpu" | "--server-cpu" => {
                let cpu = value
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("{flag} needs a CPU number")));
                if flag == "--client-cpu" {
                    client_cpu = Some(cpu);
                } else {
                    server_cpu = Some(cpu);
                }
            }
            _ => usage(&format!("unknown flag {flag:?}")),
        }
    }
    Config {
        netd: netd.unwrap_or_else(|| usage("--netd is required")),
        run_dir: run_dir.unwrap_or_else(|| usage("--run-dir is required")),
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed needs an unsigned integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
        cpus: match (client_cpu, server_cpu) {
            (Some(c), Some(s)) => Some([c, s]),
            (None, None) => None,
            _ => usage("--client-cpu and --server-cpu go together"),
        },
    }
}

fn main() {
    let cfg = parse_args();
    let trace = cfg.trace;
    let workload = cfg.workload.clone();
    let seed = cfg.seed;
    let outcome = match workload.as_str() {
        "search_register" => workloads::search_register(cfg),
        _ => workloads::ingest_cold(cfg),
    };
    let mut outcome = outcome.unwrap_or_else(|e| {
        eprintln!("pclbench: {workload}: {e}");
        std::process::exit(1);
    });
    let e2e = workloads::end_to_end(&outcome);
    if trace {
        eprintln!("pclbench: traced run's own end-to-end figures:");
        for (name, value, unit) in &e2e {
            eprintln!("  {name:<34} {value:>16.6} {unit}");
        }
    }
    let metrics = if trace {
        let layers = replay::layers(&mut outcome);
        let spans = outcome
            .session
            .run_dir()
            .with_file_name(format!("spans-{workload}-seed{seed}.jsonl"));
        if let Err(e) = outcome.session.tracer.write_jsonl(&spans) {
            eprintln!("pclbench: writing {}: {e}", spans.display());
        }
        eprintln!("pclbench: spans written to {}", spans.display());
        layers
    } else {
        e2e
    };
    // The median and the tail, for reading only: across runs they move
    // with the host's load by more than any bound the benchmark may set
    // (README.md).
    for (kind, name) in [
        (session::Kind::Query, "query"),
        (session::Kind::Append, "append"),
        (session::Kind::Register, "register"),
        (session::Kind::Refresh, "refresh"),
    ] {
        if let Some(v) = outcome.session.lat.get(&kind) {
            eprintln!(
                "  {name}_p50_us {:.1}, {name}_p90_us {:.1}, {name}_p99_us {:.1}, {name}_rps {:.0} (unbounded, {} samples)",
                util::median(v) * 1e6,
                util::quantile(v, 0.9) * 1e6,
                util::quantile(v, 0.99) * 1e6,
                v.len() as f64 / v.iter().sum::<f64>(),
                v.len(),
            );
            // The long requests one by one, in the order they were sent.
            if v.len() <= 64 && matches!(kind, session::Kind::Register | session::Kind::Refresh) {
                let ms: Vec<String> = v.iter().map(|t| format!("{:.1}", t * 1e3)).collect();
                eprintln!("  {name} ms: {}", ms.join(" "));
            }
        }
    }
    let (attempted, failed) = outcome.session.finish();
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    eprintln!("pclbench: {workload} seed {seed} trace {}", trace as u8);
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<34} {value:>16.6} {unit}");
    }
    eprintln!(
        "  ops attempted {attempted}, failed {failed} (ops_failed_ratio {:.6})",
        failed as f64 / attempted.max(1) as f64
    );
    let result = Json::obj([
        ("correct", Json::Bool(failed == 0 && finite)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.to_string(),
                            Json::obj([("value", Json::num(*value)), ("unit", Json::str(*unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
}
