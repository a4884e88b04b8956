//! The FoReCo benchmark: one command per workload run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload burst_fleet --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the last line of standard output is the JSON
//! result carrying every end-to-end metric; with `--trace 1` it carries
//! every per-layer metric instead (see `perfbench/README.md`). The exit
//! code is non-zero when a correctness check fails.

mod common;
mod failover;
mod fleet;
mod gateway;
mod layers;
mod lifecycle;
mod stats;
mod trace;

use common::{Metric, Outcome};
use std::fmt::Write as _;
use std::process::ExitCode;
use trace::{CountingAllocator, Tracer};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "burst_fleet",
    "jammed_fleet",
    "udp_gateway",
    "fleet_failover",
];

/// End-to-end metrics every untraced run reports.
const END_TO_END: [&str; 10] = [
    "setup_s",
    "ticks_per_s",
    "rmse_p50_mm",
    "ack_rtt_p50_us",
    "ack_rtt_p90_us",
    "attach_ms_p50",
    "detach_ms_p50",
    "failover_sessions_per_s",
    "archive_bytes_per_session",
    "peak_rss_mb",
];

/// Per-layer metrics every traced run reports, with their units. A
/// layer a workload does not exercise reads 0.
const LAYERS: [(&str, &str); 50] = [
    ("shard.busy_share", "share"),
    ("shard.passes", "count"),
    ("shard.wakeups_per_pass", "count"),
    ("shard.tick_skew", "share"),
    ("shard.scaling_efficiency", "share"),
    ("sched.parks", "count"),
    ("sched.traffic_wakeups", "count"),
    ("session.advance_ns", "ns"),
    ("session.allocs_per_tick", "count"),
    ("session.heap_bytes", "B"),
    ("recovery.hit_ns", "ns"),
    ("recovery.miss_ns", "ns"),
    ("forecast.var_ns", "ns"),
    ("batch.lane_ns_per_member", "ns"),
    ("batch.forecasts_per_pass", "count"),
    ("driver.tick_ns", "ns"),
    ("channel.fate_ns", "ns"),
    ("ledger.unattributed_share", "share"),
    ("ledger.shard_overhead_share", "share"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("ingress.handle_ns", "ns"),
    ("ingress.delivered", "count"),
    ("ingress.lost", "count"),
    ("ingress.late", "count"),
    ("ingress.reordered", "count"),
    ("ingress.duplicates", "count"),
    ("ingress.bounced", "count"),
    ("ingress.delivered_share", "share"),
    ("ingress.settle_p90_ms", "ms"),
    ("gen.lag_p99_ms", "ms"),
    ("udp.os_lost", "count"),
    ("udp.cpu_us_per_datagram", "us"),
    ("udp.socket_share", "share"),
    ("control.open_core_us", "us"),
    ("control.close_core_us", "us"),
    ("control.tcp_share", "share"),
    ("control.metrics_scrape_ms", "ms"),
    ("telemetry.render_us", "us"),
    ("service.try_inject_ns", "ns"),
    ("snapshot.encode_ns", "ns"),
    ("snapshot.decode_ns", "ns"),
    ("snapshot.forecaster_bytes_share", "share"),
    ("archive.snapshot_fleet_ms", "ms"),
    ("archive.to_bytes_ms", "ms"),
    ("archive.from_bytes_ms", "ms"),
    ("archive.adopt_ms", "ms"),
    ("store.resident_bytes", "B"),
    ("store.trace_objects", "count"),
    ("trace.overhead_share", "share"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Seed, revision, parallelism and compiler: enough to rerun a claim.
fn stamp(args: &Args) -> String {
    let revision = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_revision\": \"{revision}\", \
         \"available_parallelism\": {parallelism}, \"rustc\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC")
    )
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push('}');
    s
}

/// Orders the run's metrics as listed, fills layers a workload does not
/// exercise with 0, and reports a missing or non-finite end-to-end
/// metric as a problem.
fn assemble(out: &mut Outcome, trace: bool) -> Vec<Metric> {
    if trace {
        LAYERS
            .iter()
            .map(|&(name, unit)| {
                let found = out.layers.iter().rev().find(|m| m.name == name);
                let value = found.map_or(0.0, |m| m.value);
                Metric {
                    name,
                    value: if value.is_finite() { value } else { 0.0 },
                    unit,
                    tail: None,
                }
            })
            .collect()
    } else {
        let mut metrics = Vec::new();
        for name in END_TO_END {
            match out.end_to_end.iter().find(|m| m.name == name) {
                Some(m) if m.value.is_finite() && m.value != 0.0 => metrics.push(m.clone()),
                Some(m) => out.problem(format!("end-to-end metric {name} read {}", m.value)),
                None => out.problem(format!("end-to-end metric {name} was not measured")),
            }
        }
        metrics
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let stamp = stamp(&args);
    println!("stamp   {stamp}");
    let tracer = Tracer::new(args.trace);
    let mut out = match args.workload.as_str() {
        "burst_fleet" => fleet::run(fleet::Kind::Burst, args.seed, args.seconds, &tracer),
        "jammed_fleet" => fleet::run(fleet::Kind::Jammed, args.seed, args.seconds, &tracer),
        "udp_gateway" => gateway::run(args.seed, args.seconds, &tracer),
        "fleet_failover" => failover::run(args.seed, args.seconds, &tracer),
        _ => unreachable!("workload validated by parse_args"),
    };
    let metrics = assemble(&mut out, args.trace);
    for line in &out.notes {
        println!("{line}");
    }
    let shown = if args.trace {
        &out.layers
    } else {
        &out.end_to_end
    };
    for m in shown {
        let tail = m.tail.map_or(String::new(), |t| {
            format!(
                "   (p{} = {:.4}, {} samples beyond, n = {})",
                t.percentile, t.value, t.beyond, t.samples
            )
        });
        println!("metric  {:<32} {:>16.4} {}{tail}", m.name, m.value, m.unit);
    }
    if args.trace {
        let spans = tracer.spans();
        for (name, own_ns, count) in stats::self_time_by_name(&spans) {
            println!(
                "span    {name:<32} self {:>12.3} ms over {count} spans",
                own_ns as f64 / 1e6
            );
        }
        write_trace(&args, &stamp, &metrics, &spans);
    }
    for problem in &out.problems {
        println!("INVALID {problem}");
    }
    let correct = out.problems.is_empty();
    let metrics_json = if correct {
        json_metrics(&metrics)
    } else {
        "{}".into()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        out.attempted.max(1),
        out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the traced run's stamp, metrics and every span to
/// `perfbench/out/` under the working directory.
fn write_trace(args: &Args, stamp: &str, metrics: &[Metric], spans: &[stats::Span]) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("{}-seed{}-trace.json", args.workload, args.seed));
    let mut body = format!(
        "{{\"stamp\": {stamp}, \"metrics\": {}, \"spans\": [",
        json_metrics(metrics)
    );
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let parent = s.parent.map_or("null".into(), |p| p.to_string());
        let _ = write!(
            body,
            "{sep}{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.name, s.start_ns, s.end_ns
        );
    }
    body.push_str("]}\n");
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!(
            "trace   {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => println!("trace   could not write {}: {e}", path.display()),
    }
}
