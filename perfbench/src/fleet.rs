//! `burst_fleet` and `jammed_fleet`: a plant's whole fleet of replayed
//! FoReCo sessions driven unpaced through `Service::run_to_completion`
//! on two shards, again and again for the run's length.

use crate::common::{self, digest, mix, timed_setup, Fixture, Outcome, SHARDS};
use crate::layers::{self, LayerInputs};
use crate::lifecycle::{self, GatedFleet, Slot};
use crate::stats::median;
use crate::trace::{self, Tracer};
use foreco_serve::{ChannelSpec, Service, SessionReport, SessionSpec, SourceSpec};
use foreco_wifi::{Interference, LinkConfig};
use std::time::Instant;

/// Which fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 9 controlled burst loss: bursts of 6, started with p = 0.01.
    Burst,
    /// Fig. 10 jammer: one station, interference 0.05 for 150 slots,
    /// τ = 0.
    Jammed,
}

impl Kind {
    /// Sessions in the fleet.
    pub fn sessions(self) -> u64 {
        match self {
            Kind::Burst => 1024,
            Kind::Jammed => 512,
        }
    }

    /// Session `id`'s channel, seeded from the workload seed.
    pub fn channel(self, seed: u64, id: u64) -> ChannelSpec {
        match self {
            Kind::Burst => ChannelSpec::ControlledLoss {
                burst_len: 6,
                burst_prob: 0.01,
                seed: mix(seed, id),
            },
            Kind::Jammed => ChannelSpec::Jammed {
                link: LinkConfig {
                    stations: 1,
                    interference: Interference::new(0.05, 150),
                    ..LinkConfig::default()
                },
                tolerance: 0.0,
                seed: mix(seed, id),
            },
        }
    }
}

/// Sessions of the gated side fleet that gives the fleet workloads
/// their attach, detach and failover figures. A chosen size, not a
/// measured one: a quarter of `burst_fleet`, large enough that a hop
/// takes tens of milliseconds.
const GATED_SESSIONS: u64 = 256;
/// Slots fed to the side fleet before its first hop and after its last.
const GATED_SLOTS: u64 = 100;
/// Set-ups before the measured phase (one more follows every fleet
/// run); `setup_s` is the median of all.
const SETUP_REPEATS: usize = 15;
/// Shortest measured phase, in fleet runs, whatever `--seconds` says.
const MIN_RUNS: usize = 3;
/// Ping rounds against the idle side fleet after every fleet run.
const PING_ROUNDS: usize = 256;

fn specs(fx: &Fixture, kind: Kind, seed: u64) -> Vec<SessionSpec> {
    (0..kind.sessions())
        .map(|id| {
            SessionSpec::new(
                id,
                SourceSpec::Replayed(fx.trace(id).clone()),
                kind.channel(seed, id),
                fx.recovery(),
            )
        })
        .collect()
}

/// One fleet run's outside view.
struct Run {
    wall_s: f64,
    ticks: u64,
    reports: Vec<SessionReport>,
    loads: Vec<foreco_serve::ShardLoadSummary>,
    /// Traced runs only: shard CPU (process CPU minus the calling
    /// thread) and the parks telemetry counted.
    shard_cpu_ns: u64,
    parks: u64,
}

/// One timed `run_to_completion`; nothing else of the benchmark runs
/// while it does.
fn run_once(service: Service, specs: Vec<SessionSpec>, tracer: &Tracer) -> Run {
    let handle = service.handle();
    let traced = tracer.enabled();
    let (cpu0, main0) = (trace::process_cpu(), trace::own_cpu());
    let t0 = Instant::now();
    let registry = tracer.scope("service.run_to_completion", None, |_| {
        service.run_to_completion(specs)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let (shard_cpu_ns, parks) = if traced {
        (
            (trace::process_cpu() - cpu0).saturating_sub(trace::own_cpu() - main0),
            handle.telemetry().shards.iter().map(|t| t.parks).sum(),
        )
    } else {
        (0, 0)
    };
    let reports: Vec<SessionReport> = registry.reports().cloned().collect();
    Run {
        wall_s,
        ticks: reports.iter().map(|r| r.ticks).sum(),
        reports,
        loads: registry.shard_loads().to_vec(),
        shard_cpu_ns,
        parks,
    }
}

/// Runs one fleet workload for `seconds`.
pub fn run(kind: Kind, seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let setup = || {
        let fx = Fixture::build();
        let fleet = specs(&fx, kind, seed);
        let service = Service::spawn(lifecycle::service_config(fleet.len(), SHARDS));
        (fx, fleet, service)
    };
    let (mut setups, (fx, fleet, service)) =
        timed_setup(SETUP_REPEATS, setup, |(_, _, service)| {
            service.join();
        });
    let n = fleet.len() as u64;

    // The gated side fleet on this fleet's channel model: between two
    // fleet runs it fails over once and is probed for attach/detach,
    // so those samples spread over the whole run like the runs do.
    let gated_specs: Vec<SessionSpec> = (0..GATED_SESSIONS)
        .map(|id| {
            SessionSpec::new(
                id,
                SourceSpec::Gated {
                    initial: fx.trace(id)[0].clone(),
                    inbox_capacity: lifecycle::INBOX,
                },
                kind.channel(seed, id),
                fx.recovery(),
            )
        })
        .collect();
    let slot = |id: u64, s: u64| -> Slot<'_> {
        let trace = fx.trace(id);
        Some(&trace[(s as usize) % trace.len()])
    };
    let mut gated = GatedFleet::start(gated_specs.clone(), GATED_SLOTS, &slot, false);

    // Measured phase: whole-fleet runs, each on a fresh service.
    let mut runs: Vec<Run> = Vec::new();
    let mut untraced_rates = Vec::new();
    let mut pings: Vec<Vec<f64>> = Vec::new();
    let mut peak_rss = Vec::new();
    let mut service = Some(service);
    let quiet = Tracer::new(false);
    let started = Instant::now();
    while runs.len() < MIN_RUNS || started.elapsed().as_secs_f64() < seconds {
        trace::reset_peak_rss();
        let svc = service
            .take()
            .unwrap_or_else(|| Service::spawn(lifecycle::service_config(fleet.len(), SHARDS)));
        // Traced runs alternate traced and untraced fleet runs; the
        // difference is the tracing overhead.
        let untraced = tracer.enabled() && runs.len() % 2 == 1;
        let r = run_once(svc, fleet.clone(), if untraced { &quiet } else { tracer });
        if untraced {
            untraced_rates.push(r.ticks as f64 / r.wall_s);
        }
        runs.push(r);
        // Between fleet runs, with the fleet's shards gone: the side
        // fleet hops, is probed, and its idle shards are pinged.
        gated.hop(tracer);
        gated.probe();
        pings.push(lifecycle::ping_rounds(
            &gated.service().handle(),
            PING_ROUNDS,
        ));
        // One more set-up sample per cycle, so set-up time too is
        // sampled across the whole run.
        let t0 = Instant::now();
        let (_, _, spare) = setup();
        setups.push(t0.elapsed().as_secs_f64());
        spare.join();
        peak_rss.push(trace::peak_rss_mb());
    }
    gated.feed_more(GATED_SLOTS, &slot);
    let gated_reports = gated.finish();

    // Correctness: every run agrees, and agrees with one shard; the
    // failed-over gated fleet agrees with its unmigrated twin.
    let first = digest(&runs[0].reports);
    let mut failed_sessions = 0;
    for r in &runs {
        failed_sessions += n.saturating_sub(r.reports.len() as u64);
        if digest(&r.reports) != first {
            out.problem("two 2-shard runs of the same fleet disagree".into());
        }
    }
    let t0 = Instant::now();
    let one_shard =
        Service::spawn(lifecycle::service_config(fleet.len(), 1)).run_to_completion(fleet.clone());
    let one_shard_rate =
        one_shard.reports().map(|r| r.ticks).sum::<u64>() as f64 / t0.elapsed().as_secs_f64();
    let reference: Vec<SessionReport> = one_shard.reports().cloned().collect();
    drop(one_shard);
    if digest(&reference) != first {
        out.problem("the 2-shard fleet differs from the 1-shard fleet".into());
    }
    let gated_reference = lifecycle::reference(gated_specs, 2 * GATED_SLOTS, &slot);
    if digest(&gated_reports) != digest(&gated_reference) || !gated.ticks_exact {
        out.problem("the failed-over gated fleet differs from its unmigrated twin".into());
    }
    out.count("fleet sessions", n * runs.len() as u64, failed_sessions);
    lifecycle::count_fleet(&mut out, &gated);
    out.note(format!(
        "check   fleet digest {first:016x} over {} runs, 1-shard {:016x}; gated {:016x}, unmigrated {:016x}",
        runs.len(),
        digest(&reference),
        digest(&gated_reports),
        digest(&gated_reference)
    ));

    // End-to-end metrics.
    let rates: Vec<f64> = runs.iter().map(|r| r.ticks as f64 / r.wall_s).collect();
    out.spread("ticks_per_s", &rates);
    out.spread("setup_s", &setups);
    out.e2e("setup_s", median(&setups).unwrap_or(0.0), "s");
    out.e2e("ticks_per_s", median(&rates).unwrap_or(0.0), "1/s");
    out.e2e("rmse_p50_mm", common::rmse_p50(&runs[0].reports), "mm");
    lifecycle::lifecycle_metrics(
        &mut out,
        &pings,
        &gated.attach_ms,
        &gated.detach_ms,
        &gated.hops,
        GATED_SESSIONS,
    );
    out.e2e_peak_rss(&peak_rss);
    let misses: usize = runs[0].reports.iter().map(|r| r.misses).sum();
    out.note(format!(
        "shape   {n} sessions x {} ticks, {} runs, miss share {:.4}, 1-shard {:.0} ticks/s",
        runs[0].ticks / n,
        runs.len(),
        misses as f64 / runs[0].ticks as f64,
        one_shard_rate
    ));

    if tracer.enabled() {
        let traced: Vec<&Run> = runs.iter().step_by(2).collect();
        let wall: f64 = traced.iter().map(|r| r.wall_s).sum();
        let ticks: u64 = traced.iter().map(|r| r.ticks).sum();
        let shard_cpu: u64 = traced.iter().map(|r| r.shard_cpu_ns).sum();
        let passes: u64 = traced.iter().flat_map(|r| &r.loads).map(|l| l.passes).sum();
        let wakeups: u64 = traced
            .iter()
            .flat_map(|r| &r.loads)
            .map(|l| l.wakeups)
            .sum();
        let per_shard: Vec<f64> = (0..SHARDS)
            .map(|i| {
                traced
                    .iter()
                    .flat_map(|r| r.loads.get(i))
                    .map(|l| l.wakeups as f64)
                    .sum()
            })
            .collect();
        let forecasts: u64 = traced
            .iter()
            .flat_map(|r| &r.reports)
            .filter_map(|r| r.stats)
            .map(|s| s.forecasts)
            .sum();
        let traced_rate = ticks as f64 / wall;
        let per_run = |v: f64| v / traced.len() as f64;
        out.layer(
            "shard.busy_share",
            shard_cpu as f64 / (wall * 1e9 * SHARDS as f64),
            "share",
        );
        out.layer("shard.passes", per_run(passes as f64), "count");
        out.layer(
            "shard.wakeups_per_pass",
            wakeups as f64 / passes.max(1) as f64,
            "count",
        );
        out.layer("shard.tick_skew", common::skew(&per_shard), "share");
        out.layer(
            "shard.scaling_efficiency",
            median(&rates).unwrap_or(0.0) / (SHARDS as f64 * one_shard_rate),
            "share",
        );
        out.layer(
            "sched.parks",
            per_run(traced.iter().map(|r| r.parks).sum::<u64>() as f64),
            "count",
        );
        out.layer(
            "sched.traffic_wakeups",
            per_run(
                traced
                    .iter()
                    .flat_map(|r| &r.loads)
                    .map(|l| l.traffic_wakeups)
                    .sum::<u64>() as f64,
            ),
            "count",
        );
        let forecasts_per_pass = forecasts as f64 / passes.max(1) as f64;
        out.layer("batch.forecasts_per_pass", forecasts_per_pass, "count");
        let inputs = LayerInputs {
            fx: &fx,
            solo: specs(&fx, kind, seed).into_iter().take(64).collect(),
            slot: None,
            channel: kind.channel(seed, 0),
            lane_width: forecasts_per_pass.round().max(1.0) as usize,
            try_inject_ns: None,
        };
        let ledger = layers::measure(&mut out, &inputs, tracer);
        out.layer(
            "ledger.shard_overhead_share",
            1.0 - (ticks as f64 * ledger.advance_ns) / shard_cpu.max(1) as f64,
            "share",
        );
        lifecycle::hop_layers(&mut out, &gated.hops);
        let untraced = median(&untraced_rates).unwrap_or(traced_rate);
        out.layer(
            "trace.overhead_share",
            untraced / traced_rate - 1.0,
            "share",
        );
    }
    gated.join();
    out
}
