//! Throughput of the `foreco-serve` shard pool: session-ticks per second
//! swept over shard count, plus the scenarios only this binary measures
//! — written to `BENCH_serve.json`, which CI gates on. The per-layer
//! costs (engine tick, allocations per tick, wire decode, ingress,
//! snapshot codec, store residency) are measured by the `perfbench`
//! ledger (`--trace 1`), not here.
//!
//! One session-tick = one full hosted loop step (reference driver +
//! impaired driver + recovery engine), so ticks/sec × 1/50 Hz is the
//! number of real-time 50 Hz loops one process could sustain.
//!
//! The idle-heavy scenario models the production fleet shape: thousands
//! of streamed sessions, a few percent of them carrying live traffic,
//! the rest silent. Under the event-driven scheduler the silent ones
//! park at their idle fixed point, so `wakeups_per_tick` (mean session
//! advances per scheduling pass) must track the *active* population —
//! the eager sweep's is pinned at the total. CI asserts the event-mode
//! number against `FORECO_SERVE_WAKEUP_BUDGET` to catch regressions
//! back to O(total-sessions) sweeps.
//!
//! The **fleet_soak** scenario churns thousands of short-lived sessions
//! through open → replay → (periodic) snapshot → close on worker
//! threads while a scraper hits the Prometheus metrics endpoint and a
//! poll-mode subscriber drains the fleet event feed — the
//! observability plane exercised *during* churn, with scrape latency
//! percentiles and event delivery/drop counts recorded.
//!
//! The **calibration** kernel is frozen pure-f64 arithmetic (see
//! [`calibration_run`]); its iterations/sec measure *this* container's
//! scalar f64 speed. Dividing 1-shard engine throughput by it yields a
//! dimensionless ratio that is comparable across machines, which is
//! what the CI perf gate asserts (`FORECO_ENGINE_TICKS_RATIO`) instead
//! of an absolute ticks/s constant that only reproduces on the
//! container it was recorded on. One process's ratio is noisy, so the
//! gated number is the median over [`RATIO_PROBES`] fresh child
//! processes (this binary re-executed with `--ratio-probe`), each
//! timing one 1-shard fleet run and then the kernel; `ratio_probes` in
//! the output records every child's ratio and their spread.
//!
//! The **lane_sweep** scenario validates the slot-major threshold of
//! the adaptive plan ([`foreco_forecast::plan_layout`]): for each
//! expensive family it times slot-major lanes across widths 1–1024
//! (straddling `SLOT_MAJOR_MIN_WIDTH` with width−1/width/width+1
//! cells) against a scalar reference fleet, records per-width speedups
//! plus the layout the plan would choose, and exits non-zero if a lane
//! moves a single bit.
//!
//! Knobs: `FORECO_SERVE_SESSIONS` (default 1024),
//! `FORECO_SERVE_CYCLES` (replay length, default 1),
//! `FORECO_SERVE_SHARDS` (comma list, default `1,2,4,8`),
//! `FORECO_SERVE_IDLE_SESSIONS` (default 4096),
//! `FORECO_SERVE_IDLE_ACTIVE_PCT` (default 2),
//! `FORECO_SERVE_IDLE_ROUNDS` (hot-session inject rounds, default 400),
//! `FORECO_SERVE_WAKEUP_BUDGET` (optional hard ceiling on idle-heavy
//! event-mode wakeups/tick; breach exits non-zero),
//! `FORECO_ENGINE_TICKS_RATIO` (optional hard floor on the median
//! probe's 1-shard `ticks_per_sec` ÷ calibration iterations/sec;
//! shortfall exits non-zero — the CI regression gate, set to
//! committed-baseline-ratio × 0.9; recalibration rule in ROADMAP),
//! `FORECO_SERVE_SWEEP_WIDTHS` (lane_sweep width list, default
//! `1,2,4,7,8,9,16,32,64,128,256,512,1024`),
//! `FORECO_SERVE_SWEEP_TICKS` (target miss ticks per lane_sweep cell,
//! default 16384 — rounds scale inversely with width),
//! `FORECO_SERVE_SOAK_SESSIONS` (fleet-soak churn size, default 10000),
//! `FORECO_SERVE_SOAK_TICKS` (fleet-soak ticks/session, default 32),
//! `FORECO_SERVE_OUT` (output path, default `BENCH_serve.json`).
//! A set but malformed numeric knob exits non-zero and names the knob.

use foreco_bench::{banner, env_knob, env_list_knob, Fixture};
use foreco_core::RecoveryConfig;
use foreco_forecast::{KalmanCv, LaneLayout};
use foreco_serve::{
    BalancerConfig, ChannelSpec, EventWait, RecoverySpec, Scheduler, Service, ServiceConfig,
    ServiceSummary, SessionSpec, SharedForecaster, SourceSpec,
};
use foreco_teleop::{Dataset, Skill};
use serde::Serialize;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fresh processes that each re-measure the engine/calibration pair.
const RATIO_PROBES: usize = 5;

/// Argument that turns this binary into one ratio probe.
const RATIO_PROBE_ARG: &str = "--ratio-probe";

/// Iterations of the frozen calibration kernel per measurement.
const CALIBRATION_ITERATIONS: u64 = 20_000_000;

#[derive(Serialize)]
struct Row {
    shards: usize,
    sessions: u64,
    total_ticks: u64,
    total_misses: u64,
    wall_s: f64,
    ticks_per_sec: f64,
    speedup_vs_1_shard: f64,
    rmse_p50_mm: f64,
    rmse_p99_mm: f64,
}

#[derive(Serialize)]
struct IdleRow {
    scheduler: String,
    shards: usize,
    sessions: u64,
    active_sessions: u64,
    inject_rounds: usize,
    wall_s: f64,
    passes: u64,
    wakeups: u64,
    /// Mean session advances per scheduling pass — the scaling metric.
    wakeups_per_tick: f64,
    /// `wakeups_per_tick / sessions`: fraction of the fleet awake on an
    /// average pass.
    runnable_ratio: f64,
    timer_wakeups: u64,
    traffic_wakeups: u64,
    balancer_migrations: u64,
    total_session_ticks: u64,
}

/// The fleet-soak scenario: thousands of sessions churned through
/// open → replay → (periodic) snapshot → close while the metrics
/// endpoint is scraped live and an event subscriber drinks the fleet's
/// lifecycle — the observability plane measured *under* load, not
/// after it.
#[derive(Serialize)]
struct FleetSoakRow {
    sessions: u64,
    shards: usize,
    ticks_per_session: usize,
    wall_s: f64,
    /// Session-ticks confirmed by close reports.
    session_ticks: u64,
    ticks_per_sec: f64,
    /// Mid-churn checkpoints taken (every 16th session).
    snapshots: u64,
    /// Prometheus scrapes completed during the churn.
    scrapes: u64,
    scrape_p50_us: f64,
    scrape_p99_us: f64,
    scrape_max_us: f64,
    /// Fleet events the live subscriber received.
    events_delivered: u64,
    /// Events shed by the subscriber's bounded queue (drop-oldest).
    events_dropped: u64,
}

#[derive(Serialize)]
struct CalibrationRow {
    /// Fixed iteration count of the frozen kernel.
    iterations: u64,
    wall_s: f64,
    /// This container's scalar-f64 speed — the denominator of the
    /// relative perf gate.
    iterations_per_sec: f64,
}

/// One child process's engine/calibration pair.
#[derive(Serialize)]
struct RatioProbe {
    /// 1-shard fleet session-ticks per second, the process's one run.
    ticks_per_sec: f64,
    /// Calibration kernel iterations per second, measured right after.
    calibration_iterations_per_sec: f64,
    ratio: f64,
}

#[derive(Serialize)]
struct RatioProbes {
    probes: Vec<RatioProbe>,
    median: f64,
    min: f64,
    max: f64,
    /// `(max − min) / median`.
    spread: f64,
}

#[derive(Serialize)]
struct LaneSweepRow {
    forecaster: String,
    /// Lane width (engines sharing the forecaster).
    width: usize,
    /// The layout [`foreco_forecast::plan_layout`] would choose at
    /// this width — the threshold this sweep exists to validate.
    chosen: String,
    /// Measured miss ticks per path (rounds × width).
    ticks: u64,
    scalar_ns_per_tick: f64,
    slot_major_ns_per_tick: f64,
    /// Scalar ns/tick ÷ slot-major ns/tick.
    speedup_vs_scalar: f64,
    /// Every miss tick's forecast matched the scalar path bit for bit.
    bit_identical: bool,
}

#[derive(Serialize)]
struct Output {
    bench: String,
    sessions: u64,
    ticks_per_session: usize,
    forecaster: String,
    /// `std::thread::available_parallelism()` in the measuring process
    /// — recorded so shard-scaling rows can be read against how many
    /// hardware threads the container actually had.
    available_parallelism: usize,
    /// The shard counts the scaling sweep ran (`rows` has one entry
    /// per count).
    shard_counts: Vec<usize>,
    /// Median over the ratio probes of 1-shard `ticks_per_sec` ÷
    /// calibration iterations/sec — the dimensionless number the CI
    /// gate bounds.
    engine_vs_calibration_ratio: f64,
    ratio_probes: RatioProbes,
    rows: Vec<Row>,
    lane_sweep: Vec<LaneSweepRow>,
    idle_heavy: Vec<IdleRow>,
    fleet_soak: FleetSoakRow,
}

/// The frozen calibration kernel: a fixed-length pure-f64 arithmetic
/// chain over a SplitMix64 stream. Its iterations/sec measures the
/// container's scalar floating-point speed with zero dependence on any
/// foreco crate, so `engine ticks/s ÷ calibration iters/s` is a
/// dimensionless ratio that transfers across machines — the basis of
/// the CI perf gate.
///
/// **FROZEN — never modify this function.** Any change to the
/// arithmetic (or [`CALIBRATION_ITERATIONS`]) silently
/// rescales every recorded ratio; the gate must then be recalibrated
/// (see ROADMAP "CI perf gates").
fn calibration_run(iterations: u64) -> CalibrationRow {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut acc = 1.0f64;
    let t0 = Instant::now();
    for _ in 0..iterations {
        // ~the engine's mix: a multiply-add, a divide, a square root.
        let x = (next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        acc = (acc * 0.999_999 + x).sqrt() + x / (1.0 + acc);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    CalibrationRow {
        iterations,
        wall_s,
        iterations_per_sec: iterations as f64 / wall_s,
    }
}

/// The measured fleet: `sessions` replays of one trace under Fig. 9
/// burst loss, each recovered by the shared forecaster.
fn fleet_specs(
    sessions: u64,
    replay: &Arc<Vec<Vec<f64>>>,
    forecaster: &SharedForecaster,
    fx: &Fixture,
) -> Vec<SessionSpec> {
    (0..sessions)
        .map(|id| {
            SessionSpec::new(
                id,
                SourceSpec::Replayed(Arc::clone(replay)),
                ChannelSpec::ControlledLoss {
                    burst_len: 6,
                    burst_prob: 0.01,
                    seed: 40_000 + id,
                },
                RecoverySpec::FoReCo {
                    forecaster: forecaster.clone(),
                    config: RecoveryConfig::for_model(&fx.model),
                },
            )
        })
        .collect()
}

/// Runs the fleet to completion on `shards` shards: its summary and
/// wall seconds.
fn run_fleet(shards: usize, specs: Vec<SessionSpec>) -> (ServiceSummary, f64) {
    let service = Service::spawn(ServiceConfig::with_shards(shards));
    let started = Instant::now();
    let registry = service.run_to_completion(specs);
    let wall_s = started.elapsed().as_secs_f64();
    (registry.summary().expect("sessions completed"), wall_s)
}

/// The child side of a ratio probe: time one 1-shard fleet run, then
/// the calibration kernel, in this fresh process, and print both rates
/// on one line for the parent to parse.
fn ratio_probe_child() {
    let sessions = env_knob("FORECO_SERVE_SESSIONS", 1024) as u64;
    let cycles = env_knob("FORECO_SERVE_CYCLES", 1);
    let fx = Fixture::build();
    let forecaster = SharedForecaster::new(fx.var.clone());
    let replay = Arc::new(Dataset::record(Skill::Inexperienced, cycles, 0.02, 8).commands);
    let (summary, wall_s) = run_fleet(1, fleet_specs(sessions, &replay, &forecaster, &fx));
    let ticks_per_sec = summary.total_ticks as f64 / wall_s;
    let calibration = calibration_run(CALIBRATION_ITERATIONS);
    println!(
        "{RATIO_PROBE_ARG} {ticks_per_sec} {}",
        calibration.iterations_per_sec
    );
}

/// Runs [`RATIO_PROBES`] ratio probes one after another, each in a
/// fresh child process (this binary re-executed with the same
/// environment), and summarises their ratios.
fn ratio_probes() -> RatioProbes {
    let exe = std::env::current_exe().expect("locate the running binary");
    let probes: Vec<RatioProbe> = (0..RATIO_PROBES)
        .map(|i| {
            let out = Command::new(&exe)
                .arg(RATIO_PROBE_ARG)
                .stderr(Stdio::inherit())
                .output()
                .expect("spawn ratio probe");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let rates: Vec<f64> = stdout
                .lines()
                .find_map(|line| line.strip_prefix(RATIO_PROBE_ARG))
                .map(|rest| {
                    rest.split_whitespace()
                        .filter_map(|v| v.parse().ok())
                        .collect()
                })
                .unwrap_or_default();
            let [ticks_per_sec, calibration_iterations_per_sec] = rates[..] else {
                eprintln!("error: ratio probe {i} failed ({}): {stdout:?}", out.status);
                std::process::exit(1)
            };
            RatioProbe {
                ticks_per_sec,
                calibration_iterations_per_sec,
                ratio: ticks_per_sec / calibration_iterations_per_sec,
            }
        })
        .collect();
    let mut ratios: Vec<f64> = probes.iter().map(|p| p.ratio).collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    let (min, max) = (ratios[0], ratios[ratios.len() - 1]);
    RatioProbes {
        probes,
        median,
        min,
        max,
        spread: (max - min) / median,
    }
}

/// One lane_sweep cell: two identically-warmed fleets of `width`
/// recovery engines sharing one forecaster march through the same
/// deliver/miss cadence; the miss ticks are timed per path (scalar
/// `tick_into(None)` vs lane gather → one slot-major `run_layout`
/// sweep → `tick_miss_prepared`) and every forecast is compared bit
/// for bit. The row also records the layout the plan would choose at
/// this width.
fn lane_sweep_run(
    name: &str,
    forecaster: &SharedForecaster,
    fx: &Fixture,
    replay: &[Vec<f64>],
    width: usize,
    rounds: usize,
) -> LaneSweepRow {
    use foreco_core::RecoveryEngine;
    use foreco_forecast::{plan_layout, BatchLane, ForecastScratch, Forecaster};

    let dof = fx.model.dof();
    let build_fleet = || -> Vec<RecoveryEngine> {
        (0..width)
            .map(|_| {
                RecoveryEngine::new(
                    Box::new(forecaster.clone()),
                    RecoveryConfig::for_model(&fx.model),
                    fx.model.clamp(&replay[0]),
                )
            })
            .collect()
    };
    let mut scalar = build_fleet();
    let mut batched = build_fleet();
    let mut out_a = vec![0.0f64; dof];
    let mut out_b = vec![0.0f64; dof];
    // Warm both fleets past the forecast horizon on real deliveries.
    let warmup = forecaster.history_len() + 2;
    for j in 0..warmup {
        let cmd = fx.model.clamp(&replay[j % replay.len()]);
        for e in scalar.iter_mut().chain(batched.iter_mut()) {
            e.tick_into(Some(&cmd), &mut out_a);
        }
    }

    let mut lane = BatchLane::new(forecaster.shared());
    let mut scratch = ForecastScratch::new();
    let mut bit_identical = true;
    let mut scalar_wall = Duration::ZERO;
    let mut batched_wall = Duration::ZERO;
    let mut mismatch_scratch = vec![0u64; width * dof];
    for round in 0..rounds {
        // Timed miss tick, scalar path: one virtual dispatch per engine.
        let t0 = Instant::now();
        for (i, e) in scalar.iter_mut().enumerate() {
            e.tick_into(None, &mut out_a);
            for (slot, v) in mismatch_scratch[i * dof..(i + 1) * dof]
                .iter_mut()
                .zip(&out_a)
            {
                *slot = v.to_bits();
            }
        }
        scalar_wall += t0.elapsed();

        // Timed miss tick, lane path.
        let t0 = Instant::now();
        lane.clear();
        for e in &batched {
            lane.push_window(&e.history_view());
        }
        lane.run_layout(LaneLayout::SlotMajor, &mut scratch);
        for (i, e) in batched.iter_mut().enumerate() {
            e.tick_miss_prepared(lane.result(i), &mut out_b);
            bit_identical &= mismatch_scratch[i * dof..(i + 1) * dof]
                .iter()
                .zip(&out_b)
                .all(|(&bits, v)| bits == v.to_bits());
        }
        batched_wall += t0.elapsed();

        // Untimed delivery keeps both fleets under the forecast horizon.
        let cmd = fx.model.clamp(&replay[round % replay.len()]);
        for e in scalar.iter_mut().chain(batched.iter_mut()) {
            e.tick_into(Some(&cmd), &mut out_a);
        }
    }
    let ticks = (rounds * width) as u64;
    let scalar_ns = scalar_wall.as_secs_f64() * 1e9 / ticks as f64;
    let slot_major_ns = batched_wall.as_secs_f64() * 1e9 / ticks as f64;
    LaneSweepRow {
        forecaster: name.to_string(),
        width,
        chosen: format!("{:?}", plan_layout(forecaster.cost_class(), width)),
        ticks,
        scalar_ns_per_tick: scalar_ns,
        slot_major_ns_per_tick: slot_major_ns,
        speedup_vs_scalar: scalar_ns / slot_major_ns,
        bit_identical,
    }
}

/// Runs the idle-heavy fleet under one scheduler and measures the
/// wakeup profile.
fn idle_heavy_run(
    scheduler: Scheduler,
    shards: usize,
    sessions: u64,
    active: u64,
    rounds: usize,
    fx: &Fixture,
    forecaster: &SharedForecaster,
) -> IdleRow {
    let config = ServiceConfig {
        shards,
        scheduler,
        control_capacity: 4096,
        // Headroom for every session's Opened + Completed plus drop
        // notifications, so nothing deadlocks on a full event buffer.
        event_capacity: sessions as usize * 3 + 1024,
        balancer: Some(BalancerConfig::default()),
        ..Default::default()
    };
    let service = Service::spawn(config);
    let handle = service.handle();
    let home = fx.model.home();
    let started = Instant::now();
    for id in 0..sessions {
        handle
            .open(SessionSpec::new(
                id,
                SourceSpec::Streamed {
                    initial: home.clone(),
                    inbox_capacity: 8,
                },
                ChannelSpec::ControlledLoss {
                    burst_len: 5,
                    burst_prob: 0.02,
                    seed: 60_000 + id,
                },
                RecoverySpec::FoReCo {
                    forecaster: forecaster.clone(),
                    config: RecoveryConfig::for_model(&fx.model),
                },
            ))
            .expect("open session");
    }
    // Settle phase: a freshly opened silent fleet runs eagerly through
    // forecast horizon + PID settling. Wait for it to reach steady
    // state before measuring — parked under the event scheduler, simply
    // ticking under the eager one.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let loads = handle.shard_loads();
        let settled = match scheduler {
            Scheduler::EventDriven => loads.iter().map(|l| l.parked).sum::<u64>() == sessions,
            Scheduler::Eager => loads.iter().map(|l| l.passes).sum::<u64>() > 200,
        };
        if settled {
            break;
        }
        assert!(Instant::now() < deadline, "fleet never settled: {loads:?}");
        while let EventWait::Event(_) = service.next_event_timeout(Duration::ZERO) {}
        std::thread::sleep(Duration::from_millis(1));
    }
    let baseline = handle.shard_loads();

    // Hot phase: the active set gets a command per round (~1 kHz), the
    // rest stay silent; the metric is how many sessions the pool
    // touches per pass while most of the fleet is idle.
    let mut drained = 0u64;
    for round in 0..rounds {
        for id in 0..active {
            let mut cmd = home.clone();
            let joint = round % home.len();
            cmd[joint] += 0.01 * ((round % 5) as f64 - 2.0);
            let _ = handle.inject(id, cmd); // backpressure = loss, by design
        }
        // Keep the event buffer flowing (Opened / CommandDropped).
        while let EventWait::Event(e) = service.next_event_timeout(Duration::ZERO) {
            if matches!(e, foreco_serve::SessionEvent::Completed { .. }) {
                drained += 1;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    // Sample before teardown: the close wave wakes the whole parked
    // fleet and would smear the hot-phase wakeup profile. Hot-phase
    // deltas against the post-settle baseline are the honest numbers.
    let sample = handle.shard_loads();
    let wall_s = started.elapsed().as_secs_f64();

    // Tear down: close everyone (waking the parked fleet), drain all
    // reports. A close that races a balancer migration reaches a shard
    // that no longer owns the session and comes back as
    // `UnknownSession`; it is sent again (the routing table has moved
    // on by then) until the session reports, or teardown would wait
    // forever on a session nobody closed.
    let mut total_session_ticks = 0u64;
    let mut completed = drained;
    let mut reported = vec![false; sessions as usize];
    let mut teardown_event = |e: foreco_serve::SessionEvent| match e {
        foreco_serve::SessionEvent::Completed { id, report } => {
            total_session_ticks += report.ticks;
            reported[id as usize] = true;
            1
        }
        foreco_serve::SessionEvent::UnknownSession { id } if !reported[id as usize] => {
            handle.close(id).expect("close session");
            0
        }
        _ => 0,
    };
    for id in 0..sessions {
        handle.close(id).expect("close session");
        while let EventWait::Event(e) = service.next_event_timeout(Duration::ZERO) {
            completed += teardown_event(e);
        }
    }
    while completed < sessions {
        match service.next_event() {
            Some(e) => completed += teardown_event(e),
            None => panic!("service died before every report"),
        }
    }
    service.join();

    let delta = |f: fn(&foreco_serve::ShardLoadSummary) -> u64| -> u64 {
        sample.iter().zip(&baseline).map(|(s, b)| f(s) - f(b)).sum()
    };
    let passes = delta(|l| l.passes);
    let wakeups = delta(|l| l.wakeups);
    // Sum of per-shard advances-per-pass over the hot phase: "how many
    // sessions does the pool touch per tick slot" — directly comparable
    // to the total session count (where the eager sweep pins it). A
    // shard that ran no passes (fully parked) contributes zero.
    let wakeups_per_tick: f64 = sample
        .iter()
        .zip(&baseline)
        .map(|(s, b)| {
            let passes = s.passes - b.passes;
            if passes == 0 {
                0.0
            } else {
                (s.wakeups - b.wakeups) as f64 / passes as f64
            }
        })
        .sum();
    IdleRow {
        scheduler: format!("{scheduler:?}"),
        shards,
        sessions,
        active_sessions: active,
        inject_rounds: rounds,
        wall_s,
        passes,
        wakeups,
        wakeups_per_tick,
        runnable_ratio: wakeups_per_tick / sessions as f64,
        timer_wakeups: delta(|l| l.timer_wakeups),
        traffic_wakeups: delta(|l| l.traffic_wakeups),
        balancer_migrations: delta(|l| l.migrated_out),
        total_session_ticks,
    }
}

/// Churns `sessions` short-lived sessions through the gateway on
/// worker threads while a scraper hammers the Prometheus endpoint and
/// a poll-mode subscriber drains the fleet event feed — the
/// observability soak. Loopback transport: the point is control-plane
/// behaviour under churn, not socket throughput (perfbench's
/// `udp_gateway` workload owns that).
fn fleet_soak_run(shards: usize, sessions: u64, ticks: usize) -> FleetSoakRow {
    use foreco_net::{ClientConfig, ForecoClient, Gateway, GatewayConfig};
    use std::sync::atomic::{AtomicBool, Ordering};

    let gateway = Gateway::spawn(ServiceConfig::with_shards(shards), GatewayConfig::default())
        .expect("spawn soak gateway");
    let trace = Dataset::record(Skill::Inexperienced, 1, 0.02, 404)
        .head(ticks)
        .commands;
    let cfg = ClientConfig {
        window: 64,
        ..ClientConfig::default()
    };
    let workers = 8u64.min(sessions.max(1));
    let stop = AtomicBool::new(false);
    let started = Instant::now();

    let (wall_s, session_ticks, snapshots, mut scrape_us, events_delivered, events_dropped) =
        std::thread::scope(|s| {
            let worker_handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let (gateway, trace, cfg) = (&gateway, &trace, &cfg);
                    s.spawn(move || {
                        let (mut ticks_done, mut snaps) = (0u64, 0u64);
                        let mut id = worker;
                        while id < sessions {
                            let mut client = ForecoClient::loopback(gateway, id);
                            client
                                .open(trace[0].clone(), trace.len().max(16))
                                .expect("soak open");
                            client.replay(trace, 0, cfg).expect("soak replay");
                            if id % 16 == 0 {
                                let snapshot = client.snapshot().expect("soak snapshot");
                                assert!(!snapshot.is_empty());
                                snaps += 1;
                            }
                            let (report, _) = client.close().expect("soak close");
                            ticks_done += report.ticks;
                            id += workers;
                        }
                        (ticks_done, snaps)
                    })
                })
                .collect();

            // Live scrapes against the churn, latency recorded per scrape.
            let scraper = s.spawn(|| {
                let mut client = ForecoClient::loopback(&gateway, u64::MAX);
                let mut latencies_us = Vec::new();
                loop {
                    let done = stop.load(Ordering::Relaxed);
                    let begun = Instant::now();
                    let body = client.metrics().expect("soak scrape");
                    latencies_us.push(begun.elapsed().as_secs_f64() * 1e6);
                    assert!(body.contains("foreco_ticks_total"), "scrape body sane");
                    if done {
                        return latencies_us;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            });

            // A poll-mode subscriber drinking the fleet's lifecycle.
            let subscriber = s.spawn(|| {
                let mut client = ForecoClient::loopback(&gateway, u64::MAX - 1);
                let subscription = client.subscribe().expect("soak subscribe");
                let (mut delivered, mut dropped) = (0u64, 0u64);
                loop {
                    let done = stop.load(Ordering::Relaxed);
                    let batch = client.poll_events(subscription, 4096).expect("soak poll");
                    delivered += batch.events.len() as u64;
                    dropped += batch.dropped;
                    if batch.events.is_empty() {
                        if done {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }
                client.unsubscribe(subscription).expect("soak unsubscribe");
                (delivered, dropped)
            });

            let (mut session_ticks, mut snapshots) = (0u64, 0u64);
            for handle in worker_handles {
                let (ticks_done, snaps) = handle.join().expect("soak worker");
                session_ticks += ticks_done;
                snapshots += snaps;
            }
            let wall_s = started.elapsed().as_secs_f64();
            stop.store(true, Ordering::Relaxed);
            let scrape_us = scraper.join().expect("soak scraper");
            let (delivered, dropped) = subscriber.join().expect("soak subscriber");
            (
                wall_s,
                session_ticks,
                snapshots,
                scrape_us,
                delivered,
                dropped,
            )
        });
    gateway.shutdown();

    scrape_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let percentile = |p: f64| scrape_us[((scrape_us.len() - 1) as f64 * p) as usize];
    FleetSoakRow {
        sessions,
        shards,
        ticks_per_session: ticks,
        wall_s,
        session_ticks,
        ticks_per_sec: session_ticks as f64 / wall_s,
        snapshots,
        scrapes: scrape_us.len() as u64,
        scrape_p50_us: percentile(0.50),
        scrape_p99_us: percentile(0.99),
        scrape_max_us: *scrape_us.last().expect("at least one scrape"),
        events_delivered,
        events_dropped,
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(RATIO_PROBE_ARG) {
        ratio_probe_child();
        return;
    }
    // Every knob is read before anything runs, so a typo fails fast.
    // env_knob rejects zero, which would otherwise leave summary()
    // with an empty registry (and this bench with nothing to report).
    let sessions = env_knob("FORECO_SERVE_SESSIONS", 1024) as u64;
    let cycles = env_knob("FORECO_SERVE_CYCLES", 1);
    let shard_counts = env_list_knob("FORECO_SERVE_SHARDS", &[1, 2, 4, 8]);
    let sweep_widths = env_list_knob(
        "FORECO_SERVE_SWEEP_WIDTHS",
        &[1, 2, 4, 7, 8, 9, 16, 32, 64, 128, 256, 512, 1024],
    );
    let sweep_ticks = env_knob("FORECO_SERVE_SWEEP_TICKS", 16_384);
    let idle_sessions = env_knob("FORECO_SERVE_IDLE_SESSIONS", 4096) as u64;
    let active_pct = env_knob("FORECO_SERVE_IDLE_ACTIVE_PCT", 2) as u64;
    let idle_rounds = env_knob("FORECO_SERVE_IDLE_ROUNDS", 400);
    let soak_sessions = env_knob("FORECO_SERVE_SOAK_SESSIONS", 10_000) as u64;
    let soak_ticks = env_knob("FORECO_SERVE_SOAK_TICKS", 32);
    let gate = |name: &str| -> Option<f64> {
        let raw = std::env::var(name).ok()?;
        Some(raw.trim().parse().unwrap_or_else(|_| {
            eprintln!("error: {name}={raw:?}: expected a number");
            std::process::exit(2)
        }))
    };
    // Optional CI gates. The ratio verdict is deferred to the end of
    // main: a breach must not discard the BENCH_serve.json artifact
    // needed to debug it.
    let ratio_budget = gate("FORECO_ENGINE_TICKS_RATIO");
    let wakeup_budget = gate("FORECO_SERVE_WAKEUP_BUDGET");
    let out_path =
        std::env::var("FORECO_SERVE_OUT").unwrap_or_else(|_| "BENCH_serve.json".to_string());

    banner(
        &format!("serve_throughput — {sessions} sessions over shards {shard_counts:?}"),
        "service-scale extension of §V (one recovery loop → thousands)",
    );

    let available_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let fx = Fixture::build();
    let forecaster = SharedForecaster::new(fx.var.clone());
    let replay = Arc::new(Dataset::record(Skill::Inexperienced, cycles, 0.02, 8).commands);
    println!(
        "workload: {} commands/session, {} sessions, forecaster {}, \
         {available_parallelism} hardware threads\n",
        replay.len(),
        sessions,
        forecaster.name()
    );
    println!(
        "{:>7} {:>12} {:>10} {:>14} {:>9} {:>10} {:>10}",
        "shards", "ticks", "wall [s]", "ticks/s", "speedup", "p50 [mm]", "p99 [mm]"
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut base_rate = 0.0f64;
    for &shards in &shard_counts {
        let (summary, wall_s) = run_fleet(shards, fleet_specs(sessions, &replay, &forecaster, &fx));
        let ticks_per_sec = summary.total_ticks as f64 / wall_s;
        if rows.is_empty() {
            base_rate = ticks_per_sec;
        }
        let speedup = ticks_per_sec / base_rate;
        println!(
            "{:>7} {:>12} {:>10.3} {:>14.0} {:>8.2}x {:>10.2} {:>10.2}",
            shards,
            summary.total_ticks,
            wall_s,
            ticks_per_sec,
            speedup,
            summary.rmse_mm.p50,
            summary.rmse_mm.p99
        );
        rows.push(Row {
            shards,
            sessions,
            total_ticks: summary.total_ticks,
            total_misses: summary.total_misses,
            wall_s,
            ticks_per_sec,
            speedup_vs_1_shard: speedup,
            rmse_p50_mm: summary.rmse_mm.p50,
            rmse_p99_mm: summary.rmse_mm.p99,
        });
    }

    // ---- calibration: engine speed over the frozen kernel's ----
    let ratio_probes = ratio_probes();
    let engine_vs_calibration_ratio = ratio_probes.median;
    let probe_ratios: Vec<String> = ratio_probes
        .probes
        .iter()
        .map(|p| format!("{:.4}", p.ratio))
        .collect();
    println!(
        "\nengine/calibration ratio over {RATIO_PROBES} fresh processes: [{}] — \
         median {engine_vs_calibration_ratio:.4}, spread {:.0}%",
        probe_ratios.join(", "),
        ratio_probes.spread * 100.0
    );

    // ---- lane_sweep: layout speedup vs width, the threshold evidence ----
    println!(
        "\nlane_sweep: slot-major vs scalar across widths \
         {sweep_widths:?} (~{sweep_ticks} miss ticks per cell)"
    );
    println!(
        "{:>10} {:>7} {:>12} {:>14} {:>14} {:>9} {:>14}",
        "forecaster", "width", "chosen", "scalar ns/t", "slot ns/t", "speedup", "bit-identical"
    );
    // Only the expensive families have a slot-major kernel to sweep;
    // the planner never gathers the cheap ones (their plan is Scalar at
    // every width).
    let sweep_replay = Dataset::record(Skill::Inexperienced, 8, 0.02, 23).commands;
    let families = [
        ("VAR", forecaster.clone()),
        (
            "Kalman-CV",
            SharedForecaster::new(KalmanCv::default_teleop(7, fx.model.dof())),
        ),
    ];
    let mut lane_sweep = Vec::new();
    for (name, shared) in &families {
        for &width in &sweep_widths {
            // Every cell times ~sweep_ticks miss ticks, however narrow.
            let rounds = (sweep_ticks / width).max(8);
            let row = lane_sweep_run(name, shared, &fx, &sweep_replay, width, rounds);
            println!(
                "{:>10} {:>7} {:>12} {:>14.1} {:>14.1} {:>8.2}x {:>14}",
                row.forecaster,
                row.width,
                row.chosen,
                row.scalar_ns_per_tick,
                row.slot_major_ns_per_tick,
                row.speedup_vs_scalar,
                row.bit_identical
            );
            if !row.bit_identical {
                eprintln!(
                    "FAIL: lane_sweep {} width {} diverged from the scalar path",
                    row.forecaster, row.width
                );
                std::process::exit(1);
            }
            lane_sweep.push(row);
        }
    }

    // ---- idle-heavy scenario: mostly-parked fleet, few hot sessions ----
    let active = (idle_sessions * active_pct / 100).max(1);
    let idle_shards = *shard_counts.iter().max().expect("non-empty shard list");
    println!(
        "\nidle-heavy: {idle_sessions} streamed sessions, {active} active ({active_pct}%), \
         {idle_shards} shards, {idle_rounds} inject rounds"
    );
    println!(
        "{:>12} {:>10} {:>12} {:>16} {:>15} {:>11}",
        "scheduler", "wall [s]", "passes", "wakeups/tick", "runnable ratio", "migrations"
    );
    let mut idle_heavy = Vec::new();
    for scheduler in [Scheduler::EventDriven, Scheduler::Eager] {
        // The eager sweep pays O(total sessions) per pass; a tenth of
        // the rounds is plenty to pin its (structural) wakeup rate.
        let sched_rounds = match scheduler {
            Scheduler::EventDriven => idle_rounds,
            Scheduler::Eager => (idle_rounds / 10).max(20),
        };
        let row = idle_heavy_run(
            scheduler,
            idle_shards,
            idle_sessions,
            active,
            sched_rounds,
            &fx,
            &forecaster,
        );
        println!(
            "{:>12} {:>10.3} {:>12} {:>16.1} {:>15.4} {:>11}",
            row.scheduler,
            row.wall_s,
            row.passes,
            row.wakeups_per_tick,
            row.runnable_ratio,
            row.balancer_migrations
        );
        idle_heavy.push(row);
    }

    // Optional CI gate: idle-heavy wakeups/tick must track the active
    // population, not the fleet size.
    if let Some(budget) = wakeup_budget {
        let event_row = &idle_heavy[0];
        assert_eq!(event_row.scheduler, "EventDriven");
        if event_row.wakeups_per_tick > budget {
            eprintln!(
                "FAIL: idle-heavy wakeups/tick {:.1} exceeds budget {budget} \
                 ({} sessions, {} active) — scheduler regressed toward O(total) sweeps",
                event_row.wakeups_per_tick, event_row.sessions, event_row.active_sessions
            );
            std::process::exit(1);
        }
        println!(
            "wakeup budget: {:.1} ≤ {budget} (OK)",
            event_row.wakeups_per_tick
        );
    }

    // ---- fleet soak: observability plane under open/close churn ----
    println!(
        "\nfleet-soak: {soak_sessions} sessions × {soak_ticks} ticks churned over \
         {idle_shards} shards with live scrapes and a fleet-event subscriber"
    );
    let fleet_soak = fleet_soak_run(idle_shards, soak_sessions, soak_ticks);
    println!(
        "{:>10} {:>14} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "wall [s]", "ticks/s", "snapshots", "scrapes", "scrape p99", "events", "dropped"
    );
    println!(
        "{:>10.3} {:>14.0} {:>10} {:>10} {:>9.0} µs {:>12} {:>10}",
        fleet_soak.wall_s,
        fleet_soak.ticks_per_sec,
        fleet_soak.snapshots,
        fleet_soak.scrapes,
        fleet_soak.scrape_p99_us,
        fleet_soak.events_delivered,
        fleet_soak.events_dropped
    );
    assert_eq!(
        fleet_soak.session_ticks,
        soak_sessions * soak_ticks as u64,
        "every soak session must run its full trace"
    );

    let output = Output {
        bench: "serve_throughput".to_string(),
        sessions,
        ticks_per_session: replay.len(),
        forecaster: forecaster.name().to_string(),
        available_parallelism,
        shard_counts: shard_counts.clone(),
        engine_vs_calibration_ratio,
        ratio_probes,
        rows,
        lane_sweep,
        idle_heavy,
        fleet_soak,
    };
    let json = serde_json::to_string_pretty(&output).expect("serialise bench output");
    std::fs::write(&out_path, &json).expect("write bench output");
    println!("\nwrote {out_path}");

    // Deferred ratio-gate verdict (see above): every scenario has run
    // and the artifact is on disk, so a breach still leaves the full
    // diagnostic trail behind. The gate is dimensionless — engine
    // throughput over the frozen calibration kernel's speed, both
    // measured in each probe process on this container — so it
    // transfers across machines where an absolute ticks/s floor did
    // not; the median over fresh processes keeps one slow process from
    // flipping it.
    if let Some(budget) = ratio_budget {
        if output.engine_vs_calibration_ratio < budget {
            eprintln!(
                "FAIL: median engine/calibration ratio {:.4} below budget {budget} — \
                 the engine hot path regressed relative to this container's \
                 f64 speed (for ns/tick and allocs/tick per layer, run \
                 `cargo run --release --manifest-path perfbench/Cargo.toml -- \
                 --workload burst_fleet --seed 1 --seconds 10 --trace 1` and read \
                 session.advance_ns, recovery.miss_ns and session.allocs_per_tick)",
                output.engine_vs_calibration_ratio
            );
            std::process::exit(1);
        }
        println!(
            "engine ratio gate: {:.4} ≥ {budget} (OK)",
            output.engine_vs_calibration_ratio
        );
    }
}
