//! The traced run's micro-timings: each layer's public entry point
//! called directly on the workload's own inputs, so the ledger can set
//! the sum of the parts against the whole `Session::advance`.

use crate::common::{Fixture, Outcome, SHARDS};
use crate::lifecycle::{self, Slot};
use crate::stats::median;
use crate::trace::{self, Tracer};
use foreco_core::{
    Arrival, Channel, ControlledLossChannel, IdealChannel, JammedChannel, RecoveryConfig,
    RecoveryEngine,
};
use foreco_forecast::{plan_layout, BatchLane, ForecastScratch, Forecaster};
use foreco_net::{
    wire, ControlRequest, ControlResponse, ControlWire, DataWire, Gateway, GatewayConfig,
};
use foreco_robot::{DriverConfig, RobotDriver};
use foreco_serve::{
    render_prometheus, Advance, ChannelSpec, Service, ServiceConfig, Session, SessionId,
    SessionSnapshot, SessionSpec, SourceSpec,
};
use std::hint::black_box;
use std::time::Instant;

/// Calls timed per micro-benchmark (fewer where one call is slow).
const CALLS: usize = 100_000;

/// What the micro-timings run on.
pub struct LayerInputs<'a> {
    /// The deployment.
    pub fx: &'a Fixture,
    /// Session specs exactly as the workload opens them.
    pub solo: Vec<SessionSpec>,
    /// For gated specs: the slot verdicts the workload feeds.
    pub slot: Option<&'a dyn Fn(SessionId, u64) -> Slot<'a>>,
    /// The workload's channel model (one session's).
    pub channel: ChannelSpec,
    /// Lane width the workload's shard passes reach.
    pub lane_width: usize,
    /// `try_inject` cost the workload measured itself, if it feeds a
    /// fleet; otherwise a small gated fleet is fed here.
    pub try_inject_ns: Option<f64>,
}

/// The figures the workload combines with its own measurements.
pub struct Ledger {
    /// Mean `Session::advance` cost, ns.
    pub advance_ns: f64,
    /// Mean `LoopbackWire::send` (the ingress path without a socket), ns.
    pub ingress_ns: f64,
    /// Median `Open` through `LoopbackControl`, µs.
    pub open_core_us: f64,
}

/// Median cost of reading the clock twice, subtracted from per-call
/// timings.
fn clock_overhead_ns() -> f64 {
    let samples: Vec<f64> = (0..10_000)
        .map(|_| {
            let t0 = Instant::now();
            let t1 = Instant::now();
            t1.duration_since(t0).as_nanos() as f64
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

fn build_channel(spec: &ChannelSpec) -> Box<dyn Channel> {
    match spec {
        ChannelSpec::Ideal => Box::new(IdealChannel),
        ChannelSpec::ControlledLoss {
            burst_len,
            burst_prob,
            seed,
        } => Box::new(ControlledLossChannel::new(*burst_len, *burst_prob, *seed)),
        ChannelSpec::Jammed {
            link,
            tolerance,
            seed,
        } => Box::new(JammedChannel::new(*link, *tolerance, *seed)),
    }
}

/// The command stream session `spec` sees: `(command, on_time)` for
/// `ticks` ticks — from the workload's slot verdicts for gated specs,
/// from the replayed trace through the workload's channel otherwise.
fn stream(inputs: &LayerInputs<'_>, spec: &SessionSpec, ticks: usize) -> Vec<(Vec<f64>, bool)> {
    let trace = inputs.fx.trace(spec.id);
    match inputs.slot {
        Some(slot) => (0..ticks as u64)
            .map(|s| match slot(spec.id, s) {
                Some(cmd) => (cmd.to_vec(), true),
                None => (trace[s as usize % trace.len()].clone(), false),
            })
            .collect(),
        None => {
            let fates = build_channel(&inputs.channel).fates(ticks);
            (0..ticks)
                .map(|i| {
                    (
                        trace[i % trace.len()].clone(),
                        matches!(fates[i], Arrival::OnTime),
                    )
                })
                .collect()
        }
    }
}

/// Runs every micro-timing and records its per-layer metrics.
pub fn measure(out: &mut Outcome, inputs: &LayerInputs<'_>, tracer: &Tracer) -> Ledger {
    let clock = clock_overhead_ns();
    let session = tracer.scope("layers.session", None, |_| session_layer(out, inputs));
    let engine = tracer.scope("layers.engine", None, |_| engine_layers(out, inputs, clock));
    let fate_ns = tracer.scope("layers.channel", None, |_| channel_layer(out, inputs));
    tracer.scope("layers.wire", None, |_| wire_layer(out, inputs));
    let gateway = tracer.scope("layers.gateway", None, |_| gateway_layers(out, inputs));
    match inputs.try_inject_ns {
        Some(ns) => out.layer("service.try_inject_ns", ns, "ns"),
        None => tracer.scope("layers.service", None, |_| service_layer(out, inputs)),
    }
    tracer.scope("layers.snapshot", None, |_| snapshot_layer(out, inputs));
    // One session-tick runs two drivers (reference and executed), one
    // engine tick (hit or miss, in the workload's mix) and one fate.
    let parts = 2.0 * engine.driver_ns
        + engine.hit_share * engine.hit_ns
        + (1.0 - engine.hit_share) * engine.miss_ns
        + fate_ns;
    out.layer("ledger.unattributed_share", 1.0 - parts / session, "share");
    Ledger {
        advance_ns: session,
        ingress_ns: gateway.0,
        open_core_us: gateway.1,
    }
}

/// `Session::advance` on solo sessions of the workload's own specs:
/// ns per tick, allocations per steady tick, heap bytes per session.
fn session_layer(out: &mut Outcome, inputs: &LayerInputs<'_>) -> f64 {
    const WARMUP: usize = 50;
    let model = &inputs.fx.model;
    let (mut ns, mut ticks, mut allocs, mut steady, mut heap) =
        (0u128, 0u64, 0u64, 0u64, Vec::new());
    let mut k = 0;
    while ticks < CALLS as u64 * 2 {
        let spec = &inputs.solo[k % inputs.solo.len()];
        k += 1;
        let feed = inputs.slot.map(|_| stream(inputs, spec, 800));
        let b0 = trace::thread_bytes();
        let mut session = Session::open(spec, model);
        for i in 0.. {
            if let Some(feed) = &feed {
                let Some((cmd, on_time)) = feed.get(i) else {
                    break;
                };
                if *on_time {
                    session.offer(cmd.clone());
                } else {
                    session.offer_miss();
                }
            }
            let a0 = trace::thread_allocs();
            let t0 = Instant::now();
            let step = session.advance();
            let dt = t0.elapsed().as_nanos();
            let da = trace::thread_allocs() - a0;
            match step {
                Advance::Completed(_) => break,
                Advance::Idle(_) => continue,
                Advance::Ticked(_) => {}
            }
            ns += dt;
            ticks += 1;
            if i == WARMUP {
                heap.push((trace::thread_bytes() - b0) as f64);
            }
            if i > WARMUP {
                allocs += da;
                steady += 1;
            }
        }
        black_box(&session);
    }
    let advance_ns = ns as f64 / ticks as f64;
    out.layer("session.advance_ns", advance_ns, "ns");
    out.layer(
        "session.allocs_per_tick",
        allocs as f64 / steady.max(1) as f64,
        "count",
    );
    out.layer("session.heap_bytes", median(&heap).unwrap_or(0.0), "B");
    advance_ns
}

struct EngineCosts {
    hit_ns: f64,
    miss_ns: f64,
    hit_share: f64,
    driver_ns: f64,
}

/// `RecoveryEngine::tick_into` split by hit and miss, the forecaster's
/// `forecast_into`, a `BatchLane` at the workload's lane width, and
/// `RobotDriver::tick` — all on the workload's command stream.
fn engine_layers(out: &mut Outcome, inputs: &LayerInputs<'_>, clock: f64) -> EngineCosts {
    let fx = inputs.fx;
    let model = &fx.model;
    let forecaster = fx.forecaster.clone();
    let dims = model.dof();
    let (mut hit, mut hits, mut miss, mut misses) = (0.0, 0u64, 0.0, 0u64);
    let (mut var, mut vars) = (0.0, 0u64);
    let mut scratch = ForecastScratch::new();
    let mut out_row = vec![0.0; dims];
    let mut k = 0;
    while hits + misses < CALLS as u64 * 2 {
        let spec = &inputs.solo[k % inputs.solo.len()];
        k += 1;
        let feed = stream(inputs, spec, 2000);
        let mut engine = RecoveryEngine::new(
            Box::new(forecaster.clone()),
            RecoveryConfig::for_model(model),
            model.clamp(&feed[0].0),
        );
        for (cmd, on_time) in &feed {
            if *on_time {
                let t0 = Instant::now();
                engine.tick_into(Some(cmd), &mut out_row);
                hit += t0.elapsed().as_nanos() as f64 - clock;
                hits += 1;
            } else {
                if engine.miss_would_forecast() {
                    let t0 = Instant::now();
                    forecaster.forecast_into(&engine.history_view(), &mut scratch, &mut out_row);
                    var += t0.elapsed().as_nanos() as f64 - clock;
                    vars += 1;
                }
                let t0 = Instant::now();
                engine.tick_into(None, &mut out_row);
                miss += t0.elapsed().as_nanos() as f64 - clock;
                misses += 1;
            }
            black_box(&out_row);
        }
    }
    let hit_ns = hit / hits.max(1) as f64;
    let miss_ns = miss / misses.max(1) as f64;
    out.layer("recovery.hit_ns", hit_ns, "ns");
    out.layer("recovery.miss_ns", miss_ns, "ns");
    out.layer("forecast.var_ns", var / vars.max(1) as f64, "ns");

    // One lane at the width the workload's passes reach, in the layout
    // the planner picks there.
    let width = inputs.lane_width.max(1);
    let trace = fx.trace(0);
    let mut engines: Vec<RecoveryEngine> = (0..width)
        .map(|_| {
            RecoveryEngine::new(
                Box::new(forecaster.clone()),
                RecoveryConfig::for_model(model),
                model.clamp(&trace[0]),
            )
        })
        .collect();
    for (j, cmd) in trace.iter().take(forecaster.history_len() + 2).enumerate() {
        for e in &mut engines {
            e.tick_into(Some(cmd), &mut out_row);
        }
        black_box(j);
    }
    let mut lane = BatchLane::new(forecaster.shared());
    let layout = plan_layout(forecaster.cost_class(), width);
    let rounds = (CALLS / width).max(16);
    let t0 = Instant::now();
    for _ in 0..rounds {
        lane.clear();
        for e in &engines {
            lane.push_window(&e.history_view());
        }
        lane.run_layout(layout, &mut scratch);
        black_box(lane.result(0));
    }
    let lane_ns = t0.elapsed().as_nanos() as f64 / (rounds * width) as f64;
    out.layer("batch.lane_ns_per_member", lane_ns, "ns");
    out.note(format!("layers  lane width {width}, layout {layout:?}"));

    let mut driver = RobotDriver::new(
        model.clone(),
        DriverConfig::default(),
        &model.clamp(&trace[0]),
    );
    driver.set_recording(false);
    let t0 = Instant::now();
    for i in 0..CALLS {
        black_box(driver.tick(Some(&trace[i % trace.len()])));
    }
    let driver_ns = t0.elapsed().as_nanos() as f64 / CALLS as f64;
    out.layer("driver.tick_ns", driver_ns, "ns");
    EngineCosts {
        hit_ns,
        miss_ns,
        hit_share: hits as f64 / (hits + misses).max(1) as f64,
        driver_ns,
    }
}

/// `Channel::fates` of the workload's channel model, per command.
fn channel_layer(out: &mut Outcome, inputs: &LayerInputs<'_>) -> f64 {
    let mut channel = build_channel(&inputs.channel);
    let chunk = 64;
    let t0 = Instant::now();
    for _ in 0..CALLS / chunk {
        black_box(channel.fates(chunk));
    }
    let ns = t0.elapsed().as_nanos() as f64 / (CALLS / chunk * chunk) as f64;
    out.layer("channel.fate_ns", ns, "ns");
    ns
}

/// `wire::encode_command` and `wire::decode` on the workload's commands.
fn wire_layer(out: &mut Outcome, inputs: &LayerInputs<'_>) {
    let trace = inputs.fx.trace(0);
    let mut buf = [0u8; wire::MAX_FRAME];
    let t0 = Instant::now();
    for i in 0..CALLS {
        let len = wire::encode_command(&mut buf, 7, i as u64, i as u64, &trace[i % trace.len()])
            .expect("frame fits");
        black_box(len);
    }
    let encode_ns = t0.elapsed().as_nanos() as f64 / CALLS as f64;
    let len = wire::encode_command(&mut buf, 7, 1, 1, &trace[0]).expect("frame fits");
    let t0 = Instant::now();
    for _ in 0..CALLS {
        let frame = wire::decode(black_box(&buf[..len])).expect("frame decodes");
        black_box(frame.seq);
    }
    let decode_ns = t0.elapsed().as_nanos() as f64 / CALLS as f64;
    out.layer("wire.encode_ns", encode_ns, "ns");
    out.layer("wire.decode_ns", decode_ns, "ns");
}

/// The gateway's in-process twin: `Open`/`Close` through
/// `LoopbackControl`, datagrams through `LoopbackWire` (the same
/// ingress code as the UDP thread, without a socket), and a telemetry
/// render. Returns (ingress ns, open µs).
fn gateway_layers(out: &mut Outcome, inputs: &LayerInputs<'_>) -> (f64, f64) {
    const SESSIONS: u64 = 16;
    const FRAMES: u64 = 1000;
    let fx = inputs.fx;
    let gateway = Gateway::spawn(
        ServiceConfig::with_shards(SHARDS),
        GatewayConfig {
            recovery: fx.recovery(),
            ..GatewayConfig::default()
        },
    )
    .expect("spawn loopback gateway");
    let (mut data, mut control) = gateway.loopback();
    let base = 1 << 40;
    let mut opens = Vec::new();
    for id in base..base + SESSIONS {
        let t0 = Instant::now();
        let reply = control.request(&ControlRequest::Open {
            id,
            initial: fx.trace(id)[0].clone(),
            inbox_capacity: lifecycle::INBOX,
        });
        opens.push(t0.elapsed().as_secs_f64() * 1e6);
        assert!(
            matches!(reply, Ok(ControlResponse::Opened { .. })),
            "loopback open: {reply:?}"
        );
    }
    let mut buf = [0u8; wire::MAX_FRAME];
    let mut ack = [0u8; wire::MAX_FRAME];
    let mut ns = 0u128;
    for seq in 0..FRAMES {
        for id in base..base + SESSIONS {
            let trace = fx.trace(id);
            let len =
                wire::encode_command(&mut buf, id, seq, seq, &trace[seq as usize % trace.len()])
                    .expect("frame fits");
            let t0 = Instant::now();
            data.send(&buf[..len]).expect("loopback send");
            ns += t0.elapsed().as_nanos();
            while data.recv(&mut ack).expect("loopback recv").is_some() {}
        }
    }
    let ingress_ns = ns as f64 / (FRAMES * SESSIONS) as f64;
    let mut closes = Vec::new();
    for id in base..base + SESSIONS {
        let t0 = Instant::now();
        let reply = control.request(&ControlRequest::Close { id });
        closes.push(t0.elapsed().as_secs_f64() * 1e6);
        assert!(
            matches!(reply, Ok(ControlResponse::Closed { .. })),
            "loopback close: {reply:?}"
        );
    }
    let handle = gateway.service_handle();
    let renders: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            let body = render_prometheus(&handle.telemetry(), None);
            black_box(body.len());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    gateway.shutdown();
    let open_us = median(&opens).unwrap_or(0.0);
    let close_us = median(&closes).unwrap_or(0.0);
    out.layer("ingress.handle_ns", ingress_ns, "ns");
    out.layer("control.open_core_us", open_us, "us");
    out.layer("control.close_core_us", close_us, "us");
    out.layer("telemetry.render_us", median(&renders).unwrap_or(0.0), "us");
    (ingress_ns, open_us)
}

/// `ServiceHandle::try_inject` into gated sessions of the workload's
/// channel model, on a 2-shard service.
fn service_layer(out: &mut Outcome, inputs: &LayerInputs<'_>) {
    const SESSIONS: u64 = 64;
    const SLOTS: u64 = 400;
    let fx = inputs.fx;
    let specs: Vec<SessionSpec> = (0..SESSIONS)
        .map(|id| {
            SessionSpec::new(
                id,
                SourceSpec::Gated {
                    initial: fx.trace(id)[0].clone(),
                    inbox_capacity: lifecycle::INBOX,
                },
                inputs.channel.clone(),
                fx.recovery(),
            )
        })
        .collect();
    let service = Service::spawn(lifecycle::service_config(specs.len(), SHARDS));
    let ids: Vec<SessionId> = specs.iter().map(|s| s.id).collect();
    let _ = lifecycle::open_all(&service, specs);
    let slot = |id: u64, s: u64| -> Slot<'_> {
        let trace = fx.trace(id);
        Some(&trace[s as usize % trace.len()])
    };
    let feed = lifecycle::feed(&service.handle(), &ids, 0, SLOTS, slot, true);
    lifecycle::wait_ticks(&service.handle(), SESSIONS * SLOTS);
    let _ = lifecycle::close_all(&service, &ids);
    service.join();
    out.layer(
        "service.try_inject_ns",
        feed.inject_ns as f64 / feed.injects.max(1) as f64,
        "ns",
    );
}

/// `SessionSnapshot::encode_into` and `from_bytes` on mid-run
/// snapshots of the workload's sessions, and the forecaster's share of
/// the frame.
fn snapshot_layer(out: &mut Outcome, inputs: &LayerInputs<'_>) {
    let model = &inputs.fx.model;
    let snaps: Vec<SessionSnapshot> = inputs
        .solo
        .iter()
        .take(16)
        .map(|spec| {
            let mut session = Session::open(spec, model);
            let feed = inputs.slot.map(|_| stream(inputs, spec, 300));
            for i in 0..300 {
                if let Some(feed) = &feed {
                    let (cmd, on_time) = &feed[i];
                    if *on_time {
                        session.offer(cmd.clone());
                    } else {
                        session.offer_miss();
                    }
                }
                if matches!(session.advance(), Advance::Completed(_)) {
                    break;
                }
            }
            session.snapshot().expect("snapshotable session")
        })
        .collect();
    // Fleets that replay an unstored trace carry it inside every
    // snapshot, so frames range from a few KB to tens of KB: time a
    // fixed budget of bytes rather than a fixed count.
    let frames: Vec<Vec<u8>> = snaps.iter().map(SessionSnapshot::to_bytes).collect();
    let frame_bytes: usize = frames.iter().map(Vec::len).sum();
    let rounds = (32 << 20) / frame_bytes.max(1);
    let rounds = rounds.clamp(10, 400);
    let mut buf = Vec::new();
    let t0 = Instant::now();
    for _ in 0..rounds {
        for snap in &snaps {
            buf.clear();
            snap.encode_into(&mut buf);
            black_box(buf.len());
        }
    }
    let encode_ns = t0.elapsed().as_nanos() as f64 / (rounds * snaps.len()) as f64;
    let t0 = Instant::now();
    for _ in 0..rounds {
        for frame in &frames {
            black_box(SessionSnapshot::from_bytes(frame).expect("frame decodes"));
        }
    }
    let decode_ns = t0.elapsed().as_nanos() as f64 / (rounds * frames.len()) as f64;
    let forecaster_bytes: usize = snaps
        .iter()
        .filter_map(|s| s.engine.as_ref())
        .map(|e| serde_json::to_string(&e.forecaster).map_or(0, |j| j.len()))
        .sum();
    out.layer("snapshot.encode_ns", encode_ns, "ns");
    out.layer("snapshot.decode_ns", decode_ns, "ns");
    out.layer(
        "snapshot.forecaster_bytes_share",
        forecaster_bytes as f64 / frame_bytes.max(1) as f64,
        "share",
    );
}
