//! `udp_gateway`: 128 remote operators at 50 Hz against the socket
//! gateway. Open loop — every datagram leaves at its due instant
//! whatever the gateway does — over one UDP socket, with attach,
//! detach and a 1 Hz metrics scrape over one TCP connection.

use crate::common::{digest, mix, timed_setup, unit, Fixture, Outcome, SHARDS};
use crate::layers::{self, LayerInputs};
use crate::lifecycle::{self, Slot};
use crate::stats::{match_acks, median, percentile};
use crate::trace::{self, Tracer};
use foreco_net::{
    wire, ControlRequest, ControlResponse, ControlWire, DataWire, Gateway, GatewayConfig,
    IngressConfig, TcpControl,
};
use foreco_serve::{
    ChannelSpec, ServiceConfig, ServiceHandle, SessionId, SessionReport, SessionSpec, SourceSpec,
};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Remote operators.
const OPERATORS: u64 = 128;
/// Command period Ω.
const SLOT: Duration = Duration::from_millis(20);
/// Share of frames silently never sent.
const LOSS: f64 = 0.02;
/// Share of frames sent `LATE_DEPTH` slots late — past the reorder
/// window, so they take the §VII-C late path.
const LATE: f64 = 0.01;
const LATE_DEPTH: u64 = 12;
/// Share of frames swapped with their successor.
const SWAP: f64 = 0.02;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 41;
/// Failover hops of the quiet operator sessions after the traffic.
const HOPS: usize = 48;
/// Sessions whose datagrams the OS may drop before the run is invalid.
/// They saw another frame sequence than the plan, so the replay check
/// leaves them out; an eighth of the operators, because one 40 ms stall
/// of a shared host overflows the gateway's socket buffer and drops one
/// datagram each of the operators whose phase falls in it.
const MAX_OS_DISTURBED: usize = OPERATORS as usize / 8;
/// Metrics scrape period.
const SCRAPE_EVERY: Duration = Duration::from_secs(1);
/// How long acks may trail the last datagram before the run stops
/// waiting for them.
const ACK_GRACE: Duration = Duration::from_secs(2);

/// One session's wire behaviour: `(due_slot, seq)` in send order, for
/// slots `0..slots`. Seeded, so the UDP run and its loopback replay
/// send the same sequence.
fn schedule(seed: u64, id: SessionId, slots: u64) -> Vec<(u64, u64)> {
    let mut events = Vec::with_capacity(slots as usize);
    let mut s = 0;
    while s < slots {
        let r = unit(seed, mix(id, 0x0DD), s);
        if r < LOSS {
            s += 1;
        } else if r < LOSS + LATE {
            events.push((s + LATE_DEPTH, s));
            s += 1;
        } else if r < LOSS + LATE + SWAP && s + 1 < slots {
            events.push((s, s + 1));
            events.push((s + 1, s));
            s += 2;
        } else {
            events.push((s, s));
            s += 1;
        }
    }
    events.retain(|&(due, _)| due < slots);
    // Stable: a deferred frame leaves before the frame due in its slot.
    events.sort_by_key(|&(due, _)| due);
    events
}

/// A datagram of the open-loop plan.
#[derive(Clone, Copy)]
struct Datagram {
    due_ns: u64,
    session: SessionId,
    seq: u64,
}

/// Every operator's schedule merged by due instant; operator `i` is
/// phase-shifted by `i/128` of a slot.
fn plan(seed: u64, slots: u64) -> Vec<Datagram> {
    let slot_ns = SLOT.as_nanos() as u64;
    let mut all: Vec<Datagram> = (0..OPERATORS)
        .flat_map(|id| {
            let phase = id * slot_ns / OPERATORS;
            schedule(seed, id, slots)
                .into_iter()
                .map(move |(due, seq)| Datagram {
                    due_ns: due * slot_ns + phase,
                    session: id,
                    seq,
                })
        })
        .collect();
    all.sort_by_key(|d| (d.due_ns, d.session));
    all
}

/// A session as the gateway opens it: gated, ideal channel (the wire
/// is the impairment), FoReCo around the shared model.
fn gated_spec(fx: &Fixture, id: SessionId) -> SessionSpec {
    SessionSpec::new(
        id,
        SourceSpec::Gated {
            initial: fx.trace(id)[0].clone(),
            inbox_capacity: lifecycle::INBOX,
        },
        ChannelSpec::Ideal,
        fx.recovery(),
    )
}

fn command(fx: &Fixture, id: SessionId, seq: u64) -> &[f64] {
    let trace = fx.trace(id);
    &trace[seq as usize % trace.len()]
}

/// What the traffic phase saw.
#[derive(Default)]
struct Traffic {
    sends: Vec<(u64, u64)>,
    acks: Vec<(u64, u64)>,
    lag_ns: Vec<f64>,
    settle_ms: Vec<f64>,
    send_errors: u64,
    scrape_ms: Vec<f64>,
    scrape_rejects: u64,
    /// From the first due instant to the end of the sending, seconds.
    wall_s: f64,
    /// Session-ticks the gateway completed in `wall_s`.
    ticks: u64,
}

/// Sends the plan on schedule from one thread while another receives
/// acks; once a second the calling thread scrapes metrics over TCP.
/// The gateway's ticks are read as soon as the last datagram is sent,
/// so a gateway that falls behind the senders completes fewer.
fn traffic(
    socket: &UdpSocket,
    control: &mut TcpControl,
    handle: &ServiceHandle,
    datagrams: &[Datagram],
    fx: &Fixture,
    tracer: &Tracer,
    traced_from_ns: u64,
) -> Traffic {
    let epoch = Instant::now() + Duration::from_millis(50);
    let at = |ns: u64| epoch + Duration::from_nanos(ns);
    let since = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let slot_ns = SLOT.as_nanos() as u64;
    let sender_done = AtomicBool::new(false);
    let receiver_socket = socket.try_clone().expect("clone UDP socket");
    receiver_socket
        .set_read_timeout(Some(Duration::from_millis(5)))
        .expect("UDP read timeout");
    let mut out = Traffic::default();
    let ticks0 = handle.telemetry().total_ticks();
    std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut buf = [0u8; wire::MAX_FRAME];
            let (mut sends, mut lag, mut errors) = (
                Vec::with_capacity(datagrams.len()),
                Vec::with_capacity(datagrams.len()),
                0,
            );
            for d in datagrams {
                let due = at(d.due_ns);
                let now = Instant::now();
                if due > now {
                    // Sleep, never spin: on two cores a spinning
                    // generator takes a core from the gateway.
                    std::thread::sleep(due - now);
                }
                let len = wire::encode_command(
                    &mut buf,
                    d.session,
                    d.seq,
                    d.seq,
                    command(fx, d.session, d.seq),
                )
                .expect("frame fits");
                let t0 = Instant::now();
                if socket.send(&buf[..len]).is_err() {
                    errors += 1;
                    continue;
                }
                let t1 = Instant::now();
                if d.due_ns >= traced_from_ns {
                    tracer.record("udp.send", None, t0, t1);
                }
                sends.push((d.session, since(t0)));
                lag.push(t0.saturating_duration_since(due).as_nanos() as f64);
            }
            let ticks = handle.telemetry().total_ticks() - ticks0;
            let wall_s = epoch.elapsed().as_secs_f64();
            sender_done.store(true, Ordering::SeqCst);
            (wall_s, ticks, (sends, lag, errors))
        });
        let receiver = s.spawn(|| {
            let mut buf = [0u8; wire::MAX_FRAME + 64];
            let mut acks = Vec::with_capacity(datagrams.len());
            let mut watermark = vec![0u64; OPERATORS as usize];
            let mut settle = Vec::with_capacity(datagrams.len());
            let mut done_at: Option<Instant> = None;
            loop {
                if sender_done.load(Ordering::SeqCst) {
                    let t = *done_at.get_or_insert_with(Instant::now);
                    if acks.len() >= datagrams.len() || t.elapsed() > ACK_GRACE {
                        break;
                    }
                }
                let Ok(len) = receiver_socket.recv(&mut buf) else {
                    continue;
                };
                let t = Instant::now();
                let Ok(frame) = wire::decode(&buf[..len]) else {
                    continue;
                };
                let (id, ack) = (frame.session, frame.seq);
                let ns = since(t);
                acks.push((id, ns));
                if ns >= traced_from_ns {
                    tracer.record("udp.ack", None, t, Instant::now());
                }
                // Every slot below the ack watermark is settled:
                // delivered, patched or flushed as lost.
                if let Some(w) = watermark.get_mut(id as usize) {
                    let phase = id * slot_ns / OPERATORS;
                    for slot in *w..ack {
                        settle.push((ns as f64 - (slot * slot_ns + phase) as f64) / 1e6);
                    }
                    *w = (*w).max(ack);
                }
            }
            (acks, settle)
        });
        let mut next_scrape = Instant::now() + SCRAPE_EVERY;
        while !sender_done.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(20));
            if Instant::now() >= next_scrape {
                next_scrape += SCRAPE_EVERY;
                let open = tracer.open("control.metrics", None);
                let s0 = Instant::now();
                match control.request(&ControlRequest::Metrics) {
                    Ok(ControlResponse::Metrics { body })
                        if body.contains("foreco_ticks_total") =>
                    {
                        out.scrape_ms.push(s0.elapsed().as_secs_f64() * 1e3);
                    }
                    _ => out.scrape_rejects += 1,
                }
                tracer.close(open);
            }
        }
        let (wall_s, ticks, (sends, lag, errors)) = sender.join().expect("sender thread");
        out.wall_s = wall_s;
        out.ticks = ticks;
        let (acks, settle) = receiver.join().expect("receiver thread");
        out.sends = sends;
        out.lag_ns = lag;
        out.send_errors = errors;
        out.acks = acks;
        out.settle_ms = settle;
    });
    out
}

/// One TCP control round trip, timed; `None` when rejected or failed.
fn request(
    control: &mut TcpControl,
    req: &ControlRequest,
    tracer: &Tracer,
    name: &'static str,
) -> (f64, Option<ControlResponse>) {
    let open = tracer.open(name, None);
    let t0 = Instant::now();
    let reply = control.request(req);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    tracer.close(open);
    match reply {
        Ok(ControlResponse::Rejected { .. }) | Err(_) => (ms, None),
        Ok(r) => (ms, Some(r)),
    }
}

struct Setup {
    fx: Fixture,
    gateway: Gateway,
    control: TcpControl,
    socket: UdpSocket,
}

fn gateway_config(fx: &Fixture) -> GatewayConfig {
    GatewayConfig {
        recovery: fx.recovery(),
        channel: ChannelSpec::Ideal,
        ingress: IngressConfig::default(),
        ..GatewayConfig::default()
    }
}

/// Runs `udp_gateway` with `seconds` of traffic.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (setups, setup) = timed_setup(
        SETUP_REPEATS,
        || {
            let fx = Fixture::build();
            let gateway = Gateway::spawn(ServiceConfig::with_shards(SHARDS), gateway_config(&fx))
                .expect("spawn gateway");
            let control = TcpControl::connect(gateway.tcp_addr()).expect("TCP control connect");
            let socket = UdpSocket::bind("127.0.0.1:0").expect("bind UDP");
            socket.connect(gateway.udp_addr()).expect("connect UDP");
            Setup {
                fx,
                gateway,
                control,
                socket,
            }
        },
        |setup| {
            drop(setup.control);
            setup.gateway.shutdown();
        },
    );
    let Setup {
        fx,
        gateway,
        mut control,
        socket,
    } = setup;
    let ids: Vec<SessionId> = (0..OPERATORS).collect();
    let slots = (seconds / SLOT.as_secs_f64()).round().max(10.0) as u64;
    let datagrams = plan(seed, slots);

    // The workload's peak RSS covers attach, traffic, failover and
    // detach; not the set-up repeats or the replay check.
    trace::reset_peak_rss();

    // Attach every operator over the one TCP connection.
    let mut attach_ms = Vec::new();
    let mut rejected = 0;
    for &id in &ids {
        let (ms, reply) = request(
            &mut control,
            &ControlRequest::Open {
                id,
                initial: fx.trace(id)[0].clone(),
                inbox_capacity: lifecycle::INBOX,
            },
            tracer,
            "control.open",
        );
        match reply {
            Some(ControlResponse::Opened { .. }) => attach_ms.push(ms),
            _ => rejected += 1,
        }
    }

    let handle = gateway.service_handle();
    let ticks0 = handle.telemetry().total_ticks();
    let cpu0 = trace::thread_cpu();
    let traced_from_ns = if tracer.enabled() {
        slots / 2 * SLOT.as_nanos() as u64
    } else {
        u64::MAX
    };
    let t = traffic(
        &socket,
        &mut control,
        &handle,
        &datagrams,
        &fx,
        tracer,
        traced_from_ns,
    );
    let cpu1 = trace::thread_cpu();

    // Let the shards consume every settled slot, then fail the quiet
    // operators over to a standby box again and again (the gateway
    // keeps them; each standby is shut down after its hop): the
    // failover rate and archive size of live operator sessions.
    let ingress = gateway.ingress_summaries();
    let settled: u64 = ingress.iter().map(|i| i.delivered + i.lost).sum();
    let quiet = lifecycle::wait_ticks(&handle, ticks0 + settled);
    let telemetry = handle.telemetry();
    let hops: Vec<lifecycle::Hop> = (0..HOPS)
        .map(|_| {
            let (standby, storage, hop) = lifecycle::hop(&handle, &ids, tracer);
            standby.join();
            drop(storage);
            hop
        })
        .collect();

    // Detach every operator.
    let mut detach_ms = Vec::new();
    let mut reports: Vec<SessionReport> = Vec::new();
    for &id in &ids {
        let (ms, reply) = request(
            &mut control,
            &ControlRequest::Close { id },
            tracer,
            "control.close",
        );
        match reply {
            Some(ControlResponse::Closed { report, .. }) => {
                detach_ms.push(ms);
                reports.push(report);
            }
            _ => rejected += 1,
        }
    }
    let loads = handle.shard_loads();
    let peak_rss = trace::peak_rss_mb();
    drop(control);
    gateway.shutdown();

    // Sessions the OS disturbed — a datagram dropped before the gateway
    // read it — saw another frame sequence than the plan. They are left
    // out of the replay check (their lost datagrams count as failed),
    // and more than `MAX_OS_DISTURBED` of them make the run invalid;
    // their round trips still count. A frame the gateway bounced off a
    // full shard queue is the program's doing, so any bounce makes the
    // run invalid.
    let mut sent_by_session = vec![0u64; OPERATORS as usize];
    for &(id, _) in &t.sends {
        sent_by_session[id as usize] += 1;
    }
    let disturbed: std::collections::BTreeSet<SessionId> = ingress
        .iter()
        .filter(|i| i.received != sent_by_session[i.session as usize])
        .map(|i| i.session)
        .collect();
    let clean = |id: &SessionId| !disturbed.contains(id);
    let bounced: u64 = ingress.iter().map(|i| i.bounced).sum();

    // Correctness: the same frames, per session in the same order,
    // through the in-process loopback transport on one shard.
    let replay = loopback_replay(&fx, &datagrams);
    let kept = |v: &[SessionReport]| digest(v.iter().filter(|r| clean(&r.id)));
    if kept(&reports) != kept(&replay) {
        out.problem(
            "the UDP gateway's sessions differ from a loopback replay of the same frames".into(),
        );
    }
    if !quiet {
        out.problem("the gateway did not consume exactly the settled slots".into());
    }
    if disturbed.len() > MAX_OS_DISTURBED {
        out.problem(format!(
            "the OS dropped datagrams of {} of {OPERATORS} sessions (at most {MAX_OS_DISTURBED} allowed)",
            disturbed.len()
        ));
    }
    if bounced > 0 {
        out.problem(format!(
            "the gateway bounced {bounced} frames off a full shard queue"
        ));
    }
    out.note(format!(
        "check   digest {:016x}, loopback replay {:016x}, over {} of {OPERATORS} sessions",
        kept(&reports),
        kept(&replay),
        OPERATORS - disturbed.len() as u64
    ));

    // Accounting and validity.
    let sends = &t.sends;
    let rtts = match_acks(sends, &t.acks);
    let received: u64 = ingress.iter().map(|i| i.received).sum();
    let sent = t.sends.len() as u64;
    let unanswered = rtts.iter().filter(|r| r.is_none()).count() as u64;
    out.count(
        "control requests",
        2 * OPERATORS + t.scrape_ms.len() as u64 + t.scrape_rejects,
        rejected + t.scrape_rejects,
    );
    out.count(
        "datagrams acked",
        datagrams.len() as u64,
        unanswered + t.send_errors,
    );
    lifecycle::count_hops(&mut out, &hops, OPERATORS);
    out.count(
        "sessions",
        OPERATORS,
        OPERATORS.saturating_sub(reports.len() as u64),
    );
    let lag_p50 = percentile(&t.lag_ns, 50.0).unwrap_or(0.0) / 1e6;
    let lag_p99 = percentile(&t.lag_ns, 99.0).unwrap_or(0.0) / 1e6;
    out.note(format!(
        "gen     {} datagrams over {slots} slots, lag p50 {lag_p50:.3} ms p99 {lag_p99:.3} ms, \
         {} lost in the OS (received {received} of {sent})",
        datagrams.len(),
        sent.saturating_sub(received)
    ));
    if lag_p99 > SLOT.as_secs_f64() * 1e3 {
        out.problem(format!(
            "the generator fell more than one slot behind (p99 lag {lag_p99:.1} ms)"
        ));
    }

    let rtt_us: Vec<f64> = rtts.iter().flatten().map(|&ns| ns as f64 / 1e3).collect();
    out.spread("setup_s", &setups);
    out.e2e("setup_s", median(&setups).unwrap_or(0.0), "s");
    out.e2e("ticks_per_s", t.ticks as f64 / t.wall_s, "1/s");
    out.e2e("rmse_p50_mm", crate::common::rmse_p50(&reports), "mm");
    // One round-trip window per second of traffic, by send instant.
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for ((_, at), rtt) in sends.iter().zip(&rtts) {
        if let Some(ns) = rtt {
            let second = (*at / 1_000_000_000) as usize;
            windows.resize_with(windows.len().max(second + 1), Vec::new);
            windows[second].push(*ns as f64 / 1e3);
        }
    }
    out.e2e_round_trips(&windows);
    out.note(format!(
        "rtt     {} ack round trips over every session, {} datagrams unanswered; \
         {} sessions lost datagrams in the OS",
        rtt_us.len(),
        unanswered,
        disturbed.len()
    ));
    out.e2e_latency("attach_ms_p50", &attach_ms, "ms");
    out.e2e_latency("detach_ms_p50", &detach_ms, "ms");
    let (rate, bytes) = lifecycle::hop_rates(&hops, OPERATORS);
    out.e2e("failover_sessions_per_s", rate, "1/s");
    out.e2e("archive_bytes_per_session", bytes, "B");
    out.e2e_peak_rss(&[peak_rss]);

    if tracer.enabled() {
        let sum =
            |f: fn(&foreco_serve::IngressSummary) -> u64| ingress.iter().map(f).sum::<u64>() as f64;
        let (delivered, lost) = (sum(|i| i.delivered), sum(|i| i.lost));
        out.layer("ingress.delivered", delivered, "count");
        out.layer("ingress.lost", lost, "count");
        out.layer("ingress.late", sum(|i| i.late), "count");
        out.layer("ingress.reordered", sum(|i| i.reordered), "count");
        out.layer("ingress.duplicates", sum(|i| i.duplicates), "count");
        out.layer("ingress.bounced", sum(|i| i.bounced), "count");
        out.layer(
            "ingress.delivered_share",
            delivered / (delivered + lost).max(1.0),
            "share",
        );
        out.layer(
            "ingress.settle_p90_ms",
            percentile(&t.settle_ms, 90.0).unwrap_or(0.0),
            "ms",
        );
        out.layer("gen.lag_p99_ms", lag_p99, "ms");
        out.layer("udp.os_lost", sent.saturating_sub(received) as f64, "count");
        let cpu = |prefix: &str| {
            trace::cpu_of(&cpu1, prefix).saturating_sub(trace::cpu_of(&cpu0, prefix)) as f64
        };
        let shard_cpu = cpu("foreco-shard-");
        out.layer(
            "udp.cpu_us_per_datagram",
            cpu("foreco-net-udp") / 1e3 / received.max(1) as f64,
            "us",
        );
        out.layer(
            "shard.busy_share",
            shard_cpu / (t.wall_s * 1e9 * SHARDS as f64),
            "share",
        );
        let passes: u64 = loads.iter().map(|l| l.passes).sum();
        out.layer("shard.passes", passes as f64, "count");
        out.layer(
            "shard.wakeups_per_pass",
            loads.iter().map(|l| l.wakeups).sum::<u64>() as f64 / passes.max(1) as f64,
            "count",
        );
        let per_shard: Vec<f64> = telemetry.shards.iter().map(|s| s.ticks as f64).collect();
        out.layer("shard.tick_skew", crate::common::skew(&per_shard), "share");
        out.layer(
            "sched.parks",
            telemetry.shards.iter().map(|s| s.parks).sum::<u64>() as f64,
            "count",
        );
        out.layer(
            "sched.traffic_wakeups",
            loads.iter().map(|l| l.traffic_wakeups).sum::<u64>() as f64,
            "count",
        );
        let forecasts: u64 = reports
            .iter()
            .filter_map(|r| r.stats)
            .map(|s| s.forecasts)
            .sum();
        let forecasts_per_pass = forecasts as f64 / passes.max(1) as f64;
        out.layer("batch.forecasts_per_pass", forecasts_per_pass, "count");
        out.layer(
            "control.metrics_scrape_ms",
            median(&t.scrape_ms).unwrap_or(0.0),
            "ms",
        );

        // A slot reaches its session in time unless it was never sent
        // or deferred past the reorder window; swaps are healed.
        let in_time: Vec<Vec<bool>> = ids
            .iter()
            .map(|&id| {
                let mut v = vec![false; slots as usize];
                for (due, seq) in schedule(seed, id, slots) {
                    v[seq as usize] = due < seq + LATE_DEPTH;
                }
                v
            })
            .collect();
        let gated = |id: SessionId, s: u64| -> Slot<'_> {
            let on_time = in_time[id as usize]
                .get(s as usize)
                .copied()
                .unwrap_or(true);
            on_time.then(|| command(&fx, id, s))
        };
        let inputs = LayerInputs {
            fx: &fx,
            solo: ids.iter().take(64).map(|&id| gated_spec(&fx, id)).collect(),
            slot: Some(&gated),
            channel: ChannelSpec::Ideal,
            lane_width: forecasts_per_pass.round().max(1.0) as usize,
            try_inject_ns: None,
        };
        let ledger = layers::measure(&mut out, &inputs, tracer);
        out.layer(
            "ledger.shard_overhead_share",
            1.0 - t.ticks as f64 * ledger.advance_ns / shard_cpu.max(1.0),
            "share",
        );
        let rtt_p50_ns = percentile(&rtt_us, 50.0).unwrap_or(0.0) * 1e3;
        out.layer(
            "udp.socket_share",
            1.0 - ledger.ingress_ns / rtt_p50_ns.max(1.0),
            "share",
        );
        let attach_us = median(&attach_ms).unwrap_or(0.0) * 1e3;
        out.layer(
            "control.tcp_share",
            1.0 - ledger.open_core_us / attach_us.max(1e-9),
            "share",
        );
        lifecycle::hop_layers(&mut out, &hops);
        // Spans cover the second half of the traffic: compare its ack
        // round trips with the untraced first half's.
        let half = |traced: bool| -> Vec<f64> {
            sends
                .iter()
                .zip(&rtts)
                .filter(|((_, at), _)| (*at >= traced_from_ns) == traced)
                .filter_map(|(_, rtt)| rtt.map(|ns| ns as f64))
                .collect()
        };
        let untraced = median(&half(false)).unwrap_or(0.0);
        let traced = median(&half(true)).unwrap_or(untraced);
        out.layer(
            "trace.overhead_share",
            traced / untraced.max(1e-9) - 1.0,
            "share",
        );
    }
    out
}

/// Replays the plan's frames through a fresh gateway's loopback
/// transport (one shard, no socket) and closes every session. The
/// replay sends as fast as the loop runs, so its shard's control queue
/// holds the whole plan: a full queue would bounce frames into losses.
fn loopback_replay(fx: &Fixture, datagrams: &[Datagram]) -> Vec<SessionReport> {
    let config = ServiceConfig {
        control_capacity: datagrams.len() + 1024,
        ..ServiceConfig::with_shards(1)
    };
    let gateway = Gateway::spawn(config, gateway_config(fx)).expect("spawn replay gateway");
    let (mut data, mut control) = gateway.loopback();
    for id in 0..OPERATORS {
        let _ = control.request(&ControlRequest::Open {
            id,
            initial: fx.trace(id)[0].clone(),
            inbox_capacity: lifecycle::INBOX,
        });
    }
    let mut buf = [0u8; wire::MAX_FRAME];
    let mut ack = [0u8; wire::MAX_FRAME];
    for d in datagrams {
        let len = wire::encode_command(
            &mut buf,
            d.session,
            d.seq,
            d.seq,
            command(fx, d.session, d.seq),
        )
        .expect("frame fits");
        data.send(&buf[..len]).expect("loopback send");
        while let Ok(Some(_)) = data.recv(&mut ack) {}
    }
    let reports = (0..OPERATORS)
        .filter_map(|id| match control.request(&ControlRequest::Close { id }) {
            Ok(ControlResponse::Closed { report, .. }) => Some(report),
            _ => None,
        })
        .collect();
    gateway.shutdown();
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_sends_each_slot_at_most_once_in_due_order() {
        let events = schedule(7, 3, 2000);
        let mut seqs: Vec<u64> = events.iter().map(|&(_, seq)| seq).collect();
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), events.len(), "no slot sent twice");
        // Roughly 2 % of slots are never sent.
        let missing = 2000 - events.len();
        assert!((10..=90).contains(&missing), "{missing} slots missing");
        assert_eq!(schedule(7, 3, 2000), events, "seeded");
    }
}
