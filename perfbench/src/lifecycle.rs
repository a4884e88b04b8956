//! The in-process life of a gated fleet: attach, feed, fail over to a
//! standby service, feed again, detach — each step timed from the
//! caller's side of `ServiceHandle`. `fleet_failover` is this at full
//! size; the fleet workloads run a 256-session side fleet of it on
//! their own channel model, so every workload reports every end-to-end
//! metric.

use crate::common::{Outcome, SHARDS};
use crate::stats::median;
use crate::trace::Tracer;
use foreco_serve::{
    shard_of, EventWait, FleetArchive, Service, ServiceConfig, ServiceError, ServiceHandle,
    SessionEvent, SessionId, SessionReport, SessionSpec,
};
use foreco_store::Storage;
use std::time::{Duration, Instant};

/// How long any single wait on the service may take before the run
/// counts the outstanding sessions as failed.
const WAIT_LIMIT: Duration = Duration::from_secs(30);

/// Gated-inbox bound: larger than any number of slots a workload
/// queues ahead of a session, so no command is ever dropped for space
/// and results cannot depend on thread timing.
pub const INBOX: usize = 8192;

/// A service sized for `sessions`: every event of a whole-fleet step
/// fits the event channel.
pub fn service_config(sessions: usize, shards: usize) -> ServiceConfig {
    ServiceConfig {
        shards,
        event_capacity: sessions * 4 + 1024,
        ..ServiceConfig::with_shards(shards)
    }
}

/// The verdict for one slot: a command, or an explicit miss.
pub type Slot<'a> = Option<&'a [f64]>;

/// Opens every spec one at a time, each `open` call timed to its own
/// `Opened` event — a round trip, not a place in a queue. Returns the
/// attach times (ms) and how many sessions never opened.
pub fn open_all(service: &Service, specs: Vec<SessionSpec>) -> (Vec<f64>, u64) {
    let handle = service.handle();
    let mut attach = Vec::with_capacity(specs.len());
    let mut failed = 0;
    for spec in specs {
        let id = spec.id;
        let t0 = Instant::now();
        let opened = handle.open(spec).is_ok()
            && wait_for(
                service,
                |e| matches!(e, SessionEvent::Opened { id: i, .. } if *i == id),
            )
            .is_some();
        if opened {
            attach.push(t0.elapsed().as_secs_f64() * 1e3);
        } else {
            failed += 1;
        }
    }
    (attach, failed)
}

/// Waits for the first event `want` accepts, discarding others.
fn wait_for(service: &Service, want: impl Fn(&SessionEvent) -> bool) -> Option<SessionEvent> {
    let deadline = Instant::now() + WAIT_LIMIT;
    while Instant::now() < deadline {
        match service.next_event_timeout(Duration::from_millis(50)) {
            EventWait::Event(event) if want(&event) => return Some(event),
            EventWait::Event(_) | EventWait::TimedOut => {}
            EventWait::Disconnected => return None,
        }
    }
    None
}

/// Pause after a shard's control queue refused a verdict: long enough
/// to let the shard drain a good part of its queue, so the feeder does
/// not take a core from the shards by spinning (the box has two).
const BACKOFF: Duration = Duration::from_micros(50);

/// What one feed pass cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct Feed {
    /// Slot verdicts handed to the service.
    pub slots: u64,
    /// Calls rejected for shard backpressure and retried.
    pub retries: u64,
    /// Verdicts that could not be delivered (shard gone).
    pub failed: u64,
    /// Nanoseconds spent inside accepted `try_inject` calls (only
    /// measured when `time_injects` was set).
    pub inject_ns: u64,
    /// Accepted `try_inject` calls timed.
    pub injects: u64,
}

/// Slots the feeder may run ahead of the fleet. Operators at 50 Hz
/// never queue more than a few slots ahead of their robot; without
/// this window a fast feeder would park hundreds of slots in every
/// session's inbox and the run would measure that backlog.
const WINDOW: u64 = 8;

/// Hands slots `from..to` to every session, slot-major (every session
/// gets slot `s` before any gets `s + 1`, as 50 Hz operators would),
/// at most [`WINDOW`] slots ahead of the fleet. Backpressure is
/// retried, never dropped: a dropped verdict would shift a session's
/// timeline.
pub fn feed<'a>(
    handle: &ServiceHandle,
    ids: &[SessionId],
    from: u64,
    to: u64,
    slot: impl Fn(SessionId, u64) -> Slot<'a>,
    time_injects: bool,
) -> Feed {
    let mut out = Feed::default();
    let base = handle.telemetry().total_ticks();
    let n = ids.len() as u64;
    for s in from..to {
        if s >= from + WINDOW {
            let due = base + n * (s - from - WINDOW);
            let deadline = Instant::now() + WAIT_LIMIT;
            while handle.telemetry().total_ticks() < due && Instant::now() < deadline {
                std::thread::sleep(BACKOFF);
            }
        }
        for &id in ids {
            out.slots += 1;
            match slot(id, s) {
                Some(command) => {
                    let mut command = command.to_vec();
                    loop {
                        let t0 = time_injects.then(Instant::now);
                        match handle.try_inject(id, command) {
                            Ok(()) => {
                                if let Some(t0) = t0 {
                                    out.inject_ns += t0.elapsed().as_nanos() as u64;
                                    out.injects += 1;
                                }
                                break;
                            }
                            Err((ServiceError::Backpressure, back)) => {
                                out.retries += 1;
                                command = back;
                                std::thread::sleep(BACKOFF);
                            }
                            Err(_) => {
                                out.failed += 1;
                                break;
                            }
                        }
                    }
                }
                None => loop {
                    match handle.inject_miss(id) {
                        Ok(()) => break,
                        Err(ServiceError::Backpressure) => {
                            out.retries += 1;
                            std::thread::sleep(BACKOFF);
                        }
                        Err(_) => {
                            out.failed += 1;
                            break;
                        }
                    }
                },
            }
        }
    }
    out
}

/// Waits until the fleet has advanced `ticks` session-ticks in total
/// (every fed slot consumed, every session parked on an empty inbox).
pub fn wait_ticks(handle: &ServiceHandle, ticks: u64) -> bool {
    let deadline = Instant::now() + WAIT_LIMIT;
    loop {
        let done = handle.telemetry().total_ticks();
        if done >= ticks {
            return done == ticks;
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// One failover hop's measurements.
#[derive(Debug, Default, Clone)]
pub struct Hop {
    /// `snapshot_fleet` call to the last `Restored`, seconds.
    pub wall_s: f64,
    /// Archive bytes.
    pub bytes: u64,
    /// Parts archived.
    pub parts: u64,
    /// Sessions the donor did not know.
    pub missing: u64,
    /// Sessions whose state could not be exported.
    pub failed: u64,
    /// Sessions the standby could not restore.
    pub restore_failed: u64,
    /// Sessions restored.
    pub restored: u64,
    /// Step wall times, seconds: snapshot_fleet, to_bytes, from_bytes,
    /// adopt_fleet, restore wait.
    pub steps: [f64; 5],
    /// The standby store after adoption: resident bytes and trace
    /// objects.
    pub store_resident_bytes: u64,
    /// Trace objects resident in the standby store.
    pub store_trace_objects: u64,
}

/// Moves the fleet `ids` from `donor` to a fresh standby service:
/// `snapshot_fleet` → `FleetArchive::to_bytes` → `from_bytes` →
/// `adopt_fleet` → every `Restored`. The standby is spawned before the
/// clock starts (a standby box is already running). The donor is left
/// as it was; the caller decides whether to shut it down.
pub fn hop(donor: &ServiceHandle, ids: &[SessionId], tracer: &Tracer) -> (Service, Storage, Hop) {
    let standby = Service::spawn(service_config(ids.len(), SHARDS));
    let storage = Storage::new();
    let mut out = Hop::default();
    let root = tracer.open("archive.hop", None);
    let parent = root.id();
    let t0 = Instant::now();
    let snapshot = tracer.scope("archive.snapshot_fleet", parent, |_| {
        donor.snapshot_fleet(ids)
    });
    let t1 = Instant::now();
    let report = match snapshot {
        Ok(report) => report,
        Err(_) => {
            tracer.close(root);
            out.missing = ids.len() as u64;
            return (standby, storage, out);
        }
    };
    out.missing = report.missing.len() as u64;
    out.failed = report.failed.len() as u64;
    out.parts = report.archive.len() as u64;
    let bytes = tracer.scope("archive.to_bytes", parent, |_| report.archive.to_bytes());
    let t2 = Instant::now();
    out.bytes = bytes.len() as u64;
    let archive = tracer.scope("archive.from_bytes", parent, |_| {
        FleetArchive::from_bytes(&bytes)
    });
    let t3 = Instant::now();
    let sent = match archive {
        Ok(archive) => tracer
            .scope("archive.adopt_fleet", parent, |_| {
                standby.handle().adopt_fleet(archive, &storage)
            })
            .unwrap_or(0),
        Err(_) => 0,
    };
    let t4 = Instant::now();
    let wait = tracer.open("archive.restore_wait", parent);
    let deadline = Instant::now() + WAIT_LIMIT;
    while out.restored + out.restore_failed < sent as u64 && Instant::now() < deadline {
        match standby.next_event_timeout(Duration::from_millis(50)) {
            EventWait::Event(SessionEvent::Restored { .. }) => out.restored += 1,
            EventWait::Event(SessionEvent::RestoreFailed { .. }) => out.restore_failed += 1,
            EventWait::Event(_) | EventWait::TimedOut => {}
            EventWait::Disconnected => break,
        }
    }
    let t5 = Instant::now();
    tracer.close(wait);
    tracer.close(root);
    // Parts never sent, or sent and never answered, failed to restore.
    out.restore_failed += out.parts.saturating_sub(out.restored + out.restore_failed);
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    out.wall_s = secs(t0, t5);
    out.steps = [
        secs(t0, t1),
        secs(t1, t2),
        secs(t2, t3),
        secs(t3, t4),
        secs(t4, t5),
    ];
    let stats = storage.stats();
    out.store_resident_bytes = stats.resident_bytes() as u64;
    out.store_trace_objects = stats.traces.objects as u64;
    (standby, storage, out)
}

/// Closes every session one at a time, each `close` call timed to its
/// own `Completed` event. Returns the detach times (ms) and the
/// reports; sessions that never reported are absent from both.
pub fn close_all(service: &Service, ids: &[SessionId]) -> (Vec<f64>, Vec<SessionReport>) {
    let handle = service.handle();
    let mut detach = Vec::with_capacity(ids.len());
    let mut reports = Vec::with_capacity(ids.len());
    for &id in ids {
        let t0 = Instant::now();
        if handle.close(id).is_err() {
            continue;
        }
        let done = wait_for(
            service,
            |e| matches!(e, SessionEvent::Completed { id: i, .. } if *i == id),
        );
        if let Some(SessionEvent::Completed { report, .. }) = done {
            detach.push(t0.elapsed().as_secs_f64() * 1e3);
            reports.push(report);
        }
    }
    (detach, reports)
}

/// Ids that route to each shard of a `shards`-shard pool and that no
/// workload uses as a session id.
fn ping_ids(shards: usize) -> Vec<SessionId> {
    (0..shards)
        .map(|target| {
            (0..)
                .map(|k: u64| u64::MAX - k)
                .find(|&id| shard_of(id, shards) == target)
                .expect("some id routes to every shard")
        })
        .collect()
}

/// One shard round trip per shard: a `snapshot_fleet` of an id no
/// session has, so the shard answers `Missing` once it reaches the
/// command in its queue — the time a supervisor's command waits on a
/// busy shard. Microseconds; empty once the service is gone.
pub fn ping_round(handle: &ServiceHandle) -> Vec<f64> {
    ping_ids(handle.shards())
        .iter()
        .map_while(|id| {
            let t0 = Instant::now();
            handle
                .snapshot_fleet(std::slice::from_ref(id))
                .ok()
                .map(|_| t0.elapsed().as_secs_f64() * 1e6)
        })
        .collect()
}

/// `rounds` [`ping_round`]s back to back against a service that is
/// otherwise idle: each ping wakes a shard blocked on its empty
/// command queue. The workloads call it between measurement cycles,
/// never while a timed phase runs. Microseconds; stops early once the
/// service is gone.
pub fn ping_rounds(handle: &ServiceHandle, rounds: usize) -> Vec<f64> {
    let shards = handle.shards();
    let mut out = Vec::with_capacity(rounds * shards);
    for _ in 0..rounds {
        let round = ping_round(handle);
        let done = round.len() < shards;
        out.extend(round);
        if done {
            break;
        }
    }
    out
}

/// A live fleet of gated sessions on a 2-shard service, moved from
/// service to service by [`GatedFleet::hop`] and probed for attach and
/// detach round trips between measurement cycles.
pub struct GatedFleet {
    service: Service,
    storage: Option<Storage>,
    ids: Vec<SessionId>,
    template: SessionSpec,
    fed: u64,
    next_probe: SessionId,
    /// Attach round trips (ms) of the probe sessions.
    pub attach_ms: Vec<f64>,
    /// Detach round trips (ms) of the probe sessions.
    pub detach_ms: Vec<f64>,
    /// Every hop's measurements.
    pub hops: Vec<Hop>,
    /// Sessions (fleet and probes) that never opened or never reported.
    pub lost_sessions: u64,
    /// Probe sessions opened.
    pub probes: u64,
    /// All feed passes together.
    pub feed: Feed,
    /// False once the fleet did not consume exactly the fed slots.
    pub ticks_exact: bool,
}

/// Probe sessions opened and closed per [`GatedFleet::probe`].
pub const PROBES: u64 = 32;

impl GatedFleet {
    /// Opens `specs` (gated sources) on a fresh service and feeds the
    /// first `pre` slots; returns once every session has consumed them
    /// and parked.
    pub fn start<'a>(
        specs: Vec<SessionSpec>,
        pre: u64,
        slot: &impl Fn(SessionId, u64) -> Slot<'a>,
        time_injects: bool,
    ) -> Self {
        let ids: Vec<SessionId> = specs.iter().map(|s| s.id).collect();
        let template = specs[0].clone();
        let service = Service::spawn(service_config(ids.len(), SHARDS));
        let (_, open_failed) = open_all(&service, specs);
        let feed = feed(&service.handle(), &ids, 0, pre, slot, time_injects);
        let ticks_exact = wait_ticks(&service.handle(), ids.len() as u64 * pre);
        Self {
            service,
            storage: None,
            ids,
            template,
            fed: pre,
            next_probe: 1 << 48,
            attach_ms: Vec::new(),
            detach_ms: Vec::new(),
            hops: Vec::new(),
            lost_sessions: open_failed,
            probes: 0,
            feed,
            ticks_exact,
        }
    }

    /// The service currently hosting the fleet.
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Fails the fleet over to a fresh standby and shuts the donor down.
    pub fn hop(&mut self, tracer: &Tracer) -> &Hop {
        let (standby, storage, h) = hop(&self.service.handle(), &self.ids, tracer);
        let donor = std::mem::replace(&mut self.service, standby);
        donor.join();
        self.storage = Some(storage);
        self.hops.push(h);
        self.hops.last().expect("just pushed")
    }

    /// Opens [`PROBES`] fresh sessions one at a time, then closes them
    /// one at a time: the attach and detach round trips of a service
    /// already hosting the fleet.
    pub fn probe(&mut self) {
        let first = self.next_probe;
        self.next_probe += PROBES;
        let specs: Vec<SessionSpec> = (first..first + PROBES)
            .map(|id| SessionSpec {
                id,
                ..self.template.clone()
            })
            .collect();
        let ids: Vec<SessionId> = specs.iter().map(|s| s.id).collect();
        let (attach, open_failed) = open_all(&self.service, specs);
        let (detach, reports) = close_all(&self.service, &ids);
        self.attach_ms.extend(attach);
        self.detach_ms.extend(detach);
        self.probes += PROBES;
        self.lost_sessions +=
            open_failed + (PROBES - open_failed).saturating_sub(reports.len() as u64);
    }

    /// Slots fed so far.
    pub fn fed(&self) -> u64 {
        self.fed
    }

    /// Feeds `slots` more slots and waits until they are consumed.
    /// Returns the wall time in seconds.
    pub fn feed_more<'a>(&mut self, slots: u64, slot: &impl Fn(SessionId, u64) -> Slot<'a>) -> f64 {
        let handle = self.service.handle();
        let base = handle.telemetry().total_ticks();
        let t0 = Instant::now();
        let more = feed(&handle, &self.ids, self.fed, self.fed + slots, slot, false);
        self.ticks_exact &= wait_ticks(&handle, base + self.ids.len() as u64 * slots);
        let wall = t0.elapsed().as_secs_f64();
        self.fed += slots;
        self.feed.slots += more.slots;
        self.feed.retries += more.retries;
        self.feed.failed += more.failed;
        wall
    }

    /// Closes every session and returns the reports.
    pub fn finish(&mut self) -> Vec<SessionReport> {
        let (_, reports) = close_all(&self.service, &self.ids);
        self.lost_sessions += (self.ids.len() - reports.len()) as u64;
        reports
    }

    /// Shuts the service down.
    pub fn join(self) {
        self.service.join();
        drop(self.storage);
    }
}

/// The unmigrated reference: the same sessions on one shard, fed all
/// `slots` without a hop, then closed.
pub fn reference<'a>(
    specs: Vec<SessionSpec>,
    slots: u64,
    slot: &impl Fn(SessionId, u64) -> Slot<'a>,
) -> Vec<SessionReport> {
    let ids: Vec<SessionId> = specs.iter().map(|s| s.id).collect();
    let service = Service::spawn(service_config(ids.len(), 1));
    let _ = open_all(&service, specs);
    feed(&service.handle(), &ids, 0, slots, slot, false);
    wait_ticks(&service.handle(), ids.len() as u64 * slots);
    let (_, reports) = close_all(&service, &ids);
    service.join();
    reports
}

/// Counts a gated fleet's operations: sessions (fleet and probes)
/// opened and closed, slots fed, fleet parts moved.
pub fn count_fleet(out: &mut Outcome, fleet: &GatedFleet) {
    out.count(
        "gated sessions",
        fleet.ids.len() as u64 + fleet.probes,
        fleet.lost_sessions,
    );
    out.count("slots", fleet.feed.slots, fleet.feed.failed);
    count_hops(out, &fleet.hops, fleet.ids.len() as u64);
}

/// Counts fleet parts across hops: missing, failed and `RestoreFailed`
/// parts are failures.
pub fn count_hops(out: &mut Outcome, hops: &[Hop], sessions: u64) {
    let failed: u64 = hops
        .iter()
        .map(|h| h.missing + h.failed + h.restore_failed)
        .sum();
    out.count("fleet parts", sessions * hops.len() as u64, failed);
}

/// Median failover rate (sessions/s), and archive bytes per session
/// of the first hop — the one whose fleet state does not depend on
/// how many hops the run had time for.
pub fn hop_rates(hops: &[Hop], sessions: u64) -> (f64, f64) {
    let rates: Vec<f64> = hops.iter().map(|h| sessions as f64 / h.wall_s).collect();
    let bytes = hops.first().map_or(0, |h| h.bytes);
    (
        median(&rates).unwrap_or(0.0),
        bytes as f64 / sessions.max(1) as f64,
    )
}

/// The command round trip (pings, one window per measurement cycle)
/// and lifecycle end-to-end metrics.
pub fn lifecycle_metrics(
    out: &mut Outcome,
    pings_us: &[Vec<f64>],
    attach_ms: &[f64],
    detach_ms: &[f64],
    hops: &[Hop],
    sessions: u64,
) {
    out.e2e_round_trips(pings_us);
    out.e2e_latency("attach_ms_p50", attach_ms, "ms");
    out.e2e_latency("detach_ms_p50", detach_ms, "ms");
    let (rate, bytes) = hop_rates(hops, sessions);
    out.e2e("failover_sessions_per_s", rate, "1/s");
    out.e2e("archive_bytes_per_session", bytes, "B");
}

/// Per-layer figures of the hops: archive step times (median per hop)
/// and the standby store after adoption.
pub fn hop_layers(out: &mut Outcome, hops: &[Hop]) {
    let step = |i: usize| {
        median(&hops.iter().map(|h| h.steps[i] * 1e3).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    out.layer("archive.snapshot_fleet_ms", step(0), "ms");
    out.layer("archive.to_bytes_ms", step(1), "ms");
    out.layer("archive.from_bytes_ms", step(2), "ms");
    out.layer("archive.adopt_ms", step(3) + step(4), "ms");
    let last = hops.last().cloned().unwrap_or_default();
    out.layer(
        "store.resident_bytes",
        last.store_resident_bytes as f64,
        "B",
    );
    out.layer(
        "store.trace_objects",
        last.store_trace_objects as f64,
        "count",
    );
}
