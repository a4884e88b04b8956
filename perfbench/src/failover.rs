//! `fleet_failover`: a plant's fleet of gated FoReCo sessions moved to
//! a standby service again and again — `snapshot_fleet` →
//! `FleetArchive::to_bytes` / `from_bytes` → `adopt_fleet` → every
//! `Restored` — then finished and checked against the same fleet run
//! without a single hop.

use crate::common::{digest, timed_setup, unit, Fixture, Outcome, SHARDS};
use crate::layers::{self, LayerInputs};
use crate::lifecycle::{self, GatedFleet, Slot};
use crate::stats::median;
use crate::trace::{self, Tracer};
use foreco_serve::{ChannelSpec, SessionId, SessionSpec, SourceSpec};
use std::time::Instant;

/// Sessions in the fleet.
const SESSIONS: u64 = 1024;
/// Slots fed before the first hop (set-up), and the rest of the
/// sequence, fed in chunks between hops.
const PRE: u64 = 150;
const POST: u64 = 1800;
/// Slots fed after each hop.
const CHUNK: u64 = 30;
/// Set-ups per run (each opens and fills the whole fleet); `setup_s`
/// is their median.
const SETUP_REPEATS: usize = 11;
/// Shortest measured phase, in hops.
const MIN_HOPS: usize = 3;
/// Ping rounds against the parked fleet after every hop.
const PING_ROUNDS: usize = 256;

/// The seeded slot sequence: Fig. 9-style bursts of 6 misses started
/// with probability 0.01, commands from the session's trace otherwise.
struct Plan {
    fx: Fixture,
    misses: Vec<Vec<bool>>,
}

impl Plan {
    fn new(seed: u64) -> Self {
        let fx = Fixture::build();
        let misses = (0..SESSIONS)
            .map(|id| {
                let mut left = 0u32;
                (0..PRE + POST)
                    .map(|s| {
                        if left == 0 && unit(seed, id, s) < 0.01 {
                            left = 6;
                        }
                        let miss = left > 0;
                        left = left.saturating_sub(1);
                        miss
                    })
                    .collect()
            })
            .collect();
        Self { fx, misses }
    }

    /// Slot `s` of session `id`; past the plan's end the miss pattern
    /// repeats (the layer micro-timings run longer streams).
    fn slot(&self, id: SessionId, s: u64) -> Slot<'_> {
        let trace = self.fx.trace(id);
        let misses = &self.misses[id as usize];
        (!misses[s as usize % misses.len()]).then(|| trace[s as usize % trace.len()].as_slice())
    }

    fn specs(&self) -> Vec<SessionSpec> {
        (0..SESSIONS)
            .map(|id| {
                SessionSpec::new(
                    id,
                    SourceSpec::Gated {
                        initial: self.fx.trace(id)[0].clone(),
                        inbox_capacity: lifecycle::INBOX,
                    },
                    ChannelSpec::Ideal,
                    self.fx.recovery(),
                )
            })
            .collect()
    }
}

/// Runs `fleet_failover` for `seconds` of hops.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (setups, (plan, mut fleet)) = timed_setup(
        SETUP_REPEATS,
        || {
            let plan = Plan::new(seed);
            let fleet = GatedFleet::start(
                plan.specs(),
                PRE,
                &|id, s| plan.slot(id, s),
                tracer.enabled(),
            );
            (plan, fleet)
        },
        |(_, fleet)| fleet.join(),
    );
    let slot = |id, s| plan.slot(id, s);
    let setup_feed = fleet.feed;

    // Measured phase, until the run's time is up: a hop, attach/detach
    // probes and shard pings of the service now hosting the fleet, then
    // the next chunk of the slot sequence, timed on its own — so every
    // figure samples the whole run. The sequence has a fixed length
    // whatever the hop count; what the loop has not fed is fed after.
    let mut untraced_rates = Vec::new();
    let quiet = Tracer::new(false);
    let mut pings: Vec<Vec<f64>> = Vec::new();
    let (mut chunk_ticks, mut chunk_wall, mut chunk_rates) = (0u64, 0.0f64, Vec::new());
    let mut loads = Vec::new();
    let (mut shard_cpu, mut parks, mut per_shard) = (0.0, 0u64, vec![0.0; SHARDS]);
    let mut peak_rss = Vec::new();
    let started = Instant::now();
    while fleet.hops.len() < MIN_HOPS || started.elapsed().as_secs_f64() < seconds {
        trace::reset_peak_rss();
        let untraced = tracer.enabled() && fleet.hops.len() % 2 == 1;
        let hop = fleet.hop(if untraced { &quiet } else { tracer });
        if untraced {
            untraced_rates.push(SESSIONS as f64 / hop.wall_s);
        }
        fleet.probe();
        pings.push(lifecycle::ping_rounds(
            &fleet.service().handle(),
            PING_ROUNDS,
        ));
        let fed = fleet.fed();
        if fed < PRE + POST {
            let slots = CHUNK.min(PRE + POST - fed);
            let handle = fleet.service().handle();
            let before = handle.telemetry();
            let cpu0 = trace::thread_cpu();
            let wall = fleet.feed_more(slots, &slot);
            chunk_wall += wall;
            chunk_ticks += SESSIONS * slots;
            chunk_rates.push((SESSIONS * slots) as f64 / wall);
            let after = handle.telemetry();
            shard_cpu += trace::cpu_of(&trace::thread_cpu(), "foreco-shard-")
                .saturating_sub(trace::cpu_of(&cpu0, "foreco-shard-"))
                as f64;
            let parks_of =
                |t: &foreco_serve::FleetTelemetry| t.shards.iter().map(|s| s.parks).sum::<u64>();
            parks += parks_of(&after) - parks_of(&before);
            for (acc, (a, b)) in per_shard
                .iter_mut()
                .zip(after.shards.iter().zip(&before.shards))
            {
                *acc += (a.ticks - b.ticks) as f64;
            }
            loads.push(handle.shard_loads());
        }
        peak_rss.push(trace::peak_rss_mb());
    }
    let rest = PRE + POST - fleet.fed();
    fleet.feed_more(rest, &slot);
    let reports = fleet.finish();

    // Correctness: the failed-over fleet against the same fleet unmoved.
    let reference = lifecycle::reference(plan.specs(), PRE + POST, &slot);
    if digest(&reports) != digest(&reference) || !fleet.ticks_exact {
        out.problem("the failed-over fleet differs from the unmigrated fleet".into());
    }
    out.note(format!(
        "check   digest {:016x}, unmigrated reference {:016x}",
        digest(&reports),
        digest(&reference)
    ));
    lifecycle::count_fleet(&mut out, &fleet);

    let rates: Vec<f64> = fleet
        .hops
        .iter()
        .map(|h| SESSIONS as f64 / h.wall_s)
        .collect();
    out.spread("failover_sessions_per_s", &rates);
    out.spread("setup_s", &setups);
    out.e2e("setup_s", median(&setups).unwrap_or(0.0), "s");
    out.e2e("ticks_per_s", median(&chunk_rates).unwrap_or(0.0), "1/s");
    out.e2e("rmse_p50_mm", crate::common::rmse_p50(&reports), "mm");
    lifecycle::lifecycle_metrics(
        &mut out,
        &pings,
        &fleet.attach_ms,
        &fleet.detach_ms,
        &fleet.hops,
        SESSIONS,
    );
    out.e2e_peak_rss(&peak_rss);
    out.note(format!(
        "shape   {SESSIONS} sessions, {PRE}+{POST} slots ({} fed between hops), {} hops, {} feed retries",
        chunk_ticks / SESSIONS,
        fleet.hops.len(),
        fleet.feed.retries
    ));

    if tracer.enabled() {
        // Shard figures over the chunks fed between hops (each chunk on
        // the service of its cycle).
        let passes: u64 = loads.iter().flatten().map(|l| l.passes).sum();
        let wakeups: u64 = loads.iter().flatten().map(|l| l.wakeups).sum();
        let forecasts: u64 = reports
            .iter()
            .filter_map(|r| r.stats)
            .map(|s| s.forecasts)
            .sum();
        out.layer(
            "shard.busy_share",
            shard_cpu / (chunk_wall * 1e9 * SHARDS as f64),
            "share",
        );
        out.layer("shard.passes", passes as f64, "count");
        out.layer("shard.tick_skew", crate::common::skew(&per_shard), "share");
        out.layer("sched.parks", parks as f64, "count");
        out.layer(
            "shard.wakeups_per_pass",
            wakeups as f64 / passes.max(1) as f64,
            "count",
        );
        out.layer(
            "sched.traffic_wakeups",
            loads
                .iter()
                .flatten()
                .map(|l| l.traffic_wakeups)
                .sum::<u64>() as f64,
            "count",
        );
        let forecasts_per_pass = forecasts as f64 / passes.max(1) as f64;
        out.layer("batch.forecasts_per_pass", forecasts_per_pass, "count");
        let inputs = LayerInputs {
            fx: &plan.fx,
            solo: plan.specs().into_iter().take(64).collect(),
            slot: Some(&slot),
            channel: ChannelSpec::Ideal,
            lane_width: forecasts_per_pass.round().max(1.0) as usize,
            // Measured while the set-up feed fills the fleet.
            try_inject_ns: Some(setup_feed.inject_ns as f64 / setup_feed.injects.max(1) as f64),
        };
        let ledger = layers::measure(&mut out, &inputs, tracer);
        out.layer(
            "ledger.shard_overhead_share",
            1.0 - chunk_ticks as f64 * ledger.advance_ns / shard_cpu.max(1.0),
            "share",
        );
        lifecycle::hop_layers(&mut out, &fleet.hops);
        let traced_rates: Vec<f64> = rates.iter().step_by(2).copied().collect();
        let traced = median(&traced_rates).unwrap_or(0.0);
        let untraced = median(&untraced_rates).unwrap_or(traced);
        out.layer("trace.overhead_share", untraced / traced - 1.0, "share");
    }
    fleet.join();
    out
}
