//! Inputs every workload shares: the deployed model, the seeded
//! operator traces, the per-session report digest, and the result
//! record each workload fills in.

use crate::stats::{self, Tail};
use foreco_core::RecoveryConfig;
use foreco_forecast::Var;
use foreco_robot::{niryo_one, ArmModel};
use foreco_serve::{RecoverySpec, SessionReport, SharedForecaster};
use foreco_teleop::{Dataset, Skill};
use std::sync::Arc;

/// Command period Ω (50 Hz).
const OMEGA: f64 = 0.020;
/// Shards every workload's service runs: the load shape is sized for a
/// 2-core box.
pub const SHARDS: usize = 2;
/// Distinct operator traces a fleet replays (session `id` replays
/// trace `id % TRACES`).
pub const TRACES: usize = 16;

/// The deployed system and the seeded operator inputs.
pub struct Fixture {
    /// Niryo-One-like arm.
    pub model: ArmModel,
    /// FoReCo-VAR(5), trained once and shared by every session.
    pub forecaster: SharedForecaster,
    /// The plant's recorded operator command traces.
    pub traces: Vec<Arc<Vec<Vec<f64>>>>,
}

impl Fixture {
    /// Records the training set, fits the model and records the
    /// operator traces. None of it depends on the workload seed: the
    /// seed draws what the network does to these commands (loss
    /// bursts, jammer, wire impairments), so a fleet's RMSE median
    /// moves with the seed by a few percent rather than with one
    /// operator's recording.
    pub fn build() -> Self {
        let train = Dataset::record(Skill::Experienced, 20, OMEGA, 0xF0E0);
        let var = Var::fit_differenced(&train, 5, 1e-6).expect("training data well-conditioned");
        let traces = (0..TRACES as u64)
            .map(|k| Arc::new(Dataset::record(Skill::Inexperienced, 1, OMEGA, 0x7E57 + k).commands))
            .collect();
        Self {
            model: niryo_one(),
            forecaster: SharedForecaster::new(var),
            traces,
        }
    }

    /// The trace session `id` replays.
    pub fn trace(&self, id: u64) -> &Arc<Vec<Vec<f64>>> {
        &self.traces[(id % TRACES as u64) as usize]
    }

    /// FoReCo recovery around the shared model.
    pub fn recovery(&self) -> RecoverySpec {
        RecoverySpec::FoReCo {
            forecaster: self.forecaster.clone(),
            config: RecoveryConfig::for_model(&self.model),
        }
    }
}

/// SplitMix64 of `seed` and a stream label: independent, reproducible
/// sub-seeds (per session, per trace, per impairment stream).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in [0, 1) from a hash of `(seed, a, b)`.
pub fn unit(seed: u64, a: u64, b: u64) -> f64 {
    (mix(mix(seed, a), b) >> 11) as f64 / (1u64 << 53) as f64
}

/// FNV-1a over every report's id, ticks, misses and the bits of its
/// RMSE and worst deviation, in id order: two runs agree on it only
/// if every session's result is bit-identical.
pub fn digest<'a>(reports: impl IntoIterator<Item = &'a SessionReport>) -> u64 {
    let mut rows: Vec<[u64; 5]> = reports
        .into_iter()
        .map(|r| {
            [
                r.id,
                r.ticks,
                r.misses as u64,
                r.rmse_mm.to_bits(),
                r.max_deviation_mm.to_bits(),
            ]
        })
        .collect();
    rows.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in rows.iter().flatten() {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Median RMSE (mm) across reports.
pub fn rmse_p50<'a>(reports: impl IntoIterator<Item = &'a SessionReport>) -> f64 {
    let v: Vec<f64> = reports.into_iter().map(|r| r.rmse_mm).collect();
    stats::median(&v).unwrap_or(f64::NAN)
}

/// Spread of per-shard work: (max − min) ÷ mean; 0 for an idle pool.
pub fn skew(per_shard: &[f64]) -> f64 {
    let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
    let max = per_shard.iter().copied().fold(f64::MIN, f64::max);
    let min = per_shard.iter().copied().fold(f64::MAX, f64::min);
    if mean > 0.0 {
        (max - min) / mean
    } else {
        0.0
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// For latencies: the highest percentile with ≥ 10 samples beyond.
    pub tail: Option<Tail>,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sessions, datagrams, control requests,
    /// fleet parts).
    pub attempted: u64,
    /// Of those, operations that failed (see each workload's docs).
    pub failed: u64,
    /// Reasons the run is not correct or not valid; empty when it is.
    pub problems: Vec<String>,
    /// End-to-end metrics (tracing off).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (tracing on).
    pub layers: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name,
            value,
            unit,
            tail: None,
        });
    }

    /// Adds an end-to-end latency median with its tail.
    pub fn e2e_latency(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        self.end_to_end.push(Metric {
            name,
            value: stats::median(samples).unwrap_or(f64::NAN),
            unit,
            tail: stats::tail(samples),
        });
    }

    /// Adds the round-trip pair: `ack_rtt_p50_us` over every sample (with
    /// its tail), and `ack_rtt_p90_us` as the median of each window's
    /// p90 — a few slow seconds on a shared box move a whole-run p90 a
    /// lot, and the median of windowed p90s far less.
    pub fn e2e_round_trips(&mut self, windows: &[Vec<f64>]) {
        let all: Vec<f64> = windows.iter().flatten().copied().collect();
        self.e2e_latency("ack_rtt_p50_us", &all, "us");
        let p90s: Vec<f64> = windows
            .iter()
            .filter(|w| w.len() >= 10)
            .filter_map(|w| stats::percentile(w, 90.0))
            .collect();
        self.e2e("ack_rtt_p90_us", stats::median(&p90s).unwrap_or(0.0), "us");
    }

    /// Adds `peak_rss_mb`: the median over the last third of the
    /// measurement cycles of each cycle's `VmHWM` (the mark is reset
    /// when a cycle starts). Memory kept from one cycle to the next
    /// raises every later cycle's peak, so it shows here in nearly its
    /// full size, while one odd cycle does not move the median.
    pub fn e2e_peak_rss(&mut self, per_cycle_mb: &[f64]) {
        let third = per_cycle_mb.len().div_ceil(3);
        let first = stats::median(&per_cycle_mb[..third]).unwrap_or(0.0);
        let last = stats::median(&per_cycle_mb[per_cycle_mb.len() - third..]).unwrap_or(0.0);
        let max = per_cycle_mb.iter().copied().fold(0.0, f64::max);
        self.notes.push(format!(
            "rss     {} cycles: first third {first:.1} MB, last third {last:.1} MB, highest {max:.1} MB",
            per_cycle_mb.len()
        ));
        self.e2e("peak_rss_mb", last, "MB");
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name,
            value,
            unit,
            tail: None,
        });
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        self.notes.push(format!(
            "ops     {what}: {attempted} attempted, {failed} failed"
        ));
    }

    /// Records a reason the run is invalid.
    pub fn problem(&mut self, why: String) {
        self.problems.push(why);
    }

    /// Adds a free-form note line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Notes the spread of a figure measured repeatedly within the run.
    pub fn spread(&mut self, what: &str, values: &[f64]) {
        if let (Some([q1, q2, q3]), Some(rel)) =
            (stats::quartiles(values), stats::relative_iqr(values))
        {
            self.notes.push(format!(
                "spread  {what}: quartiles {q1:.4} / {q2:.4} / {q3:.4} over {} repeats (IQR {:.2}% of median)",
                values.len(),
                rel * 100.0
            ));
        }
    }
}

/// Runs `f` `repeats` times and returns every wall time in seconds
/// with the last product; earlier products go to `dispose` (outside the
/// timed region) so their threads are joined.
pub fn timed_setup<T>(
    repeats: usize,
    mut f: impl FnMut() -> T,
    mut dispose: impl FnMut(T),
) -> (Vec<f64>, T) {
    let mut walls = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let t0 = std::time::Instant::now();
        let out = f();
        walls.push(t0.elapsed().as_secs_f64());
        if let Some(previous) = last.replace(out) {
            dispose(previous);
        }
    }
    (walls, last.expect("at least one set-up"))
}
