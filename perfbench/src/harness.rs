//! Run loop, statistics, digests and the result line.
//!
//! Every timed end-to-end figure is the [`SLOW_QUANTILE`] of its
//! repetitions inside one run. Each repetition builds its inputs and the
//! system from scratch (so `setup_s` is such a quantile too), runs the
//! timed region, then the verdict. The first repetition is a warm-up and
//! is discarded.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Command-line options shared by every workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Wall-clock budget for the repetitions (set-up included).
    pub seconds: f64,
    /// `true` for the traced per-layer run.
    pub trace: bool,
    /// Self-check only: busy-wait this many nanoseconds around every
    /// seal call of `sensor-encode-seal`. Never set by the benchmark's
    /// own command line.
    pub plant_seal_ns: u64,
    /// Repetitions kept after the warm-up, at least.
    pub min_kept: usize,
}

/// One repetition's timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rep {
    /// Seconds spent building inputs and the system.
    pub setup_s: f64,
    /// Seconds in the timed region.
    pub work_s: f64,
    /// Frames (or sequences) completed in the timed region.
    pub units: u64,
    /// Seconds from end of traffic to the verdict.
    pub verdict_s: f64,
    /// Digest of the repetition's deterministic outputs.
    pub digest: u64,
}

impl Rep {
    /// Units per second of the timed region.
    pub fn rate(&self) -> f64 {
        self.units as f64 / self.work_s.max(1e-9)
    }
}

/// Repetitions kept after the warm-up, at least, in a normal run.
pub const MIN_KEPT: usize = 5;

/// Runs `rep` until `opts.seconds` have passed and at least
/// `opts.min_kept` repetitions follow the warm-up; returns the kept
/// repetitions.
pub fn repeat<F>(opts: &Options, mut rep: F) -> Result<Vec<Rep>, String>
where
    F: FnMut() -> Result<Rep, String>,
{
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        reps.push(rep()?);
        let kept = reps.len() - 1;
        if kept >= opts.min_kept && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    reps.remove(0);
    Ok(reps)
}

/// Checks that every repetition produced the same digest; returns it.
pub fn agreed_digest(reps: &[Rep], problems: &mut Vec<String>) -> u64 {
    let first = reps.first().map_or(0, |r| r.digest);
    if reps.iter().any(|r| r.digest != first) {
        problems.push("repetitions disagree on the output digest".to_string());
    }
    first
}

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` of `values`; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The quantile of repetition times every timed end-to-end figure
/// reports. A shared host alternates between a contended floor and
/// uncontended bursts up to 1.8 times faster that cover a varying share
/// of each run; a repetition-time median follows that share from run to
/// run, while the 90th percentile stays on the floor.
pub const SLOW_QUANTILE: f64 = 0.9;

/// The [`SLOW_QUANTILE`] of repetition times (`field` in seconds).
pub fn slow_time(reps: &[Rep], field: impl Fn(&Rep) -> f64) -> f64 {
    quantile(&reps.iter().map(field).collect::<Vec<_>>(), SLOW_QUANTILE)
}

/// Units per second at the [`SLOW_QUANTILE`] of timed-region times.
pub fn slow_rate(reps: &[Rep]) -> f64 {
    quantile(
        &reps.iter().map(Rep::rate).collect::<Vec<_>>(),
        1.0 - SLOW_QUANTILE,
    )
}

/// FNV-1a, 64-bit: the digest behind every correctness oracle.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds an integer into the digest.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    /// Folds a float, rounded to `decimals` places so the digest pins the
    /// value and not the last bit of its arithmetic.
    pub fn f64(&mut self, value: f64, decimals: usize) -> &mut Self {
        self.bytes(format!("{value:.decimals$}").as_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Busy-waits for `ns` nanoseconds (the planted slowdown).
pub fn spin(ns: u64) {
    if ns == 0 {
        return;
    }
    let until = Instant::now() + Duration::from_nanos(ns);
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// Seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// One named figure of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (frames or sequences).
    pub attempted: u64,
    /// Operations that failed (rejected frames, lost sequences).
    pub failed: u64,
    /// Correctness-oracle failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// The figures, in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Appends a figure.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The single JSON result line.
    pub fn json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The leakage gate every workload's verdict applies: the thresholds of
/// the repository's pinned audit gate (NMI 0.05, p 0.05, 30 frames),
/// with `defended` streams that must not leak and `Std` as the baseline
/// that must.
pub fn leakage_gate(defended: &[&str]) -> age_telemetry::LeakageGate {
    age_telemetry::LeakageGate {
        nmi_threshold: 0.05,
        p_threshold: 0.05,
        min_observations: 30,
        defended: defended.iter().map(|d| d.to_string()).collect(),
        baseline: vec!["Std".to_string()],
    }
}
