//! `sensor-encode-seal`: one simulated sensor encodes a fixed set of
//! fleet-shaped batches and seals each with a rekeying
//! ChaCha20-Poly1305 [`Sensor`].
//!
//! The batches cover all three event sizes (6, 14 and 22 of 25 readings)
//! with AGE and Std in the fleet's 4:1 mix. The timed region runs only
//! `age-core`, `age-fixed` and `age-crypto` (through `age-transport`'s
//! `Sensor`), single-threaded: the paper's cost claim. The verdict audits
//! the sealed frames' sizes and per-cohort send gaps with the leakage
//! gate and checks that no `(epoch, sequence)` nonce was sealed twice.

use age_core::{AgeEncoder, Batch, BatchConfig, EncodeScratch, Encoder, StandardEncoder};
use age_sim::fleet::{fleet_age_target, fleet_batch_config, SENSING_WINDOW};
use age_sim::{ClockModel, VirtualClock};
use age_telemetry::{DetRng, FleetNonceAudit, LeakageAudit};
use age_transport::{chacha20poly1305_factory, Sensor};

use crate::alloc::live_bytes;
use crate::harness::{agreed_digest, leakage_gate, repeat, spin, timed, Fnv, Options, Rep};
use crate::spans::{leaf, Spans};
use crate::Outcome;

/// Distinct batches in the fixed input set: small enough (about 0.6 MB)
/// to stay in L2, so the figure measures the codec rather than memory
/// traffic.
pub const DISTINCT: usize = 2_000;
/// Passes over the input set per repetition.
pub const PASSES: usize = 25;
/// The sensor rotates its key every this many sequence numbers.
pub const REKEY_INTERVAL: u64 = 4_096;
/// Permutations behind the verdict's p-values.
pub const PERMUTATIONS: usize = 60;
/// Cohort names, matching the leakage gate's defended and baseline lists.
pub const COHORTS: [&str; 2] = ["AGE", "Std"];

/// One input batch with its ground truth.
pub struct Item {
    /// The readings to encode.
    pub batch: Batch,
    /// Event class (0..3); sets how many readings survive pruning.
    pub event: usize,
    /// 0 = AGE, 1 = Std (every fifth batch).
    pub cohort: usize,
}

/// Fleet-shaped batches drawn from `seed`: the same shape and value
/// range `age_sim::fleet::generate` encodes.
pub fn make_items(seed: u64, count: usize, cfg: &BatchConfig) -> Vec<Item> {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x5e45_0e4c);
    (0..count)
        .filter_map(|i| {
            let event = rng.gen_range(0..3usize);
            let kept = (6 + event * 8).min(SENSING_WINDOW as usize);
            let values = (0..kept * cfg.features())
                .map(|_| rng.gen_range(-16.0..16.0))
                .collect();
            let batch = Batch::new((0..kept).collect(), values).ok()?;
            let cohort = usize::from(i % 5 == 4);
            Some(Item {
                batch,
                event,
                cohort,
            })
        })
        .collect()
}

/// The two cohort encoders.
pub fn encoders() -> [Box<dyn Encoder>; 2] {
    [
        Box::new(AgeEncoder::new(fleet_age_target())),
        Box::new(StandardEncoder),
    ]
}

/// Root key and stagger phase of the benchmark sensor for `seed`.
pub fn sensor_root(seed: u64) -> ([u8; 32], u64) {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x5e05_0a11);
    let mut root = [0u8; 32];
    for chunk in root.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    (root, rng.gen_range(0..REKEY_INTERVAL))
}

/// The benchmark sensor: a rekeying ChaCha20-Poly1305 session keyed from
/// [`sensor_root`].
pub fn sensor(seed: u64) -> Sensor {
    let (root, phase) = sensor_root(seed);
    Sensor::with_rekey(root, REKEY_INTERVAL, phase, chacha20poly1305_factory)
}

/// What one pass of encode→seal produced.
#[derive(Default)]
pub struct Sealed {
    /// Every sealed frame, back to back.
    pub bytes: Vec<u8>,
    /// Each frame's length.
    pub lens: Vec<usize>,
    /// Each frame's `(epoch, sequence)`.
    pub nonces: Vec<(u64, u64)>,
    /// Batches the encoder refused.
    pub failed: u64,
}

/// The batches one repetition encodes: [`PASSES`] passes over `items`.
pub fn stream(items: &[Item]) -> impl Iterator<Item = &Item> {
    items.iter().cycle().take(items.len() * PASSES)
}

/// Encodes and seals every batch of [`stream`]; `plant_ns` busy-waits
/// before each seal. With `spans`, each encode and seal call gets a span.
pub fn encode_seal(
    items: &[Item],
    sensor: &mut Sensor,
    out: &mut Sealed,
    plant_ns: u64,
    mut spans: Option<&mut Spans>,
) {
    let cfg = fleet_batch_config();
    let encoders = encoders();
    let mut scratch = EncodeScratch::new();
    let mut payload = Vec::new();
    let mut frame = Vec::new();
    out.bytes.clear();
    out.lens.clear();
    out.nonces.clear();
    out.failed = 0;
    for item in stream(items) {
        let encoder = &encoders[item.cohort];
        let name = ["core.encode_age", "core.encode_std"][item.cohort];
        let encoded = leaf(&mut spans, name, "age-core", || {
            encoder.encode_into(&item.batch, &cfg, &mut scratch, &mut payload)
        });
        if encoded.is_err() {
            out.failed += 1;
            continue;
        }
        spin(plant_ns);
        let sequence = leaf(&mut spans, "transport.seal", "age-transport", || {
            sensor.seal_into(&payload, &mut frame)
        });
        out.bytes.extend_from_slice(&frame);
        out.lens.push(frame.len());
        out.nonces.push((sensor.epoch(), sequence));
    }
}

/// Feeds the sealed frames to the leakage audit (size and timing
/// channels, each cohort on its own virtual radio clock) and the nonce
/// audit.
pub fn audit(items: &[Item], sealed: &Sealed) -> (LeakageAudit, FleetNonceAudit) {
    let mut audit = LeakageAudit::new();
    let mut clocks = [
        VirtualClock::new(ClockModel::default()),
        VirtualClock::new(ClockModel::default()),
    ];
    let mut nonces = FleetNonceAudit::default();
    for ((item, &len), &(epoch, sequence)) in stream(items).zip(&sealed.lens).zip(&sealed.nonces) {
        let clock = &mut clocks[item.cohort];
        clock.advance_samples(SENSING_WINDOW);
        clock.advance_encode();
        clock.advance_seal();
        let sent_at = clock.advance_radio(len);
        audit.observe_timed("sensor", COHORTS[item.cohort], item.event, len, sent_at);
        nonces.observe(0, epoch, sequence);
    }
    (audit, nonces)
}

/// The verdict on the sealed frames: the leakage report with the gate's
/// outcome stamped in, as JSON, and whether gate and nonce audit passed.
pub fn verdict(items: &[Item], sealed: &Sealed, seed: u64) -> (String, bool) {
    let (audit, nonces) = audit(items, sealed);
    let mut report = audit.report(PERMUTATIONS, seed);
    let gate = leakage_gate(&["AGE"]).evaluate(&report.entries);
    let passed = gate.passed && nonces.is_clean();
    report.gate = Some(gate);
    (report.to_json(), passed)
}

/// The untimed end-to-end run.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut sealed = Sealed::default();
    let mut problems = Vec::new();
    let reps = repeat(opts, || {
        let (setup_s, (items, mut sensor, session_bytes)) = timed(|| {
            let items = make_items(opts.seed, DISTINCT, &fleet_batch_config());
            let before = live_bytes();
            let sensor = Box::new(sensor(opts.seed));
            let session_bytes = (live_bytes() - before) as f64;
            (items, sensor, session_bytes)
        });
        let (work_s, ()) =
            timed(|| encode_seal(&items, &mut sensor, &mut sealed, opts.plant_seal_ns, None));
        let (verdict_s, (report, passed)) = timed(|| verdict(&items, &sealed, opts.seed));
        if !passed {
            problems.push("leakage gate or nonce audit failed on sealed frames".to_string());
        }
        let age_lens: Vec<usize> = stream(&items)
            .zip(&sealed.lens)
            .filter(|(item, _)| item.cohort == 0)
            .map(|(_, &len)| len)
            .collect();
        if age_lens.windows(2).any(|w| w[0] != w[1]) {
            problems.push("AGE frames are not constant-size".to_string());
        }
        out.session_bytes = session_bytes;
        out.wire_bytes_per_frame = sealed.bytes.len() as f64 / sealed.lens.len().max(1) as f64;
        out.attempted += (items.len() * PASSES) as u64;
        out.failed += sealed.failed;
        let digest = Fnv::default()
            .bytes(&sealed.bytes)
            .bytes(report.as_bytes())
            .finish();
        Ok(Rep {
            setup_s,
            work_s,
            units: sealed.lens.len() as u64,
            verdict_s,
            digest,
        })
    })?;
    out.digest = agreed_digest(&reps, &mut problems);
    out.problems.extend(problems);
    out.reps = reps;
    Ok(out)
}
