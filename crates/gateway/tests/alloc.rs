//! Allocation regression for the per-shard steady-state ingest path.
//!
//! A gateway holding 100k+ sessions processes millions of frames; any
//! per-frame allocation is a throughput cliff and a fragmentation
//! hazard. After a warm-up pass has grown the shard's payload buffer,
//! decode scratch, and created every histogram bin the traffic will
//! touch (one size and one gap key per event class, the session's
//! nonce run), the full frame → open → decode → rollup path must not
//! allocate at all — on static and on rekeying sessions.
//!
//! This test binary owns its `#[global_allocator]`; the counting
//! allocator's counters are thread-local, so measurement runs on the
//! single-frame `ingest` path (the multi-threaded `run` would spread
//! counts across worker threads).

use age_core::{AgeEncoder, Batch, BatchConfig, Encoder};
use age_crypto::ChaCha20Poly1305;
use age_fixed::Format;
use age_gateway::{derive_key, Cohort, FleetFrame, Gateway, GatewayConfig};
use age_telemetry::alloc::{self, CountingAllocator};
use age_transport::Sensor;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const SEED: u64 = 7;
const SENSOR: u64 = 5;

fn batch_cfg() -> BatchConfig {
    BatchConfig::new(25, 2, Format::new(16, 10).unwrap()).unwrap()
}

/// Valid frames from one AGE sensor on a constant cadence, cycling the
/// three event classes. Constant frame size (AGE) + constant cadence
/// means the cohort's histograms see exactly one (event, size) and one
/// (event, gap) key per class — all created during warm-up.
fn frames(count: usize) -> Vec<FleetFrame> {
    let cfg = batch_cfg();
    let age = AgeEncoder::new(160);
    let mut sensor = Sensor::new(Box::new(ChaCha20Poly1305::new(derive_key(SEED, SENSOR))));
    (0..count)
        .map(|i| {
            let event = i % 3;
            let kept = 6 + event * 8;
            let batch = Batch::new(
                (0..kept).collect(),
                (0..kept * 2).map(|v| (v as f64) * 0.25 - 3.0).collect(),
            )
            .unwrap();
            let payload = age.encode(&batch, &cfg).unwrap();
            let mut sealed = Vec::new();
            sensor.seal_into(&payload, &mut sealed);
            FleetFrame::encode(SENSOR, &sealed, event, (i as u64 + 1) * 260_000)
        })
        .collect()
}

#[test]
fn steady_state_ingest_is_allocation_free() {
    let config = GatewayConfig::new(
        batch_cfg(),
        vec![Cohort::new("AGE", Box::new(AgeEncoder::new(160)))],
        SEED,
        1,
    );
    let mut gateway = Gateway::new(config);
    gateway.provision(SENSOR, 0).unwrap();

    let all = frames(4 + 30);
    // Warm-up: first frame of each event class plus one wrap-around, so
    // every histogram key — (event, size) and (event, gap) for events
    // 0, 1, 2 — and the session's nonce run exist before measurement.
    let (warmup, steady) = all.split_at(4);
    for frame in warmup {
        gateway.ingest(frame).expect("warm-up frame accepted");
    }

    let before = alloc::snapshot();
    for frame in steady {
        gateway.ingest(frame).expect("steady-state frame accepted");
    }
    let delta = alloc::snapshot().since(before);
    assert_eq!(
        delta.allocations,
        0,
        "steady-state ingest allocated {} times ({} bytes) over {} frames",
        delta.allocations,
        delta.bytes,
        steady.len(),
    );

    let report = gateway.fleet_report();
    assert_eq!(report.stats.accepted, all.len() as u64);
    assert_eq!(report.stats.rejected(), 0);
}

/// The streaming monitor and flight recorder ride the same hot path,
/// so arming them must not reintroduce heap traffic: the recorder ring
/// is preallocated and the monitor's histogram keys are all created by
/// the same warm-up that grows the session's. One giant window keeps
/// the monitor from rolling (a roll allocates fresh window state, which
/// is fine once per window but must not happen per frame).
#[cfg(feature = "telemetry")]
#[test]
fn monitored_steady_state_ingest_is_allocation_free() {
    use age_telemetry::MonitorConfig;

    let mut config = GatewayConfig::new(
        batch_cfg(),
        vec![Cohort::new("AGE", Box::new(AgeEncoder::new(160)))],
        SEED,
        1,
    );
    config.monitor = Some(MonitorConfig {
        // One window spans the whole trace: no mid-steady rolls.
        window_us: 1 << 40,
        ..MonitorConfig::default()
    });
    config.recorder_capacity = 256;
    let mut gateway = Gateway::new(config);
    gateway.provision(SENSOR, 0).unwrap();

    let all = frames(4 + 30);
    let (warmup, steady) = all.split_at(4);
    for frame in warmup {
        gateway.ingest(frame).expect("warm-up frame accepted");
    }

    let before = alloc::snapshot();
    for frame in steady {
        gateway.ingest(frame).expect("steady-state frame accepted");
    }
    let delta = alloc::snapshot().since(before);
    assert_eq!(
        delta.allocations,
        0,
        "monitored steady-state ingest allocated {} times ({} bytes) over {} frames",
        delta.allocations,
        delta.bytes,
        steady.len(),
    );

    // The monitor and recorder really were live the whole time.
    let monitor = gateway.monitor().expect("monitor armed");
    let score = monitor.score(0, 0).expect("window 0 scored");
    assert_eq!(score.observations, all.len() as u64);
    let (records, dropped) = gateway.flight_records();
    assert_eq!(records.len(), all.len());
    assert_eq!(dropped, 0);
}

/// Rejections on the hot path must not allocate either: a flood of
/// garbage datagrams is exactly when the gateway can least afford heap
/// traffic.
#[test]
fn steady_state_rejections_are_allocation_free() {
    let config = GatewayConfig::new(
        batch_cfg(),
        vec![Cohort::new("AGE", Box::new(AgeEncoder::new(160)))],
        SEED,
        1,
    );
    let mut gateway = Gateway::new(config);
    gateway.provision(SENSOR, 0).unwrap();

    let valid = frames(8);
    // Warm the accept path (grows payload/scratch buffers).
    for frame in &valid[..4] {
        gateway.ingest(frame).expect("warm-up frame accepted");
    }
    // Pre-built hostile datagrams: truncated, unknown sensor, corrupted.
    let truncated = FleetFrame {
        wire: vec![1, 2, 3],
        event: 0,
        sent_at_us: 0,
    };
    let mut unknown = valid[4].clone();
    unknown.wire[..8].copy_from_slice(&999u64.to_le_bytes());
    let mut corrupt = valid[5].clone();
    corrupt.wire[20] ^= 0xFF;
    // Warm-up pass over each rejection class (counters are plain
    // fields, but the first corrupt open may grow the payload buffer).
    for frame in [&truncated, &unknown, &corrupt] {
        gateway.ingest(frame).expect_err("hostile frame rejected");
    }

    let before = alloc::snapshot();
    for _ in 0..10 {
        for frame in [&truncated, &unknown, &corrupt] {
            gateway.ingest(frame).expect_err("hostile frame rejected");
        }
    }
    let delta = alloc::snapshot().since(before);
    assert_eq!(
        delta.allocations, 0,
        "steady-state rejection allocated {} times ({} bytes)",
        delta.allocations, delta.bytes,
    );
}

/// Watermark for the rekeying tests: the fleet-monitored cadence, so a
/// forged frame runs the full `epoch_skip_budget(1024, 64)` = 18
/// forward probes before it is rejected.
const REKEY_INTERVAL: u64 = 64;

/// A rekeying sensor's frames in *seal* order, each with the epoch it
/// was sealed under. Events cycle as in [`frames`]; send stamps are
/// assigned later, in delivery order, so every accepted frame sees the
/// same gap and no new histogram bin appears after warm-up.
fn rekey_payloads(count: usize) -> Vec<(Vec<u8>, usize, u64)> {
    use age_gateway::derive_root;
    use age_transport::chacha20poly1305_factory;

    let cfg = batch_cfg();
    let age = AgeEncoder::new(160);
    let root = derive_root(SEED, SENSOR);
    let mut sensor = Sensor::with_rekey(root, REKEY_INTERVAL, 0, chacha20poly1305_factory);
    (0..count)
        .map(|i| {
            let event = i % 3;
            let kept = 6 + event * 8;
            let batch = Batch::new(
                (0..kept).collect(),
                (0..kept * 2).map(|v| (v as f64) * 0.25 - 3.0).collect(),
            )
            .unwrap();
            let payload = age.encode(&batch, &cfg).unwrap();
            let mut sealed = Vec::new();
            sensor.seal_into(&payload, &mut sealed);
            (sealed, event, sensor.epoch())
        })
        .collect()
}

/// Epoch rotations, stragglers and forged frames on a rekeying session
/// allocate nothing: the session's AEAD is held inline, so following a
/// rotation or probing future epochs builds ciphers on the stack. The
/// only heap traffic on a frame that crosses into a new epoch is the
/// gateway-side nonce audit opening that epoch's sequence-run list (one
/// per sensor per epoch; without `telemetry` there is no audit and the
/// crossing allocates nothing at all).
#[test]
fn rekeying_ingest_is_allocation_free() {
    let mut config = GatewayConfig::new(
        batch_cfg(),
        vec![Cohort::new("AGE", Box::new(AgeEncoder::new(160)))],
        SEED,
        1,
    );
    config.rekey_interval = Some(REKEY_INTERVAL);
    let mut gateway = Gateway::new(config);
    gateway.provision(SENSOR, 0).unwrap();

    let sealed = rekey_payloads(REKEY_INTERVAL as usize + 8);
    let last_of_epoch0 = REKEY_INTERVAL as usize - 1;
    assert_eq!(sealed[last_of_epoch0].2, 0);
    assert_eq!(sealed[last_of_epoch0 + 1].2, 1);
    // Delivery order: epoch 0 minus its last frame, the first epoch-1
    // frame (the crossing), the held-back epoch-0 frame (a straggler
    // under the previous key), then more epoch-1 traffic.
    let mut order: Vec<usize> = (0..last_of_epoch0).collect();
    order.extend([last_of_epoch0 + 1, last_of_epoch0]);
    order.extend(last_of_epoch0 + 2..sealed.len());
    let delivered: Vec<FleetFrame> = order
        .iter()
        .enumerate()
        .map(|(at, &i)| {
            let (wire, event, _) = &sealed[i];
            FleetFrame::encode(SENSOR, wire, *event, (at as u64 + 1) * 260_000)
        })
        .collect();
    let crossing = last_of_epoch0;
    let (warmup, rest) = delivered.split_at(4);
    let (steady, rest) = rest.split_at(crossing - 4);
    let (cross, rest) = rest.split_at(1);
    let (straggler, after) = rest.split_at(1);
    // A forged frame: a not-yet-delivered frame with one ciphertext byte
    // flipped fails the current key, the previous key and every probe.
    let mut forged = FleetFrame::encode(SENSOR, &sealed[sealed.len() - 1].0, 0, 0);
    forged.wire[20] ^= 0xFF;

    for frame in warmup {
        gateway.ingest(frame).expect("warm-up frame accepted");
    }
    gateway.ingest(&forged).expect_err("forged frame rejected");

    let count = |gateway: &mut Gateway, frames: &[FleetFrame]| {
        let before = alloc::snapshot();
        for frame in frames {
            gateway.ingest(frame).expect("frame accepted");
        }
        alloc::snapshot().since(before)
    };

    let delta = count(&mut gateway, steady);
    assert_eq!(delta.allocations, 0, "steady rekeying accepts allocated");

    // What the nonce audit alone allocates to open epoch 1's run list.
    #[cfg(feature = "telemetry")]
    let audit_allocations = {
        let mut audit = gateway.nonce_audit();
        let before = alloc::snapshot();
        audit.observe(SENSOR, 1, REKEY_INTERVAL);
        alloc::snapshot().since(before).allocations
    };
    #[cfg(not(feature = "telemetry"))]
    let audit_allocations = 0;
    let delta = count(&mut gateway, cross);
    assert_eq!(
        delta.allocations, audit_allocations,
        "the epoch crossing allocated beyond the nonce audit's new epoch entry"
    );

    let delta = count(&mut gateway, straggler);
    assert_eq!(delta.allocations, 0, "the previous-key straggler allocated");
    let delta = count(&mut gateway, after);
    assert_eq!(delta.allocations, 0, "accepts after the rotation allocated");

    let before = alloc::snapshot();
    for _ in 0..10 {
        gateway.ingest(&forged).expect_err("forged frame rejected");
    }
    let delta = alloc::snapshot().since(before);
    assert_eq!(
        delta.allocations, 0,
        "forged frames on a rekeying session allocated {} times",
        delta.allocations
    );

    // Every path above really ran.
    let receivers = gateway.receiver_stats();
    assert_eq!(receivers.epoch_advances, 1);
    assert_eq!(receivers.epoch_behind, 1);
    assert_eq!(receivers.auth_failed, 11);
    assert_eq!(
        gateway.fleet_report().stats.accepted,
        delivered.len() as u64
    );
}
