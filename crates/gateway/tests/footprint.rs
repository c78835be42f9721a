//! Resident heap per session: the gateway's memory gate.
//!
//! The server is where per-sensor cost multiplies by the fleet size, so
//! the bytes a session keeps resident are pinned here, in the same
//! shape the repository benchmark's `fleet-cold` workload measures:
//! 20k sensors (one in five on the leaky `Std` baseline, the rest AGE),
//! 4 frames each, 4 shards drained on 2 threads, static keys, monitor
//! off. The figure is everything the gateway holds after ingest —
//! session slab, id index, per-cohort histograms, nonce audit, shard
//! scratch — divided by the provisioned sessions.
//!
//! Measured with the counting allocator's process-wide live-bytes
//! figure (allocations minus frees on every thread), so the parallel
//! drain is counted too. This binary holds a single test so no other
//! test allocates while it measures.

use age_core::{AgeEncoder, Batch, BatchConfig, StandardEncoder};
use age_crypto::ChaCha20Poly1305;
use age_fixed::Format;
use age_gateway::{derive_key, Cohort, FleetFrame, Gateway, GatewayConfig};
use age_telemetry::alloc::{self, CountingAllocator};
use age_transport::Sensor;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const SEED: u64 = 1;
const SENSORS: u64 = 20_000;
const FRAMES_PER_SENSOR: u64 = 4;
const SHARDS: usize = 4;
const THREADS: usize = 2;
/// Resident bytes a session may cost, everything the gateway holds
/// included.
const MAX_BYTES_PER_SESSION: f64 = 450.0;

fn batch_cfg() -> BatchConfig {
    BatchConfig::new(25, 2, Format::new(16, 10).unwrap()).unwrap()
}

fn cohorts() -> Vec<Cohort> {
    vec![
        Cohort::new("AGE", Box::new(AgeEncoder::new(160))),
        Cohort::new("Std", Box::new(StandardEncoder)),
    ]
}

fn cohort_of(sensor_id: u64) -> usize {
    usize::from(sensor_id % 5 == 4)
}

/// Every sensor's frames, sensors interleaved on the timeline: one
/// payload per (cohort, event class), sealed under each sensor's key.
fn traffic() -> Vec<FleetFrame> {
    let cfg = batch_cfg();
    let payloads: Vec<Vec<Vec<u8>>> = cohorts()
        .iter()
        .map(|cohort| {
            (0..3usize)
                .map(|event| {
                    let kept = 6 + event * 8;
                    let batch = Batch::new(
                        (0..kept).collect(),
                        (0..kept * 2).map(|v| (v as f64) * 0.25 - 3.0).collect(),
                    )
                    .unwrap();
                    cohort.encoder.encode(&batch, &cfg).unwrap()
                })
                .collect()
        })
        .collect();
    let mut frames = Vec::with_capacity((SENSORS * FRAMES_PER_SENSOR) as usize);
    let mut sealed = Vec::new();
    for sensor_id in 0..SENSORS {
        let key = derive_key(SEED, sensor_id);
        let mut sensor = Sensor::new(Box::new(ChaCha20Poly1305::new(key)));
        for round in 0..FRAMES_PER_SENSOR {
            let event = ((sensor_id + round) % 3) as usize;
            sensor.seal_into(&payloads[cohort_of(sensor_id)][event], &mut sealed);
            let sent_at_us = round * 260_000 + sensor_id % 250_000;
            frames.push(FleetFrame::encode(sensor_id, &sealed, event, sent_at_us));
        }
    }
    // Interleave the fleet on the timeline (stable: each sensor's own
    // frames stay in sequence order).
    frames.sort_by_key(|frame| frame.sent_at_us);
    frames
}

#[test]
fn resident_bytes_per_session_stay_under_the_gate() {
    let frames = traffic();

    let before = alloc::live_bytes();
    let mut gateway = Gateway::new(GatewayConfig::new(batch_cfg(), cohorts(), SEED, SHARDS));
    for sensor_id in 0..SENSORS {
        gateway.provision(sensor_id, cohort_of(sensor_id)).unwrap();
    }
    let provisioned = alloc::live_bytes() - before;
    gateway.run(&frames, THREADS);
    let resident = alloc::live_bytes() - before;

    let report = gateway.fleet_report();
    assert_eq!(report.stats.accepted, SENSORS * FRAMES_PER_SENSOR);
    assert_eq!(report.active_sensors, SENSORS);

    let per_session = resident as f64 / SENSORS as f64;
    println!(
        "provisioned {:.1} B/session, after ingest {per_session:.1} B/session",
        provisioned as f64 / SENSORS as f64
    );
    assert!(
        per_session <= MAX_BYTES_PER_SESSION,
        "the gateway keeps {per_session:.1} B per session after {FRAMES_PER_SENSOR} frames \
         (gate: {MAX_BYTES_PER_SESSION} B)"
    );
}
