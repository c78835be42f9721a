//! Which cohorts the fleet leakage audit lists, and what it counts.
//!
//! The audit bins accepted frames per (shard, cohort), so two rules are
//! pinned here: a cohort is listed if it has a provisioned session *or*
//! an accepted frame, and re-provisioning a sensor never drops frames an
//! eavesdropper already saw — the audit's observations always equal the
//! fleet report's cohort frames.
#![cfg(feature = "telemetry")]

use age_core::{AgeEncoder, Batch, BatchConfig, Encoder, StandardEncoder};
use age_crypto::ChaCha20Poly1305;
use age_fixed::Format;
use age_gateway::{derive_key, Cohort, FleetFrame, Gateway, GatewayConfig};
use age_transport::Sensor;

const SEED: u64 = 31;
const PERMUTATIONS: usize = 50;

fn batch_cfg() -> BatchConfig {
    BatchConfig::new(25, 2, Format::new(16, 10).unwrap()).unwrap()
}

/// AGE, the leaky Std baseline, and an AGE cohort whose sensors never
/// transmit.
fn config(shards: usize) -> GatewayConfig {
    GatewayConfig::new(
        batch_cfg(),
        vec![
            Cohort::new("AGE", Box::new(AgeEncoder::new(160))),
            Cohort::new("Std", Box::new(StandardEncoder)),
            Cohort::new("Idle", Box::new(AgeEncoder::new(160))),
        ],
        SEED,
        shards,
    )
}

fn encoder(cohort: usize) -> Box<dyn Encoder> {
    match cohort {
        1 => Box::new(StandardEncoder),
        _ => Box::new(AgeEncoder::new(160)),
    }
}

/// One sensor's transmitter: its key and its next sequence number
/// survive re-provisioning, as a real device's would.
struct Node {
    id: u64,
    sensor: Sensor,
    sent: u64,
}

impl Node {
    fn new(id: u64) -> Node {
        let key = derive_key(SEED, id);
        Node {
            id,
            sensor: Sensor::new(Box::new(ChaCha20Poly1305::new(key))),
            sent: 0,
        }
    }

    /// The next frame, encoded for the cohort the sensor now runs.
    fn frame(&mut self, cohort: usize) -> FleetFrame {
        let event = ((self.id + self.sent) % 3) as usize;
        let kept = 6 + event * 8;
        let batch = Batch::new(
            (0..kept).collect(),
            (0..kept * 2).map(|v| v as f64 * 0.5 - 4.0).collect(),
        )
        .unwrap();
        let payload = encoder(cohort).encode(&batch, &batch_cfg()).unwrap();
        let mut sealed = Vec::new();
        self.sensor.seal_into(&payload, &mut sealed);
        self.sent += 1;
        let sent_at_us = self.sent * 250_000 + self.id * 1_000;
        FleetFrame::encode(self.id, &sealed, event, sent_at_us)
    }
}

/// Provision, ingest, re-provision (one sensor in place, one moved from
/// AGE to Std), ingest again — the same script at any shard count.
fn reprovision_run(shards: usize) -> Gateway {
    let mut gateway = Gateway::new(config(shards));
    let cohort_of = |id: u64| usize::from(id % 4 == 3);
    let mut nodes: Vec<Node> = (0..12).map(Node::new).collect();
    for node in &nodes {
        gateway.provision(node.id, cohort_of(node.id)).unwrap();
    }
    for _ in 0..3 {
        for node in &mut nodes {
            let frame = node.frame(cohort_of(node.id));
            gateway.ingest(&frame).unwrap();
        }
    }
    // Sensor 0 is re-provisioned into the same cohort; sensor 1 moves
    // to Std and from now on sends Std payloads.
    gateway.provision(0, 0).unwrap();
    gateway.provision(1, 1).unwrap();
    let moved = |id: u64| if id == 1 { 1 } else { cohort_of(id) };
    for _ in 0..2 {
        for node in &mut nodes {
            let frame = node.frame(moved(node.id));
            gateway.ingest(&frame).unwrap();
        }
    }
    gateway
}

#[test]
fn reprovisioning_keeps_every_accepted_frame_in_the_leakage_audit() {
    let gateway = reprovision_run(4);
    let report = gateway.fleet_report();
    assert_eq!(report.stats.accepted, 12 * 5);
    assert_eq!(report.stats.rejected(), 0);
    let audit = gateway.leakage_audit();
    for cohort in &report.cohorts {
        let observed = audit
            .stream("fleet", &cohort.name)
            .map_or(0, |stream| stream.total());
        assert_eq!(
            observed, cohort.stats.frames,
            "cohort {} audited {observed} frames but accepted {}",
            cohort.name, cohort.stats.frames
        );
    }
    // Headcounts follow the move: 12 sensors, 3 + 1 of them on Std.
    let sensors: Vec<u64> = report.cohorts.iter().map(|c| c.stats.sensors).collect();
    assert_eq!(sensors, vec![8, 4, 0]);
    // Sensor 1 sent 3 AGE frames, then 2 Std frames.
    let frames: Vec<u64> = report.cohorts.iter().map(|c| c.stats.frames).collect();
    assert_eq!(frames, vec![8 * 5 + 3, 3 * 5 + 2, 0]);

    // The same script folds to the same bytes at any shard count.
    let leakage = audit.report(PERMUTATIONS, SEED).to_json();
    for shards in [1, 8] {
        let other = reprovision_run(shards);
        assert_eq!(other.fleet_report().to_json(), report.to_json());
        assert_eq!(
            other.leakage_audit().report(PERMUTATIONS, SEED).to_json(),
            leakage
        );
    }
}

#[test]
fn a_cohort_moved_out_entirely_stays_listed_by_its_frames() {
    let mut gateway = Gateway::new(config(2));
    let mut node = Node::new(5);
    gateway.provision(5, 0).unwrap();
    gateway.ingest(&node.frame(0)).unwrap();
    gateway.ingest(&node.frame(0)).unwrap();
    // The only AGE sensor moves to Std: AGE has no session left, but
    // its two frames were on the air.
    gateway.provision(5, 1).unwrap();
    gateway.ingest(&node.frame(1)).unwrap();
    let report = gateway.leakage_audit().report(PERMUTATIONS, SEED);
    let observations: Vec<(&str, u64)> = report
        .entries
        .iter()
        .map(|e| (e.encoder.as_str(), e.observations))
        .collect();
    assert_eq!(observations, vec![("AGE", 2), ("Std", 1)]);
}

/// A fleet where the `Idle` cohort is provisioned but silent.
fn silent_run(shards: usize) -> (String, String) {
    let mut gateway = Gateway::new(config(shards));
    let cohort_of = |id: u64| (id % 3) as usize;
    let mut nodes: Vec<Node> = (0..30).map(Node::new).collect();
    for node in &nodes {
        gateway.provision(node.id, cohort_of(node.id)).unwrap();
    }
    let mut frames = Vec::new();
    for _ in 0..4 {
        for node in nodes.iter_mut().filter(|n| cohort_of(n.id) != 2) {
            frames.push(node.frame(cohort_of(node.id)));
        }
    }
    gateway.run(&frames, shards.min(3));
    (
        gateway.fleet_report().to_json(),
        gateway.leakage_audit().report(PERMUTATIONS, SEED).to_json(),
    )
}

#[test]
fn a_silent_cohort_keeps_its_zero_count_entry_at_any_shard_count() {
    let (fleet, leakage) = silent_run(1);
    let audit = {
        let mut gateway = Gateway::new(config(1));
        gateway.provision(2, 2).unwrap();
        gateway.leakage_audit()
    };
    assert_eq!(
        audit.stream("fleet", "Idle").map(|s| s.total()),
        Some(0),
        "a provisioned cohort is listed before any frame arrives"
    );
    assert!(
        leakage.contains("\"encoder\": \"Idle\""),
        "the silent cohort is missing from the leakage report:\n{leakage}"
    );
    assert!(fleet.contains("\"name\": \"Idle\", \"sensors\": 10, \"frames\": 0"));
    for shards in [4, 8] {
        let (other_fleet, other_leakage) = silent_run(shards);
        assert_eq!(
            other_fleet, fleet,
            "fleet report differs at {shards} shards"
        );
        assert_eq!(
            other_leakage, leakage,
            "leakage report differs at {shards} shards"
        );
    }
}
