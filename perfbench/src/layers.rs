//! The traced run (`--trace 1`): per-layer metrics.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. Each workload measures the layers it runs, on its own
//! inputs: its timed region runs again with spans around every layer call
//! (through the same loop as the untraced run) and is compared with the
//! same region untraced, which gives the tracing overhead. A per-layer
//! metric whose layer the workload never calls reads 0 and is marked
//! `idle` on the summary lines; the four workloads together measure
//! every metric.
//!
//! The fleet replays also give the closure row: the named ingest stages
//! (route, receive, decode, observe) against the traced
//! `Gateway::ingest`, with the remainder as `gateway.unattributed_ns`.

use std::collections::BTreeMap;
use std::time::Instant;

use age_core::{Batch, EncodeScratch};
use age_crypto::{ChaCha20Poly1305, Cipher, EpochRatchet};
use age_fixed::BitWriter;
use age_gateway::{
    derive_key, derive_root, sensor_id_of, shard_of, FleetReport, Gateway, GatewayConfig,
    HEADER_LEN,
};
use age_reconstruct::interpolate;
use age_sim::fleet::{
    fleet_batch_config, fleet_cohorts, fleet_gateway_config, generate, FleetConfig, FleetTraffic,
};
use age_sim::monitor::{run_monitored, MonitorRunConfig};
use age_sim::{ExperimentResult, PolicyKind, Runner};
use age_telemetry::{FleetNonceAudit, LeakageStream};
use age_transport::{chacha20poly1305_factory, epoch_skip_budget, Receiver, Sensor, MAX_SKIP};

use crate::alloc::allocations;
use crate::encode_seal::{self, Item, Sealed};
use crate::fleet_cold;
use crate::fleet_monitored::{self, Monitored};
use crate::harness::{leakage_gate, median, timed, Options, Report};
use crate::paper_sweep::{self, Audits, Grid};
use crate::spans::Spans;

/// Every per-layer metric, in print order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fixed.quantize_ns", "ns"),
    ("fixed.pack_ns", "ns"),
    ("core.encode_age_ns", "ns"),
    ("core.encode_std_ns", "ns"),
    ("core.allocs_per_encode", "count"),
    ("core.decode_age_ns", "ns"),
    ("core.decode_std_ns", "ns"),
    ("crypto.seal_ns", "ns"),
    ("crypto.open_ns", "ns"),
    ("crypto.kdf_ns", "ns"),
    ("transport.seal_ns", "ns"),
    ("transport.receive_ns", "ns"),
    ("transport.rotations", "count"),
    ("transport.attempts_per_delivery", "ratio"),
    ("gateway.provision_ns", "ns"),
    ("gateway.ingest_p50_ns", "ns"),
    ("gateway.ingest_p99_ns", "ns"),
    ("gateway.ingest_first_ns", "ns"),
    ("gateway.ingest_mean_ns", "ns"),
    ("gateway.route_ns", "ns"),
    ("gateway.observe_ns", "ns"),
    ("gateway.named_stages_ns", "ns"),
    ("gateway.unattributed_ns", "ns"),
    ("gateway.closure_coverage", "ratio"),
    ("gateway.shard_skew", "ratio"),
    ("gateway.rejected", "count"),
    ("gateway.rejected_header", "count"),
    ("gateway.rejected_unknown_sensor", "count"),
    ("gateway.rejected_auth", "count"),
    ("gateway.rejected_replay", "count"),
    ("gateway.rejected_far_future", "count"),
    ("gateway.rejected_missing_sequence", "count"),
    ("gateway.rejected_decode", "count"),
    ("gateway.leakage_audit_s", "s"),
    ("gateway.nonce_audit_s", "s"),
    ("gateway.fleet_report_s", "s"),
    ("gateway.tick_run_ms", "ms"),
    ("gateway.monitor_fold_ms", "ms"),
    ("gateway.health_line_us", "us"),
    ("telemetry.permutation_s", "s"),
    ("telemetry.gate_us", "us"),
    ("telemetry.stream_observe_ns", "ns"),
    ("telemetry.nonce_observe_ns", "ns"),
    ("telemetry.alarms_ms", "ms"),
    ("telemetry.monitor_fold_growth", "ratio"),
    ("sim.generate_s", "s"),
    ("sim.run_monitored_s", "s"),
    ("sim.fit_s", "s"),
    ("sim.cell_plain_ms", "ms"),
    ("sim.cell_link_ms", "ms"),
    ("sampling.sample_us", "us"),
    ("reconstruct.interpolate_us", "us"),
    ("datasets.generate_s", "s"),
    ("attack.classify_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.span_cost_ns", "ns"),
];

/// Where traced runs write their Chrome traces, relative to the checkout.
const TRACE_DIR: &str = "perfbench/out";
/// Minimum repetitions of each traced and untraced timed region.
const OVERHEAD_REPS: usize = 3;

/// Per-layer figures measured so far.
#[derive(Default)]
struct Layers {
    values: BTreeMap<&'static str, f64>,
    problems: Vec<String>,
    /// Median cost of one empty span, subtracted from every stage of the
    /// closure row.
    span_cost_ns: f64,
}

impl Layers {
    /// Records `name` unless an earlier measurement already did.
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_insert(value);
    }

    /// Records the median of span `span` in the given scale (1 = ns,
    /// 1e3 = µs, ...).
    fn median(&mut self, name: &'static str, spans: &Spans, span: &str, per: f64) {
        if !spans.durations(span).is_empty() {
            self.put(name, spans.median_ns(span) / per);
        }
    }
}

/// Mean of span `name`'s durations, in nanoseconds.
fn mean_ns(spans: &Spans, name: &str) -> f64 {
    let d = spans.durations(name);
    d.iter().sum::<u64>() as f64 / d.len().max(1) as f64
}

/// Medians of alternating untraced/traced repetitions of a timed region,
/// repeated for `seconds` (and at least [`OVERHEAD_REPS`] times).
fn overhead(
    layers: &mut Layers,
    seconds: f64,
    mut untraced: impl FnMut() -> f64,
    mut traced: impl FnMut() -> f64,
) {
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut with_spans = Vec::new();
    while plain.len() < OVERHEAD_REPS || start.elapsed().as_secs_f64() < seconds {
        plain.push(untraced());
        with_spans.push(traced());
    }
    let (u, t) = (median(&plain), median(&with_spans));
    layers.put("trace.untraced_s", u);
    layers.put("trace.traced_s", t);
    layers.put("trace.overhead_s", t - u);
    layers.put("trace.overhead_share", (t - u) / u.max(1e-12));
}

// ---------------------------------------------------------------- codec

/// The codec layers on `items`: quantize, pack, encode (and its
/// allocations), decode, AEAD seal/open, the KDF ratchet, transport
/// seal/receive, and the audit observers.
fn codec(items: &[Item], seed: u64, spans: &mut Spans, layers: &mut Layers) {
    let cfg = fleet_batch_config();
    let format = cfg.format();
    let encoders = encode_seal::encoders();
    let mut scratch = EncodeScratch::new();
    let mut payload = Vec::new();
    let mut bits = Vec::new();
    let mut packed = Vec::new();
    let mut decoded = Batch::empty();
    let mut frame = Vec::new();
    let mut opened = Vec::new();

    // Allocations per encode, counted with no span bookkeeping around.
    for item in items.iter().take(64) {
        let _ = encoders[item.cohort].encode_into(&item.batch, &cfg, &mut scratch, &mut payload);
    }
    let before = allocations();
    for item in items {
        let _ = encoders[item.cohort].encode_into(&item.batch, &cfg, &mut scratch, &mut payload);
    }
    layers.put(
        "core.allocs_per_encode",
        (allocations() - before) as f64 / items.len().max(1) as f64,
    );

    let cipher = ChaCha20Poly1305::new(derive_key(seed, 0));
    let (root, phase) = encode_seal::sensor_root(seed);
    let mut sensor = Sensor::with_rekey(
        root,
        encode_seal::REKEY_INTERVAL,
        phase,
        chacha20poly1305_factory,
    );
    let mut receiver = Receiver::with_ratchet(
        root,
        MAX_SKIP,
        epoch_skip_budget(MAX_SKIP, encode_seal::REKEY_INTERVAL),
        chacha20poly1305_factory,
    );
    let mut sizes = LeakageStream::new();
    let mut nonces = FleetNonceAudit::default();
    for (i, item) in items.iter().enumerate() {
        let encoder = &encoders[item.cohort];
        spans.leaf("fixed.quantize", "age-fixed", || {
            format.quantize_bits_slice(item.batch.values(), &mut bits)
        });
        packed = spans.leaf("fixed.pack", "age-fixed", || {
            let mut writer = BitWriter::from_vec(std::mem::take(&mut packed));
            writer.write_fields(&bits, format.width());
            writer.into_bytes()
        });
        let name = ["core.encode_age", "core.encode_std"][item.cohort];
        let ok = spans.leaf(name, "age-core", || {
            encoder
                .encode_into(&item.batch, &cfg, &mut scratch, &mut payload)
                .is_ok()
        });
        if !ok {
            layers
                .problems
                .push("codec layers: encode failed".to_string());
            continue;
        }
        let name = ["core.decode_age", "core.decode_std"][item.cohort];
        let ok = spans.leaf(name, "age-core", || {
            encoder
                .decode_into(&payload, &cfg, &mut scratch, &mut decoded)
                .is_ok()
        });
        if !ok || decoded.indices() != item.batch.indices() {
            layers
                .problems
                .push("codec layers: decode round trip failed".to_string());
        }
        spans.leaf("crypto.seal", "age-crypto", || {
            cipher.seal_into(i as u64, &payload, &mut frame)
        });
        let ok = spans.leaf("crypto.open", "age-crypto", || {
            cipher.open_into(&frame, &mut opened).is_ok()
        });
        if !ok || opened != payload {
            layers
                .problems
                .push("codec layers: AEAD round trip failed".to_string());
        }
        let sequence = spans.leaf("transport.seal", "age-transport", || {
            sensor.seal_into(&payload, &mut frame)
        });
        let ok = spans.leaf("transport.receive", "age-transport", || {
            receiver.receive_into(&frame, &mut opened).is_ok()
        });
        if !ok || opened != payload {
            layers
                .problems
                .push("codec layers: transport round trip failed".to_string());
        }
        spans.leaf("telemetry.stream_observe", "age-telemetry", || {
            sizes.observe(item.event, frame.len())
        });
        let epoch = sensor.epoch();
        spans.leaf("telemetry.nonce_observe", "age-telemetry", || {
            nonces.observe(0, epoch, sequence)
        });
    }
    let mut ratchet = EpochRatchet::new(root);
    for _ in 0..1_000 {
        spans.leaf("crypto.kdf", "age-crypto", || ratchet.advance());
    }
    layers.put("transport.rotations", sensor.epoch() as f64);
    for (name, span) in [
        ("fixed.quantize_ns", "fixed.quantize"),
        ("fixed.pack_ns", "fixed.pack"),
        ("core.encode_age_ns", "core.encode_age"),
        ("core.encode_std_ns", "core.encode_std"),
        ("core.decode_age_ns", "core.decode_age"),
        ("core.decode_std_ns", "core.decode_std"),
        ("crypto.seal_ns", "crypto.seal"),
        ("crypto.open_ns", "crypto.open"),
        ("crypto.kdf_ns", "crypto.kdf"),
        ("transport.seal_ns", "transport.seal"),
        ("transport.receive_ns", "transport.receive"),
        ("telemetry.stream_observe_ns", "telemetry.stream_observe"),
        ("telemetry.nonce_observe_ns", "telemetry.nonce_observe"),
    ] {
        layers.median(name, spans, span, 1.0);
    }
}

// -------------------------------------------------------------- gateway

/// A harness-side receive session mirroring the gateway's, for the stage
/// replay.
fn mirror_receiver(fleet: &FleetConfig, sensor_id: u64) -> Receiver {
    match fleet.rekey_interval {
        Some(interval) => Receiver::with_ratchet(
            derive_root(fleet.seed, sensor_id),
            MAX_SKIP,
            epoch_skip_budget(MAX_SKIP, interval),
            chacha20poly1305_factory,
        ),
        None => Receiver::with_max_skip(
            Box::new(ChaCha20Poly1305::new(derive_key(fleet.seed, sensor_id))),
            MAX_SKIP,
        ),
    }
}

/// Per-frame `Gateway::ingest` in trace order with a span around each
/// call; returns per-shard busy nanoseconds and first-touch durations.
fn traced_ingest(
    gateway: &mut Gateway,
    traffic: &FleetTraffic,
    sensors: usize,
    spans: &mut Spans,
) -> (Vec<f64>, Vec<f64>) {
    let shards = gateway.shard_occupancy().len();
    let mut busy = vec![0.0; shards];
    let mut first = Vec::new();
    let mut seen = vec![false; sensors];
    spans.span("e2e.ingest", "benchmark", |spans| {
        for frame in &traffic.frames {
            let start = Instant::now();
            let _ = spans.leaf("gateway.ingest", "age-gateway", || gateway.ingest(frame));
            let ns = start.elapsed().as_nanos() as f64;
            let id = sensor_id_of(&frame.wire).unwrap_or(0);
            busy[shard_of(id, shards)] += ns;
            if let Some(seen) = seen.get_mut(id as usize) {
                if !*seen {
                    *seen = true;
                    first.push(ns);
                }
            }
        }
    });
    (busy, first)
}

/// Replays the ingest stages with harness-owned state, as `stage.*`
/// spans: route (header + shard hash), receive (AEAD open + replay
/// window), decode, observe (size and gap histograms, nonce audit).
fn stage_replay(fleet: &FleetConfig, traffic: &FleetTraffic, shards: usize, spans: &mut Spans) {
    let cfg = fleet_batch_config();
    let cohorts = fleet_cohorts();
    let mut receivers: Vec<Receiver> = (0..fleet.sensors)
        .map(|id| mirror_receiver(fleet, id))
        .collect();
    let mut streams =
        vec![(LeakageStream::new(), LeakageStream::new(), None::<u64>); receivers.len()];
    let mut nonces = FleetNonceAudit::default();
    let mut payload = Vec::new();
    let mut scratch = EncodeScratch::new();
    let mut decoded = Batch::empty();
    for frame in &traffic.frames {
        let (id, _) = spans.leaf("stage.route", "age-gateway", || {
            let id = sensor_id_of(&frame.wire).unwrap_or(u64::MAX);
            (id, shard_of(id, shards))
        });
        let Some(receiver) = receivers.get_mut(id as usize) else {
            continue;
        };
        let Ok(sequence) = spans.leaf("stage.receive", "age-transport", || {
            receiver.receive_into(&frame.wire[HEADER_LEN..], &mut payload)
        }) else {
            continue;
        };
        let cohort = fleet.cohort_of(id);
        let name = ["stage.decode_age", "stage.decode_std"][cohort];
        let _ = spans.leaf(name, "age-core", || {
            cohorts[cohort]
                .encoder
                .decode_into(&payload, &cfg, &mut scratch, &mut decoded)
        });
        let state = &mut streams[id as usize];
        spans.leaf("stage.stream_observe", "age-telemetry", || {
            state.0.observe(frame.event, frame.wire.len());
            if let Some(prev) = state.2.filter(|&prev| frame.sent_at_us > prev) {
                state
                    .1
                    .observe(frame.event, (frame.sent_at_us - prev) as usize);
            }
            state.2 = Some(frame.sent_at_us);
        });
        let epoch = receiver.last_epoch();
        spans.leaf("stage.nonce_observe", "age-telemetry", || {
            nonces.observe(id, epoch, sequence)
        });
    }
}

/// The gateway layers on one fleet: generation, provisioning, traced
/// ingest, the stage replay and closure, and the post-traffic audits.
fn gateway_layers(
    fleet: &FleetConfig,
    config: GatewayConfig,
    permutations: usize,
    spans: &mut Spans,
    layers: &mut Layers,
) -> FleetReport {
    let traffic = spans.span("sim.generate", "age-sim", |_| generate(fleet));
    layers.put("sim.generate_s", spans.median_ns("sim.generate") / 1e9);
    let mut gateway = Gateway::new(config);
    for id in 0..fleet.sensors {
        let _ = spans.leaf("gateway.provision", "age-gateway", || {
            gateway.provision(id, fleet.cohort_of(id))
        });
    }
    let shards = gateway.shard_occupancy().len();
    let (busy, first) = traced_ingest(&mut gateway, &traffic, fleet.sensors as usize, spans);
    stage_replay(fleet, &traffic, shards, spans);

    let audit = spans.span("gateway.leakage_audit", "age-gateway", |_| {
        gateway.leakage_audit()
    });
    let report = spans.span("telemetry.permutation", "age-telemetry", |_| {
        audit.report(permutations, fleet.seed)
    });
    let _ = spans.span("telemetry.gate", "age-telemetry", |_| {
        leakage_gate(&["AGE"]).evaluate(&report.entries)
    });
    let clean = spans.span("gateway.nonce_audit", "age-gateway", |_| {
        gateway.nonce_audit().is_clean()
    });
    let fleet_report = spans.span("gateway.fleet_report", "age-gateway", |_| {
        gateway.fleet_report()
    });
    if !clean || !traffic.sealed_nonces.is_clean() {
        layers
            .problems
            .push("gateway replay: nonce audit not clean".to_string());
    }

    // Every stage mean loses one empty span's cost, so the four stages'
    // five spans and ingest's one are compared like for like.
    let stage = |name: &str| mean_ns(spans, name) - layers.span_cost_ns;
    let ingest = stage("gateway.ingest");
    let observe = stage("stage.stream_observe") + stage("stage.nonce_observe");
    let decode = {
        let (age, std) = (
            spans.durations("stage.decode_age"),
            spans.durations("stage.decode_std"),
        );
        let total = age.iter().sum::<u64>() + std.iter().sum::<u64>();
        total as f64 / (age.len() + std.len()).max(1) as f64 - layers.span_cost_ns
    };
    let route = stage("stage.route");
    let named = route + stage("stage.receive") + decode + observe;
    layers.put("gateway.ingest_mean_ns", ingest);
    layers.put("gateway.route_ns", route);
    layers.put("gateway.observe_ns", observe);
    layers.put("gateway.named_stages_ns", named);
    layers.put("gateway.unattributed_ns", ingest - named);
    layers.put("gateway.closure_coverage", named / ingest.max(1e-9));
    layers.put("gateway.ingest_first_ns", median(&first));
    let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    layers.put(
        "gateway.shard_skew",
        busy.iter().cloned().fold(0.0, f64::max) / mean_busy.max(1e-9),
    );
    layers.median("gateway.provision_ns", spans, "gateway.provision", 1.0);
    layers.put(
        "gateway.ingest_p50_ns",
        spans.quantile_ns("gateway.ingest", 0.5),
    );
    layers.put(
        "gateway.ingest_p99_ns",
        spans.quantile_ns("gateway.ingest", 0.99),
    );
    layers.put(
        "gateway.leakage_audit_s",
        spans.median_ns("gateway.leakage_audit") / 1e9,
    );
    layers.put(
        "gateway.nonce_audit_s",
        spans.median_ns("gateway.nonce_audit") / 1e9,
    );
    layers.put(
        "gateway.fleet_report_s",
        spans.median_ns("gateway.fleet_report") / 1e9,
    );
    layers.put(
        "telemetry.permutation_s",
        spans.median_ns("telemetry.permutation") / 1e9,
    );
    layers.put("telemetry.gate_us", spans.median_ns("telemetry.gate") / 1e3);
    let s = &fleet_report.stats;
    layers.put("gateway.rejected", s.rejected() as f64);
    layers.put(
        "gateway.rejected_header",
        (s.header_truncated + s.header_oversized) as f64,
    );
    layers.put("gateway.rejected_unknown_sensor", s.unknown_sensor as f64);
    layers.put("gateway.rejected_auth", s.auth_failed as f64);
    layers.put("gateway.rejected_replay", s.replay_rejected as f64);
    layers.put("gateway.rejected_far_future", s.far_future as f64);
    layers.put(
        "gateway.rejected_missing_sequence",
        s.missing_sequence as f64,
    );
    layers.put("gateway.rejected_decode", s.decode_failed as f64);
    layers.put("transport.rotations", s.rotations as f64);
    for (name, span) in [
        ("transport.receive_ns", "stage.receive"),
        ("core.decode_age_ns", "stage.decode_age"),
        ("core.decode_std_ns", "stage.decode_std"),
        ("telemetry.stream_observe_ns", "stage.stream_observe"),
        ("telemetry.nonce_observe_ns", "stage.nonce_observe"),
    ] {
        layers.median(name, spans, span, 1.0);
    }
    fleet_report
}

// -------------------------------------------------------------- monitor

/// A monitored run's tick loop and close with a span around each layer
/// call, on a trace and gateway built here.
fn traced_monitored(config: &MonitorRunConfig, spans: &mut Spans) -> Monitored {
    let traffic = generate(&config.fleet);
    let mut gateway = fleet_monitored::gateway(config);
    let mut out = Monitored::default();
    let at = spans.span("e2e.ticks", "benchmark", |spans| {
        fleet_monitored::ticks(config, &traffic.frames, &mut gateway, &mut out, Some(spans))
    });
    spans.span("e2e.close", "benchmark", |spans| {
        fleet_monitored::close(config, &gateway, &at, &mut out, Some(spans))
    });
    out
}

/// The monitor layers on one monitored run.
fn monitor_layers(config: &MonitorRunConfig, spans: &mut Spans, layers: &mut Layers) {
    let traced = traced_monitored(config, spans);
    let (run_s, run) = timed(|| run_monitored(config));
    if Monitored::of(&run) != traced {
        layers
            .problems
            .push("traced tick loop diverged from run_monitored".to_string());
    }
    layers.put("sim.run_monitored_s", run_s);
    layers.put(
        "gateway.tick_run_ms",
        mean_ns(spans, "gateway.tick_run") / 1e6,
    );
    layers.put(
        "gateway.monitor_fold_ms",
        mean_ns(spans, "gateway.monitor_fold") / 1e6,
    );
    layers.put(
        "telemetry.alarms_ms",
        mean_ns(spans, "telemetry.alarms") / 1e6,
    );
    layers.median("gateway.health_line_us", spans, "gateway.health_line", 1e3);
    let folds = spans.durations("gateway.monitor_fold");
    let decile = (folds.len() / 10).max(1);
    let mean = |d: &[u64]| d.iter().sum::<u64>() as f64 / d.len().max(1) as f64;
    layers.put(
        "telemetry.monitor_fold_growth",
        mean(&folds[folds.len() - decile..]) / mean(&folds[..decile]).max(1.0),
    );
}

// ---------------------------------------------------------------- sweep

/// The simulator layers: one span per cell, sampling and reconstruction
/// on test sequences, the attack, and the sweep's leakage gate. Returns
/// every cell's result.
fn sweep_layers(
    runners: &[Runner],
    seed: u64,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Vec<ExperimentResult> {
    let grid = Grid::new(seed);
    let audits = Audits::new();
    let results = spans.span("e2e.sweep", "benchmark", |spans| {
        paper_sweep::sweep(runners, &grid, &audits, Some(spans))
    });
    for runner in runners {
        let d = runner.dataset().spec().features;
        let len = runner.dataset().spec().seq_len;
        for policy in [PolicyKind::Linear, PolicyKind::Deviation] {
            let policy = runner.policy(policy, paper_sweep::RATES[0]);
            for sequence in runner.test_sequences().iter().take(100) {
                let indices = spans.leaf("sampling.sample", "age-sampling", || {
                    policy.sample(&sequence.values, d)
                });
                let values: Vec<f64> = indices
                    .iter()
                    .flat_map(|&t| sequence.values[t * d..(t + 1) * d].iter().copied())
                    .collect();
                let _ = spans.leaf("reconstruct.interpolate", "age-reconstruct", || {
                    interpolate(&indices, &values, len, d)
                });
            }
        }
    }
    for result in &results {
        let observations = result.observations();
        let _ = spans.leaf("attack.classify", "age-attack", || {
            paper_sweep::attack(seed).run(&observations)
        });
    }
    let audit = audits.take_leakage();
    let report = spans.span("telemetry.permutation", "age-telemetry", |_| {
        audit.report(paper_sweep::PERMUTATIONS, seed)
    });
    let gate = spans.span("telemetry.gate", "age-telemetry", |_| {
        leakage_gate(&["AGE", "Padded"]).evaluate(&report.entries)
    });
    if !gate.passed {
        layers
            .problems
            .push("traced sweep failed the leakage gate".to_string());
    }
    layers.put(
        "telemetry.permutation_s",
        spans.median_ns("telemetry.permutation") / 1e9,
    );
    layers.put("telemetry.gate_us", spans.median_ns("telemetry.gate") / 1e3);

    // Each runner's results are its plain cells, then its link cells.
    let per_runner = grid.plain.len() + grid.link.len();
    let records = results
        .chunks(per_runner)
        .flat_map(|cells| &cells[grid.plain.len()..])
        .flat_map(|r| &r.records);
    let attempts: u64 = records.clone().map(|r| u64::from(r.attempts)).sum();
    let delivered = records.filter(|r| r.attempts > 0 && !r.lost).count() as f64;
    layers.put(
        "transport.attempts_per_delivery",
        attempts as f64 / delivered.max(1.0),
    );
    layers.put("datasets.generate_s", spans.total_s("datasets.generate"));
    layers.put("sim.fit_s", spans.total_s("sim.fit"));
    let per_cell = |name: &str, cells: usize| mean_ns(spans, name) / 1e6 / cells.max(1) as f64;
    layers.put(
        "sim.cell_plain_ms",
        per_cell("sim.cells_plain", grid.plain.len()),
    );
    layers.put(
        "sim.cell_link_ms",
        per_cell("sim.cells_link", grid.link.len()),
    );
    layers.median("sampling.sample_us", spans, "sampling.sample", 1e3);
    layers.median(
        "reconstruct.interpolate_us",
        spans,
        "reconstruct.interpolate",
        1e3,
    );
    layers.put("attack.classify_s", mean_ns(spans, "attack.classify") / 1e9);
    results
}

// ------------------------------------------------------------ workloads

fn trace_encode_seal(opts: &Options, spans: &mut Spans, layers: &mut Layers) {
    let items = encode_seal::make_items(opts.seed, encode_seal::DISTINCT, &fleet_batch_config());
    let pass = |sealed: &mut Sealed, spans: Option<&mut Spans>| {
        let mut sensor = encode_seal::sensor(opts.seed);
        let seconds = timed(|| encode_seal::encode_seal(&items, &mut sensor, sealed, 0, spans)).0;
        (seconds, sensor.epoch())
    };
    let (mut untraced, mut sealed) = (Sealed::default(), Sealed::default());
    overhead(
        layers,
        opts.seconds,
        || pass(&mut untraced, None).0,
        || pass(&mut sealed, Some(&mut Spans::default())).0,
    );
    let (_, epoch) = spans.span("e2e.encode_seal", "benchmark", |spans| {
        pass(&mut sealed, Some(spans))
    });
    layers.put("transport.rotations", epoch as f64);
    let (audit, nonces) = spans.span("e2e.audit", "benchmark", |_| {
        encode_seal::audit(&items, &sealed)
    });
    let report = spans.span("telemetry.permutation", "age-telemetry", |_| {
        audit.report(encode_seal::PERMUTATIONS, opts.seed)
    });
    let gate = spans.span("telemetry.gate", "age-telemetry", |_| {
        leakage_gate(&["AGE"]).evaluate(&report.entries)
    });
    if !gate.passed || !nonces.is_clean() {
        layers
            .problems
            .push("traced sealed frames failed the verdict".to_string());
    }
    layers.put(
        "telemetry.permutation_s",
        spans.median_ns("telemetry.permutation") / 1e9,
    );
    layers.put("telemetry.gate_us", spans.median_ns("telemetry.gate") / 1e3);
    layers.median("core.encode_age_ns", spans, "core.encode_age", 1.0);
    layers.median("core.encode_std_ns", spans, "core.encode_std", 1.0);
    layers.median("transport.seal_ns", spans, "transport.seal", 1.0);
    codec(&items, opts.seed, spans, layers);
}

fn trace_fleet_cold(opts: &Options, spans: &mut Spans, layers: &mut Layers) {
    let fleet = fleet_cold::fleet(opts.seed);
    {
        let traffic = generate(&fleet);
        overhead(
            layers,
            opts.seconds,
            || {
                let mut gateway = age_sim::fleet::provisioned_gateway(&fleet, fleet_cold::SHARDS);
                timed(|| gateway.run(&traffic.frames, 1)).0
            },
            || {
                let mut gateway = age_sim::fleet::provisioned_gateway(&fleet, fleet_cold::SHARDS);
                let mut scratch = Spans::default();
                timed(|| {
                    traced_ingest(&mut gateway, &traffic, fleet.sensors as usize, &mut scratch)
                })
                .0
            },
        );
    }
    let config = fleet_gateway_config(&fleet, fleet_cold::SHARDS);
    let report = gateway_layers(&fleet, config, fleet_cold::PERMUTATIONS, spans, layers);
    let mut problems = Vec::new();
    fleet_cold::check_report(&report, &mut problems);
    layers.problems.extend(problems);
}

fn trace_fleet_monitored(opts: &Options, spans: &mut Spans, layers: &mut Layers) {
    let config = fleet_monitored::config(opts.seed);
    let traffic = generate(&config.fleet);
    let tick_loop = |spans: Option<&mut Spans>| {
        let mut gateway = fleet_monitored::gateway(&config);
        let mut out = Monitored::default();
        timed(|| fleet_monitored::ticks(&config, &traffic.frames, &mut gateway, &mut out, spans)).0
    };
    overhead(
        layers,
        opts.seconds,
        || tick_loop(None),
        || tick_loop(Some(&mut Spans::default())),
    );
    monitor_layers(&config, spans, layers);
    gateway_layers(
        &config.fleet,
        fleet_monitored::gateway_config(&config),
        config.gate_permutations,
        spans,
        layers,
    );
}

fn trace_paper_sweep(opts: &Options, spans: &mut Spans, layers: &mut Layers) {
    let runners = paper_sweep::runners(opts.seed, Some(spans));
    let grid = Grid::new(opts.seed);
    overhead(
        layers,
        opts.seconds,
        || timed(|| paper_sweep::sweep(&runners, &grid, &Audits::new(), None)).0,
        || {
            let mut scratch = Spans::default();
            timed(|| paper_sweep::sweep(&runners, &grid, &Audits::new(), Some(&mut scratch))).0
        },
    );
    let results = sweep_layers(&runners, opts.seed, spans, layers);
    let lost: usize = results.iter().map(ExperimentResult::losses).sum();
    if lost > 0 {
        layers
            .problems
            .push(format!("{lost} sequences lost on the link"));
    }
}

/// The traced run of `opts.workload`.
pub fn run(opts: &Options) -> Result<Report, String> {
    let mut spans = Spans::default();
    let mut layers = Layers::default();
    let mut calibration = Spans::default();
    for _ in 0..10_000 {
        calibration.leaf("trace.empty", "benchmark", || ());
    }
    layers.span_cost_ns = calibration.median_ns("trace.empty");
    layers.put("trace.span_cost_ns", layers.span_cost_ns);
    match opts.workload.as_str() {
        "sensor-encode-seal" => trace_encode_seal(opts, &mut spans, &mut layers),
        "fleet-cold" => trace_fleet_cold(opts, &mut spans, &mut layers),
        "fleet-monitored" => trace_fleet_monitored(opts, &mut spans, &mut layers),
        "paper-sweep" => trace_paper_sweep(opts, &mut spans, &mut layers),
        other => return Err(format!("unknown workload '{other}'")),
    }

    let path = format!("{TRACE_DIR}/{}-seed{}.trace.json", opts.workload, opts.seed);
    std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, spans.chrome_json(&opts.workload)))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "{} seed {}: traced run, spans in {path}",
        opts.workload, opts.seed
    );

    let mut report = Report {
        attempted: spans.calls(),
        problems: layers.problems.clone(),
        ..Report::default()
    };
    for &(name, unit) in PER_LAYER {
        let value = layers.values.get(name).copied();
        println!(
            "  [{}] {name}",
            if value.is_some() { "own " } else { "idle" }
        );
        report.push(name, value.unwrap_or(0.0), unit);
    }
    if let Some(coverage) = layers.values.get("gateway.closure_coverage") {
        println!(
            "  closure: route + receive + decode + observe = {:.0} ns of {:.0} ns traced ingest \
             ({:.0}%), unattributed {:.0} ns",
            layers.values["gateway.named_stages_ns"],
            layers.values["gateway.ingest_mean_ns"],
            coverage * 100.0,
            layers.values["gateway.unattributed_ns"],
        );
    }
    report.problems.dedup();
    Ok(report)
}
