//! `fleet-cold`: about 20k sensors × 4 frames, static keys, monitor off.
//!
//! Set-up synthesizes the fleet's traffic (`age_sim::fleet::generate`)
//! and provisions every session (`provisioned_gateway`). The timed region
//! is one `Gateway::run` draining the whole trace on 2 threads over 4
//! shards. Most frames hit a session touched only once or twice, in a
//! session table far larger than L2. The verdict is the leakage report,
//! the gate, both nonce audits and `fleet_report`.

use age_gateway::{FleetReport, Gateway, ShardStats};
use age_sim::fleet::{generate, provisioned_gateway, FleetConfig, FleetTraffic};

use crate::alloc::live_bytes;
use crate::harness::{agreed_digest, leakage_gate, repeat, timed, Fnv, Options, Rep};
use crate::Outcome;

/// Sensors in the fleet.
pub const SENSORS: u64 = 20_000;
/// Session-table shards.
pub const SHARDS: usize = 4;
/// Drain threads (the machine's two CPUs).
pub const THREADS: usize = 2;
/// Permutations behind the leakage report's p-values.
pub const PERMUTATIONS: usize = 100;

/// The fleet for `seed`.
pub fn fleet(seed: u64) -> FleetConfig {
    FleetConfig::new(SENSORS, seed)
}

/// Traffic plus a gateway with every sensor provisioned.
pub fn setup(fleet: &FleetConfig) -> (FleetTraffic, Gateway, i64) {
    let traffic = generate(fleet);
    let before = live_bytes();
    let gateway = provisioned_gateway(fleet, SHARDS);
    (traffic, gateway, before)
}

/// The post-traffic verdict: report JSON (fleet report + leakage report),
/// the fleet report, and whether the gate and both nonce audits passed.
pub fn verdict(
    gateway: &Gateway,
    traffic: &FleetTraffic,
    seed: u64,
) -> (String, FleetReport, bool) {
    let mut leakage = gateway.leakage_audit().report(PERMUTATIONS, seed);
    let gate = leakage_gate(&["AGE"]).evaluate(&leakage.entries);
    let nonces_clean = traffic.sealed_nonces.is_clean() && gateway.nonce_audit().is_clean();
    let report = gateway.fleet_report();
    let passed = gate.passed && nonces_clean;
    leakage.gate = Some(gate);
    let json = report.to_json() + &leakage.to_json();
    (json, report, passed)
}

/// Rejected frames by rung, for the human-readable summary.
pub fn rungs(stats: &ShardStats) -> String {
    format!(
        "truncated {} oversized {} unknown {} auth {} replay {} far-future {} \
         missing-seq {} decode {}",
        stats.header_truncated,
        stats.header_oversized,
        stats.unknown_sensor,
        stats.auth_failed,
        stats.replay_rejected,
        stats.far_future,
        stats.missing_sequence,
        stats.decode_failed
    )
}

/// Oracle checks every fleet workload shares.
pub fn check_report(report: &FleetReport, problems: &mut Vec<String>) {
    if report.stats.rejected() > 0 {
        problems.push(format!("gateway rejected frames: {}", rungs(&report.stats)));
    }
    if report
        .cohorts
        .first()
        .is_some_and(|c| !c.stats.wire_constant())
    {
        problems.push("AGE cohort wire size is not constant".to_string());
    }
}

/// The untimed end-to-end run.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let fleet = fleet(opts.seed);
    let mut out = Outcome::default();
    let mut problems = Vec::new();
    let reps = repeat(opts, || {
        let (setup_s, (traffic, mut gateway, before)) = timed(|| setup(&fleet));
        let (work_s, ()) = timed(|| gateway.run(&traffic.frames, THREADS));
        let session_bytes = (live_bytes() - before) as f64 / gateway.sessions().max(1) as f64;
        let (verdict_s, (json, report, passed)) = timed(|| verdict(&gateway, &traffic, opts.seed));
        if !passed {
            problems.push("fleet leakage gate or nonce audit failed".to_string());
        }
        check_report(&report, &mut problems);
        out.session_bytes = session_bytes;
        out.wire_bytes_per_frame =
            report.stats.wire_bytes as f64 / report.stats.frames.max(1) as f64;
        out.attempted += traffic.frames.len() as u64;
        out.failed += report.stats.rejected();
        out.notes = rungs(&report.stats);
        Ok(Rep {
            setup_s,
            work_s,
            units: report.stats.frames,
            verdict_s,
            digest: Fnv::default().bytes(json.as_bytes()).finish(),
        })
    })?;
    out.digest = agreed_digest(&reps, &mut problems);
    out.problems.extend(problems);
    out.reps = reps;
    Ok(out)
}
