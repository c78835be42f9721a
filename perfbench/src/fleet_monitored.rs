//! `fleet-monitored`: a few hundred sensors × a few hundred frames each
//! through the monitored tick loop of `age_sim::monitor::run_monitored`,
//! with staggered rekey, the flight recorder and single-threaded ticks. A
//! timing regression starts at mid-run, so the windowed alarm fires and
//! the postmortem renders.
//!
//! `run_monitored` synthesizes its trace and provisions its gateway
//! inside the call, so its time would mix sensor-side synthesis into the
//! gateway's. The benchmark therefore runs the same tick loop from the
//! same public calls on a trace and gateway built in set-up: the timed
//! region is the ticks alone (drain, monitor fold, alarm scoring, health
//! line, postmortem), and the verdict is the end-of-run close (final
//! window, leakage report, gate, fleet report) plus the seal-side nonce
//! audit. Once per process, `run_monitored` itself runs and its
//! `HEALTH.jsonl`, alarm, postmortem, leakage report, gate and fleet
//! report must equal the rebuilt loop's byte for byte.

use age_gateway::{
    render_postmortem, FleetReport, Gateway, GatewayConfig, HealthSnapshot, StreamHealth,
};
use age_sim::fleet::{fleet_cohorts, fleet_gateway_config, generate, FleetConfig};
use age_sim::monitor::{run_monitored, MonitorRunConfig, MonitoredRun};
use age_telemetry::{Alarm, GateOutcome, LeakageGate, LeakageReport};

use crate::alloc::live_bytes;
use crate::fleet_cold::{check_report, rungs};
use crate::harness::{agreed_digest, repeat, timed, Fnv, Options, Rep};
use crate::spans::{leaf, Spans};
use crate::Outcome;

/// Sensors in the fleet.
pub const SENSORS: u64 = 200;
/// Frames each sensor sends.
pub const FRAMES: usize = 400;
/// Staggered rekey interval, in sequence numbers.
pub const REKEY_INTERVAL: u64 = 64;
/// Permutations behind the end-of-run gate.
pub const PERMUTATIONS: usize = 100;

/// The monitored run for `seed`: regression from mid-trace on (a frame
/// leaves roughly every 258 virtual ms), one-second leakage windows,
/// half-second health ticks, one drain thread over four shards.
pub fn config(seed: u64) -> MonitorRunConfig {
    let mut fleet = FleetConfig::new(SENSORS, seed);
    fleet.frames_per_sensor = FRAMES;
    fleet.rekey_interval = Some(REKEY_INTERVAL);
    fleet.regress_timing_after_us = Some(FRAMES as u64 * 129_000);
    let mut config = MonitorRunConfig::new(fleet, 4, 1);
    config.monitor.window_us = 1_000_000;
    config.gate_permutations = PERMUTATIONS;
    config
}

/// The gateway configuration `run_monitored` uses for `config`.
pub fn gateway_config(config: &MonitorRunConfig) -> GatewayConfig {
    let mut gateway_config = fleet_gateway_config(&config.fleet, config.shards);
    gateway_config.record_latency = config.record_latency;
    gateway_config.monitor = Some(config.monitor);
    gateway_config.recorder_capacity = config.recorder_capacity;
    gateway_config
}

/// The gateway `run_monitored` builds for `config`, provisioned.
pub fn gateway(config: &MonitorRunConfig) -> Gateway {
    let mut gateway = Gateway::new(gateway_config(config));
    for sensor_id in 0..config.fleet.sensors {
        let _ = gateway.provision(sensor_id, config.fleet.cohort_of(sensor_id));
    }
    gateway
}

/// What a monitored run produces, in the fields the oracle compares.
#[derive(Debug, Default, PartialEq)]
pub struct Monitored {
    /// The `HEALTH.jsonl` bytes.
    pub health_jsonl: String,
    /// Every windowed alarm raised.
    pub alarms: Vec<Alarm>,
    /// Fleet frame count when the first alarm fired.
    pub first_alarm_at_frames: Option<u64>,
    /// What triggered the postmortem.
    pub postmortem_trigger: Option<String>,
    /// The rendered postmortem.
    pub postmortem: Option<String>,
    /// End-of-run leakage report JSON.
    pub leakage_json: String,
    /// End-of-run gate verdict.
    pub gate_passed: bool,
    /// End-of-run fleet report JSON.
    pub report_json: String,
}

impl Monitored {
    /// The same fields of a `run_monitored` result.
    pub fn of(run: &MonitoredRun) -> Monitored {
        Monitored {
            health_jsonl: run.health_jsonl.clone(),
            alarms: run.alarms.clone(),
            first_alarm_at_frames: run.first_alarm_at_frames,
            postmortem_trigger: run.postmortem_trigger.clone(),
            postmortem: run.postmortem.clone(),
            leakage_json: run.leakage.to_json(),
            gate_passed: run.gate.passed,
            report_json: run.report.to_json(),
        }
    }

    /// Digest of the deterministic outputs the pins cover.
    pub fn digest(&self) -> u64 {
        Fnv::default()
            .bytes(self.health_jsonl.as_bytes())
            .u64(self.first_alarm_at_frames.unwrap_or(u64::MAX))
            .bytes(self.postmortem_trigger.as_deref().unwrap_or("-").as_bytes())
            .bytes(self.postmortem.as_deref().unwrap_or("-").as_bytes())
            .finish()
    }
}

/// Tick-loop position carried from the ticks into the close.
#[derive(Debug, Default)]
pub struct Ticks {
    /// Windows scored so far.
    pub scored_to: u64,
    /// Ticks run.
    pub ticks: u64,
    /// Virtual send time of the trace's last frame.
    pub last_sent_us: u64,
}

/// `run_monitored`'s tick loop over `frames` and a provisioned `gateway`:
/// per tick, drain the frames sent before its end, fold the monitor,
/// score the windows it closed, render the health line, and freeze the
/// postmortem on the first trigger. With `spans`, each layer call gets a
/// span.
pub fn ticks(
    config: &MonitorRunConfig,
    frames: &[age_gateway::FleetFrame],
    gateway: &mut Gateway,
    out: &mut Monitored,
    mut spans: Option<&mut Spans>,
) -> Ticks {
    let cohorts = fleet_cohorts();
    let names: Vec<&str> = cohorts.iter().map(|c| c.name.as_str()).collect();
    let defended = [0usize];
    let tick_us = config.health_every_us.max(1);
    let window_us = config.monitor.window_us.max(1);
    let last_sent_us = frames.last().map_or(0, |f| f.sent_at_us);
    let ticks = last_sent_us / tick_us + 1;
    let (mut cursor, mut scored_to, mut prev_frames) = (0usize, 0u64, 0u64);
    for tick in 1..=ticks {
        let tick_end_us = tick * tick_us;
        let begin = cursor;
        while cursor < frames.len() && frames[cursor].sent_at_us < tick_end_us {
            cursor += 1;
        }
        let slice = &frames[begin..cursor];
        leaf(&mut spans, "gateway.tick_run", "age-gateway", || {
            gateway.run(slice, config.threads)
        });
        let monitor = leaf(&mut spans, "gateway.monitor_fold", "age-gateway", || {
            gateway.monitor()
        });
        let close_to = (tick_end_us / window_us).max(scored_to);
        let fresh = leaf(&mut spans, "telemetry.alarms", "age-telemetry", || {
            monitor.as_ref().map_or_else(Vec::new, |m| {
                m.alarms(
                    &config.monitor,
                    &names,
                    &defended,
                    config.fleet.seed,
                    scored_to,
                    close_to,
                )
            })
        });
        scored_to = close_to;
        let stats = gateway.fleet_stats();
        if !fresh.is_empty() && out.first_alarm_at_frames.is_none() {
            out.first_alarm_at_frames = Some(stats.frames);
        }
        let new_alarms = fresh.len() as u64;
        out.alarms.extend(fresh);
        let mut streams = Vec::new();
        if let (Some(monitor), true) = (&monitor, close_to > 0) {
            for (id, name) in names.iter().enumerate() {
                if let Some(score) = monitor.score(close_to - 1, id) {
                    streams.push(StreamHealth {
                        name: (*name).to_string(),
                        window: close_to - 1,
                        observations: score.observations,
                        nmi: score.nmi,
                        gap_observations: score.gap_observations,
                        timing_nmi: score.timing_nmi,
                    });
                }
            }
        }
        let mut alarming: Vec<String> = out.alarms.iter().map(|a| a.stream.clone()).collect();
        alarming.sort();
        alarming.dedup();
        let latency = gateway.latency();
        let delta_frames = stats.frames.saturating_sub(prev_frames);
        prev_frames = stats.frames;
        let snapshot = HealthSnapshot {
            tick,
            virtual_us: tick_end_us,
            stats,
            delta_frames,
            frames_per_vsec: delta_frames as f64 * 1e6 / tick_us as f64,
            p50_ingest_ns: latency.p50_ns(),
            p99_ingest_ns: latency.p99_ns(),
            streams,
            alarms_total: out.alarms.len() as u64,
            new_alarms,
            alarming,
        };
        let line = leaf(&mut spans, "gateway.health_line", "age-gateway", || {
            snapshot.to_json_line()
        });
        out.health_jsonl.push_str(&line);
        if out.postmortem.is_none() {
            let trigger = if new_alarms > 0 {
                Some("windowed-alarm")
            } else if !leaf(
                &mut spans,
                "gateway.tick_nonce_audit",
                "age-gateway",
                || gateway.nonce_audit().is_clean(),
            ) {
                Some("nonce-audit")
            } else {
                None
            };
            if let Some(trigger) = trigger {
                let (records, dropped) = gateway.flight_records();
                out.postmortem = Some(leaf(
                    &mut spans,
                    "gateway.postmortem",
                    "age-gateway",
                    || {
                        render_postmortem(
                            trigger,
                            tick_end_us,
                            tick,
                            &stats,
                            &out.alarms,
                            &records,
                            dropped,
                        )
                    },
                ));
                out.postmortem_trigger = Some(trigger.to_string());
            }
        }
    }
    Ticks {
        scored_to,
        ticks,
        last_sent_us,
    }
}

/// The end-of-run gate `run_monitored` applies.
pub fn end_gate(config: &MonitorRunConfig) -> LeakageGate {
    LeakageGate {
        nmi_threshold: config.monitor.nmi_threshold,
        p_threshold: config.monitor.p_threshold,
        min_observations: config.monitor.min_observations,
        defended: vec!["AGE".to_string()],
        baseline: vec!["Std".to_string()],
    }
}

/// `run_monitored`'s close after the last tick: the final window's
/// alarms, the leakage report and end gate (a gate failure freezes the
/// postmortem if nothing did earlier), and the fleet report. With
/// `spans`, each layer call gets a span.
pub fn close(
    config: &MonitorRunConfig,
    gateway: &Gateway,
    at: &Ticks,
    out: &mut Monitored,
    mut spans: Option<&mut Spans>,
) -> (LeakageReport, GateOutcome, FleetReport) {
    let cohorts = fleet_cohorts();
    let names: Vec<&str> = cohorts.iter().map(|c| c.name.as_str()).collect();
    if let Some(monitor) = gateway.monitor() {
        let final_to = monitor.window_of(monitor.watermark_us()) + 1;
        if final_to > at.scored_to {
            let fresh = leaf(&mut spans, "telemetry.alarms", "age-telemetry", || {
                monitor.alarms(
                    &config.monitor,
                    &names,
                    &[0],
                    config.fleet.seed,
                    at.scored_to,
                    final_to,
                )
            });
            if !fresh.is_empty() && out.first_alarm_at_frames.is_none() {
                out.first_alarm_at_frames = Some(gateway.fleet_stats().frames);
            }
            out.alarms.extend(fresh);
        }
    }
    let audit = leaf(&mut spans, "gateway.leakage_audit", "age-gateway", || {
        gateway.leakage_audit()
    });
    let leakage = leaf(&mut spans, "telemetry.permutation", "age-telemetry", || {
        audit.report(config.gate_permutations, config.fleet.seed)
    });
    let gate = leaf(&mut spans, "telemetry.gate", "age-telemetry", || {
        end_gate(config).evaluate(&leakage.entries)
    });
    if out.postmortem.is_none() && !gate.passed {
        let (records, dropped) = gateway.flight_records();
        out.postmortem = Some(render_postmortem(
            "gate-failure",
            at.last_sent_us,
            at.ticks,
            &gateway.fleet_stats(),
            &out.alarms,
            &records,
            dropped,
        ));
        out.postmortem_trigger = Some("gate-failure".to_string());
    }
    let report = leaf(&mut spans, "gateway.fleet_report", "age-gateway", || {
        gateway.fleet_report()
    });
    out.leakage_json = leakage.to_json();
    out.gate_passed = gate.passed;
    out.report_json = report.to_json();
    (leakage, gate, report)
}

/// Oracle checks on one monitored run.
fn check(out: &Monitored, report: &FleetReport, problems: &mut Vec<String>) {
    check_report(report, problems);
    if out
        .first_alarm_at_frames
        .is_none_or(|at| at >= report.stats.frames)
    {
        problems.push("windowed alarm did not fire before end of trace".to_string());
    }
    if out.postmortem_trigger.as_deref() != Some("windowed-alarm") || out.postmortem.is_none() {
        problems.push("postmortem was not triggered by the windowed alarm".to_string());
    }
    if report.stats.rotations == 0 {
        problems.push("no staggered rekey rotation was followed".to_string());
    }
}

/// The untimed end-to-end run.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let config = config(opts.seed);
    let mut out = Outcome::default();
    let mut problems = Vec::new();
    let reference = Monitored::of(&run_monitored(&config));
    let reps = repeat(opts, || {
        let (setup_s, (traffic, mut gateway)) =
            timed(|| (generate(&config.fleet), gateway(&config)));
        let mut monitored = Monitored::default();
        let (work_s, at) =
            timed(|| ticks(&config, &traffic.frames, &mut gateway, &mut monitored, None));
        let (verdict_s, (_, _, report)) = timed(|| {
            let closed = close(&config, &gateway, &at, &mut monitored, None);
            if !traffic.sealed_nonces.is_clean() {
                problems.push("seal-side nonce audit found a reused nonce".to_string());
            }
            closed
        });
        if monitored != reference {
            problems.push("rebuilt tick loop differs from run_monitored".to_string());
        }
        check(&monitored, &report, &mut problems);
        let stats = &report.stats;
        out.wire_bytes_per_frame = stats.wire_bytes as f64 / stats.frames.max(1) as f64;
        out.attempted += traffic.frames.len() as u64;
        out.failed += stats.rejected();
        out.notes = rungs(stats);
        Ok(Rep {
            setup_s,
            work_s,
            units: stats.frames,
            verdict_s,
            digest: monitored.digest(),
        })
    })?;
    out.session_bytes = session_bytes(&config);
    out.digest = agreed_digest(&reps, &mut problems);
    out.problems.extend(problems);
    out.reps = reps;
    Ok(out)
}

/// Live bytes per session after the whole trace is ingested. The
/// gateway's final state does not depend on how the trace was split into
/// ticks, so one drain gives the state the tick loop ends with.
pub fn session_bytes(config: &MonitorRunConfig) -> f64 {
    let traffic = generate(&config.fleet);
    let before = live_bytes();
    let mut gateway = gateway(config);
    gateway.run(&traffic.frames, 1);
    (live_bytes() - before) as f64 / gateway.sessions().max(1) as f64
}
