//! `paper-sweep`: the paper's Table 4/5 grid through `age_sim::Runner`.
//!
//! Set-up generates the nine datasets at `Scale::Default` and fits every
//! adaptive policy's threshold. The timed region runs {Uniform, Linear,
//! Deviation} × {Standard, Padded, AGE} × [`RATES`] on every dataset,
//! single-threaded; every other cell goes through the fault-injected
//! link (drops only, with enough retries that nothing is lost). The
//! verdict scores each cell with NMI, a permutation p-value and the
//! AdaBoost attack, then runs the leakage gate over the wire records the
//! sweep emitted and the run-wide nonce audit.

use std::sync::Arc;

use age_attack::{permutation_test, ClassifierAttack};
use age_datasets::{Dataset, DatasetKind, Scale};
use age_sim::{
    run_cells, Defense, ExperimentResult, FaultPlan, FaultSetup, PolicyKind, RetryPolicy, Runner,
    SweepCell, SweepOptions,
};
use age_telemetry::{FanoutSink, LeakageAudit, LeakageSink, NonceAuditSink, Sink};

use crate::harness::{agreed_digest, leakage_gate, repeat, timed, Fnv, Options, Rep};
use crate::spans::{leaf, Spans};
use crate::Outcome;

/// Collection rates of the grid.
pub const RATES: [f64; 2] = [0.4, 0.7];
/// Test sequences each cell runs (the first of the test split).
pub const LIMIT: usize = 200;
/// Permutations behind each cell's p-value and the gate.
pub const PERMUTATIONS: usize = 40;
/// Frame drop probability on link cells.
pub const DROP_RATE: f64 = 0.05;

/// The grid, split into plain cells and (every other cell) link cells.
pub struct Grid {
    /// Cells sealed and delivered without a channel.
    pub plain: Vec<SweepCell>,
    /// Cells sent through the fault-injected link.
    pub link: Vec<SweepCell>,
}

impl Grid {
    /// The grid for `seed` (which seeds the link's fault streams).
    pub fn new(seed: u64) -> Grid {
        let retry = RetryPolicy {
            max_attempts: 8,
            ..RetryPolicy::default()
        };
        let mut grid = Grid {
            plain: Vec::new(),
            link: Vec::new(),
        };
        for &rate in &RATES {
            for policy in [
                PolicyKind::Uniform,
                PolicyKind::Linear,
                PolicyKind::Deviation,
            ] {
                for defense in [Defense::Standard, Defense::Padded, Defense::Age] {
                    let mut cell = SweepCell::new(policy, defense, rate);
                    cell.limit = Some(LIMIT);
                    let index = grid.plain.len() + grid.link.len();
                    if index % 2 == 1 {
                        let plan = FaultPlan::drops(DROP_RATE, seed ^ index as u64);
                        grid.link
                            .push(cell.with_faults(FaultSetup::new(plan).with_retry(retry)));
                    } else {
                        grid.plain.push(cell);
                    }
                }
            }
        }
        grid
    }
}

/// One runner per dataset, with every adaptive threshold already fitted.
/// With `spans`, each dataset generation and each runner's fits get a
/// span.
pub fn runners(seed: u64, mut spans: Option<&mut Spans>) -> Vec<Runner> {
    DatasetKind::all()
        .into_iter()
        .map(|kind| {
            let data = leaf(&mut spans, "datasets.generate", "age-datasets", || {
                Dataset::generate(kind, Scale::Default, seed)
            });
            leaf(&mut spans, "sim.fit", "age-sim", || {
                let runner = Runner::with_dataset(data, seed);
                for &rate in &RATES {
                    for policy in [PolicyKind::Linear, PolicyKind::Deviation] {
                        let _ = runner.policy(policy, rate);
                    }
                }
                runner
            })
        })
        .collect()
}

/// The sinks the sweep's wire records feed. Only plain cells feed the
/// leakage gate, as in the repository's pinned audit sweep: retry backoff
/// on the link adds event-independent gap variance that small cells can
/// mistake for a timing leak. Every cell feeds the nonce audit.
pub struct Audits {
    leakage: Arc<LeakageSink>,
    nonces: Arc<NonceAuditSink>,
}

impl Audits {
    /// Fresh, empty sinks.
    pub fn new() -> Audits {
        Audits {
            leakage: Arc::new(LeakageSink::new()),
            nonces: Arc::new(NonceAuditSink::new()),
        }
    }

    /// Takes the leakage audit collected so far.
    pub fn take_leakage(&self) -> LeakageAudit {
        self.leakage.take()
    }

    /// Single-threaded sweep options feeding the nonce audit, and the
    /// leakage audit too when `gated`.
    pub fn options(&self, gated: bool) -> SweepOptions {
        let mut sinks: Vec<Arc<dyn Sink>> = vec![self.nonces.clone()];
        if gated {
            sinks.push(self.leakage.clone());
        }
        SweepOptions {
            threads: 1,
            sink: Some(Arc::new(FanoutSink(sinks))),
            deterministic_timings: true,
        }
    }
}

/// Runs the grid on every runner: each dataset's plain cells, then its
/// link cells. With `spans`, each dataset's plain and link cells get one
/// span each (`sim.cells_plain`, `sim.cells_link`).
pub fn sweep(
    runners: &[Runner],
    grid: &Grid,
    audits: &Audits,
    mut spans: Option<&mut Spans>,
) -> Vec<ExperimentResult> {
    let (plain, link) = (audits.options(true), audits.options(false));
    let mut results = Vec::new();
    for runner in runners {
        for (cells, options, name) in [
            (&grid.plain, &plain, "sim.cells_plain"),
            (&grid.link, &link, "sim.cells_link"),
        ] {
            results.extend(leaf(&mut spans, name, "age-sim", || {
                run_cells(runner, cells, options)
            }));
        }
    }
    results
}

/// The attack every cell is scored with.
pub fn attack(seed: u64) -> ClassifierAttack {
    ClassifierAttack {
        total_samples: 200,
        n_estimators: 8,
        seed: seed ^ 0xA77AC4,
        ..ClassifierAttack::default()
    }
}

/// Scores one cell: `(NMI, permutation p-value, attack accuracy)`.
pub fn score(result: &ExperimentResult, seed: u64) -> (f64, f64, f64) {
    let observations = result.observations();
    let labels: Vec<usize> = observations.iter().map(|&(l, _)| l).collect();
    let sizes: Vec<usize> = observations.iter().map(|&(_, s)| s).collect();
    let p_value = permutation_test(&labels, &sizes, PERMUTATIONS, seed);
    let accuracy = attack(seed).run(&observations).mean_accuracy();
    (result.nmi(), p_value, accuracy)
}

/// Scores every cell and judges the sweep's wire records. Returns the
/// digest of everything deterministic and whether gate and nonce audit
/// passed.
pub fn verdict(results: &[ExperimentResult], audits: &Audits, seed: u64) -> (u64, bool) {
    let mut digest = Fnv::default();
    for result in results {
        let (nmi, p_value, accuracy) = score(result, seed);
        digest
            .f64(result.mean_mae(), 9)
            .f64(result.weighted_mae(), 9)
            .f64(result.mean_energy().0, 9)
            .u64(result.violations() as u64)
            .u64(result.losses() as u64)
            .f64(nmi, 9)
            .f64(p_value, 9)
            .f64(accuracy, 9);
    }
    let mut report = audits.take_leakage().report(PERMUTATIONS, seed);
    let gate = leakage_gate(&["AGE", "Padded"]).evaluate(&report.entries);
    let passed = gate.passed && audits.nonces.take().is_clean();
    report.gate = Some(gate);
    digest.bytes(report.to_json().as_bytes());
    (digest.finish(), passed)
}

/// Live bytes of one sealed-link session: a ChaCha20-Poly1305 sensor and
/// its receiver, as every link cell holds.
pub fn session_bytes() -> f64 {
    use age_crypto::ChaCha20Poly1305;
    use age_transport::{Receiver, Sensor};
    let before = crate::alloc::live_bytes();
    let pair = Box::new((
        Sensor::new(Box::new(ChaCha20Poly1305::new([7; 32]))),
        Receiver::new(Box::new(ChaCha20Poly1305::new([7; 32]))),
    ));
    let bytes = (crate::alloc::live_bytes() - before) as f64;
    drop(pair);
    bytes
}

/// The untimed end-to-end run.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let grid = Grid::new(opts.seed);
    let mut out = Outcome::default();
    let mut problems = Vec::new();
    let reps = repeat(opts, || {
        let (setup_s, runners) = timed(|| runners(opts.seed, None));
        let audits = Audits::new();
        let (work_s, results) = timed(|| sweep(&runners, &grid, &audits, None));
        let (verdict_s, (digest, passed)) = timed(|| verdict(&results, &audits, opts.seed));
        if !passed {
            problems.push("sweep leakage gate or nonce audit failed".to_string());
        }
        let records = results.iter().flat_map(|r| &r.records);
        let sent: Vec<usize> = records
            .clone()
            .filter(|r| r.message_bytes > 0)
            .map(|r| r.message_bytes)
            .collect();
        let sequences = records.count() as u64;
        let lost: u64 = results.iter().map(|r| r.losses() as u64).sum();
        out.wire_bytes_per_frame = sent.iter().sum::<usize>() as f64 / sent.len().max(1) as f64;
        out.attempted += sequences;
        out.failed += lost;
        out.notes = format!("{} cells, {lost} sequences lost", results.len());
        Ok(Rep {
            setup_s,
            work_s,
            units: sequences,
            verdict_s,
            digest,
        })
    })?;
    out.session_bytes = session_bytes();
    out.digest = agreed_digest(&reps, &mut problems);
    out.problems.extend(problems);
    out.reps = reps;
    Ok(out)
}
