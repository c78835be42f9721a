//! The repository benchmark: four workloads over the sensor and gateway
//! paths, each printing its end-to-end metrics (or, with `--trace 1`,
//! its per-layer metrics) as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-cold --seed 1 --seconds 25 --trace 0
//! ```
//!
//! See `perfbench/README.md` for what each workload and metric means.

mod alloc;
mod encode_seal;
mod fleet_cold;
mod fleet_monitored;
mod harness;
mod layers;
mod paper_sweep;
mod pins;
mod spans;

use harness::{slow_rate, slow_time, Options, Rep, Report};

#[global_allocator]
static GLOBAL: alloc::LiveBytes = alloc::LiveBytes;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "sensor-encode-seal",
    "fleet-cold",
    "fleet-monitored",
    "paper-sweep",
];

/// What an untraced workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Kept repetitions (warm-up discarded).
    pub reps: Vec<Rep>,
    /// Operations attempted across all repetitions.
    pub attempted: u64,
    /// Operations that failed across all repetitions.
    pub failed: u64,
    /// Live heap bytes per session.
    pub session_bytes: f64,
    /// Mean attacker-visible bytes per frame.
    pub wire_bytes_per_frame: f64,
    /// Oracle failures.
    pub problems: Vec<String>,
    /// Digest every repetition agreed on.
    pub digest: u64,
    /// One human-readable line of workload detail.
    pub notes: String,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--plant-seal-ns <ns>] | perfbench --pin <workload> <seed>...",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        plant_seal_ns: 0,
        min_kept: harness::MIN_KEPT,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag}: {value}"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = number()? as f64,
            "--trace" => opts.trace = number()? == 1,
            "--plant-seal-ns" => opts.plant_seal_ns = number()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload '{}'", opts.workload));
    }
    Ok(opts)
}

/// Runs one workload untraced.
pub fn run_workload(opts: &Options) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "sensor-encode-seal" => encode_seal::run(opts),
        "fleet-cold" => fleet_cold::run(opts),
        "fleet-monitored" => fleet_monitored::run(opts),
        "paper-sweep" => paper_sweep::run(opts),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// The end-to-end report of an untraced run.
fn end_to_end(opts: &Options, out: Outcome) -> Report {
    let mut report = Report {
        attempted: out.attempted,
        failed: out.failed,
        problems: out.problems,
        metrics: Vec::new(),
    };
    if let Some(problem) = pins::check(&opts.workload, opts.seed, out.digest) {
        report.problems.push(problem);
    }
    report.push("setup_s", slow_time(&out.reps, |r| r.setup_s), "s");
    report.push("frames_per_s", slow_rate(&out.reps), "1/s");
    report.push("verdict_s", slow_time(&out.reps, |r| r.verdict_s), "s");
    report.push("session_bytes", out.session_bytes, "B");
    report.push("peak_rss_mb", alloc::peak_rss_mb(), "MiB");
    report.push("wire_bytes_per_frame", out.wire_bytes_per_frame, "B");
    let rates: Vec<f64> = out.reps.iter().map(Rep::rate).collect();
    println!(
        "{} seed {}: {} repetitions kept, digest {:016x}, frames/s p10 {:.0} median {:.0} p90 {:.0}; {}",
        opts.workload,
        opts.seed,
        out.reps.len(),
        out.digest,
        harness::quantile(&rates, 0.1),
        harness::quantile(&rates, 0.5),
        harness::quantile(&rates, 0.9),
        out.notes
    );
    report
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--pin") {
        std::process::exit(pins::print(&args[1..]));
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("perfbench: {err}\n{}", usage());
            std::process::exit(2);
        }
    };
    let result = if opts.trace {
        layers::run(&opts)
    } else {
        run_workload(&opts).map(|out| end_to_end(&opts, out))
    };
    match result {
        Ok(report) => {
            for metric in &report.metrics {
                println!(
                    "  {:<34} {:>16.6} {}",
                    metric.name, metric.value, metric.unit
                );
            }
            for problem in &report.problems {
                println!("  ORACLE FAILURE: {problem}");
            }
            println!("{}", report.json_line());
            if !report.problems.is_empty() {
                std::process::exit(1);
            }
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(1);
        }
    }
}
