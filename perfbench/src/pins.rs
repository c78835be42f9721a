//! Pinned output digests.
//!
//! Each workload's deterministic outputs hash to one FNV-1a digest per
//! seed. The table below pins those digests for the seeds listed; a run
//! on a pinned seed whose digest differs is incorrect. `--pin <workload>
//! <seed>...` prints fresh table rows.

use crate::harness::Options;

/// `(workload, seed, digest)` for seeds 1–10 and the held-out seed 7919.
const PINS: &[(&str, u64, u64)] = &[
    ("sensor-encode-seal", 1, 0xea0bf9088ed5a562),
    ("sensor-encode-seal", 2, 0xc68523452de96f5e),
    ("sensor-encode-seal", 3, 0xc1597048eabd5d84),
    ("sensor-encode-seal", 4, 0x269b0e65c5b827d4),
    ("sensor-encode-seal", 5, 0x32d4a8aa6d832b67),
    ("sensor-encode-seal", 6, 0x1639c1f359c2b485),
    ("sensor-encode-seal", 7, 0x1c3e2834b14e03f4),
    ("sensor-encode-seal", 8, 0xffd3645553f8577b),
    ("sensor-encode-seal", 9, 0x0b06948709fe7974),
    ("sensor-encode-seal", 10, 0x6e857744f7dac234),
    ("sensor-encode-seal", 7919, 0xcb7306e92bd18b25),
    ("fleet-cold", 1, 0xcaef6ef02271e65d),
    ("fleet-cold", 2, 0x0c406415ef9bceab),
    ("fleet-cold", 3, 0xef06fa11ae6bfcd4),
    ("fleet-cold", 4, 0x444cb5c1fcea5aee),
    ("fleet-cold", 5, 0xd8a92fbf9a5f02b6),
    ("fleet-cold", 6, 0x50f7c8eea19acaf6),
    ("fleet-cold", 7, 0xbfeee4a501c6b7a1),
    ("fleet-cold", 8, 0xe9ab4a92fc61da17),
    ("fleet-cold", 9, 0xa5e63b0a90367d71),
    ("fleet-cold", 10, 0xf3fa0be216fc5e0a),
    ("fleet-cold", 7919, 0xc175463e979d1b83),
    ("fleet-monitored", 1, 0xacc53bc7a472452c),
    ("fleet-monitored", 2, 0x595d0c6f937becc8),
    ("fleet-monitored", 3, 0x0af4dce536826a91),
    ("fleet-monitored", 4, 0x9a9cc66d9b82c926),
    ("fleet-monitored", 5, 0x7596878ddf966751),
    ("fleet-monitored", 6, 0x00fa1d5036c5f927),
    ("fleet-monitored", 7, 0x0fe54a25769b64b8),
    ("fleet-monitored", 8, 0xe44cb79ec95e9ea2),
    ("fleet-monitored", 9, 0x6e32cc8e3128ac91),
    ("fleet-monitored", 10, 0x46c020426c6eb722),
    ("fleet-monitored", 7919, 0x0b63899ea72a98de),
    ("paper-sweep", 1, 0x6685f1ce39a0f029),
    ("paper-sweep", 2, 0xbae7394852e37bfc),
    ("paper-sweep", 3, 0xefd33ab59de1e218),
    ("paper-sweep", 4, 0xcc4c09f0c197b085),
    ("paper-sweep", 5, 0x7f318510ff6dd21f),
    ("paper-sweep", 6, 0xe3567653f007d2cd),
    ("paper-sweep", 7, 0x938bfe89f3693680),
    ("paper-sweep", 8, 0x89acec6bb360c1a9),
    ("paper-sweep", 9, 0xda2c37fb1fd4dfa6),
    ("paper-sweep", 10, 0x4447228a9864201c),
    ("paper-sweep", 7919, 0x1bfaa5bf9412c4ed),
];

/// `Some(problem)` when `seed` is pinned for `workload` and `digest`
/// differs from the pin.
pub fn check(workload: &str, seed: u64, digest: u64) -> Option<String> {
    let &(_, _, pinned) = PINS.iter().find(|&&(w, s, _)| w == workload && s == seed)?;
    (pinned != digest)
        .then(|| format!("output digest {digest:016x} differs from the pinned {pinned:016x}"))
}

/// Prints table rows for `args = [workload, seed...]`; returns the exit
/// code.
pub fn print(args: &[String]) -> i32 {
    let Some((workload, seeds)) = args.split_first() else {
        eprintln!("--pin needs a workload and seeds");
        return 2;
    };
    for seed in seeds {
        let Ok(seed) = seed.parse::<u64>() else {
            eprintln!("bad seed {seed}");
            return 2;
        };
        let opts = Options {
            workload: workload.clone(),
            seed,
            seconds: 0.0,
            trace: false,
            plant_seal_ns: 0,
            min_kept: 1,
        };
        match crate::run_workload(&opts) {
            Ok(out) if out.problems.is_empty() => {
                println!("    (\"{workload}\", {seed}, 0x{:016x}),", out.digest);
            }
            Ok(out) => {
                eprintln!("{workload} seed {seed}: {:?}", out.problems);
                return 1;
            }
            Err(err) => {
                eprintln!("{workload} seed {seed}: {err}");
                return 1;
            }
        }
    }
    0
}
