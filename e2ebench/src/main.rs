//! End-to-end benchmark for the RL-QVO reproduction.
//!
//! ```text
//! rlqvo-e2ebench --workload <qset|serve-hot|serve-churn> --seed <n> --seconds <s> --trace <0|1> [--tokens <n>]
//! ```
//!
//! Drives the program only through its public functions. One run sets
//! the workload up `SETUP_REPS` times (reporting the median set-up time),
//! measures closed-loop operations for `--seconds` (finishing the round in
//! progress), checks every output against references computed apart from
//! the measured path, and prints a record line plus, as the last line of
//! stdout, one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (see README.md for what each one measures and should move).

mod common;
mod qset;
mod serve;

use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics, printed with `--trace 0`, in this order.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("enum_calls", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`. A workload that does not
/// run a layer reports 0 for it (README.md lists which apply where).
const PER_LAYER: [(&str, &str); 32] = [
    ("setup.datasets_s", "s"),
    ("setup.train_s", "s"),
    ("setup.warm_s", "s"),
    ("filter.ms", "ms"),
    ("filter.candidates", "count"),
    ("order.ms", "ms"),
    ("order.features_ms", "ms"),
    ("order.ri_ms", "ms"),
    ("order.policy_forwards", "count"),
    ("build.ms", "ms"),
    ("build.bytes", "bytes"),
    ("enum.ms", "ms"),
    ("enum.calls", "count"),
    ("enum.matches", "count"),
    ("trace.total_ms", "ms"),
    ("trace.gap_ms", "ms"),
    ("trace.untraced_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.exec_ms_p99", "ms"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.wait_ms_p99", "ms"),
    ("cache.space_hit_ratio", "ratio"),
    ("cache.order_hit_ratio", "ratio"),
    ("cache.space_evictions", "count"),
    ("cache.order_evictions", "count"),
    ("cache.space_bytes", "bytes"),
    ("cache.order_bytes", "bytes"),
    ("batch.mean_occupancy", "count"),
    ("sched.steals", "count"),
    ("sched.steal_failures", "count"),
    ("lat.samples", "count"),
];

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Server token budget (`serve-*`), which on `serve-hot` is also the
    /// enumeration's worker count; defaults to 1 on `serve-hot` and to
    /// `nproc` on `serve-churn`.
    pub tokens: usize,
}

/// What a workload hands back: operation counts, every metric it
/// measured, and the output-check verdict.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Output-check failures; empty means every check passed.
    pub problems: Vec<String>,
}

fn usage(msg: &str) -> ! {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: rlqvo-e2ebench --workload <qset|serve-hot|serve-churn> --seed <n> --seconds <s> --trace <0|1> [--tokens <n>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut map: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = raw.iter();
    while let Some(k) = it.next() {
        let v = it.next().unwrap_or_else(|| usage(&format!("{k} needs a value")));
        match k.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--tokens" => {
                map.insert(k, v);
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let get = |k: &str| map.get(k).copied().unwrap_or_else(|| usage(&format!("missing {k}")));
    let workload = get("--workload").to_string();
    if !["qset", "serve-hot", "serve-churn"].contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    let seed = get("--seed").parse().unwrap_or_else(|_| usage("--seed must be a whole number"));
    let seconds: f64 = get("--seconds").parse().unwrap_or_else(|_| usage("--seconds must be a number"));
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    let trace = match get("--trace") {
        "0" => false,
        "1" => true,
        _ => usage("--trace must be 0 or 1"),
    };
    let tokens = match map.get("--tokens") {
        Some(t) => t
            .parse()
            .ok()
            .filter(|&t: &usize| (1..=64).contains(&t))
            .unwrap_or_else(|| usage("--tokens must be 1..=64")),
        // serve-hot enumerates serially by default: with one helper token
        // its figures were bimodal on a 2-vCPU host (README.md, Reference
        // runs); `--tokens 2` measures the work-stealing path.
        None if workload == "serve-hot" => 1,
        None => common::nproc(),
    };
    Args { workload, seed, seconds: Duration::from_secs_f64(seconds), trace, tokens }
}

/// The git revision of the working directory, when it is a repository.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

fn main() {
    // Environment knobs the library reads would change what is measured:
    // failpoints stay disarmed, cache verification stays at its release
    // default, and engine/thread/pool settings come from this benchmark.
    // Scrubbed before any thread exists.
    for k in [
        "RLQVO_FAULTS",
        "RLQVO_FAULT_SEED",
        "RLQVO_CACHE_VERIFY",
        "RLQVO_ENGINE",
        "RLQVO_ENUM_THREADS",
        "RLQVO_STEAL_GRANULARITY",
        "RLQVO_POOL_MAX",
        "RLQVO_SPACE_CACHE",
        "RLQVO_ORDER_CACHE",
    ] {
        std::env::remove_var(k);
    }
    let args = parse_args();
    let out = match args.workload.as_str() {
        "qset" => qset::run(&args),
        "serve-hot" => serve::run(&args, serve::Kind::Hot),
        _ => serve::run(&args, serve::Kind::Churn),
    };
    for p in &out.problems {
        eprintln!("e2ebench: CHECK FAILED: {p}");
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for k in out.metrics.keys() {
        assert!(
            END_TO_END.iter().chain(PER_LAYER.iter()).any(|(n, _)| n == k),
            "workload reported undeclared metric {k}"
        );
    }
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = match out.metrics.get(name) {
                Some(&v) => v,
                None if args.trace => 0.0,
                None => panic!("workload did not report end-to-end metric {name}"),
            };
            format!("{}: {{\"value\": {}, \"unit\": {}}}", json_str(name), json_num(v), json_str(unit))
        })
        .collect();
    println!(
        "{{\"record\": {{\"rev\": {}, \"nproc\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"tokens\": {}, \"attempted\": {}, \"failed\": {}}}}}",
        json_str(&git_rev()),
        common::nproc(),
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds.as_secs_f64()),
        args.trace as u8,
        args.tokens,
        out.attempted,
        out.failed
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
