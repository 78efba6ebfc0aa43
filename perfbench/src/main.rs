//! End-to-end and per-layer benchmark of the tabjoin workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! perfbench --manifest
//! ```
//!
//! A run prints a host-probe line, then, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer metrics traced. `--manifest` prints the
//! `BENCHMARK.json` this benchmark is described by. See README.md.

mod alloc;
mod append_stream;
mod check;
mod harness;
mod pair_join;
mod serve_stream;

use harness::{Outcome, Run, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// A workload's entry point.
type Workload = fn(&Run) -> Outcome;

/// The workloads, with why each was chosen.
const WORKLOADS: &[(&str, &str, Workload)] = &[
    (
        "pair-join",
        "one pair at a time through the guarded pipeline: synthesis selection dominates, the corpus and scheduler are bypassed",
        pair_join::run,
    ),
    (
        "serve-stream",
        "hot-skewed repository requests through a byte-budgeted resident corpus: corpus builds, eviction, discovery and the scheduler",
        serve_stream::run,
    ),
    (
        "append-stream",
        "hot-skewed appends to a live repository: incremental joins, corpus appends and shortlist deltas; synthesis only in set-up",
        append_stream::run,
    ),
];

/// Seconds one run measures.
const RUN_SECONDS: u64 = 30;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--manifest"] {
        print!("{}", manifest());
        return ExitCode::SUCCESS;
    }
    let (workload, run) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) if text == manifest() => {}
        _ => eprintln!("perfbench: warning: BENCHMARK.json differs from `perfbench --manifest`"),
    }
    let probe_s = host_probe();
    alloc::reset_peak();
    let outcome = workload(&run);
    let latencies = &outcome.ops.latencies;
    let busy_s: f64 = latencies.iter().sum();
    println!(
        "host_probe_s={probe_s:.4} nproc={} op_mean_ms={:.4} traced_share={:.4}",
        run.threads,
        busy_s / latencies.len() as f64 * 1e3,
        if run.trace {
            outcome.attributed_s / busy_s
        } else {
            0.0
        },
    );
    let metrics: Vec<String> = harness::metrics(&outcome, run.trace)
        .into_iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks.passed(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn parse(args: &[String]) -> Result<(Workload, Run), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let found = WORKLOADS.iter().find(|(name, _, _)| name == value);
                workload = Some(found.ok_or_else(|| format!("unknown workload {value}"))?.2);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let missing = |flag: &str| format!("{flag} is required");
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        Run {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            threads,
        },
    ))
}

/// Seconds a fixed allocation loop takes, touching none of the program:
/// printed beside the metrics so host drift can be told from program change.
fn host_probe() -> f64 {
    let start = Instant::now();
    let mut kept: Vec<Vec<u64>> = Vec::with_capacity(64);
    let mut sum = 0u64;
    for i in 0..2_000_000u64 {
        let v = vec![i; (i % 61 + 1) as usize];
        sum = sum.wrapping_add(v[v.len() / 2]);
        if kept.len() == 64 {
            kept.swap_remove((i % 64) as usize);
        }
        kept.push(v);
    }
    std::hint::black_box(sum);
    start.elapsed().as_secs_f64()
}

/// The `BENCHMARK.json` that describes this benchmark.
fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--locked",
        "--quiet",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
    ];
    let quoted: Vec<String> = command.iter().map(|c| format!("\"{c}\"")).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why, _)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted.join(", "),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}
