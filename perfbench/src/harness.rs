//! Run-loop, timing, metric and report plumbing shared by the workloads.

use crate::alloc;
use std::collections::BTreeMap;
use std::time::Instant;

/// How many times a run repeats its set-up; `setup_s` is the median.
const SETUPS: usize = 5;

/// The arguments of one benchmark run.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The host's available parallelism: the most threads a workload
    /// hands the program.
    pub threads: usize,
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    pub setup_s: f64,
    pub ops: OpLog,
    /// Highest live heap from the start of set-up to the end of timing.
    pub peak_bytes: usize,
    /// Per-layer sums (spans only when traced).
    pub layers: Layers,
    /// Seconds of traced operation time that the named layer spans cover.
    pub attributed_s: f64,
}

/// Output checks: every failed check is printed to stderr and makes the
/// run's `correct` false.
#[derive(Default)]
pub struct Checks {
    failures: usize,
}

impl Checks {
    pub fn ensure(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures += 1;
            if self.failures <= 20 {
                eprintln!("check failed: {}", what());
            }
        }
    }

    pub fn passed(&self) -> bool {
        self.failures == 0
    }
}

/// Latency and allocation count of every timed operation.
#[derive(Default)]
pub struct OpLog {
    pub latencies: Vec<f64>,
    pub allocs: u64,
}

impl OpLog {
    /// Times one operation and counts the allocations made while it runs
    /// (on any thread).
    pub fn time<R>(&mut self, op: impl FnOnce() -> R) -> R {
        let allocs = alloc::allocations();
        let start = Instant::now();
        let result = op();
        self.latencies.push(start.elapsed().as_secs_f64());
        self.allocs += alloc::allocations() - allocs;
        result
    }
}

/// Runs `setup` [`SETUPS`] times and returns the median wall time with the
/// last state. The previous state is dropped before the next set-up starts.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> S) -> (f64, S) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let start = Instant::now();
        state = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (median(&mut times), state.expect("SETUPS is at least 1"))
}

/// Fewest operations a run times: ten samples lie beyond its 90th
/// percentile.
const MIN_OPS: usize = 100;

/// Calls `round(i)` for i = 0, 1, ... until `seconds` have passed and at
/// least [`MIN_OPS`] operations were timed, always finishing the round in
/// progress, so every run is made of whole rounds. `round` returns the
/// number of operations timed so far.
pub fn whole_rounds(seconds: f64, mut round: impl FnMut(usize) -> usize) {
    let start = Instant::now();
    let mut i = 0;
    loop {
        let timed = round(i);
        i += 1;
        if start.elapsed().as_secs_f64() >= seconds && timed >= MIN_OPS {
            break;
        }
    }
}

/// Fisher-Yates shuffle driven by a SplitMix64 stream of `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `sorted`.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-layer sums of a run, keyed by metric name. Spans time only when
/// tracing; untraced, they just call through.
pub struct Layers {
    tracing: bool,
    sums: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn new(tracing: bool) -> Self {
        Self {
            tracing,
            sums: BTreeMap::new(),
        }
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    pub fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.sums.entry(name).or_default();
        *slot = slot.max(value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Times `f` into the seconds metric `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.tracing {
            return f();
        }
        let start = Instant::now();
        let result = f();
        self.add(name, start.elapsed().as_secs_f64());
        result
    }

    /// Times `f` into `seconds` and counts its allocations into `allocs`.
    pub fn span_allocs<R>(
        &mut self,
        seconds: &'static str,
        allocs: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.tracing {
            return f();
        }
        let before = alloc::allocations();
        let result = self.span(seconds, f);
        self.add(allocs, (alloc::allocations() - before) as f64);
        result
    }
}

/// An end-to-end metric: name, unit, direction and regression bound.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_heap_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.1,
    },
];

/// Per-layer metrics, reported by every workload in a traced run (0 where
/// the layer is not on the workload's path). Seconds and counts are means
/// per operation; `ratio` and `MiB` metrics are whole-run values.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("core.generate_s", "s", "lower"),
    ("core.coverage_s", "s", "lower"),
    ("core.select_materialize_s", "s", "lower"),
    ("core.select_top_k_s", "s", "lower"),
    ("core.select_greedy_s", "s", "lower"),
    ("core.synthesis_s", "s", "lower"),
    ("core.transformations_unique", "count", "lower"),
    ("core.coverage_trials", "count", "lower"),
    ("core.unit_evaluations", "count", "lower"),
    ("core.select_survivors", "count", "lower"),
    ("core.select_top_k_allocs", "count", "lower"),
    ("core.coverage_allocs", "count", "lower"),
    ("matching.match_s", "s", "lower"),
    ("matching.candidate_pairs", "count", "lower"),
    ("text.corpus_append_s", "s", "lower"),
    ("text.corpus_append_allocs", "count", "lower"),
    ("text.columns_interned", "count", "lower"),
    ("text.stats_built", "count", "lower"),
    ("text.indexes_built", "count", "lower"),
    ("text.signatures_built", "count", "lower"),
    ("discovery.shortlist_s", "s", "lower"),
    ("discovery.shortlist_delta_s", "s", "lower"),
    ("discovery.pairs_retained", "count", "lower"),
    ("discovery.pairs_pruned", "count", "higher"),
    ("discovery.useful_ratio", "ratio", "higher"),
    ("join.equi_join_s", "s", "lower"),
    ("join.incremental_append_s", "s", "lower"),
    ("join.batch_idle_s", "s", "lower"),
    ("join.equi_join_allocs", "count", "lower"),
    ("join.incremental_append_allocs", "count", "lower"),
    ("join.predicted_pairs", "count", "lower"),
    ("join.true_pairs", "count", "higher"),
    ("serve.admission_s", "s", "lower"),
    ("serve.hits", "count", "higher"),
    ("serve.misses", "count", "lower"),
    ("serve.evictions", "count", "lower"),
    ("serve.hit_ratio", "ratio", "higher"),
    ("serve.resident_peak_mib", "MiB", "lower"),
];

const MIB: f64 = 1024.0 * 1024.0;

/// The metrics a run prints: the end-to-end set untraced, the per-layer
/// set traced.
pub fn metrics(outcome: &Outcome, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    let ops = outcome.ops.latencies.len() as f64;
    if trace {
        return PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let sum = outcome.layers.get(name);
                let value = if unit == "s" || unit == "count" {
                    sum / ops
                } else {
                    sum
                };
                (name, value, unit)
            })
            .collect();
    }
    let mut sorted = outcome.ops.latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let busy: f64 = sorted.iter().sum();
    let value = |name: &str| match name {
        "setup_s" => outcome.setup_s,
        "ops_per_s" => ops / busy,
        "latency_p50_ms" => quantile(&sorted, 0.5) * 1e3,
        "latency_p90_ms" => quantile(&sorted, 0.9) * 1e3,
        "allocs_per_op" => outcome.ops.allocs as f64 / ops,
        "peak_heap_mib" => outcome.peak_bytes as f64 / MIB,
        _ => unreachable!("unknown end-to-end metric {name}"),
    };
    END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect()
}

/// Bytes as MiB, for the whole-run memory metrics.
pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / MIB
}
