//! `serve-stream`: a hot-skewed stream of repository requests through a
//! resident corpus whose byte budget is half the stream's footprint.
//!
//! Each repository holds large decoy pairs (as in `BENCH_serve.json`) plus
//! one small joinable pair. A request runs reserve → begin →
//! `BatchJoinRunner::discover_and_run` → release on a runner that shares
//! the corpus. A round replays the request order on a fresh corpus, so
//! every round makes the same builds, hits and evictions.
//!
//! A request fails when one of its decoys predicts a pair (a fault of the
//! pipeline, see README.md). Every repository here has such a decoy, so
//! every request fails. The inputs do not depend on `--seed`: seeded
//! repositories would change the failing share from seed to seed, and a
//! seeded request order moved the median latency by 0.2 to 0.5.

use crate::alloc;
use crate::check;
use crate::harness::{self, Checks, Layers, OpLog, Outcome, Run};
use std::time::Instant;
use tjoin_datasets::{is_decoy, ColumnPair, RepositoryConfig, RequestWorkloadConfig};
use tjoin_discovery::{shortlist_repository, DiscoveryConfig};
use tjoin_join::{BatchJoinRunner, DiscoveredBatchOutcome, JoinPipelineConfig};
use tjoin_serve::{ResidentCorpus, ServeConfig};

/// Seed of the repositories and of the request order.
const REPOSITORY_SEED: u64 = 17;
/// Distinct repositories in the stream.
const DISTINCT: usize = 3;
/// Requests per round (repository 0 draws about five in eight).
const REQUESTS: usize = 64;
/// Decoy pairs per repository, and their base row count.
const DECOYS: usize = 3;
const DECOY_ROWS: usize = 400;
/// Base row count of each repository's joinable (user-id) pair.
const JOINABLE_ROWS: usize = 12;
/// Index of the user-id pair in a six-pair decoy-free repository.
const USER_IDS: usize = 5;

struct Stream {
    repositories: Vec<Vec<ColumnPair>>,
    sequence: Vec<usize>,
    /// Half the bytes the stream keeps resident without a budget.
    budget: usize,
}

fn stream(runner: &BatchJoinRunner, discovery: &DiscoveryConfig) -> Stream {
    let shape = |repository| RequestWorkloadConfig {
        distinct: DISTINCT,
        requests: REQUESTS,
        repository,
    };
    let mut workload =
        shape(RepositoryConfig::new(DECOYS, DECOY_ROWS).with_decoys(1.0)).generate(REPOSITORY_SEED);
    for (i, repository) in workload.repositories.iter_mut().enumerate() {
        let joinable = RepositoryConfig::new(6, JOINABLE_ROWS)
            .with_decoys(0.0)
            .generate(REPOSITORY_SEED + i as u64);
        repository.push(joinable[USER_IDS].clone());
    }
    // Warm-up and footprint: every repository once through an unbudgeted
    // resident corpus.
    let resident = ResidentCorpus::new(discovery.normalize, ServeConfig::default());
    let warm = runner.clone().with_corpus(resident.shared());
    for repository in &workload.repositories {
        request(&resident, &warm, repository, discovery);
    }
    Stream {
        repositories: workload.repositories,
        sequence: workload.sequence,
        budget: resident.stats().bytes_resident / 2,
    }
}

/// One request: reserve → begin → discover-and-run → release. Returns the
/// outcome and the resident bytes after release.
fn request(
    resident: &ResidentCorpus,
    runner: &BatchJoinRunner,
    repository: &[ColumnPair],
    discovery: &DiscoveryConfig,
) -> (DiscoveredBatchOutcome, usize) {
    let mut reservation = resident.reserve(repository);
    resident.begin(&mut reservation);
    let found = runner.discover_and_run(repository, discovery);
    let stats = resident.release(reservation);
    (found, stats.bytes_resident)
}

/// The same request split at the layer boundaries: admission, the
/// shortlist, the batch run over the shortlist, release.
fn traced(
    resident: &ResidentCorpus,
    runner: &BatchJoinRunner,
    repository: &[ColumnPair],
    discovery: &DiscoveryConfig,
    layers: &mut Layers,
) -> (DiscoveredBatchOutcome, usize) {
    let reservation = layers.span("serve.admission_s", || {
        let mut reservation = resident.reserve(repository);
        resident.begin(&mut reservation);
        reservation
    });
    let before = resident.corpus().stats();
    let shortlist = layers.span("discovery.shortlist_s", || {
        shortlist_repository(repository, resident.corpus(), discovery)
    });
    let sublist: Vec<ColumnPair> = shortlist
        .ranked
        .iter()
        .map(|entry| repository[entry.index].clone())
        .collect();
    let batch_start = Instant::now();
    let outcome = runner.run(&sublist);
    let batch_s = batch_start.elapsed().as_secs_f64();
    let after = resident.corpus().stats();
    layers.max(
        "serve.resident_peak_mib",
        harness::mib(resident.corpus().resident_bytes()),
    );
    let stats = layers.span("serve.admission_s", || resident.release(reservation));

    let mut busy = 0.0;
    for report in &outcome.reports {
        let o = &report.outcome;
        layers.add("matching.match_s", o.matching_time.as_secs_f64());
        layers.add("core.synthesis_s", o.synthesis_time.as_secs_f64());
        layers.add("join.equi_join_s", o.join_time.as_secs_f64());
        layers.add("matching.candidate_pairs", o.candidate_pairs as f64);
        busy += (o.matching_time + o.synthesis_time + o.join_time).as_secs_f64();
    }
    let workers = outcome.scheduler.workers as f64;
    layers.add("join.batch_idle_s", (workers * batch_s - busy).max(0.0));
    layers.add("trace.batch_s", batch_s);
    layers.add(
        "text.columns_interned",
        (after.columns_interned - before.columns_interned) as f64,
    );
    layers.add(
        "text.stats_built",
        (after.stats_built - before.stats_built) as f64,
    );
    layers.add(
        "text.indexes_built",
        (after.indexes_built - before.indexes_built) as f64,
    );
    layers.add(
        "text.signatures_built",
        (after.signatures_built - before.signatures_built) as f64,
    );
    (
        DiscoveredBatchOutcome { shortlist, outcome },
        stats.bytes_resident,
    )
}

pub fn run(run: &Run) -> Outcome {
    let config = JoinPipelineConfig::paper_default();
    let discovery = DiscoveryConfig::paper_default().with_threads(run.threads);
    let runner = BatchJoinRunner::new(config.clone(), run.threads);
    let (setup_s, stream) = harness::repeated_setup(|| stream(&runner, &discovery));
    let normalize = config.synthesis.normalize;
    let mut checks = Checks::default();
    let mut ops = OpLog::default();
    let mut layers = Layers::new(run.trace);
    let mut failed = 0;
    let mut first: Vec<DiscoveredBatchOutcome> = Vec::new();
    harness::whole_rounds(run.seconds, |round| {
        let resident = ResidentCorpus::new(
            discovery.normalize,
            ServeConfig {
                byte_budget: Some(stream.budget),
                ..ServeConfig::default()
            },
        );
        let runner = runner.clone().with_corpus(resident.shared());
        for (i, &r) in stream.sequence.iter().enumerate() {
            let repository = &stream.repositories[r];
            let (found, resident_bytes) = if run.trace {
                ops.time(|| traced(&resident, &runner, repository, &discovery, &mut layers))
            } else {
                ops.time(|| request(&resident, &runner, repository, &discovery))
            };
            checks.ensure(resident_bytes <= stream.budget, || {
                format!("request {i}: {resident_bytes} bytes resident over the budget")
            });
            let shortlist = &found.shortlist;
            let decoy_predicts =
                shortlist
                    .ranked
                    .iter()
                    .zip(&found.outcome.reports)
                    .any(|(entry, report)| {
                        is_decoy(&repository[entry.index])
                            && !report.outcome.predicted_pairs.is_empty()
                    });
            if decoy_predicts {
                failed += 1;
            }
            if round == 0 {
                check::check_recall(&mut checks, repository, shortlist);
                for (entry, report) in shortlist.ranked.iter().zip(&found.outcome.reports) {
                    let pair = &repository[entry.index];
                    let true_pairs =
                        check::check_pair(&mut checks, pair, &report.outcome, &normalize);
                    layers.add("join.true_pairs", true_pairs as f64);
                }
                first.push(found.clone());
            } else {
                let reference = &first[i];
                checks.ensure(same_results(reference, &found), || {
                    format!("request {i}: round {round} differs from round 0")
                });
                // Round 0 recounted the true pairs; later rounds reproduce them.
                let true_pairs: usize = reference
                    .outcome
                    .reports
                    .iter()
                    .map(|r| r.outcome.metrics.true_positives)
                    .sum();
                layers.add("join.true_pairs", true_pairs as f64);
            }
            layers.add("discovery.pairs_retained", shortlist.ranked.len() as f64);
            layers.add(
                "discovery.pairs_pruned",
                (shortlist.pruned.len() + shortlist.pruned_by_budget.len()) as f64,
            );
            let useful = shortlist
                .ranked
                .iter()
                .filter(|e| !is_decoy(&repository[e.index]));
            layers.add("trace.useful_pairs", useful.count() as f64);
            let predicted: usize = found
                .outcome
                .reports
                .iter()
                .map(|report| report.outcome.predicted_pairs.len())
                .sum();
            layers.add("join.predicted_pairs", predicted as f64);
        }
        let stats = resident.stats();
        layers.add("serve.hits", stats.hits as f64);
        layers.add("serve.misses", stats.misses as f64);
        layers.add("serve.evictions", stats.evictions as f64);
        ops.latencies.len()
    });
    let peak_bytes = alloc::peak_bytes();

    // Each request's results must equal a run of the same repository
    // without a resident corpus.
    let cold: Vec<DiscoveredBatchOutcome> = stream
        .repositories
        .iter()
        .map(|repository| runner.discover_and_run(repository, &discovery))
        .collect();
    for (i, &r) in stream.sequence.iter().enumerate() {
        checks.ensure(same_results(&cold[r], &first[i]), || {
            format!("request {i}: results differ from a run without a resident corpus")
        });
    }

    let hits = layers.get("serve.hits");
    layers.add(
        "serve.hit_ratio",
        hits / (hits + layers.get("serve.misses")),
    );
    let useful = layers.get("trace.useful_pairs") / layers.get("discovery.pairs_retained");
    layers.add("discovery.useful_ratio", useful);
    // The batch span covers matching, synthesis, the equi-join and the
    // workers' idle time; only the sublist copy and the corpus counter
    // snapshots fall outside the named spans.
    let attributed_s = layers.get("serve.admission_s")
        + layers.get("discovery.shortlist_s")
        + layers.get("trace.batch_s");
    Outcome {
        attempted: ops.latencies.len() as u64,
        failed,
        checks,
        setup_s,
        ops,
        peak_bytes,
        layers,
        attributed_s,
    }
}

/// Results-only comparison: shortlist, then per pair the name, status,
/// predictions and metrics (times and counters are measurements).
fn same_results(a: &DiscoveredBatchOutcome, b: &DiscoveredBatchOutcome) -> bool {
    a.shortlist == b.shortlist
        && a.outcome.reports.len() == b.outcome.reports.len()
        && a.outcome
            .reports
            .iter()
            .zip(&b.outcome.reports)
            .all(|(x, y)| {
                x.name == y.name
                    && x.status == y.status
                    && x.outcome.predicted_pairs == y.outcome.predicted_pairs
                    && x.outcome.metrics == y.outcome.metrics
            })
}
