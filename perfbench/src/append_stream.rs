//! `append-stream`: hot-skewed same-family appends to a live repository.
//!
//! Set-up runs the initial full joins (the only synthesis of the
//! workload). Each operation appends one step's rows three ways: it grows
//! the pair's `IncrementalJoin` (golden matching, no resynthesis), grows
//! the pair's two columns in the resident corpus, and refreshes the
//! shortlist with `shortlist_repository_delta`. A round applies every step
//! of the sequence to a fresh copy of the post-set-up state, so every
//! round does the same work.

use crate::alloc;
use crate::check;
use crate::harness::{self, Checks, Layers, OpLog, Outcome, Run};
use std::collections::BTreeSet;
use tjoin_datasets::{
    is_decoy, joinable_rows, row_id, AppendStep, AppendWorkloadConfig, ColumnPair, RepositoryConfig,
};
use tjoin_discovery::{
    shortlist_repository, shortlist_repository_delta, DiscoveryConfig, RepositoryShortlist,
    ShortlistDelta,
};
use tjoin_join::{
    IncrementalJoin, IncrementalJoinConfig, JoinPipeline, JoinPipelineConfig, RowMatchingStrategy,
};
use tjoin_serve::{ResidentCorpus, ServeConfig};
use tjoin_text::{column_fingerprint, GramCorpus};

/// Seed of the base repository and of which pair each step grows. The
/// base's synthesis is all of set-up and is heavy-tailed in cost, so the
/// base is fixed; `--seed` draws the appended rows.
const BASE_SEED: u64 = 23;
/// Pairs in the base repository (a quarter of them decoys).
const PAIRS: usize = 8;
/// Base rows per pair, without noise rows: with them, the kept
/// transformation set can differ from what a fresh run over the grown pair
/// selects (see README.md).
const ROWS: usize = 40;
/// Threads handed to the program. An append takes under a millisecond; at
/// two threads the per-call worker spawns made it three times slower and
/// the run-to-run spread reached 0.5, at one thread it stays near 0.1.
const THREADS: usize = 1;
/// Append steps per round, and rows per step.
const APPENDS: usize = 480;
const ROWS_PER_APPEND: usize = 1;

/// See [`Live::end`].
type RoundEnd = (Vec<Vec<(u32, u32)>>, RepositoryShortlist);

/// The state after set-up, copied at the start of every round.
struct Base {
    repository: Vec<ColumnPair>,
    steps: Vec<AppendStep>,
    /// One live join per joinable pair (`None` for decoys).
    joins: Vec<Option<IncrementalJoin>>,
}

/// The live state a round appends to.
struct Live {
    repository: Vec<ColumnPair>,
    joins: Vec<Option<IncrementalJoin>>,
    resident: ResidentCorpus,
    /// Corpus fingerprints of each pair's (source, target) columns.
    fingerprints: Vec<(u64, u64)>,
    shortlist: RepositoryShortlist,
}

impl Live {
    fn new(base: &Base, discovery: &DiscoveryConfig) -> Self {
        let resident = ResidentCorpus::new(discovery.normalize, ServeConfig::default());
        let mut reservation = resident.reserve(&base.repository);
        resident.begin(&mut reservation);
        let shortlist = shortlist_repository(&base.repository, resident.corpus(), discovery);
        resident.release(reservation);
        let fingerprints = base
            .repository
            .iter()
            .map(|pair| {
                (
                    column_fingerprint(&pair.source),
                    column_fingerprint(&pair.target),
                )
            })
            .collect();
        Self {
            repository: base.repository.clone(),
            joins: base.joins.clone(),
            resident,
            fingerprints,
            shortlist,
        }
    }

    /// Where the round ended: each live pair's predictions, and the
    /// shortlist.
    fn end(&self) -> RoundEnd {
        let predicted = self.joins.iter().flatten();
        let predicted = predicted.map(|join| join.outcome().predicted_pairs.clone());
        (predicted.collect(), self.shortlist.clone())
    }

    /// One operation; `layers` gets a span around each layer call.
    fn append(&mut self, step: &AppendStep, discovery: &DiscoveryConfig, layers: &mut Layers) {
        let j = step.pair;
        let live = self.joins[j]
            .as_mut()
            .expect("appends only target joinable pairs");
        let report = layers.span_allocs(
            "join.incremental_append_s",
            "join.incremental_append_allocs",
            || live.append(&step.rows),
        );
        assert!(
            !report.resynthesized,
            "a resynthesis floor of 0 never resynthesizes"
        );
        layers.add("join.equi_join_s", live.outcome().join_time.as_secs_f64());

        let sources: Vec<&str> = step.rows.iter().map(|(s, _)| s.as_str()).collect();
        let targets: Vec<&str> = step.rows.iter().map(|(_, t)| t.as_str()).collect();
        let (source, target) = self.fingerprints[j];
        let resident = &self.resident;
        self.fingerprints[j] =
            layers.span_allocs("text.corpus_append_s", "text.corpus_append_allocs", || {
                let append = |fingerprint, delta: &Vec<&str>| {
                    resident
                        .append_column(fingerprint, delta)
                        .expect("unpinned resident column")
                };
                (append(source, &sources), append(target, &targets))
            });

        let pair = &mut self.repository[j];
        for (s, t) in &step.rows {
            let row = (row_id(pair.source.len()), row_id(pair.target.len()));
            pair.source.push(s.clone());
            pair.target.push(t.clone());
            pair.golden.push(row);
        }
        let delta = ShortlistDelta {
            previous: &self.shortlist,
            changed: &[j],
        };
        self.shortlist = layers.span("discovery.shortlist_delta_s", || {
            shortlist_repository_delta(&self.repository, resident.corpus(), discovery, delta)
        });
    }
}

pub fn run(run: &Run) -> Outcome {
    let config = JoinPipelineConfig {
        matching: RowMatchingStrategy::Golden,
        ..JoinPipelineConfig::paper_default()
    }
    .with_threads(THREADS);
    let discovery = DiscoveryConfig::paper_default().with_threads(THREADS);
    let floor = IncrementalJoinConfig {
        resynthesis_floor: 0.0,
    };
    let (setup_s, base) = harness::repeated_setup(|| {
        let workload = AppendWorkloadConfig {
            repository: RepositoryConfig::new(PAIRS, ROWS).with_noise(0.0),
            appends: APPENDS,
            rows_per_append: ROWS_PER_APPEND,
        };
        // The steps' pairs come from the base seed too: how often each pair
        // grows sets how large it gets, and so what its appends cost. The
        // seed draws the appended rows.
        let mut workload = workload.generate(BASE_SEED);
        for (i, step) in workload.steps.iter_mut().enumerate() {
            step.rows = joinable_rows(
                &workload.base[step.pair],
                ROWS_PER_APPEND,
                run.seed ^ i as u64,
            )
            .expect("appends only target joinable pairs");
        }
        let joins = workload
            .base
            .iter()
            .map(|pair| {
                (!is_decoy(pair))
                    .then(|| IncrementalJoin::new(config.clone(), floor.clone(), pair.clone()))
            })
            .collect();
        let base = Base {
            repository: workload.base,
            steps: workload.steps,
            joins,
        };
        // Warm-up: one append on a throwaway copy of the live state.
        Live::new(&base, &discovery).append(&base.steps[0], &discovery, &mut Layers::new(false));
        base
    });

    let normalize = config.synthesis.normalize;
    let mut checks = Checks::default();
    let mut ops = OpLog::default();
    let mut layers = Layers::new(run.trace);
    // Round 0's per-step (predicted, recounted true) pairs and final state.
    let mut first_steps: Vec<(usize, usize)> = Vec::new();
    let mut first_live: Option<Live> = None;
    harness::whole_rounds(run.seconds, |round| {
        let mut live = Live::new(&base, &discovery);
        for (i, step) in base.steps.iter().enumerate() {
            ops.time(|| live.append(step, &discovery, &mut layers));
            let outcome = live.joins[step.pair].as_ref().expect("joinable").outcome();
            if round == 0 {
                check::check_recall(&mut checks, &live.repository, &live.shortlist);
                let golden: BTreeSet<&(u32, u32)> =
                    live.repository[step.pair].golden.iter().collect();
                let true_pairs = outcome
                    .predicted_pairs
                    .iter()
                    .filter(|p| golden.contains(p))
                    .count();
                first_steps.push((outcome.predicted_pairs.len(), true_pairs));
            }
            let (predicted, true_pairs) = first_steps[i];
            layers.add("join.predicted_pairs", predicted as f64);
            layers.add("join.true_pairs", true_pairs as f64);
            layers.add(
                "discovery.pairs_retained",
                live.shortlist.ranked.len() as f64,
            );
            layers.add("discovery.pairs_pruned", live.shortlist.pruned.len() as f64);
            let useful = live
                .shortlist
                .ranked
                .iter()
                .filter(|e| !is_decoy(&live.repository[e.index]));
            layers.add("trace.useful_pairs", useful.count() as f64);
        }
        match &first_live {
            None => first_live = Some(live),
            Some(first) => checks.ensure(first.end() == live.end(), || {
                format!("round {round} ends in another state than round 0")
            }),
        }
        ops.latencies.len()
    });
    let peak_bytes = alloc::peak_bytes();
    let live = first_live.expect("every run makes at least one round");
    check_final(&mut checks, &live, &config, &discovery, &normalize);
    let useful = layers.get("trace.useful_pairs") / layers.get("discovery.pairs_retained");
    layers.add("discovery.useful_ratio", useful);
    let attributed_s = layers.get("join.incremental_append_s")
        + layers.get("text.corpus_append_s")
        + layers.get("discovery.shortlist_delta_s");
    Outcome {
        attempted: ops.latencies.len() as u64,
        failed: 0,
        checks,
        setup_s,
        ops,
        peak_bytes,
        layers,
        attributed_s,
    }
}

/// Checks the end of a round against fresh computations: every live pair
/// against a fresh pipeline run and the nested-loop join, the bookkeeping
/// copy of the repository against the live pairs, and the shortlist
/// against a full shortlist on a fresh corpus.
fn check_final(
    checks: &mut Checks,
    live: &Live,
    config: &JoinPipelineConfig,
    discovery: &DiscoveryConfig,
    normalize: &tjoin_text::NormalizeOptions,
) {
    let pipeline = JoinPipeline::new(config.clone());
    for (pair, join) in live.repository.iter().zip(&live.joins) {
        let Some(join) = join else { continue };
        checks.ensure(join.pair() == pair, || {
            format!("{}: live pair drifted", pair.name)
        });
        let fresh = pipeline.run(pair);
        checks.ensure(
            fresh.predicted_pairs == join.outcome().predicted_pairs
                && fresh.metrics == join.outcome().metrics,
            || {
                format!(
                    "{}: incremental outcome differs from a fresh run",
                    pair.name
                )
            },
        );
        check::check_pair(checks, pair, join.outcome(), normalize);
    }
    let fresh = shortlist_repository(&live.repository, &GramCorpus::new(*normalize), discovery);
    checks.ensure(fresh == live.shortlist, || {
        "final shortlist differs from a full shortlist on a fresh corpus".to_string()
    });
}
