//! Output checks computed apart from the program's own join and discovery
//! code: a nested-loop join, a golden-mapping recount, and shortlist recall.

use crate::harness::Checks;
use std::collections::BTreeSet;
use tjoin_datasets::{is_decoy, row_id, ColumnPair};
use tjoin_discovery::RepositoryShortlist;
use tjoin_join::JoinOutcome;
use tjoin_text::{normalize_for_matching, NormalizeOptions};

/// The pairs a naive nested-loop join predicts: every retained
/// transformation applied to every normalized source cell, compared with
/// every normalized target cell.
fn nested_loop_join(
    pair: &ColumnPair,
    outcome: &JoinOutcome,
    normalize: &NormalizeOptions,
) -> BTreeSet<(u32, u32)> {
    let targets: Vec<String> = pair
        .target
        .iter()
        .map(|t| normalize_for_matching(t, normalize))
        .collect();
    let mut joined = BTreeSet::new();
    for covered in outcome.transformations.iter() {
        for (s, source) in pair.source.iter().enumerate() {
            let Some(out) = covered
                .transformation
                .apply(&normalize_for_matching(source, normalize))
            else {
                continue;
            };
            for (t, target) in targets.iter().enumerate() {
                if *target == out {
                    joined.insert((row_id(s), row_id(t)));
                }
            }
        }
    }
    joined
}

/// Checks one pair's outcome against the nested-loop join and recounts its
/// true pairs against the generator's golden mapping. Returns the recount.
pub fn check_pair(
    checks: &mut Checks,
    pair: &ColumnPair,
    outcome: &JoinOutcome,
    normalize: &NormalizeOptions,
) -> usize {
    let predicted: BTreeSet<(u32, u32)> = outcome.predicted_pairs.iter().copied().collect();
    checks.ensure(predicted.len() == outcome.predicted_pairs.len(), || {
        format!("{}: duplicate predicted pairs", pair.name)
    });
    checks.ensure(
        predicted == nested_loop_join(pair, outcome, normalize),
        || {
            format!(
                "{}: predicted pairs differ from the nested-loop join",
                pair.name
            )
        },
    );
    let golden: BTreeSet<(u32, u32)> = pair.golden.iter().copied().collect();
    let true_pairs = predicted.intersection(&golden).count();
    checks.ensure(true_pairs == outcome.metrics.true_positives, || {
        format!(
            "{}: {} true pairs reported, {true_pairs} recounted",
            pair.name, outcome.metrics.true_positives
        )
    });
    true_pairs
}

/// Checks that `shortlist` retains every pair the generator labels joinable.
pub fn check_recall(
    checks: &mut Checks,
    repository: &[ColumnPair],
    shortlist: &RepositoryShortlist,
) {
    let retained: BTreeSet<usize> = shortlist.ranked.iter().map(|entry| entry.index).collect();
    for (index, pair) in repository.iter().enumerate() {
        checks.ensure(is_decoy(pair) || retained.contains(&index), || {
            format!("shortlist dropped joinable pair {}", pair.name)
        });
    }
}
