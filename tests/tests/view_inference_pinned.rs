//! Pins cold classifier-driven view inference: the `Debug` digest of
//! `ContextualMatcher::run` and the classifier work units it spends, under
//! `SrcClass` and `TgtClass` × early / late disjuncts, on fixed retail and
//! grades seeds. The constants were recorded from the string-keyed Naive
//! Bayes and the cloning target labeler, so a classifier rewrite that moves
//! any view, score, tag or likelihood evaluation fails here.
//!
//! This file intentionally holds a single test: the work-unit counter
//! (`cxm_classify::telemetry`) is process-global, so the readings are
//! deterministic only while no other test of the same binary drives a
//! classifier.

use cxm_core::{ContextMatchConfig, ContextualMatcher, ViewInferenceStrategy};
use cxm_datagen::{generate_grades, generate_retail, GradesConfig, RetailConfig};
use cxm_relational::{Database, Fnv64};

/// `(dataset, strategy, early disjuncts, result digest, work units)`.
const PINNED: [(&str, &str, bool, u64, usize); 8] = [
    ("retail", "SrcClass", true, 6007029028164559797, 68_949),
    ("retail", "SrcClass", false, 9073058021561646201, 31_599),
    ("retail", "TgtClass", true, 6007029028164559797, 259_088),
    ("retail", "TgtClass", false, 9073058021561646201, 106_052),
    ("grades", "SrcClass", true, 13648337659672120791, 41_870),
    ("grades", "SrcClass", false, 10396472810320172368, 13_322),
    ("grades", "TgtClass", true, 6475352653939312118, 29_062),
    ("grades", "TgtClass", false, 10396472810320172368, 8_332),
];

/// Run one cold match and return the FNV-1a digest of the result's `Debug`
/// text with the classifier work units the run spent.
fn digest_and_work(
    source: &Database,
    target: &Database,
    config: ContextMatchConfig,
) -> (u64, usize) {
    let before = cxm_classify::telemetry::work_units();
    let result = ContextualMatcher::new(config).run(source, target).expect("well-formed dataset");
    let work = cxm_classify::telemetry::work_units() - before;
    let mut h = Fnv64::new();
    h.write_str(&format!("{result:?}"));
    (h.finish(), work)
}

#[test]
fn cold_classifier_inference_matches_the_pinned_digests_and_work() {
    let retail = generate_retail(&RetailConfig {
        seed: 7,
        source_items: 120,
        target_rows: 40,
        ..RetailConfig::default()
    });
    let grades = generate_grades(&GradesConfig {
        seed: 5,
        students: 60,
        target_students: 60,
        ..GradesConfig::default()
    });
    let mut observed = Vec::new();
    for (name, source, target) in
        [("retail", &retail.source, &retail.target), ("grades", &grades.source, &grades.target)]
    {
        for strategy in [ViewInferenceStrategy::SrcClass, ViewInferenceStrategy::TgtClass] {
            for early in [true, false] {
                let config = ContextMatchConfig::default()
                    .with_inference(strategy)
                    .with_early_disjuncts(early);
                let (digest, work) = digest_and_work(source, target, config);
                observed.push((name, strategy.name(), early, digest, work));
            }
        }
    }
    assert_eq!(observed, PINNED);
}
