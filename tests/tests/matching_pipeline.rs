//! Cross-crate tests of the matching pipeline below the `ContextMatch` level:
//! standard matching, candidate-view scoring and the classifier substrate
//! working together on generated data.

use cxm_classify::{Classifier, NaiveBayesClassifier};
use cxm_core::candidate_views::infer_candidate_views;
use cxm_core::{ContextMatchConfig, ViewInferenceStrategy};
use cxm_datagen::{generate_retail, RetailConfig};
use cxm_matching::{ColumnData, MatchingConfig, StandardMatcher};
use cxm_relational::{categorical_attributes, CategoricalPolicy};

#[test]
fn standard_matching_prefers_the_semantically_right_pairs() {
    let dataset = generate_retail(&RetailConfig {
        source_items: 300,
        target_rows: 80,
        ..RetailConfig::default()
    });
    let matcher = StandardMatcher::new(MatchingConfig::with_tau(0.0));
    let outcome = matcher.match_databases(&dataset.source, &dataset.target);

    let conf = |src: &str, tgt_table: &str, tgt: &str| {
        outcome
            .confidence_of(
                &cxm_relational::AttrRef::new("items", src),
                &cxm_relational::AttrRef::new(tgt_table, tgt),
            )
            .unwrap_or(0.0)
    };
    // Titles match titles better than they match catalogue codes.
    assert!(conf("ItemName", "book", "title") > conf("ItemName", "book", "isbn"));
    // Codes match codes better than they match formats.
    assert!(conf("Code", "book", "isbn") > conf("Code", "book", "format"));
    // Prices match prices better than they match titles.
    assert!(conf("Price", "music", "price") > conf("Price", "music", "title"));
}

#[test]
fn candidate_views_from_generated_data_partition_on_item_type() {
    let dataset = generate_retail(&RetailConfig {
        source_items: 300,
        target_rows: 80,
        ..RetailConfig::default()
    });
    let items = dataset.source.table("items").unwrap();
    let matcher = StandardMatcher::with_defaults();
    let outcome = matcher.match_table(items, &dataset.target);
    let config = ContextMatchConfig::default()
        .with_inference(ViewInferenceStrategy::SrcClass)
        .with_early_disjuncts(false);
    let families = infer_candidate_views(items, &outcome.accepted, &dataset.target, &config);
    assert!(!families.is_empty());
    assert!(
        families.iter().any(|f| f.attribute == "ItemType"),
        "SrcClassInfer should admit the ItemType partition: {:?}",
        families.iter().map(|f| f.attribute.clone()).collect::<Vec<_>>()
    );
}

#[test]
fn qgram_classifier_separates_generated_descriptions() {
    // The classifier substrate must separate the generated book formats from
    // music labels — the property TgtClassInfer relies on.
    let dataset = generate_retail(&RetailConfig {
        source_items: 400,
        target_rows: 80,
        ..RetailConfig::default()
    });
    let items = dataset.source.table("items").unwrap();
    let descr = items.column("Description").unwrap();
    let types = items.column("ItemType").unwrap();
    let mut nb = NaiveBayesClassifier::new();
    let n = descr.len();
    for i in 0..n / 2 {
        let label = if types[i].as_text().starts_with("Book") { "book" } else { "cd" };
        nb.teach(&descr[i].as_text(), label);
    }
    let mut correct = 0;
    let mut total = 0;
    for i in n / 2..n {
        let expected = if types[i].as_text().starts_with("Book") { "book" } else { "cd" };
        if nb.classify(&descr[i].as_text()).as_deref() == Some(expected) {
            correct += 1;
        }
        total += 1;
    }
    let accuracy = correct as f64 / total as f64;
    assert!(accuracy > 0.9, "description classifier accuracy only {accuracy:.2}");
}

#[test]
fn generated_columns_have_expected_statistical_character() {
    let dataset = generate_retail(&RetailConfig {
        source_items: 500,
        target_rows: 100,
        ..RetailConfig::default()
    });
    let items = dataset.source.table("items").unwrap();
    let cats = categorical_attributes(items, &CategoricalPolicy::default());
    assert!(cats.contains(&"ItemType".to_string()));
    let price = ColumnData::from_table(items, "Price").unwrap();
    assert!(price.looks_numeric());
    let name = ColumnData::from_table(items, "ItemName").unwrap();
    assert!(!name.looks_numeric());
    assert_eq!(name.len(), 500);
}
