//! The long-lived match service: register a target once, match many sources.
//!
//! An enterprise deployment matches a stream of source schemas against one
//! slowly-changing shared target. This example registers the retail target
//! in a [`cxm_service::MatchService`], submits the retail source three times
//! (cold, then a whole-match result-cache hit, then warm with memoization
//! aside), submits the unrelated grades source, replaces a single target
//! table, and finally edits a **single column** of one table — printing
//! per-request telemetry and the per-column `CatalogUpdate` delta counts so
//! the column-granular reuse and the fingerprint-keyed selective
//! invalidation are visible.
//!
//! Run with:
//! ```text
//! cargo run --example match_service
//! ```

use cxm_core::{ContextMatchConfig, ViewInferenceStrategy};
use cxm_datagen::{generate_grades, generate_retail, GradesConfig, RetailConfig};
use cxm_relational::{Table, Tuple, Value};
use cxm_service::{CatalogUpdate, MatchResponse, MatchService};

fn report(label: &str, response: &MatchResponse) {
    println!(
        "  {label}: {} selected matches ({} contextual)",
        response.result.selected.len(),
        response.result.contextual_selected().len(),
    );
    println!("    telemetry: {}", response.telemetry);
}

fn report_update(label: &str, update: &CatalogUpdate) {
    println!(
        "{label} (v{}): tables {} reused / {} rebuilt, columns {} reused / {} rebuilt.",
        update.version,
        update.reused,
        update.rebuilt,
        update.columns_reused,
        update.columns_rebuilt,
    );
}

/// A copy of `table` with one column's values textually perturbed — the
/// single-column drift the column-granular warm keys absorb.
fn edit_one_column(table: &Table, column: &str) -> Table {
    let index = table.schema().index_of(column).expect("column exists");
    let rows = table
        .rows()
        .iter()
        .map(|row| {
            Tuple::new(
                (0..table.schema().arity())
                    .map(|i| {
                        if i == index {
                            Value::str(format!("{} (rev)", row.at(i).as_text()))
                        } else {
                            row.at(i).clone()
                        }
                    })
                    .collect(),
            )
        })
        .collect();
    Table::with_rows(table.schema().clone(), rows).expect("schema unchanged")
}

fn main() {
    let retail = generate_retail(&RetailConfig {
        source_items: 200,
        target_rows: 50,
        ..RetailConfig::default()
    });
    let grades = generate_grades(&GradesConfig { students: 80, ..GradesConfig::default() });

    let config =
        ContextMatchConfig::default().with_inference(ViewInferenceStrategy::SrcClass).with_tau(0.4);
    let service = MatchService::new(config);

    // Register the shared target once. Every table gets a content
    // fingerprint; the column batch is hoisted into the catalog snapshot.
    let update = service.register_target(&retail.target);
    println!(
        "Registered retail target: {} tables (v{}), fingerprints {:?}.",
        update.tables,
        update.version,
        service
            .catalog()
            .snapshot()
            .fingerprints()
            .iter()
            .map(|(name, fp)| format!("{name}:{fp:08x}…"))
            .collect::<Vec<_>>(),
    );

    println!("\nRequests:");
    let cold = service.submit(&retail.source).expect("well-formed retail scenario");
    report("retail (cold)", &cold);

    // An identical repeat is a whole-match result-cache hit: no profile
    // builds, no selection scans, no classifier work — one lookup.
    let memoized = service.submit(&retail.source).expect("well-formed retail scenario");
    report("retail (repeat)", &memoized);

    let foreign = service.submit(&grades.source).expect("well-formed grades scenario");
    report("grades", &foreign);

    // Replace ONE target table: only that table's artifacts are rebuilt.
    let mut replacement = retail.target.tables().next().expect("retail target has tables").clone();
    let renamed = replacement.name().to_string();
    replacement = replacement.head(replacement.len().saturating_sub(1));
    let update = service.replace_table(replacement.clone()).expect("table is registered");
    report_update(&format!("\nReplaced target table `{renamed}`"), &update);
    let after = service.submit(&retail.source).expect("well-formed retail scenario");
    report("retail (after replace)", &after);

    // Edit a SINGLE COLUMN of that table: the catalog rebuilds exactly that
    // column — every sibling column keeps its values and memoized profiles
    // (target selections are never cached; the selection cache holds source
    // tables only) — and the next request re-profiles exactly one column.
    let column = replacement
        .schema()
        .attributes()
        .iter()
        .find(|a| a.data_type == cxm_relational::DataType::Text)
        .map(|a| a.name.clone())
        .expect("retail tables have text columns");
    let edited = edit_one_column(&replacement, &column);
    let update = service.replace_table(edited).expect("table is registered");
    report_update(&format!("\nEdited single column `{renamed}.{column}`"), &update);
    let after_column = service.submit(&retail.source).expect("well-formed retail scenario");
    report("retail (after column edit)", &after_column);
    println!(
        "    → the single-column edit re-profiled {} column(s); a full table rebuild would \
         have re-profiled {}",
        after_column.telemetry.qgram_profile_builds,
        replacement.schema().arity(),
    );

    // Restricted-column profiles are content-keyed, so the entries built at
    // catalog v1 are still serving requests at v3 — the version span makes
    // that longevity visible.
    let snapshot = service.catalog().snapshot();
    let cache = snapshot.restricted_profiles().lock().expect("no poisoned requests");
    if let Some((oldest, newest)) = cache.version_span() {
        println!(
            "    → {} restricted-column entries published at catalog v{oldest}–v{newest} \
             still live at v{}",
            cache.len(),
            snapshot.version(),
        );
    }
}
