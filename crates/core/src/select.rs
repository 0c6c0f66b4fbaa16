//! `SelectContextualMatches` (§3.4): deciding which matches to present.
//!
//! Two policies are implemented:
//!
//! * **`MultiTable`** — for every target attribute, keep the single
//!   highest-confidence match regardless of which source table or view it
//!   comes from. Simple, but (as the paper's Figure 11 shows) it lets
//!   incoherent mixtures of sources through.
//! * **`QualTable`** — for every *target table*, first pick the source table
//!   whose standard matches have the highest total confidence, then accept a
//!   candidate view of that table only if it improves the table-level match
//!   quality by at least the improvement threshold ω. Following §3
//!   ("count the total improvement across all of the individual matches"),
//!   improvement is the sum over the table's prototype matches of the
//!   *confidence gain* the view produces for that match, measured in
//!   percentage points (so ω ranges over the paper's 5–30 scale). Matches the
//!   view does not improve contribute nothing — a semantically valid context
//!   improves several matches at once, while an invalid one produces only
//!   scattered, small gains, which is exactly the property the threshold
//!   exploits. Under `EarlyDisjuncts` only the single best qualifying view is
//!   kept (its condition may be disjunctive); under `LateDisjuncts` every
//!   qualifying view is kept, which amounts to disjuncting over the selected
//!   views.

use std::collections::BTreeMap;

use cxm_matching::{Match, MatchList};

use crate::config::{ContextMatchConfig, SelectionStrategy};

/// Select the contextual matches to present, given the accepted standard
/// matches and the scored contextual candidates.
pub fn select_contextual_matches(
    standard: &MatchList,
    candidates: &MatchList,
    config: &ContextMatchConfig,
) -> MatchList {
    match config.selection {
        SelectionStrategy::MultiTable => multi_table(standard, candidates),
        SelectionStrategy::QualTable => qual_table(standard, candidates, config),
    }
}

/// `MultiTable`: best match per target attribute across all sources and views.
fn multi_table(standard: &MatchList, candidates: &MatchList) -> MatchList {
    let mut best: BTreeMap<String, Match> = BTreeMap::new();
    for m in standard.iter().chain(candidates.iter()) {
        let key = m.target.to_string();
        match best.get(&key) {
            Some(existing) if existing.confidence >= m.confidence => {}
            _ => {
                best.insert(key, m.clone());
            }
        }
    }
    best.into_values().collect()
}

/// `QualTable`: coherent per-target-table selection gated by ω.
fn qual_table(
    standard: &MatchList,
    candidates: &MatchList,
    config: &ContextMatchConfig,
) -> MatchList {
    // Both lists grouped once by target table, each group in list order so
    // every float sum below adds in the order of the lists.
    let mut by_target_table: BTreeMap<&str, (Vec<&Match>, Vec<&Match>)> = BTreeMap::new();
    for m in standard {
        by_target_table.entry(&m.target.table).or_default().0.push(m);
    }
    for c in candidates {
        by_target_table.entry(&c.target.table).or_default().1.push(c);
    }

    let mut selected = MatchList::new();
    for (standard, candidates) in by_target_table.into_values() {
        // 1. Pick the source table with the highest total match confidence
        //    against this target table.
        let mut base_conf_totals: BTreeMap<&str, f64> = BTreeMap::new();
        for m in &standard {
            *base_conf_totals.entry(&m.base_table).or_insert(0.0) += m.confidence;
        }
        let Some(best_source) = base_conf_totals
            .iter()
            .max_by(|a, b| {
                a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal).then_with(|| b.0.cmp(a.0))
            })
            .map(|(&s, _)| s)
        else {
            continue;
        };

        // Base confidence of each of the table's prototype matches, for
        // computing per-match deltas (a later duplicate wins).
        let base_confidence: BTreeMap<(&str, &str, &str), f64> = standard
            .iter()
            .map(|m| {
                (
                    (
                        m.base_table.as_str(),
                        m.source.attribute.as_str(),
                        m.target.attribute.as_str(),
                    ),
                    m.confidence,
                )
            })
            .collect();

        // 2. Total confidence improvement of each candidate view of that source
        //    table: the sum, over the prototype matches, of the confidence gain
        //    the view produces (in percentage points).
        let mut view_improvements: BTreeMap<&str, f64> = BTreeMap::new();
        for c in candidates.iter().filter(|c| c.base_table == best_source) {
            let key =
                (c.base_table.as_str(), c.source.attribute.as_str(), c.target.attribute.as_str());
            let base = base_confidence.get(&key).copied().unwrap_or(0.0);
            let delta = (c.confidence - base) * 100.0;
            // Per-match noise floor: tiny gains are indistinguishable from
            // random fluctuation and must not accumulate into a spurious
            // table-level improvement.
            let improvement = view_improvements.entry(&c.source.table).or_insert(0.0);
            if delta >= config.min_match_improvement {
                *improvement += delta;
            }
        }

        // 3. Views whose total improvement clears ω.
        let mut passing: Vec<(&str, f64)> =
            view_improvements.into_iter().filter(|&(_, imp)| imp >= config.omega).collect();
        passing.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.0.cmp(b.0))
        });

        if passing.is_empty() {
            // No view qualifies: fall back to the standard matches of the best
            // source table.
            selected.extend(standard.into_iter().filter(|m| m.base_table == best_source).cloned());
            continue;
        }

        // Under early disjuncts the disjunctive conditions were already
        // formed during inference, so a single view suffices.
        let chosen_views = if config.early_disjuncts { &passing[..1] } else { &passing[..] };
        for &(view, _) in chosen_views {
            selected.extend(
                candidates
                    .iter()
                    .filter(|c| c.source.table == view && c.base_table == best_source)
                    .map(|&c| c.clone()),
            );
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::config::{ContextMatchConfig, SelectionStrategy};
    use cxm_relational::{AttrRef, Condition};

    fn std_match(src_table: &str, src: &str, tgt_table: &str, tgt: &str, conf: f64) -> Match {
        Match::standard(AttrRef::new(src_table, src), AttrRef::new(tgt_table, tgt), conf, conf)
    }

    fn ctx_match(
        base: &str,
        view: &str,
        src: &str,
        tgt_table: &str,
        tgt: &str,
        cond: Condition,
        conf: f64,
    ) -> Match {
        std_match(base, src, tgt_table, tgt, 0.5).with_context(view, cond, conf, conf)
    }

    /// Standard matches: inv matches both book and music tables reasonably.
    fn standard_fixture() -> MatchList {
        vec![
            std_match("inv", "name", "book", "title", 0.7),
            std_match("inv", "descr", "book", "format", 0.6),
            std_match("inv", "name", "music", "title", 0.65),
            std_match("inv", "descr", "music", "label", 0.55),
            // A second, worse source table.
            std_match("price", "price", "book", "title", 0.2),
        ]
    }

    /// Contextual candidates: the type=1 view improves the book matches, the
    /// type=2 view improves the music matches; crossed combinations are worse.
    fn candidate_fixture() -> MatchList {
        let v1 = "inv[type = 1]";
        let v2 = "inv[type = 2]";
        let c1 = Condition::eq("type", 1);
        let c2 = Condition::eq("type", 2);
        vec![
            ctx_match("inv", v1, "name", "book", "title", c1.clone(), 0.95),
            ctx_match("inv", v1, "descr", "book", "format", c1.clone(), 0.9),
            ctx_match("inv", v2, "name", "book", "title", c2.clone(), 0.3),
            ctx_match("inv", v2, "descr", "book", "format", c2.clone(), 0.25),
            ctx_match("inv", v2, "name", "music", "title", c2.clone(), 0.92),
            ctx_match("inv", v2, "descr", "music", "label", c2.clone(), 0.88),
            ctx_match("inv", v1, "name", "music", "title", c1.clone(), 0.2),
            ctx_match("inv", v1, "descr", "music", "label", c1, 0.2),
        ]
    }

    #[test]
    fn qual_table_selects_the_right_view_per_target_table() {
        let config = ContextMatchConfig::default()
            .with_selection(SelectionStrategy::QualTable)
            .with_omega(5.0)
            .with_early_disjuncts(true);
        let selected =
            select_contextual_matches(&standard_fixture(), &candidate_fixture(), &config);
        // Book matches come from the type=1 view, music matches from type=2.
        assert!(selected
            .iter()
            .filter(|m| m.target.table == "book")
            .all(|m| m.source.table == "inv[type = 1]"));
        assert!(selected
            .iter()
            .filter(|m| m.target.table == "music")
            .all(|m| m.source.table == "inv[type = 2]"));
        assert_eq!(selected.len(), 4);
        assert!(selected.iter().all(|m| m.is_contextual()));
    }

    #[test]
    fn qual_table_high_omega_falls_back_to_standard_matches() {
        let config = ContextMatchConfig::default()
            .with_selection(SelectionStrategy::QualTable)
            .with_omega(1000.0);
        let selected =
            select_contextual_matches(&standard_fixture(), &candidate_fixture(), &config);
        assert!(!selected.is_empty());
        assert!(selected.iter().all(|m| m.is_standard()));
        // Fallback keeps only the best source table (inv), not price.
        assert!(selected.iter().all(|m| m.base_table == "inv"));
    }

    #[test]
    fn late_disjuncts_can_select_multiple_views() {
        // Make two views both improve the book table.
        let mut candidates = candidate_fixture();
        candidates.push(ctx_match(
            "inv",
            "inv[type = 3]",
            "name",
            "book",
            "title",
            Condition::eq("type", 3),
            0.93,
        ));
        candidates.push(ctx_match(
            "inv",
            "inv[type = 3]",
            "descr",
            "book",
            "format",
            Condition::eq("type", 3),
            0.91,
        ));
        let late = ContextMatchConfig::default()
            .with_selection(SelectionStrategy::QualTable)
            .with_omega(5.0)
            .with_early_disjuncts(false);
        let selected = select_contextual_matches(&standard_fixture(), &candidates, &late);
        let book_views: BTreeSet<_> = selected
            .iter()
            .filter(|m| m.target.table == "book")
            .map(|m| m.source.table.clone())
            .collect();
        assert_eq!(book_views.len(), 2, "late disjuncts should keep both qualifying views");

        let early = late.with_early_disjuncts(true);
        let selected = select_contextual_matches(&standard_fixture(), &candidates, &early);
        let book_views: BTreeSet<_> = selected
            .iter()
            .filter(|m| m.target.table == "book")
            .map(|m| m.source.table.clone())
            .collect();
        assert_eq!(book_views.len(), 1, "early disjuncts keeps only the single best view");
    }

    #[test]
    fn multi_table_takes_best_per_target_attribute() {
        let config = ContextMatchConfig::default().with_selection(SelectionStrategy::MultiTable);
        let selected =
            select_contextual_matches(&standard_fixture(), &candidate_fixture(), &config);
        // One match per distinct target attribute (book.title, book.format,
        // music.title, music.label).
        assert_eq!(selected.len(), 4);
        let book_title =
            selected.iter().find(|m| m.target == AttrRef::new("book", "title")).unwrap();
        assert_eq!(book_title.source.table, "inv[type = 1]");
        assert!((book_title.confidence - 0.95).abs() < 1e-12);
    }

    #[test]
    fn multi_table_keeps_standard_match_when_it_is_best() {
        let standard = vec![std_match("inv", "name", "book", "title", 0.99)];
        let candidates = vec![ctx_match(
            "inv",
            "inv[type = 1]",
            "name",
            "book",
            "title",
            Condition::eq("type", 1),
            0.5,
        )];
        let config = ContextMatchConfig::default().with_selection(SelectionStrategy::MultiTable);
        let selected = select_contextual_matches(&standard, &candidates, &config);
        assert_eq!(selected.len(), 1);
        assert!(selected[0].is_standard());
    }

    #[test]
    fn empty_inputs_select_nothing() {
        let config = ContextMatchConfig::default();
        assert!(select_contextual_matches(&Vec::new(), &Vec::new(), &config).is_empty());
    }
}
