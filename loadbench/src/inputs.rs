//! Seeded workload inputs. Every database the benchmark sends is derived
//! from `--seed` alone, so the same seed gives the same bytes on the wire;
//! the server only ever sees the generated inputs.

use cxm_datagen::{generate_retail, generate_wide_catalog, RetailConfig, WideCatalogConfig};
use cxm_relational::{DataType, Database, Table, Tuple};

/// The one tenant every workload registers.
pub const TENANT: &str = "bench";
/// Retail sources pre-warmed during set-up (`retail_hit` cycles them).
pub const WARM_SOURCES: usize = 8;
/// Retail scale: source items and rows per target table.
const RETAIL_ITEMS: usize = 100;
const RETAIL_TARGET_ROWS: usize = 600;
/// Wide-catalog scale: 60 tables × 8 columns × 40 rows in 15 families
/// (480 target columns, a ~3.4 MB `register` frame).
const WIDE_TABLES: usize = 60;
const WIDE_COLUMNS: usize = 8;
const WIDE_ROWS: usize = 40;
const WIDE_FAMILIES: usize = 15;
/// Every `WIDE_CHANGE_EVERY`-th table differs between the two wide
/// catalogs, so each refresh rebuilds a sixth of the catalog (80 columns).
const WIDE_CHANGE_EVERY: usize = 6;

/// Independent input streams drawn from one seed.
#[derive(Clone, Copy)]
enum Stream {
    RetailTarget = 1,
    RetailEdit,
    WarmSource,
    FreshSource,
    Wide,
}

/// SplitMix64 over (seed, stream, index): a well-spread generator seed per
/// input, so neighbouring `--seed` values share no inputs.
fn derive(seed: u64, stream: Stream, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((stream as u64) << 48)
        .wrapping_add(index)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A source database a workload submits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SourceRef {
    /// One of the [`WARM_SOURCES`] retail sources warmed during set-up.
    Warm(usize),
    /// The `n`-th never-before-sent retail source of the churn writer.
    Fresh(u64),
    /// The wide-catalog probe.
    Probe,
}

/// Retail inputs: one target in two catalog states that differ in one
/// column of one table, plus the pre-warmed sources.
pub struct RetailInputs {
    seed: u64,
    /// `targets[s]` is the catalog in state `s`.
    pub targets: [Database; 2],
    /// The edited table as it reads in each state (the `replace` payload
    /// that moves the catalog into that state).
    pub edited: [Table; 2],
    pub warm: Vec<Database>,
}

impl RetailInputs {
    pub fn generate(seed: u64) -> RetailInputs {
        let target = generate_retail(&RetailConfig {
            seed: derive(seed, Stream::RetailTarget, 0),
            source_items: RETAIL_ITEMS,
            target_rows: RETAIL_TARGET_ROWS,
            ..RetailConfig::default()
        })
        .target;
        // The edit swaps the first text column of the first target table for
        // the same column of another seeded target (same flavour, so the
        // same schema and row count).
        let donor = generate_retail(&RetailConfig {
            seed: derive(seed, Stream::RetailEdit, 0),
            source_items: 1,
            target_rows: RETAIL_TARGET_ROWS,
            ..RetailConfig::default()
        })
        .target;
        let original = target.tables().next().expect("retail targets have tables").clone();
        let column = original
            .schema()
            .attributes()
            .iter()
            .position(|a| a.data_type == DataType::Text)
            .expect("retail target tables have a text column");
        let donor_rows = donor.table(original.name()).expect("same flavour").rows();
        let rows = original
            .rows()
            .iter()
            .zip(donor_rows)
            .map(|(row, donor_row)| {
                let mut values = row.values().to_vec();
                values[column] = donor_row.values()[column].clone();
                Tuple::new(values)
            })
            .collect();
        let edited = Table::with_rows(original.schema().clone(), rows)
            .expect("edited rows keep the schema's arity");
        let mut edited_target = target.clone();
        edited_target.replace_table(edited.clone());
        let warm = (0..WARM_SOURCES as u64)
            .map(|i| retail_source(derive(seed, Stream::WarmSource, i)))
            .collect();
        RetailInputs { seed, targets: [target, edited_target], edited: [original, edited], warm }
    }

    /// The source a [`SourceRef`] names (fresh sources are regenerated on
    /// demand; a retail source alone takes well under a millisecond).
    pub fn source(&self, source: SourceRef) -> Database {
        match source {
            SourceRef::Warm(i) => self.warm[i].clone(),
            SourceRef::Fresh(n) => retail_source(derive(self.seed, Stream::FreshSource, n)),
            SourceRef::Probe => panic!("retail workloads have no wide probe"),
        }
    }
}

fn retail_source(seed: u64) -> Database {
    // The source generator ignores the target size; one target row keeps
    // the throwaway target cheap.
    generate_retail(&RetailConfig {
        seed,
        source_items: RETAIL_ITEMS,
        target_rows: 1,
        ..RetailConfig::default()
    })
    .source
}

/// Wide-catalog inputs: two catalogs that differ in every
/// `WIDE_CHANGE_EVERY`-th table, and the probe source. In the second
/// catalog each changed table holds the rows of another table of the same
/// value family, so a refresh in either direction rebuilds the same
/// amount of comparable content and the two directions cost alike.
pub struct WideInputs {
    /// `catalogs[s]` is the catalog in state `s`.
    pub catalogs: [Database; 2],
    pub probe: Database,
    /// Target columns that differ between the two catalogs.
    pub changed_columns: usize,
}

impl WideInputs {
    pub fn generate(seed: u64) -> WideInputs {
        let config = |seed| WideCatalogConfig {
            seed,
            tables: WIDE_TABLES,
            columns_per_table: WIDE_COLUMNS,
            rows_per_table: WIDE_ROWS,
            families: WIDE_FAMILIES,
        };
        let wide = generate_wide_catalog(&config(derive(seed, Stream::Wide, 0)));
        let mut second = wide.target.clone();
        let mut changed_columns = 0;
        for i in (0..WIDE_TABLES).step_by(WIDE_CHANGE_EVERY) {
            // Table `k` draws from family `k % WIDE_FAMILIES`.
            let table = wide.target.table(&format!("wide_{i}")).expect("generated table");
            let donor = wide
                .target
                .table(&format!("wide_{}", (i + WIDE_FAMILIES) % WIDE_TABLES))
                .expect("generated table");
            let swapped = Table::with_rows(table.schema().clone(), donor.rows().to_vec())
                .expect("same-shaped wide tables");
            changed_columns += swapped.schema().arity();
            second.replace_table(swapped);
        }
        WideInputs { catalogs: [wide.target, second], probe: wide.source, changed_columns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let (a, b) = (RetailInputs::generate(7), RetailInputs::generate(7));
        assert_eq!(a.targets[1], b.targets[1]);
        assert_eq!(a.source(SourceRef::Fresh(3)), b.source(SourceRef::Fresh(3)));
        assert_ne!(a.source(SourceRef::Fresh(3)), a.source(SourceRef::Fresh(4)));
        assert_ne!(RetailInputs::generate(8).targets[0], a.targets[0]);
    }

    #[test]
    fn the_retail_edit_changes_exactly_one_column() {
        let inputs = RetailInputs::generate(1);
        let [before, after] = &inputs.edited;
        let changed = before
            .column_fingerprints()
            .iter()
            .zip(after.column_fingerprints())
            .filter(|(x, y)| x != y)
            .count();
        assert_eq!(changed, 1);
    }

    #[test]
    fn the_wide_catalogs_differ_in_a_quarter_of_their_columns() {
        let inputs = WideInputs::generate(1);
        let [a, b] = &inputs.catalogs;
        let changed: usize = a
            .tables()
            .map(|t| {
                let other = b.table(t.name()).expect("same table names");
                t.column_fingerprints()
                    .iter()
                    .zip(other.column_fingerprints())
                    .filter(|(x, y)| x != y)
                    .count()
            })
            .sum();
        assert_eq!(changed, inputs.changed_columns);
        assert_eq!(changed, WIDE_TABLES * WIDE_COLUMNS / WIDE_CHANGE_EVERY);
    }
}
