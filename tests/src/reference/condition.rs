//! The row-at-a-time oracle of `RS where c`: one tuple, one condition.

use cxm_relational::{Condition, TableSchema, Tuple};

/// Evaluate `condition` against one tuple of the given schema. Unknown
/// attributes evaluate to `false` (the tuple cannot satisfy a condition over
/// an attribute it does not have), which keeps view evaluation total. `And`
/// and `Or` are `all` and `any` of their members, so an empty `And` holds
/// and an empty `Or` does not.
pub fn eval(condition: &Condition, schema: &TableSchema, tuple: &Tuple) -> bool {
    match condition {
        Condition::True => true,
        Condition::Eq(attr, value) => {
            schema.index_of(attr).map(|i| tuple.at(i) == value).unwrap_or(false)
        }
        Condition::In(attr, values) => {
            schema.index_of(attr).map(|i| values.contains(tuple.at(i))).unwrap_or(false)
        }
        Condition::And(cs) => cs.iter().all(|c| eval(c, schema, tuple)),
        Condition::Or(cs) => cs.iter().any(|c| eval(c, schema, tuple)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxm_relational::{tuple, Attribute};

    fn inv_schema() -> TableSchema {
        TableSchema::new(
            "inv",
            vec![Attribute::int("id"), Attribute::text("name"), Attribute::int("type")],
        )
    }

    #[test]
    fn eq_condition_eval() {
        let schema = inv_schema();
        let c = Condition::eq("type", 1);
        assert!(eval(&c, &schema, &tuple![0, "leaves of grass", 1]));
        assert!(!eval(&c, &schema, &tuple![1, "the white album", 2]));
    }

    #[test]
    fn unknown_attribute_evaluates_false() {
        let schema = inv_schema();
        let c = Condition::eq("missing", 1);
        assert!(!eval(&c, &schema, &tuple![0, "x", 1]));
    }

    #[test]
    fn in_condition_eval_and_collapse() {
        let schema = inv_schema();
        let c = Condition::is_in("type", [1, 2]);
        assert!(eval(&c, &schema, &tuple![0, "x", 1]));
        assert!(eval(&c, &schema, &tuple![0, "x", 2]));
        assert!(!eval(&c, &schema, &tuple![0, "x", 3]));
        // Single value collapses to Eq.
        assert!(Condition::is_in("type", [7]).is_simple());
        // Empty set is unsatisfiable.
        let empty = Condition::is_in("type", Vec::<i64>::new());
        assert!(!eval(&empty, &schema, &tuple![0, "x", 1]));
    }
}
