//! Selection conditions over a single table.
//!
//! §2.2 of the paper classifies contexts by the number of attributes mentioned:
//! a *k-condition* mentions exactly `k` attributes; a *simple* condition is
//! `a = v` (a 1-condition); *simple, disjunctive* conditions are
//! `a ∈ {v1, …, vk}`; conjunctive and general k-conditions compose these.
//! [`Condition`] represents that whole space plus the constant `true` used by
//! standard (non-contextual) matches.

use std::collections::BTreeSet;
use std::fmt;

use crate::value::Value;

/// A boolean selection condition over the attributes of one table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Condition {
    /// The constant condition `true`; a match with this condition is a
    /// *standard* match in the paper's terminology.
    True,
    /// Simple equality `a = v` (a 1-condition).
    Eq(String, Value),
    /// Simple disjunctive condition `a ∈ {v1, …, vk}` (a disjunctive 1-condition).
    In(String, BTreeSet<Value>),
    /// Conjunction of sub-conditions.
    And(Vec<Condition>),
    /// Disjunction of sub-conditions.
    Or(Vec<Condition>),
}

impl Condition {
    /// Build a simple equality condition.
    pub fn eq(attr: impl Into<String>, value: impl Into<Value>) -> Condition {
        Condition::Eq(attr.into(), value.into())
    }

    /// Build a simple disjunctive (`IN`) condition. A single-value set collapses
    /// to an equality condition; an empty set is the unsatisfiable condition and
    /// is represented as an empty `Or`.
    pub fn is_in<I, V>(attr: impl Into<String>, values: I) -> Condition
    where
        I: IntoIterator<Item = V>,
        V: Into<Value>,
    {
        let attr = attr.into();
        let set: BTreeSet<Value> = values.into_iter().map(Into::into).collect();
        match set.len() {
            0 => Condition::Or(Vec::new()),
            1 => Condition::Eq(attr, set.into_iter().next().unwrap()),
            _ => Condition::In(attr, set),
        }
    }

    /// Conjoin two conditions, flattening nested `And`s and dropping `true`s.
    pub fn and(self, other: Condition) -> Condition {
        let mut parts = Vec::new();
        for c in [self, other] {
            match c {
                Condition::True => {}
                Condition::And(cs) => parts.extend(cs),
                c => parts.push(c),
            }
        }
        match parts.len() {
            0 => Condition::True,
            1 => parts.pop().unwrap(),
            _ => Condition::And(parts),
        }
    }

    /// Disjoin two conditions, flattening nested `Or`s.
    pub fn or(self, other: Condition) -> Condition {
        if matches!(self, Condition::True) || matches!(other, Condition::True) {
            return Condition::True;
        }
        let mut parts = Vec::new();
        for c in [self, other] {
            match c {
                Condition::Or(cs) => parts.extend(cs),
                c => parts.push(c),
            }
        }
        match parts.len() {
            1 => parts.pop().unwrap(),
            _ => Condition::Or(parts),
        }
    }

    /// True when this is the constant condition `true`.
    pub fn is_true(&self) -> bool {
        matches!(self, Condition::True)
    }

    /// True when this is a *simple* condition `a = v`.
    pub fn is_simple(&self) -> bool {
        matches!(self, Condition::Eq(_, _))
    }

    /// True when this is a simple or simple-disjunctive 1-condition.
    pub fn is_simple_disjunctive(&self) -> bool {
        match self {
            Condition::Eq(_, _) | Condition::In(_, _) => true,
            Condition::Or(cs) => {
                let mut attrs = BTreeSet::new();
                for c in cs {
                    match c {
                        Condition::Eq(a, _) => {
                            attrs.insert(a.clone());
                        }
                        Condition::In(a, _) => {
                            attrs.insert(a.clone());
                        }
                        _ => return false,
                    }
                }
                attrs.len() <= 1
            }
            _ => false,
        }
    }

    /// The set of attribute names mentioned by the condition.
    pub fn attributes(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_attributes(&mut out);
        out
    }

    fn collect_attributes(&self, out: &mut BTreeSet<String>) {
        match self {
            Condition::True => {}
            Condition::Eq(a, _) | Condition::In(a, _) => {
                out.insert(a.clone());
            }
            Condition::And(cs) | Condition::Or(cs) => {
                for c in cs {
                    c.collect_attributes(out);
                }
            }
        }
    }

    /// The paper's context complexity: the number of distinct attributes
    /// mentioned (a *k-condition* mentions exactly `k` attributes). The constant
    /// `true` is a 0-condition.
    pub fn complexity(&self) -> usize {
        self.attributes().len()
    }

    /// If the condition constrains exactly one attribute with equality (either a
    /// plain `Eq` or a conjunction containing one), return that
    /// `(attribute, value)` pair. This is what the contextual foreign key
    /// inference rules need (§4.2: "a = v is the selection condition of Q1").
    pub fn single_equality(&self) -> Option<(&str, &Value)> {
        match self {
            Condition::Eq(a, v) => Some((a.as_str(), v)),
            _ => None,
        }
    }

    /// The set of values an attribute is restricted to by this condition, when
    /// the condition is a simple or simple-disjunctive 1-condition on that
    /// attribute. Used by the *view-referencing* inference rule, which needs the
    /// domain of `a` to be exactly `{v1, …, vn}`.
    pub fn restricted_values(&self, attr: &str) -> Option<BTreeSet<Value>> {
        match self {
            Condition::Eq(a, v) if a.eq_ignore_ascii_case(attr) => {
                Some([v.clone()].into_iter().collect())
            }
            Condition::In(a, vs) if a.eq_ignore_ascii_case(attr) => Some(vs.clone()),
            Condition::Or(cs) => {
                let mut all = BTreeSet::new();
                for c in cs {
                    all.extend(c.restricted_values(attr)?);
                }
                Some(all)
            }
            _ => None,
        }
    }

    /// Render as a SQL-ish `where` clause body (used in reports and view names).
    pub fn to_sql(&self) -> String {
        match self {
            Condition::True => "true".to_string(),
            Condition::Eq(a, v) => format!("{a} = {v}"),
            Condition::In(a, vs) => {
                let items: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
                format!("{a} in ({})", items.join(", "))
            }
            Condition::And(cs) => {
                if cs.is_empty() {
                    "true".to_string()
                } else {
                    cs.iter().map(|c| format!("({})", c.to_sql())).collect::<Vec<_>>().join(" and ")
                }
            }
            Condition::Or(cs) => {
                if cs.is_empty() {
                    "false".to_string()
                } else {
                    cs.iter().map(|c| format!("({})", c.to_sql())).collect::<Vec<_>>().join(" or ")
                }
            }
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_sql())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_or_flattening() {
        let c = Condition::eq("type", 1)
            .and(Condition::True)
            .and(Condition::eq("id", 0).and(Condition::eq("name", "x")));
        match &c {
            Condition::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
        let d = Condition::eq("type", 1).or(Condition::eq("type", 2)).or(Condition::eq("type", 3));
        match &d {
            Condition::Or(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flattened Or, got {other:?}"),
        }
        assert!(Condition::True.and(Condition::True).is_true());
        assert!(Condition::eq("a", 1).or(Condition::True).is_true());
    }

    #[test]
    fn complexity_counts_distinct_attributes() {
        assert_eq!(Condition::True.complexity(), 0);
        assert_eq!(Condition::eq("type", 1).complexity(), 1);
        assert_eq!(Condition::eq("type", 1).and(Condition::eq("type", 2)).complexity(), 1);
        assert_eq!(Condition::eq("type", 1).and(Condition::eq("fiction", 0)).complexity(), 2);
    }

    #[test]
    fn simple_disjunctive_detection() {
        assert!(Condition::eq("a", 1).is_simple_disjunctive());
        assert!(Condition::is_in("a", [1, 2]).is_simple_disjunctive());
        assert!(Condition::eq("a", 1).or(Condition::eq("a", 2)).is_simple_disjunctive());
        assert!(!Condition::eq("a", 1).or(Condition::eq("b", 2)).is_simple_disjunctive());
        assert!(!Condition::eq("a", 1).and(Condition::eq("b", 2)).is_simple_disjunctive());
    }

    #[test]
    fn single_equality_extraction() {
        let c = Condition::eq("prcode", "sale");
        let (a, v) = c.single_equality().unwrap();
        assert_eq!(a, "prcode");
        assert_eq!(v, &Value::str("sale"));
        assert!(Condition::is_in("prcode", ["a", "b"]).single_equality().is_none());
    }

    #[test]
    fn restricted_values_collects_domain() {
        let c = Condition::eq("type", 1).or(Condition::eq("type", 2));
        let vals = c.restricted_values("type").unwrap();
        assert_eq!(vals.len(), 2);
        assert!(c.restricted_values("other").is_none());
        let mixed = Condition::eq("type", 1).or(Condition::eq("other", 2));
        assert!(mixed.restricted_values("type").is_none());
    }

    #[test]
    fn sql_rendering() {
        assert_eq!(Condition::True.to_sql(), "true");
        assert_eq!(Condition::eq("type", 1).to_sql(), "type = 1");
        assert_eq!(Condition::is_in("t", ["a", "b"]).to_sql(), "t in ('a', 'b')");
        let c = Condition::eq("type", 1).and(Condition::eq("fiction", 0));
        assert_eq!(c.to_sql(), "(type = 1) and (fiction = 0)");
        assert_eq!(Condition::Or(vec![]).to_sql(), "false");
    }

    #[test]
    fn conditions_hash_and_compare() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Condition::eq("type", 1));
        set.insert(Condition::eq("type", 1));
        set.insert(Condition::eq("type", 2));
        assert_eq!(set.len(), 2);
    }
}
