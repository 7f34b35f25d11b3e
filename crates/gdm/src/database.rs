//! Generalized databases `D = ⟨M, λ, ρ⟩`.

use std::collections::BTreeSet;

use ca_core::symbol::Symbol;
use ca_core::value::{Null, Value};
use ca_hom::structure::RelStructure;

use crate::schema::GenSchema;

/// A generalized database: nodes with labels and data tuples, plus
/// structural relation tuples over the nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GenDb {
    /// The schema.
    pub schema: GenSchema,
    /// Per-node label.
    pub labels: Vec<Symbol>,
    /// Per-node data tuple (length = `ar(label)`).
    pub data: Vec<Vec<Value>>,
    /// Structural tuples `(relation, nodes)`.
    pub tuples: Vec<(Symbol, Vec<u32>)>,
}

impl GenDb {
    /// An empty database over a schema.
    pub fn new(schema: GenSchema) -> Self {
        GenDb {
            schema,
            labels: Vec::new(),
            data: Vec::new(),
            tuples: Vec::new(),
        }
    }

    /// Add a node with the given label and data tuple; returns its id.
    pub fn add_node(&mut self, label: &str, data: Vec<Value>) -> u32 {
        let sym = self
            .schema
            .label(label)
            .unwrap_or_else(|| panic!("unknown label {label}"));
        assert_eq!(
            data.len(),
            self.schema.label_arity(sym),
            "data arity for label {label}"
        );
        self.labels.push(sym);
        self.data.push(data);
        (self.labels.len() - 1) as u32
    }

    /// Add a structural tuple.
    pub fn add_tuple(&mut self, rel: &str, nodes: Vec<u32>) {
        let sym = self
            .schema
            .relation(rel)
            .unwrap_or_else(|| panic!("unknown relation {rel}"));
        assert_eq!(
            nodes.len(),
            self.schema.relation_arity(sym),
            "tuple arity for relation {rel}"
        );
        assert!(nodes.iter().all(|&n| (n as usize) < self.labels.len()));
        let t = (sym, nodes);
        if !self.tuples.contains(&t) {
            self.tuples.push(t);
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.labels.len()
    }

    /// `N(D)`: nulls occurring in data tuples.
    pub fn nulls(&self) -> BTreeSet<Null> {
        self.data
            .iter()
            .flat_map(|t| t.iter())
            .filter_map(|v| v.as_null())
            .collect()
    }

    /// `C(D)`: constants occurring in data tuples.
    pub fn constants(&self) -> BTreeSet<i64> {
        self.data
            .iter()
            .flat_map(|t| t.iter())
            .filter_map(|v| v.as_const())
            .collect()
    }

    /// Is the database complete (null-free)?
    pub fn is_complete(&self) -> bool {
        self.data.iter().all(|t| t.iter().all(|v| v.is_const()))
    }

    /// Does `ρ` have the Codd interpretation: each null occurs at most
    /// once across all data tuples?
    pub fn is_codd(&self) -> bool {
        let mut seen = BTreeSet::new();
        for t in &self.data {
            for v in t {
                if let Some(n) = v.as_null() {
                    if !seen.insert(n) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Apply a null valuation to all data tuples.
    pub fn map_values<F: Fn(Value) -> Value>(&self, f: F) -> GenDb {
        let mut out = self.clone();
        for t in &mut out.data {
            for v in t.iter_mut() {
                *v = f(*v);
            }
        }
        out
    }

    /// The colored structural part `M_λ` as a [`RelStructure`]: the σ
    /// relations (symbol ids offset by the number of labels) plus one
    /// unary relation per label `a` (symbol id = the label's index),
    /// exactly the paper's `P_a` encoding.
    pub fn colored_structure(&self) -> RelStructure {
        let n_labels = self.schema.n_labels() as u32;
        let mut s = RelStructure::new(self.n_nodes());
        for (node, label) in self.labels.iter().enumerate() {
            s.add_tuple(label.0, vec![node as u32]);
        }
        for (rel, nodes) in &self.tuples {
            s.add_tuple(n_labels + rel.0, nodes.clone());
        }
        s
    }

    /// The structural part *without* labels (σ relations only; relation
    /// symbol ids are the raw σ indices). Used by the Theorem 6 algorithm,
    /// where labels are folded into the compatibility relation instead.
    pub fn bare_structure(&self) -> RelStructure {
        let mut s = RelStructure::new(self.n_nodes());
        for (rel, nodes) in &self.tuples {
            s.add_tuple(rel.0, nodes.clone());
        }
        s
    }

    /// The disjoint union `D ⊔ D′` (same schema; nulls are *not* renamed).
    pub fn disjoint_union(&self, other: &GenDb) -> GenDb {
        let mut out = self.clone();
        out.append(other.clone());
        out
    }

    /// In-place disjoint union: move `other`'s nodes after this
    /// database's, shifting its structural tuples' node ids. Costs
    /// O(|other|), so folding many databases into one stays linear.
    pub fn append(&mut self, other: GenDb) {
        assert_eq!(self.schema, other.schema, "same schema required");
        let shift = self.n_nodes() as u32;
        self.labels.extend(other.labels);
        self.data.extend(other.data);
        self.tuples
            .extend(other.tuples.into_iter().map(|(rel, mut nodes)| {
                for n in &mut nodes {
                    *n += shift;
                }
                (rel, nodes)
            }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::GenSchema;

    fn c(x: i64) -> Value {
        Value::Const(x)
    }
    fn n(id: u32) -> Value {
        Value::null(id)
    }

    /// The paper's Section 5.1 example:
    /// `{R(1,⊥1), S(⊥1,⊥2,2)}` as a generalized database.
    pub(crate) fn paper_example() -> GenDb {
        let schema = GenSchema::from_parts(&[("R", 2), ("S", 3)], &[]);
        let mut d = GenDb::new(schema);
        d.add_node("R", vec![c(1), n(1)]);
        d.add_node("S", vec![n(1), n(2), c(2)]);
        d
    }

    #[test]
    fn paper_example_shape() {
        let d = paper_example();
        assert_eq!(d.n_nodes(), 2);
        assert_eq!(d.nulls().len(), 2);
        assert_eq!(d.constants(), BTreeSet::from([1, 2]));
        assert!(!d.is_complete());
        assert!(!d.is_codd()); // ⊥1 occurs twice (across nodes)
        assert!(d.tuples.is_empty()); // σ = ∅
    }

    #[test]
    fn xml_like_database() {
        let schema = GenSchema::from_parts(&[("r", 0), ("a", 2)], &[("child", 2)]);
        let mut d = GenDb::new(schema);
        let root = d.add_node("r", vec![]);
        let a = d.add_node("a", vec![c(1), n(1)]);
        d.add_tuple("child", vec![root, a]);
        assert_eq!(d.n_nodes(), 2);
        assert_eq!(d.tuples.len(), 1);
        assert!(d.is_codd());
    }

    #[test]
    fn colored_structure_encoding() {
        let schema = GenSchema::from_parts(&[("r", 0), ("a", 1)], &[("child", 2)]);
        let mut d = GenDb::new(schema);
        let root = d.add_node("r", vec![]);
        let a = d.add_node("a", vec![n(1)]);
        d.add_tuple("child", vec![root, a]);
        let s = d.colored_structure();
        // Two unary label tuples + one binary child tuple.
        assert_eq!(s.tuples.len(), 3);
        assert_eq!(s.relation(0).count(), 1); // P_r
        assert_eq!(s.relation(1).count(), 1); // P_a
        assert_eq!(s.relation(2).count(), 1); // child (offset by 2 labels)
    }

    #[test]
    fn disjoint_union_shifts_tuples() {
        let schema = GenSchema::from_parts(&[("a", 0)], &[("e", 2)]);
        let mut d1 = GenDb::new(schema.clone());
        let x = d1.add_node("a", vec![]);
        let y = d1.add_node("a", vec![]);
        d1.add_tuple("e", vec![x, y]);
        let u = d1.disjoint_union(&d1.clone());
        assert_eq!(u.n_nodes(), 4);
        assert_eq!(u.tuples.len(), 2);
        assert_eq!(u.tuples[1].1, vec![2, 3]);
    }

    #[test]
    fn codd_within_one_tuple() {
        let schema = GenSchema::from_parts(&[("R", 2)], &[]);
        let mut d = GenDb::new(schema);
        d.add_node("R", vec![n(1), n(1)]);
        assert!(!d.is_codd());
    }
}
