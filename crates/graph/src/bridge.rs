//! Graphs as null-only naïve tables.
//!
//! Theorem 3's proof moves freely between digraphs and naïve binary
//! tables whose entries are all nulls: "we can assume that the nodes of
//! all the `G_q`'s come from `N`, i.e., we can view graphs in `G_Q` as
//! naïve binary tables". This module implements that identification and
//! proves (by tests) that it is an order-embedding: graph homomorphisms
//! coincide with database homomorphisms on the encodings.

use ca_core::value::Value;
use ca_relational::database::NaiveDatabase;
use ca_relational::schema::Schema;

use crate::digraph::Digraph;

/// The relation name used by the encoding.
pub const EDGE_REL: &str = "E";

/// Encode a digraph as a naïve table: one fact `E(⊥u, ⊥v)` per edge, all
/// values nulls. Isolated vertices are dropped (facts are the carriers of
/// information in a database; a vertex with no edges imposes nothing).
pub fn graph_to_table(g: &Digraph) -> NaiveDatabase {
    let schema = Schema::from_relations(&[(EDGE_REL, 2)]);
    let facts = g
        .edges
        .iter()
        .map(|&(u, v)| (EDGE_REL, vec![Value::null(u), Value::null(v)]));
    NaiveDatabase::from_named(schema, facts)
}

/// Decode a null-only binary table back into a digraph (nulls become
/// vertices, renumbered densely).
///
/// # Panics
///
/// Panics if the table contains constants or is not binary over [`EDGE_REL`].
pub fn table_to_graph(db: &NaiveDatabase) -> Digraph {
    let nulls: Vec<ca_core::value::Null> = db.nulls().into_iter().collect();
    let id_of = |v: Value| -> u32 {
        match v {
            Value::Null(n) => nulls.binary_search(&n).expect("known null") as u32,
            Value::Const(_) => panic!("table_to_graph expects a null-only table"),
        }
    };
    let mut g = Digraph::new(nulls.len());
    for f in db.facts() {
        assert_eq!(
            db.schema.name(f.rel),
            EDGE_REL,
            "single edge relation expected"
        );
        assert_eq!(f.args.len(), 2);
        g.add_edge(id_of(f.args[0]), id_of(f.args[1]));
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::random_digraph;
    use ca_core::preorder::Preorder;
    use ca_relational::ordering::InfoOrder;

    #[test]
    fn round_trip_preserves_structure() {
        let g = Digraph::cycle(5);
        let back = table_to_graph(&graph_to_table(&g));
        assert!(g.hom_equiv(&back));
        assert_eq!(back.edges.len(), 5);
    }

    /// The identification is an order-embedding: graph homs ⟺ database
    /// homs, on the classical families and random pairs.
    #[test]
    fn embedding_preserves_the_ordering() {
        let cases: Vec<(Digraph, Digraph)> = vec![
            (Digraph::cycle(6), Digraph::cycle(3)),
            (Digraph::cycle(3), Digraph::cycle(6)),
            (Digraph::path(3), Digraph::cycle(4)),
            (Digraph::cycle(4), Digraph::path(3)),
            (Digraph::complete(3), Digraph::complete(4)),
        ];
        for (g, h) in cases {
            assert_eq!(
                g.leq(&h),
                InfoOrder.leq(&graph_to_table(&g), &graph_to_table(&h)),
                "embedding failed for {g:?} vs {h:?}"
            );
        }
        for seed in 0..10u64 {
            let g = random_digraph(4, 1, 2, seed);
            let h = random_digraph(4, 1, 2, seed + 50);
            assert_eq!(
                g.leq(&h),
                InfoOrder.leq(&graph_to_table(&g), &graph_to_table(&h))
            );
        }
    }

    /// Through the embedding, Theorem 3's cycle family lives inside the
    /// preorder of naïve tables — the form the theorem actually asserts.
    #[test]
    fn theorem3_family_as_tables() {
        let c2 = graph_to_table(&Digraph::cycle(2));
        let c4 = graph_to_table(&Digraph::cycle(4));
        let c8 = graph_to_table(&Digraph::cycle(8));
        assert!(InfoOrder.leq(&c8, &c4));
        assert!(InfoOrder.leq(&c4, &c2));
        assert!(!InfoOrder.leq(&c2, &c4));
        assert!(!InfoOrder.leq(&c4, &c8));
        // Paths (as tables) are below every cycle (as tables).
        let p3 = graph_to_table(&Digraph::path(3));
        for c in [&c2, &c4, &c8] {
            assert!(InfoOrder.leq(&p3, c));
        }
    }

    #[test]
    #[should_panic(expected = "null-only")]
    fn constants_are_rejected() {
        let schema = Schema::from_relations(&[(EDGE_REL, 2)]);
        let mut db = NaiveDatabase::new(schema);
        db.add(EDGE_REL, vec![Value::Const(1), Value::null(0)]);
        table_to_graph(&db);
    }
}
