//! Conjunctive-query containment (Chandra–Merlin).
//!
//! `Q₁ ⊆ Q₂` for Boolean CQs iff there is a homomorphism from the tableau
//! of `Q₂` to the tableau of `Q₁` — equivalently, iff `Q₂` evaluates to
//! true on the tableau of `Q₁` under nulls-as-values semantics (a match
//! of `Q₂`'s atoms into `D_{Q₁}` *is* such a homomorphism). This is the
//! third leg of Proposition 2's equivalence (with certain answers and the
//! information ordering).
//!
//! The check runs `Q₂` through the compiled [`crate::engine`], so the
//! homomorphism search benefits from the same join ordering and hash
//! indices as query evaluation. Leniently: if `Q₂` mentions a relation
//! outside the schema it simply cannot be matched, so containment fails.

use ca_relational::schema::Schema;

use crate::ast::{ConjunctiveQuery, UnionQuery};
use crate::engine::CompiledUcq;
use crate::engine::{self, DbIndex};
use crate::tableau::tableau;

/// Is `q1 ⊆ q2` (every database satisfying `q1` satisfies `q2`)?
/// Boolean CQs only; decided by evaluating `q2` over the tableau of `q1`
/// (Chandra–Merlin, via the compiled engine).
pub fn cq_contained_in(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery, schema: &Schema) -> bool {
    let d1 = tableau(q1, schema);
    let mut idx = DbIndex::new(&d1);
    let plan = CompiledUcq::compile_lenient(&UnionQuery::single(q2.clone()), schema, idx.model());
    engine::eval_ucq_bool_on(&plan, &mut idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Atom, Term::Const as C, Term::Var as V};
    use crate::eval::eval_cq_bool;
    use ca_relational::generate::{random_naive_db, DbParams, Rng};

    fn schema() -> Schema {
        Schema::from_relations(&[("R", 2)])
    }

    #[test]
    fn longer_paths_are_contained_in_shorter() {
        // "∃ path of length 2" ⊆ "∃ edge".
        let edge = ConjunctiveQuery::boolean(vec![Atom::new("R", vec![V(0), V(1)])]);
        let path2 = ConjunctiveQuery::boolean(vec![
            Atom::new("R", vec![V(0), V(1)]),
            Atom::new("R", vec![V(1), V(2)]),
        ]);
        assert!(cq_contained_in(&path2, &edge, &schema()));
        assert!(!cq_contained_in(&edge, &path2, &schema()));
    }

    #[test]
    fn constants_break_containment() {
        let edge_at_1 = ConjunctiveQuery::boolean(vec![Atom::new("R", vec![C(1), V(0)])]);
        let edge = ConjunctiveQuery::boolean(vec![Atom::new("R", vec![V(1), V(0)])]);
        assert!(cq_contained_in(&edge_at_1, &edge, &schema()));
        assert!(!cq_contained_in(&edge, &edge_at_1, &schema()));
    }

    #[test]
    fn self_loop_contained_in_edge() {
        let loop_q = ConjunctiveQuery::boolean(vec![Atom::new("R", vec![V(0), V(0)])]);
        let edge = ConjunctiveQuery::boolean(vec![Atom::new("R", vec![V(0), V(1)])]);
        assert!(cq_contained_in(&loop_q, &edge, &schema()));
        assert!(!cq_contained_in(&edge, &loop_q, &schema()));
    }

    #[test]
    fn containment_is_reflexive_and_transitive() {
        let qs = [
            ConjunctiveQuery::boolean(vec![Atom::new("R", vec![V(0), V(1)])]),
            ConjunctiveQuery::boolean(vec![
                Atom::new("R", vec![V(0), V(1)]),
                Atom::new("R", vec![V(1), V(2)]),
            ]),
            ConjunctiveQuery::boolean(vec![Atom::new("R", vec![V(0), V(0)])]),
        ];
        let s = schema();
        for q in &qs {
            assert!(cq_contained_in(q, q, &s));
        }
        for a in &qs {
            for b in &qs {
                for c in &qs {
                    if cq_contained_in(a, b, &s) && cq_contained_in(b, c, &s) {
                        assert!(cq_contained_in(a, c, &s));
                    }
                }
            }
        }
    }

    /// Semantic soundness on random complete databases: if q1 ⊆ q2 then
    /// every database satisfying q1 satisfies q2.
    #[test]
    fn containment_is_semantically_sound() {
        let s = schema();
        let q1 = ConjunctiveQuery::boolean(vec![
            Atom::new("R", vec![V(0), V(1)]),
            Atom::new("R", vec![V(1), V(1)]),
        ]);
        let q2 = ConjunctiveQuery::boolean(vec![Atom::new("R", vec![V(0), V(1)])]);
        assert!(cq_contained_in(&q1, &q2, &s));
        let mut rng = Rng::new(99);
        for _ in 0..30 {
            let db = random_naive_db(
                &mut rng,
                DbParams {
                    n_facts: 5,
                    arity: 2,
                    n_constants: 3,
                    n_nulls: 0,
                    null_pct: 0,
                },
            );
            if eval_cq_bool(&q1, &db) {
                assert!(eval_cq_bool(&q2, &db));
            }
        }
    }
}
