//! Certificate emission for the certain-answer drivers.
//!
//! The fast paths in [`crate::certain`] and [`crate::engine`] stay
//! allocation-lean and parallel; this module wraps them with entry points
//! that additionally produce [`ca_cert`] certificates an engine-blind
//! checker can replay:
//!
//! * **certain = true** — a [`MatchCert`]: one naïve match of one
//!   disjunct, null-free in the projected row. By the classical theorem
//!   (naïve evaluation computes UCQ certain answers) such a match always
//!   exists when the sweep says "certain", so emission never needs the
//!   sweep's verdict on faith.
//! * **certain = false** — a [`NonCertainCert`]: one completion valuation
//!   into the adequate pool under which no disjunct matches (or, for
//!   tables, under which the claimed row is not an answer). This is the
//!   checker's one documented search carve-out: verifying it naïvely
//!   evaluates the single named completion, polynomial in the data.
//!
//! Witness assignments are extracted with the *augmented-head* trick:
//! re-evaluate the disjunct with every body variable in the head, so each
//! result row **is** a full body assignment; the first row in `BTreeSet`
//! order makes emission deterministic across thread widths.

use std::collections::{BTreeMap, BTreeSet};

use ca_cert::{
    CertAtom, CertCq, CertFact, CertQuery, CertTerm, CertainVerdictCert, MatchCert, NonCertainCert,
};
use ca_core::value::{Null, Value};
use ca_relational::database::NaiveDatabase;

use crate::ast::{Atom, ConjunctiveQuery, Term, UnionQuery};
use crate::certain::{adequate_pool, certain_answer_bool_with, certain_table_with, ucq_constants};
use crate::engine::{self, CompiledUcq, CompletionSpace, DbIndex};

/// Translate a UCQ into the checker's engine-free vocabulary.
pub fn cert_query(q: &UnionQuery) -> CertQuery {
    CertQuery {
        head_arity: q.head_arity(),
        disjuncts: q.disjuncts.iter().map(cert_cq).collect(),
    }
}

fn cert_cq(cq: &ConjunctiveQuery) -> CertCq {
    CertCq {
        head: cq.head.clone(),
        atoms: cq.atoms.iter().map(cert_atom).collect(),
    }
}

fn cert_atom(a: &Atom) -> CertAtom {
    CertAtom {
        rel: a.rel.clone(),
        args: a
            .args
            .iter()
            .map(|t| match t {
                Term::Var(v) => CertTerm::Var(*v),
                Term::Const(c) => CertTerm::Const(*c),
            })
            .collect(),
    }
}

/// The database's fact set in checker vocabulary (nulls as values).
pub fn db_facts(db: &NaiveDatabase) -> BTreeSet<CertFact> {
    db.facts()
        .iter()
        .map(|f| (db.schema.name(f.rel).to_owned(), f.args.clone()))
        .collect()
}

/// Naïve-match certificates for every row of `rows` that has one: a
/// match of some disjunct (nulls as values) whose projected head row is
/// that row, as a full body assignment, evaluating at `width`. One
/// augmented evaluation per disjunct serves every row. Deterministic:
/// disjuncts are walked in order and, within one, augmented answer rows
/// in `BTreeSet` order, so each row keeps its first match whatever the
/// width — the certificate a per-row search would find.
fn naive_matches(
    q: &UnionQuery,
    db: &NaiveDatabase,
    rows: &BTreeSet<Vec<Value>>,
    width: usize,
) -> BTreeMap<Vec<Value>, MatchCert> {
    let mut found: BTreeMap<Vec<Value>, MatchCert> = BTreeMap::new();
    for (d, cq) in q.disjuncts.iter().enumerate() {
        if found.len() == rows.len() {
            break;
        }
        let vars = cq.body_vars();
        let aug = ConjunctiveQuery::with_head(vars.clone(), cq.atoms.clone());
        let Ok(answers) = engine::eval_cq(&aug, db, width) else {
            continue;
        };
        // Head variable → column of the augmented row (`vars` is sorted).
        let Some(cols) = cq
            .head
            .iter()
            .map(|h| vars.binary_search(h).ok())
            .collect::<Option<Vec<usize>>>()
        else {
            continue;
        };
        for assignment_row in answers {
            let projected: Vec<Value> = cols.iter().map(|&c| assignment_row[c]).collect();
            if rows.contains(&projected) && !found.contains_key(&projected) {
                let assignment = vars.iter().copied().zip(assignment_row).collect();
                found.insert(
                    projected.clone(),
                    MatchCert {
                        disjunct: d,
                        assignment,
                        row: projected,
                    },
                );
            }
        }
    }
    found
}

/// Scan `space` sequentially for one completion falsifying `test` on
/// `q`'s lenient plan (priced off the base instance), returning its
/// valuation. Sequential on purpose: emission must be deterministic
/// (lowest falsifying index wins) and runs only after the parallel sweep
/// has already said "not certain". Only orbit-canonical indices are
/// tried; for an orbit-invariant `test` the lowest falsifying index is
/// an orbit minimum, hence the same as on the full grid.
fn falsifying_valuation(
    db: &NaiveDatabase,
    space: &CompletionSpace<'_>,
    q: &UnionQuery,
    test: impl Fn(&CompiledUcq, &mut DbIndex<'_>) -> bool,
) -> Option<Vec<(Null, i64)>> {
    let plan = CompiledUcq::compile_lenient(q, &db.schema, &space.model());
    (0..space.len())
        .filter(|&i| space.is_canonical(i))
        .find(|&i| !test(&plan, &mut DbIndex::from_store(space.completion_store(i))))
        .map(|i| space.valuation(i))
}

/// Boolean certain answer with a replayable verdict certificate.
///
/// Returns the same Boolean as
/// [`certain_answer_bool_with`](crate::certain::certain_answer_bool_with)
/// plus, when one exists, a certificate for that verdict against the
/// *heads-dropped* (Boolean) form of `q` — check it with
/// [`ca_cert::check_certain_row`] / [`ca_cert::check_non_certain`] against
/// [`cert_query`]`(&boolean form)` and [`db_facts`]. `None` arises only in
/// the vacuous corner (nulls present, empty pool — never with the
/// adequate pool).
pub fn certain_bool_certified(
    q: &UnionQuery,
    db: &NaiveDatabase,
    threads: usize,
) -> (bool, Option<CertainVerdictCert>) {
    let verdict = certain_answer_bool_with(q, db, threads);
    let bq = boolean_form(q);
    if verdict {
        let cert = naive_matches(&bq, db, &BTreeSet::from([vec![]]), threads)
            .pop_first()
            .map(|(_, m)| CertainVerdictCert::Certain(m));
        return (true, cert);
    }
    let space = CompletionSpace::adequate(db, &ucq_constants(q));
    let cert = falsifying_valuation(db, &space, &bq, engine::eval_ucq_bool_on).map(|valuation| {
        CertainVerdictCert::NonCertain(NonCertainCert {
            valuation,
            row: vec![],
        })
    });
    (false, cert)
}

/// The heads-dropped Boolean form of a UCQ: the query whose certain
/// answer is "does some disjunct match in every completion".
pub fn boolean_form(q: &UnionQuery) -> UnionQuery {
    UnionQuery {
        disjuncts: q
            .disjuncts
            .iter()
            .map(|d| ConjunctiveQuery::boolean(d.atoms.clone()))
            .collect(),
    }
}

/// A certified certain-answer table: the table itself plus one checkable
/// [`MatchCert`] per row.
pub type CertifiedTable = (BTreeSet<Vec<Value>>, Vec<(Vec<Value>, MatchCert)>);

/// Certain answers of a non-Boolean UCQ with one [`MatchCert`] per row.
///
/// Returns the same table as
/// [`certain_table_with`](crate::certain::certain_table_with) plus, for
/// every certain row, a naïve-match certificate (null-free row — check
/// with [`ca_cert::check_certain_row`]). The classical theorem guarantees
/// a witness for every certain row, so the second component covers the
/// whole table.
pub fn certain_table_certified(
    q: &UnionQuery,
    db: &NaiveDatabase,
    threads: usize,
) -> CertifiedTable {
    let table = certain_table_with(q, db, threads);
    let certs = naive_matches(q, db, &table, threads).into_iter().collect();
    (table, certs)
}

/// Certify that `row` is **not** a certain answer of `q` over `db`: find
/// a completion into the adequate pool whose answer table omits `row`.
/// `None` when `row` is in fact certain (or the space is vacuous). The
/// whole grid is scanned: `row` may name a pool constant that is fresh,
/// so the test is not invariant under permuting the fresh constants.
/// Each completion evaluates at width 1: the scan is sequential on
/// purpose, and a per-completion fan-out would spawn once per
/// completion.
pub fn refute_row(q: &UnionQuery, db: &NaiveDatabase, row: &[Value]) -> Option<NonCertainCert> {
    let space = CompletionSpace::new(db, &adequate_pool(db, &ucq_constants(q)));
    falsifying_valuation(db, &space, q, |plan, idx| {
        engine::eval_ucq_gated(plan, idx, 1).contains(row)
    })
    .map(|valuation| NonCertainCert {
        valuation,
        row: row.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_cert::{check_certain_row, check_non_certain, Reject};
    use ca_relational::parse::parse_database;

    use crate::parse::parse_ucq;

    fn setup(db: &str, q: &str) -> (NaiveDatabase, UnionQuery) {
        let db = parse_database(db).expect("test database parses");
        let q = parse_ucq(q).expect("test query parses");
        (db, q)
    }

    #[test]
    fn certain_bool_emits_checkable_match() {
        let (db, q) = setup("R(1, ?x); R(?x, 2)", "R(1, y), R(y, 2)");
        let (verdict, cert) = certain_bool_certified(&q, &db, 1);
        assert!(verdict);
        let Some(CertainVerdictCert::Certain(m)) = cert else {
            panic!("expected a match certificate, got {cert:?}");
        };
        let bq = cert_query(&boolean_form(&q));
        assert_eq!(check_certain_row(&bq, &db_facts(&db), &m), Ok(()));
    }

    #[test]
    fn non_certain_bool_emits_checkable_valuation() {
        // R(⊥1) with Q = ∃x R(x), S(x): S is empty, never certain.
        let (db, q) = setup("R(?x); S(3)", "R(y), S(y)");
        let (verdict, cert) = certain_bool_certified(&q, &db, 1);
        assert!(!verdict);
        let Some(CertainVerdictCert::NonCertain(nc)) = cert else {
            panic!("expected a non-certainty certificate, got {cert:?}");
        };
        let bq = cert_query(&boolean_form(&q));
        assert_eq!(check_non_certain(&bq, &db_facts(&db), &nc), Ok(()));
        // Tampering: point the valuation at a constant that *does* match.
        let mut forged = nc;
        forged.valuation = vec![(ca_core::value::Null(0), 3)];
        assert_eq!(
            check_non_certain(&bq, &db_facts(&db), &forged),
            Err(Reject::MatchExists { disjunct: 0 })
        );
    }

    #[test]
    fn certain_table_certifies_every_row() {
        let (db, q) = setup("R(1, 2); R(2, 3); R(4, ?x)", "(x, y) :- R(x, y)");
        let (table, certs) = certain_table_certified(&q, &db, 1);
        assert_eq!(certs.len(), table.len(), "every certain row needs a cert");
        let cq = cert_query(&q);
        let facts = db_facts(&db);
        for (row, m) in &certs {
            assert!(table.contains(row));
            assert_eq!(check_certain_row(&cq, &facts, m), Ok(()));
        }
        // A non-answer row is refutable with a checkable completion.
        let bad = vec![Value::Const(4), Value::Const(1)];
        assert!(!table.contains(&bad));
        let nc = refute_row(&q, &db, &bad).expect("refutation exists");
        assert_eq!(check_non_certain(&cq, &facts, &nc), Ok(()));
    }
}
