//! Differential test for the chase-certificate checker: `check_chase`,
//! whose merges rewrite only the facts that mention the loser, against
//! the full-rebuild replay it replaced (every merge re-resolves every
//! fact), kept here verbatim as the oracle. Certificates are random
//! valid derivations over egds and tgds with existentials — produced by
//! a small brute-force chase below — plus random mutations of them and
//! of the hand-written family of the mutation suite. Both checkers must
//! return the same verdict, `Ok` or the same typed `Reject`, on every
//! one.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use ca_cert::{
    check_chase, fact_set, CertAtom, CertEgd, CertFact, CertRule, CertTerm, ChaseCert,
    ChaseCertOutcome, ChaseStep, Reject,
};
use ca_core::value::{Null, Value};

// ---------------------------------------------------------------------------
// The oracle: the full-rebuild replay
// ---------------------------------------------------------------------------

fn lookup(assignment: &[(u32, Value)], var: u32) -> Option<Value> {
    assignment
        .iter()
        .find(|&&(v, _)| v == var)
        .map(|&(_, val)| val)
}

fn resolve(subst: &BTreeMap<Null, Value>, v: Value) -> Value {
    let mut cur = v;
    let mut fuel = subst.len();
    while let Value::Null(n) = cur {
        match subst.get(&n) {
            Some(&p) if fuel > 0 => {
                cur = p;
                fuel -= 1;
            }
            _ => break,
        }
    }
    cur
}

fn atom_image(
    atom: &CertAtom,
    assignment: &[(u32, Value)],
    subst: &BTreeMap<Null, Value>,
) -> Result<CertFact, u32> {
    let mut args = Vec::with_capacity(atom.args.len());
    for t in &atom.args {
        let v = match *t {
            CertTerm::Const(c) => Value::Const(c),
            CertTerm::Var(x) => lookup(assignment, x).ok_or(x)?,
        };
        args.push(resolve(subst, v));
    }
    Ok((atom.rel.clone(), args))
}

/// The replaced `check_chase`, verbatim apart from names.
fn rebuild_check_chase(cert: &ChaseCert) -> Result<(), Reject> {
    let mut subst: BTreeMap<Null, Value> = BTreeMap::new();
    let mut facts: BTreeSet<CertFact> = fact_set(&cert.initial);
    let mut used: BTreeSet<Null> = BTreeSet::new();
    for (_, args) in &facts {
        used.extend(args.iter().filter_map(|v| v.as_null()));
    }
    let mut clash_at: Option<usize> = None;

    for (step, s) in cert.steps.iter().enumerate() {
        if let Some(at) = clash_at {
            return Err(Reject::StepsAfterFailure { step: at });
        }
        match s {
            ChaseStep::Merge {
                egd,
                assignment,
                merged,
            } => {
                let def = cert.egds.get(*egd).ok_or(Reject::UnknownRule { step })?;
                for (atom, a) in def.body.iter().enumerate() {
                    let img = atom_image(a, assignment, &subst)
                        .map_err(|var| Reject::UnboundBodyVar { step, var })?;
                    if !facts.contains(&img) {
                        return Err(Reject::BodyAtomUnmatched { step, atom });
                    }
                }
                let get = |var: u32| {
                    lookup(assignment, var)
                        .map(|v| resolve(&subst, v))
                        .ok_or(Reject::UnboundBodyVar { step, var })
                };
                let (x, y) = (get(def.equal.0)?, get(def.equal.1)?);
                if x == y {
                    return Err(Reject::TrivialMerge { step });
                }
                match (x, y) {
                    (Value::Const(_), Value::Const(_)) => {
                        if merged.is_some() {
                            return Err(Reject::MergeRootMismatch { step });
                        }
                        clash_at = Some(step);
                    }
                    (Value::Null(n), root @ Value::Const(_))
                    | (root @ Value::Const(_), Value::Null(n)) => {
                        if *merged != Some((n, root)) {
                            return Err(Reject::MergeRootMismatch { step });
                        }
                        apply_merge(&mut subst, &mut facts, &mut used, n, root);
                    }
                    (Value::Null(a), Value::Null(b)) => {
                        let (loser, root) = if a.0 < b.0 { (b, a) } else { (a, b) };
                        if *merged != Some((loser, Value::Null(root))) {
                            return Err(Reject::MergeRootMismatch { step });
                        }
                        apply_merge(&mut subst, &mut facts, &mut used, loser, Value::Null(root));
                    }
                }
            }
            ChaseStep::Fire {
                rule,
                assignment,
                fresh,
            } => {
                let def = cert.rules.get(*rule).ok_or(Reject::UnknownRule { step })?;
                for (atom, a) in def.body.iter().enumerate() {
                    let img = atom_image(a, assignment, &subst)
                        .map_err(|var| Reject::UnboundBodyVar { step, var })?;
                    if !facts.contains(&img) {
                        return Err(Reject::BodyAtomUnmatched { step, atom });
                    }
                }
                for w in fresh.windows(2) {
                    if let [(a, _), (b, _)] = w {
                        if a >= b {
                            return Err(Reject::MalformedMapping);
                        }
                    }
                }
                for &(_, n) in fresh {
                    if !used.insert(n) {
                        return Err(Reject::StaleFreshNull { step, null: n });
                    }
                }
                for a in &def.head {
                    let mut args = Vec::with_capacity(a.args.len());
                    for t in &a.args {
                        let v = match *t {
                            CertTerm::Const(c) => Value::Const(c),
                            CertTerm::Var(x) => match lookup(assignment, x) {
                                Some(v) => resolve(&subst, v),
                                None => fresh
                                    .iter()
                                    .find(|&&(fx, _)| fx == x)
                                    .map(|&(_, n)| Value::Null(n))
                                    .ok_or(Reject::MissingFreshNull { step, var: x })?,
                            },
                        };
                        args.push(v);
                    }
                    used.extend(args.iter().filter_map(|v| v.as_null()));
                    facts.insert((a.rel.clone(), args));
                }
            }
        }
    }

    match &cert.outcome {
        ChaseCertOutcome::Failed => match clash_at {
            Some(_) => Ok(()),
            None => Err(Reject::FailedWithoutClash),
        },
        ChaseCertOutcome::Done { final_facts } if clash_at.is_none() => {
            if facts == fact_set(final_facts) {
                Ok(())
            } else {
                Err(Reject::FinalFactsMismatch)
            }
        }
        ChaseCertOutcome::Aborted { partial } | ChaseCertOutcome::Overflow { partial }
            if clash_at.is_none() =>
        {
            if facts == fact_set(partial) {
                Ok(())
            } else {
                Err(Reject::FinalFactsMismatch)
            }
        }
        _ => Err(Reject::ClashNotFailed),
    }
}

/// The replaced merge: record the parent, then re-resolve every fact
/// (and mark both endpoints used).
fn apply_merge(
    subst: &mut BTreeMap<Null, Value>,
    facts: &mut BTreeSet<CertFact>,
    used: &mut BTreeSet<Null>,
    loser: Null,
    root: Value,
) {
    subst.insert(loser, root);
    used.insert(loser);
    if let Value::Null(r) = root {
        used.insert(r);
    }
    let resolved: BTreeSet<CertFact> = facts
        .iter()
        .map(|(rel, args)| {
            (
                rel.clone(),
                args.iter().map(|&v| resolve(subst, v)).collect(),
            )
        })
        .collect();
    *facts = resolved;
}

// ---------------------------------------------------------------------------
// Random derivations
// ---------------------------------------------------------------------------

/// A splitmix64 stream: certificates are a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// A small constant or null: dense enough that merges and clashes
    /// are common.
    fn value(&mut self) -> Value {
        match self.below(2) {
            0 => Value::Const(self.below(3) as i64),
            _ => Value::null(self.below(5) as u32),
        }
    }
}

fn atom(rel: &str, args: &[u32]) -> CertAtom {
    CertAtom {
        rel: rel.into(),
        args: args.iter().map(|&v| CertTerm::Var(v)).collect(),
    }
}

/// Transitivity, two existential tgds, a loop-to-unary rule, and two
/// egds (one of them with a constant in its body).
fn dependencies() -> (Vec<CertRule>, Vec<CertEgd>) {
    let rules = vec![
        CertRule {
            body: vec![atom("E", &[1, 2]), atom("E", &[2, 3])],
            head: vec![atom("E", &[1, 3])],
        },
        CertRule {
            body: vec![atom("E", &[1, 2])],
            head: vec![atom("E", &[2, 4])],
        },
        CertRule {
            body: vec![atom("P", &[1])],
            head: vec![atom("E", &[1, 2]), atom("P", &[2])],
        },
        CertRule {
            body: vec![atom("E", &[1, 1])],
            head: vec![atom("P", &[1])],
        },
    ];
    let egds = vec![
        CertEgd {
            body: vec![atom("E", &[1, 2]), atom("E", &[1, 3])],
            equal: (2, 3),
        },
        CertEgd {
            body: vec![
                CertAtom {
                    rel: "E".into(),
                    args: vec![CertTerm::Const(0), CertTerm::Var(1)],
                },
                atom("P", &[2]),
            ],
            equal: (1, 2),
        },
    ];
    (rules, egds)
}

/// Every assignment of `body`'s variables that maps each atom onto a
/// fact (brute force, in sorted-fact order).
fn matches(body: &[CertAtom], facts: &BTreeSet<CertFact>) -> Vec<Vec<(u32, Value)>> {
    fn go(
        body: &[CertAtom],
        facts: &BTreeSet<CertFact>,
        asg: &mut Vec<(u32, Value)>,
        out: &mut Vec<Vec<(u32, Value)>>,
    ) {
        let Some((a, rest)) = body.split_first() else {
            let mut row = asg.clone();
            row.sort_unstable();
            out.push(row);
            return;
        };
        for (rel, args) in facts {
            if *rel != a.rel || args.len() != a.args.len() {
                continue;
            }
            let mark = asg.len();
            let fits = a.args.iter().zip(args).all(|(t, &v)| match *t {
                CertTerm::Const(c) => v == Value::Const(c),
                CertTerm::Var(x) => match lookup(asg, x) {
                    Some(b) => b == v,
                    None => {
                        asg.push((x, v));
                        true
                    }
                },
            });
            if fits {
                go(rest, facts, asg, out);
            }
            asg.truncate(mark);
        }
    }
    let mut out = Vec::new();
    go(body, facts, &mut Vec::new(), &mut out);
    out
}

/// A valid certificate: random initial facts, then up to 14 random
/// firings and merges, each picked among the current matches, replayed
/// with the full rebuild. Ends `Failed` at a constant clash, otherwise
/// with a random non-failed outcome carrying the replayed facts.
fn random_derivation(seed: u64) -> ChaseCert {
    let mut rng = Rng(seed);
    let (rules, egds) = dependencies();
    let mut initial: Vec<CertFact> = Vec::new();
    for _ in 0..1 + rng.below(6) {
        let fact = match rng.below(3) {
            0 => ("P".to_string(), vec![rng.value()]),
            _ => ("E".to_string(), vec![rng.value(), rng.value()]),
        };
        initial.push(fact);
    }
    let mut facts = fact_set(&initial);
    let mut next_null = 5 + rng.below(3) as u32;
    let mut steps = Vec::new();
    let mut failed = false;
    for _ in 0..rng.below(15) {
        if rng.below(2) == 0 {
            let rule = rng.below(rules.len());
            let ms = matches(&rules[rule].body, &facts);
            if ms.is_empty() {
                continue;
            }
            let assignment = ms[rng.below(ms.len())].clone();
            let mut fresh: Vec<(u32, Null)> = Vec::new();
            for a in &rules[rule].head {
                for t in &a.args {
                    if let CertTerm::Var(x) = *t {
                        if lookup(&assignment, x).is_none() && !fresh.iter().any(|f| f.0 == x) {
                            fresh.push((x, Null(next_null)));
                            next_null += 1 + rng.below(2) as u32;
                        }
                    }
                }
            }
            fresh.sort_unstable();
            for a in &rules[rule].head {
                let args = a
                    .args
                    .iter()
                    .map(|t| match *t {
                        CertTerm::Const(c) => Value::Const(c),
                        CertTerm::Var(x) => lookup(&assignment, x).unwrap_or_else(|| {
                            let n = fresh.iter().find(|f| f.0 == x).expect("fresh var");
                            Value::Null(n.1)
                        }),
                    })
                    .collect();
                facts.insert((a.rel.clone(), args));
            }
            steps.push(ChaseStep::Fire {
                rule,
                assignment,
                fresh,
            });
        } else {
            let egd = rng.below(egds.len());
            let (l, r) = egds[egd].equal;
            let ms: Vec<_> = matches(&egds[egd].body, &facts)
                .into_iter()
                .filter(|m| lookup(m, l) != lookup(m, r))
                .collect();
            if ms.is_empty() {
                continue;
            }
            let assignment = ms[rng.below(ms.len())].clone();
            let (x, y) = (lookup(&assignment, l), lookup(&assignment, r));
            let merged = match (x.expect("bound"), y.expect("bound")) {
                (Value::Const(_), Value::Const(_)) => None,
                (Value::Null(n), c @ Value::Const(_)) | (c @ Value::Const(_), Value::Null(n)) => {
                    Some((n, c))
                }
                (Value::Null(a), Value::Null(b)) => Some(if a < b {
                    (b, Value::Null(a))
                } else {
                    (a, Value::Null(b))
                }),
            };
            steps.push(ChaseStep::Merge {
                egd,
                assignment,
                merged,
            });
            let Some((loser, root)) = merged else {
                failed = true;
                break;
            };
            facts = facts
                .into_iter()
                .map(|(rel, args)| {
                    let args = args
                        .into_iter()
                        .map(|v| if v == Value::Null(loser) { root } else { v })
                        .collect();
                    (rel, args)
                })
                .collect();
        }
    }
    let facts: Vec<CertFact> = facts.into_iter().collect();
    let outcome = match (failed, rng.below(3)) {
        (true, _) => ChaseCertOutcome::Failed,
        (false, 0) => ChaseCertOutcome::Done { final_facts: facts },
        (false, 1) => ChaseCertOutcome::Aborted { partial: facts },
        (false, _) => ChaseCertOutcome::Overflow { partial: facts },
    };
    ChaseCert {
        rules,
        egds,
        initial,
        steps,
        outcome,
    }
}

/// The valid family of the mutation suite: the egd merges ⊥y into ⊥x,
/// creating the self-loop that the tgd then fires on.
fn mutation_suite_family(seed: u64) -> ChaseCert {
    let x = (seed % 90) as u32;
    let y = x + 1 + (seed % 40) as u32;
    let f = y + 1 + (seed % 40) as u32;
    ChaseCert {
        rules: vec![CertRule {
            body: vec![atom("E", &[1, 1])],
            head: vec![atom("E", &[1, 3])],
        }],
        egds: vec![CertEgd {
            body: vec![atom("E", &[1, 2])],
            equal: (1, 2),
        }],
        initial: vec![("E".into(), vec![Value::null(x), Value::null(y)])],
        steps: vec![
            ChaseStep::Merge {
                egd: 0,
                assignment: vec![(1, Value::null(x)), (2, Value::null(y))],
                merged: Some((Null(y), Value::null(x))),
            },
            ChaseStep::Fire {
                rule: 0,
                assignment: vec![(1, Value::null(x))],
                fresh: vec![(3, Null(f))],
            },
        ],
        outcome: ChaseCertOutcome::Done {
            final_facts: vec![
                ("E".into(), vec![Value::null(x), Value::null(x)]),
                ("E".into(), vec![Value::null(x), Value::null(f)]),
            ],
        },
    }
}

fn claimed_facts(outcome: &mut ChaseCertOutcome) -> Option<&mut Vec<CertFact>> {
    match outcome {
        ChaseCertOutcome::Done { final_facts } => Some(final_facts),
        ChaseCertOutcome::Aborted { partial } | ChaseCertOutcome::Overflow { partial } => {
            Some(partial)
        }
        ChaseCertOutcome::Failed => None,
    }
}

/// One random mutation: reorder, drop, duplicate or truncate steps;
/// forge a merge, an assignment value, a fresh null, a rule index, an
/// initial fact, a claimed fact, or the outcome variant.
fn mutate(cert: &ChaseCert, rng: &mut Rng) -> ChaseCert {
    let mut m = cert.clone();
    let n = m.steps.len();
    match rng.below(11) {
        0 if n >= 2 => {
            let (i, j) = (rng.below(n), rng.below(n));
            m.steps.swap(i, j);
        }
        1 if n >= 1 => {
            m.steps.remove(rng.below(n));
        }
        2 if n >= 1 => {
            let i = rng.below(n);
            let step = m.steps[i].clone();
            m.steps.insert(i + 1, step);
        }
        3 => m.steps.truncate(rng.below(n + 1)),
        4 if n >= 1 => {
            if let ChaseStep::Merge { merged, .. } = &mut m.steps[rng.below(n)] {
                *merged = match (rng.below(3), *merged) {
                    (0, Some((l, Value::Null(r)))) => Some((r, Value::Null(l))),
                    (1, _) => None,
                    _ => Some((Null(rng.below(12) as u32), rng.value())),
                };
            }
        }
        5 if n >= 1 => match &mut m.steps[rng.below(n)] {
            ChaseStep::Fire { assignment, .. } | ChaseStep::Merge { assignment, .. } => {
                if !assignment.is_empty() {
                    let k = rng.below(assignment.len());
                    assignment[k].1 = rng.value();
                }
            }
        },
        6 if n >= 1 => {
            if let ChaseStep::Fire { fresh, .. } = &mut m.steps[rng.below(n)] {
                match rng.below(2) {
                    0 => fresh.clear(),
                    _ if !fresh.is_empty() => {
                        let k = rng.below(fresh.len());
                        fresh[k].1 = Null(rng.below(12) as u32);
                    }
                    _ => {}
                }
            }
        }
        7 if n >= 1 => match &mut m.steps[rng.below(n)] {
            ChaseStep::Fire { rule: i, .. } | ChaseStep::Merge { egd: i, .. } => {
                *i = rng.below(6);
            }
        },
        8 => match rng.below(2) {
            0 if !m.initial.is_empty() => {
                m.initial.remove(rng.below(cert.initial.len()));
            }
            _ => m.initial.push(("E".into(), vec![rng.value(), rng.value()])),
        },
        9 => {
            if let Some(facts) = claimed_facts(&mut m.outcome) {
                match rng.below(2) {
                    0 if !facts.is_empty() => {
                        facts.remove(rng.below(facts.len()));
                    }
                    _ => facts.push(("P".into(), vec![rng.value()])),
                }
            }
        }
        _ => {
            m.outcome = match rng.below(3) {
                0 => ChaseCertOutcome::Failed,
                _ => ChaseCertOutcome::Done {
                    final_facts: match &cert.outcome {
                        ChaseCertOutcome::Done { final_facts: f }
                        | ChaseCertOutcome::Aborted { partial: f }
                        | ChaseCertOutcome::Overflow { partial: f } => f.clone(),
                        ChaseCertOutcome::Failed => Vec::new(),
                    },
                },
            };
        }
    }
    m
}

/// The certificate and 16 mutants of it, each checked by both checkers.
fn verdicts(cert: &ChaseCert, seed: u64) -> Vec<(Result<(), Reject>, Result<(), Reject>)> {
    let mut rng = Rng(seed ^ 0x5eed);
    let mut certs = vec![cert.clone()];
    certs.extend((0..16).map(|_| mutate(cert, &mut rng)));
    certs
        .iter()
        .map(|c| (check_chase(c), rebuild_check_chase(c)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random valid derivations replay, and the checker agrees with the
    /// full-rebuild oracle on them and on every mutant.
    #[test]
    fn check_chase_agrees_with_full_rebuild(seed in any::<u64>()) {
        let cert = random_derivation(seed);
        prop_assert_eq!(check_chase(&cert), Ok(()));
        for (got, want) in verdicts(&cert, seed) {
            prop_assert_eq!(got, want);
        }
    }

    /// The same on the mutation suite's family and mutants of it.
    #[test]
    fn check_chase_agrees_on_mutation_suite_family(seed in 0u64..5_000) {
        let cert = mutation_suite_family(seed);
        prop_assert_eq!(check_chase(&cert), Ok(()));
        for (got, want) in verdicts(&cert, seed) {
            prop_assert_eq!(got, want);
        }
    }
}

/// The generator and mutator reach what the differential must cover:
/// null–null and null–constant merges, clashes, fresh nulls, and a wide
/// spread of rejection reasons.
#[test]
fn derivations_and_mutants_cover_merges_clashes_and_rejections() {
    let (mut null_merges, mut const_merges, mut clashes, mut fires) = (0, 0, 0, 0);
    let mut reasons = BTreeSet::new();
    for seed in 0..512 {
        let cert = random_derivation(seed);
        for step in &cert.steps {
            match step {
                ChaseStep::Merge {
                    merged: Some((_, Value::Null(_))),
                    ..
                } => null_merges += 1,
                ChaseStep::Merge {
                    merged: Some(_), ..
                } => const_merges += 1,
                ChaseStep::Merge { merged: None, .. } => clashes += 1,
                ChaseStep::Fire { fresh, .. } if !fresh.is_empty() => fires += 1,
                ChaseStep::Fire { .. } => {}
            }
        }
        for (got, _) in verdicts(&cert, seed) {
            if let Err(r) = got {
                let name = format!("{r:?}");
                reasons.insert(name.split([' ', '{']).next().unwrap_or_default().to_owned());
            }
        }
    }
    assert!(
        null_merges > 100 && const_merges > 100,
        "{null_merges} {const_merges}"
    );
    assert!(clashes > 20 && fires > 100, "{clashes} {fires}");
    assert!(reasons.len() >= 9, "{reasons:?}");
}
