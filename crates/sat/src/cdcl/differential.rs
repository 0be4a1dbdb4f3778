//! Cross-checks of the production engine: against the pre-rewrite
//! reference solver on random 3-CNF, pigeonhole and scheduling encodings,
//! and [`IncrementalSolver`] call sequences against fresh one-shot solves.
//!
//! Verdicts must agree; every model must satisfy every clause and every
//! assumption; every core must be a subset of the assumptions and
//! unsatisfiable on its own (re-checked by the reference solver).

use optimod_ddg::{generate_loop, GeneratorConfig, Loop};
use optimod_machine::example_3fu;
use proptest::prelude::*;

use super::{reference, solve_with_assumptions, AssumeOutcome, Cnf, IncrementalSolver, Lit};
use super::{SatLimits, SatOutcome};
use crate::encode::{encode, encode_grouped, EncodeOptions, SlotDomains};

fn lit(v: usize, neg: bool) -> Lit {
    if neg {
        Lit::neg(v)
    } else {
        Lit::pos(v)
    }
}

/// `Ok(())` when `model` satisfies every clause of `cnf` and every
/// assumption.
fn check_model(cnf: &Cnf, assumptions: &[Lit], model: &[bool]) -> Result<(), String> {
    let holds = |l: &Lit| model[l.var()] != l.is_neg();
    if model.len() != cnf.num_vars() {
        return Err(format!(
            "model has {} of {} vars",
            model.len(),
            cnf.num_vars()
        ));
    }
    if let Some(c) = cnf.clauses().iter().find(|c| !c.iter().any(holds)) {
        return Err(format!("model falsifies clause {c:?}"));
    }
    if let Some(a) = assumptions.iter().find(|a| !holds(a)) {
        return Err(format!("model falsifies assumption {a}"));
    }
    Ok(())
}

/// `Ok(())` when `core` is a subset of `assumptions` and `cnf` is
/// unsatisfiable under the core alone.
fn check_core(cnf: &Cnf, assumptions: &[Lit], core: &[Lit]) -> Result<(), String> {
    if let Some(l) = core.iter().find(|l| !assumptions.contains(l)) {
        return Err(format!("core literal {l} is not an assumption"));
    }
    match reference::solve_with_assumptions(cnf, core, &SatLimits::default()).0 {
        AssumeOutcome::Unsat(_) => Ok(()),
        other => Err(format!("core {core:?} alone is {}", other.name())),
    }
}

/// Checks one outcome's payload and returns its verdict name.
fn check_outcome(cnf: &Cnf, assumptions: &[Lit], out: &AssumeOutcome) -> Result<(), String> {
    match out {
        AssumeOutcome::Sat(model) => check_model(cnf, assumptions, model),
        AssumeOutcome::Unsat(core) => check_core(cnf, assumptions, core),
        AssumeOutcome::Unknown => Err("unlimited solve returned unknown".into()),
    }
}

/// Both engines on `(cnf, assumptions)`: same verdict, valid payloads.
fn agree(cnf: &Cnf, assumptions: &[Lit]) -> Result<&'static str, String> {
    let limits = SatLimits::default();
    let new = solve_with_assumptions(cnf, assumptions, &limits).0;
    let old = reference::solve_with_assumptions(cnf, assumptions, &limits).0;
    if new.name() != old.name() {
        return Err(format!(
            "engine says {}, reference {}",
            new.name(),
            old.name()
        ));
    }
    check_outcome(cnf, assumptions, &new)?;
    check_outcome(cnf, assumptions, &old)?;
    Ok(new.name())
}

/// Random 3-CNF at clause/variable ratio ~4.26 (the satisfiability
/// threshold), plus a few random assumption literals.
fn random_3cnf(vars: usize, seed: u64) -> (Cnf, Vec<Lit>) {
    let mut state = seed;
    let mut next = move |n: u64| super::splitmix64(&mut state) % n;
    let mut cnf = Cnf::new();
    for _ in 0..vars {
        cnf.new_var();
    }
    for _ in 0..(vars as f64 * 4.26).round() as usize {
        let clause = (0..3)
            .map(|_| lit(next(vars as u64) as usize, next(2) == 1))
            .collect();
        cnf.add_clause(clause);
    }
    let assumptions = (0..next(4))
        .map(|_| lit(next(vars as u64) as usize, next(2) == 1))
        .collect();
    (cnf, assumptions)
}

/// PHP(n+1, n) with one selector per pigeon: the selected pigeons must
/// each take a hole, holes take at most one pigeon. Returns the formula
/// and the selector literals.
fn pigeonhole(holes: usize) -> (Cnf, Vec<Lit>) {
    let pigeons = holes + 1;
    let mut cnf = Cnf::new();
    let var = |p: usize, h: usize| p * holes + h;
    for _ in 0..pigeons * holes {
        cnf.new_var();
    }
    let sels: Vec<Lit> = (0..pigeons).map(|_| Lit::pos(cnf.new_var())).collect();
    for (p, sel) in sels.iter().enumerate() {
        let mut clause: Vec<Lit> = (0..holes).map(|h| Lit::pos(var(p, h))).collect();
        clause.push(sel.negated());
        cnf.add_clause(clause);
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                cnf.add_clause(vec![Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
            }
        }
    }
    (cnf, sels)
}

fn small_loop(seed: u64) -> Loop {
    let cfg = GeneratorConfig {
        min_ops: 3,
        max_ops: 8,
        ..GeneratorConfig::default()
    };
    generate_loop(&cfg, &example_3fu(), seed)
}

fn domains(l: &Loop, ii: u32) -> SlotDomains {
    // Generous horizon: more stages only add feasible space.
    let total_latency: i64 = l.edges().iter().map(|e| e.latency.max(0)).sum();
    SlotDomains::unrestricted(l.num_ops(), ii, total_latency / i64::from(ii) + 2)
}

/// The loop's MinII, then its II* on this encoding: the first II from
/// MinII up that the reference solver finds satisfiable.
fn min_ii_and_star(l: &Loop) -> (u32, Option<u32>) {
    let min_ii = optimod::compute_mii(l, &example_3fu()).value();
    let star = (min_ii..min_ii + 8).find(|&ii| {
        let enc = encode(
            l,
            &example_3fu(),
            ii,
            &domains(l, ii),
            &EncodeOptions::default(),
        );
        matches!(
            reference::solve(&enc.cnf, &SatLimits::default()).0,
            SatOutcome::Sat(_)
        )
    });
    (min_ii, star)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engines_agree_on_random_3cnf(vars in 20usize..90, seed in 0u64..u64::MAX) {
        let (cnf, assumptions) = random_3cnf(vars, seed);
        agree(&cnf, &assumptions)?;
        agree(&cnf, &[])?;
    }

    #[test]
    fn engines_agree_on_pigeonhole(holes in 1usize..=5, mask in 0u32..64) {
        let (cnf, sels) = pigeonhole(holes);
        let chosen: Vec<Lit> = sels
            .iter()
            .enumerate()
            .filter(|&(p, _)| mask >> p & 1 == 1)
            .map(|(_, &s)| s)
            .collect();
        let verdict = agree(&cnf, &chosen)?;
        prop_assert_eq!(verdict, if chosen.len() > holes { "unsat" } else { "sat" });
        prop_assert_eq!(agree(&cnf, &sels)?, "unsat");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engines_agree_on_scheduling_encodings(seed in 0u64..1_000_000) {
        let l = small_loop(seed);
        let m = example_3fu();
        let (min_ii, star) = min_ii_and_star(&l);
        let mut iis: Vec<u32> = star.into_iter().collect();
        if min_ii > 1 {
            iis.push(min_ii - 1);
        }
        for ii in iis {
            let d = domains(&l, ii);
            let plain = encode(&l, &m, ii, &d, &EncodeOptions::default());
            let verdict = agree(&plain.cnf, &[])?;
            prop_assert_eq!(verdict, if Some(ii) == star { "sat" } else { "unsat" });
            let g = encode_grouped(&l, &m, ii, &d);
            prop_assert_eq!(agree(&g.enc.cnf, &g.selectors)?, verdict);
        }
    }

    #[test]
    fn incremental_calls_match_one_shot_solves(seed in 0u64..1_000_000) {
        let l = small_loop(seed);
        let m = example_3fu();
        // Below MinII there is always a core to find; at MinII itself the
        // subsets mix verdicts.
        let ii = optimod::compute_mii(&l, &m).value().max(2) - 1;
        let g = encode_grouped(&l, &m, ii, &domains(&l, ii));
        let limits = SatLimits::default();
        let mut inc = IncrementalSolver::new(&g.enc.cnf, &limits);
        let mut state = seed;
        for _ in 0..12 {
            let keep = super::splitmix64(&mut state);
            let subset: Vec<Lit> = g
                .selectors
                .iter()
                .enumerate()
                .filter(|&(i, _)| keep >> (i % 64) & 1 == 1 || i % 7 == 0)
                .map(|(_, &s)| s)
                .collect();
            let got = inc.solve(&subset).0;
            let fresh = solve_with_assumptions(&g.enc.cnf, &subset, &limits).0;
            prop_assert_eq!(got.name(), fresh.name());
            check_outcome(&g.enc.cnf, &subset, &got)?;
        }
    }
}

#[test]
fn empty_core_is_sticky_and_budgets_are_per_call() {
    // PHP(6,5) without selectors: unsatisfiable on its own, and far more
    // than 40 conflicts away from the proof, so the first calls run out of
    // budget. Each call gets a fresh 40-conflict budget (a cumulative one
    // would end every later call at once), and learned clauses carry the
    // proof forward until it lands.
    let (mut cnf, sels) = pigeonhole(5);
    for s in &sels {
        cnf.add_clause(vec![*s]);
    }
    let extra = Lit::pos(cnf.new_var());
    let limits = SatLimits {
        conflict_limit: 40,
        ..SatLimits::default()
    };
    let mut inc = IncrementalSolver::new(&cnf, &limits);
    let mut calls = 0;
    let mut unknowns = 0;
    loop {
        calls += 1;
        assert!(calls < 10_000, "no verdict after {calls} calls");
        let (out, stats) = inc.solve(&[extra]);
        assert!(stats.conflicts <= 40, "call {calls} overran: {stats:?}");
        match out {
            AssumeOutcome::Unknown => {
                assert_eq!(stats.conflicts, 40, "a budget stop spends the budget");
                unknowns += 1;
            }
            AssumeOutcome::Unsat(core) => {
                assert!(core.is_empty(), "the formula alone is unsat: {core:?}");
                break;
            }
            AssumeOutcome::Sat(_) => panic!("PHP(6,5) is unsatisfiable"),
        }
    }
    assert!(unknowns > 1, "the proof should need several budgets");
    for assumptions in [vec![], vec![extra], vec![extra.negated()]] {
        let (out, stats) = inc.solve(&assumptions);
        assert_eq!(out, AssumeOutcome::Unsat(Vec::new()));
        assert_eq!(stats.conflicts, 0);
    }
}
#[test]
fn reductions_keep_the_clause_database_consistent() {
    // PHP(8,7) takes ~5k conflicts: two reductions, each followed by the
    // debug-build invariant check (live clauses watched by exactly their
    // first two literals, no dangling watcher, no deleted reason).
    let (mut cnf, sels) = pigeonhole(7);
    for s in &sels {
        cnf.add_clause(vec![*s]);
    }
    let (out, stats) = super::solve(&cnf, &SatLimits::default());
    assert_eq!(out, SatOutcome::Unsat);
    assert!(stats.deleted > 0, "no reduction ran: {stats:?}");
    assert!(stats.deleted < stats.learned);
}
