//! The solver as it stood before the arena/heap rewrite, kept verbatim as
//! a differential oracle for the production engine: `Vec<Vec<Lit>>`
//! clauses, plain watch lists, a linear scan per decision, no clause
//! minimization and no clause deletion. Test builds only.

use std::time::Instant;

use optimod_ilp::{FaultAction, FaultSite};

use super::{
    luby, splitmix64, AssumeOutcome, Cnf, Lit, SatLimits, SatOutcome, SatStats, UNASSIGNED,
    VAL_FALSE, VAL_TRUE,
};

struct Solver<'a> {
    clauses: Vec<Vec<Lit>>,
    /// `watches[lit.index()]`: clause indices watching `lit`.
    watches: Vec<Vec<usize>>,
    assign: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<usize>, // usize::MAX = decision / unset
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    phase: Vec<bool>,
    seen: Vec<bool>,
    stats: SatStats,
    limits: &'a SatLimits,
    start: Instant,
    interrupted: bool,
}

const NO_REASON: usize = usize::MAX;

impl<'a> Solver<'a> {
    fn new(cnf: &Cnf, limits: &'a SatLimits) -> Solver<'a> {
        let n = cnf.num_vars();
        let mut seed = limits.seed ^ 0x5EED_CDC1;
        let activity = (0..n)
            .map(|_| (splitmix64(&mut seed) % 1024) as f64 * 1e-9)
            .collect();
        Solver {
            clauses: Vec::with_capacity(cnf.num_clauses()),
            watches: vec![Vec::new(); 2 * n],
            assign: vec![UNASSIGNED; n],
            level: vec![0; n],
            reason: vec![NO_REASON; n],
            trail: Vec::with_capacity(n),
            trail_lim: Vec::new(),
            qhead: 0,
            activity,
            var_inc: 1.0,
            phase: vec![false; n],
            seen: vec![false; n],
            stats: SatStats::default(),
            limits,
            start: Instant::now(),
            interrupted: false,
        }
    }

    fn value(&self, l: Lit) -> i8 {
        let v = self.assign[l.var()];
        if l.is_neg() {
            -v
        } else {
            v
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: usize) {
        debug_assert_eq!(self.value(l), UNASSIGNED);
        self.assign[l.var()] = if l.is_neg() { VAL_FALSE } else { VAL_TRUE };
        self.level[l.var()] = self.decision_level();
        self.reason[l.var()] = reason;
        self.phase[l.var()] = !l.is_neg();
        self.trail.push(l);
        self.stats.propagations += 1;
    }

    /// Installs a problem clause. Returns `false` on an immediate
    /// top-level conflict (empty clause or falsified unit).
    fn add_clause(&mut self, lits: &[Lit]) -> bool {
        // Simplify: drop falsified-at-level-0 literals, detect tautologies
        // and satisfied clauses, dedup.
        let mut c: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            if self.value(l) == VAL_TRUE {
                return true; // already satisfied at level 0
            }
            if self.value(l) == VAL_FALSE {
                continue; // falsified at level 0: drop
            }
            if c.contains(&l.negated()) {
                return true; // tautology
            }
            if !c.contains(&l) {
                c.push(l);
            }
        }
        match c.len() {
            0 => false,
            1 => {
                self.enqueue(c[0], NO_REASON);
                self.propagate().is_none()
            }
            _ => {
                let idx = self.clauses.len();
                self.watches[c[0].index()].push(idx);
                self.watches[c[1].index()].push(idx);
                self.clauses.push(c);
                true
            }
        }
    }

    /// Unit propagation; returns a conflicting clause index, if any.
    fn propagate(&mut self) -> Option<usize> {
        if let Some(action) = self.fire(FaultSite::SatPropagate) {
            self.apply_fault(action);
            if self.interrupted {
                return None;
            }
        }
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = p.negated();
            let mut i = 0;
            'clauses: while i < self.watches[false_lit.index()].len() {
                let ci = self.watches[false_lit.index()][i];
                // Normalize: the false literal sits at position 1.
                if self.clauses[ci][0] == false_lit {
                    self.clauses[ci].swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci][1], false_lit);
                let first = self.clauses[ci][0];
                if self.value(first) == VAL_TRUE {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..self.clauses[ci].len() {
                    let l = self.clauses[ci][k];
                    if self.value(l) != VAL_FALSE {
                        self.clauses[ci].swap(1, k);
                        self.watches[false_lit.index()].swap_remove(i);
                        self.watches[l.index()].push(ci);
                        continue 'clauses;
                    }
                }
                // Unit or conflicting.
                if self.value(first) == VAL_FALSE {
                    return Some(ci);
                }
                self.enqueue(first, ci);
                i += 1;
            }
        }
        None
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis: returns the learned clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, conflict: usize) -> (Vec<Lit>, u32) {
        if let Some(action) = self.fire(FaultSite::SatAnalyze) {
            self.apply_fault(action);
        }
        let mut learned: Vec<Lit> = vec![Lit::pos(0)]; // placeholder for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut ci = conflict;
        let mut trail_idx = self.trail.len();
        loop {
            let start = if p.is_some() { 1 } else { 0 };
            for k in start..self.clauses[ci].len() {
                let q = self.clauses[ci][k];
                let v = q.var();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] == self.decision_level() {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Walk back the trail to the next marked literal.
            loop {
                trail_idx -= 1;
                if self.seen[self.trail[trail_idx].var()] {
                    break;
                }
            }
            let lit = self.trail[trail_idx];
            self.seen[lit.var()] = false;
            counter -= 1;
            if counter == 0 {
                learned[0] = lit.negated();
                break;
            }
            p = Some(lit);
            ci = self.reason[lit.var()];
            debug_assert_ne!(ci, NO_REASON, "non-decision must have a reason");
            // Normalize so the implied literal is at position 0.
            if self.clauses[ci][0] != lit {
                let pos = self.clauses[ci]
                    .iter()
                    .position(|&l| l == lit)
                    .expect("reason clause contains its implied literal");
                self.clauses[ci].swap(0, pos);
            }
        }
        for l in &learned {
            self.seen[l.var()] = false;
        }
        let back_level = learned[1..]
            .iter()
            .map(|l| self.level[l.var()])
            .max()
            .unwrap_or(0);
        // Put a maximum-level literal at position 1 so it gets watched.
        if learned.len() > 1 {
            let pos = 1 + learned[1..]
                .iter()
                .position(|l| self.level[l.var()] == back_level)
                .expect("max exists");
            learned.swap(1, pos);
        }
        self.var_inc /= 0.95;
        (learned, back_level)
    }

    fn backtrack(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("level > 0");
            for l in self.trail.drain(lim..) {
                self.assign[l.var()] = UNASSIGNED;
                self.reason[l.var()] = NO_REASON;
            }
        }
        self.qhead = self.trail.len();
    }

    fn decide(&mut self) -> bool {
        let mut best: Option<usize> = None;
        for v in 0..self.assign.len() {
            if self.assign[v] == UNASSIGNED
                && best.is_none_or(|b| self.activity[v] > self.activity[b])
            {
                best = Some(v);
            }
        }
        let Some(v) = best else {
            return false;
        };
        self.stats.decisions += 1;
        self.trail_lim.push(self.trail.len());
        let lit = if self.phase[v] {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        };
        self.enqueue(lit, NO_REASON);
        true
    }

    fn fire(&mut self, site: FaultSite) -> Option<FaultAction> {
        let action = self.limits.fault.fire(site);
        if action.is_some() {
            self.stats.faults_injected += 1;
        }
        action
    }

    fn apply_fault(&mut self, action: FaultAction) {
        match action {
            // Both degrade to "no verdict", through the same path a real
            // deadline takes; the portfolio falls back to the ILP.
            FaultAction::Stall | FaultAction::SpuriousTimeout => self.interrupted = true,
            // A tripped panic never reaches here (raised inside `fire`); a
            // perturbation is latched by the plan and consumed by the
            // portfolio's decode path, mirroring the ILP incumbent path.
            FaultAction::Panic | FaultAction::PerturbIncumbent => {}
        }
    }

    fn out_of_budget(&self) -> bool {
        self.interrupted
            || self.stats.conflicts >= self.limits.conflict_limit
            || self.limits.stop.is_stopped()
            || self.start.elapsed() >= self.limits.time_limit
    }

    /// Final-conflict analysis (the assumption analogue of [`Self::analyze`]):
    /// given an assumption `p` found falsified by propagation from earlier
    /// assumption levels, walks the implication trail backwards and collects
    /// the subset of assumptions the falsification depends on. Decisions on
    /// the trail are assumption placements by construction — the search never
    /// makes a free decision while assumptions are pending — so the returned
    /// literals are exactly assumption literals: `p` itself plus every
    /// assumption reachable through reason clauses from `¬p`.
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        let mut core = vec![p];
        if self.decision_level() == 0 {
            return core;
        }
        self.seen[p.var()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let v = self.trail[i].var();
            if !self.seen[v] {
                continue;
            }
            if self.reason[v] == NO_REASON {
                debug_assert!(self.level[v] > 0, "level-0 literals have no core share");
                core.push(self.trail[i]);
            } else {
                let ci = self.reason[v];
                for k in 0..self.clauses[ci].len() {
                    let q = self.clauses[ci][k];
                    if q.var() != v && self.level[q.var()] > 0 {
                        self.seen[q.var()] = true;
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[p.var()] = false;
        core
    }

    fn search(&mut self, assumptions: &[Lit]) -> AssumeOutcome {
        let restart_base = 128u64;
        loop {
            let conflicts_before_restart = restart_base * luby(self.stats.restarts);
            let mut conflicts_here = 0u64;
            loop {
                if let Some(conflict) = self.propagate() {
                    self.stats.conflicts += 1;
                    conflicts_here += 1;
                    if self.decision_level() == 0 {
                        return AssumeOutcome::Unsat(Vec::new());
                    }
                    let (learned, back_level) = self.analyze(conflict);
                    self.backtrack(back_level);
                    self.stats.learned += 1;
                    if learned.len() == 1 {
                        self.enqueue(learned[0], NO_REASON);
                    } else {
                        let idx = self.clauses.len();
                        self.watches[learned[0].index()].push(idx);
                        self.watches[learned[1].index()].push(idx);
                        let asserting = learned[0];
                        self.clauses.push(learned);
                        self.enqueue(asserting, idx);
                    }
                    if self.out_of_budget() {
                        return AssumeOutcome::Unknown;
                    }
                } else {
                    if self.interrupted || self.out_of_budget() {
                        return AssumeOutcome::Unknown;
                    }
                    if conflicts_here >= conflicts_before_restart && self.decision_level() > 0 {
                        self.stats.restarts += 1;
                        if let Some(action) = self.fire(FaultSite::SatRestart) {
                            self.apply_fault(action);
                            if self.interrupted {
                                return AssumeOutcome::Unknown;
                            }
                        }
                        self.backtrack(0);
                        break; // next Luby segment
                    }
                    // Pending assumptions enter as pseudo-decisions, one
                    // level each, before any free VSIDS decision.
                    if (self.decision_level() as usize) < assumptions.len() {
                        let a = assumptions[self.decision_level() as usize];
                        match self.value(a) {
                            VAL_TRUE => {
                                // Already implied: open an empty level so
                                // the level index keeps tracking the prefix.
                                self.trail_lim.push(self.trail.len());
                            }
                            VAL_FALSE => {
                                let core = self.analyze_final(a);
                                return AssumeOutcome::Unsat(core);
                            }
                            _ => {
                                self.trail_lim.push(self.trail.len());
                                self.enqueue(a, NO_REASON);
                            }
                        }
                        continue;
                    }
                    if !self.decide() {
                        let model = self.assign.iter().map(|&v| v == VAL_TRUE).collect();
                        return AssumeOutcome::Sat(model);
                    }
                }
            }
        }
    }
}

/// Solves `cnf` under `limits`. Deterministic given the seed (and absent
/// cancellation or time limits binding mid-search).
pub fn solve(cnf: &Cnf, limits: &SatLimits) -> (SatOutcome, SatStats) {
    let (out, stats) = solve_with_assumptions(cnf, &[], limits);
    let out = match out {
        AssumeOutcome::Sat(model) => SatOutcome::Sat(model),
        AssumeOutcome::Unsat(_) => SatOutcome::Unsat,
        AssumeOutcome::Unknown => SatOutcome::Unknown,
    };
    (out, stats)
}

/// Solves `cnf` under the given assumption literals.
///
/// Assumptions are placed as pseudo-decisions ahead of the search proper
/// (the MiniSat discipline), so an unsatisfiable answer comes back with an
/// unsat core: the subset of `assumptions` the refutation used, extracted
/// by final-conflict analysis over the implication trail. The core is not
/// guaranteed minimal — callers wanting a minimal unsatisfiable subset
/// shrink it by deletion (re-solving with members dropped), as
/// `optimod-analyze`'s explanation engine does.
pub fn solve_with_assumptions(
    cnf: &Cnf,
    assumptions: &[Lit],
    limits: &SatLimits,
) -> (AssumeOutcome, SatStats) {
    let mut s = Solver::new(cnf, limits);
    for clause in cnf.clauses() {
        if !s.add_clause(clause) {
            return (AssumeOutcome::Unsat(Vec::new()), s.stats);
        }
    }
    if s.interrupted {
        return (AssumeOutcome::Unknown, s.stats);
    }
    let outcome = s.search(assumptions);
    (outcome, s.stats)
}
