//! A conflict-driven clause-learning SAT solver, one-shot or incremental.
//!
//! One engine, MiniSat-style, serves both entry points:
//!
//! * **flat clause arena** — every clause is a two-word header (size;
//!   learned/deleted flags and LBD) followed by its literals in one `u32`
//!   vector, addressed by offset. Watch lists hold `(clause, blocker)`
//!   pairs and are compacted in place while propagating; assignment values
//!   are indexed by literal. A reason clause keeps its implied literal at
//!   position 0, so conflict analysis never searches for it;
//! * **VSIDS on a binary heap** — decisions pop the most active
//!   unassigned variable (ties to the lower index), unassigned variables
//!   re-enter on backtrack, and saved phases pick the polarity;
//! * **first-UIP learning with recursive minimization** — MiniSat's
//!   `litRedundant` over abstract decision levels drops every literal
//!   implied by the rest of the clause;
//! * **clause-database reduction** — each learned clause carries its LBD
//!   (distinct decision levels); at 2000 conflicts, then at intervals
//!   growing by 300, the worse half of the learned clauses (highest LBD,
//!   then oldest) is deleted, sparing LBD ≤ 2 clauses and current reasons,
//!   and the arena is compacted;
//! * **Luby restarts** (base 128) and **assumptions** placed as
//!   pseudo-decisions ahead of the search, with final-conflict analysis
//!   returning the unsat core.
//!
//! [`IncrementalSolver`] keeps learned clauses, activities and phases
//! between calls with different assumptions; [`solve`] and
//! [`solve_with_assumptions`] are one-call wrappers around it. Everything
//! is deterministic given [`SatLimits::seed`] — the seed only jitters the
//! initial activity order, after which ties break by variable index — so
//! portfolio runs and golden counters are replayable.
//!
//! The solver observes the same cooperative machinery as the ILP solver:
//! the shared [`StopFlag`] (checked between conflicts) and the seeded
//! [`FaultPlan`] (sites [`FaultSite::SatPropagate`],
//! [`FaultSite::SatAnalyze`], [`FaultSite::SatRestart`]). A tripped `Stall`
//! or `SpuriousTimeout` surfaces as [`SatOutcome::Unknown`]; a `Panic` is
//! raised inside [`FaultPlan::fire`] and must be caught by the caller's
//! isolation layer, exactly like an ILP worker panic.

use std::time::{Duration, Instant};

use optimod_ilp::{FaultAction, FaultPlan, FaultSite, StopFlag};

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

/// A propositional literal: variable index with a sign bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of variable `v`.
    pub fn pos(v: usize) -> Lit {
        Lit((v as u32) << 1)
    }

    /// The negative literal of variable `v`.
    pub fn neg(v: usize) -> Lit {
        Lit(((v as u32) << 1) | 1)
    }

    /// The underlying variable index.
    pub fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Whether this is a negated literal.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complementary literal.
    #[must_use]
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index (for watch lists and values): `2*var + sign`.
    fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_neg() {
            write!(f, "-x{}", self.var())
        } else {
            write!(f, "x{}", self.var())
        }
    }
}

/// A CNF formula under construction: a variable counter plus clauses.
#[derive(Debug, Clone, Default)]
pub struct Cnf {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// An empty formula.
    pub fn new() -> Cnf {
        Cnf::default()
    }

    /// Allocates a fresh variable and returns its index.
    pub fn new_var(&mut self) -> usize {
        self.num_vars += 1;
        self.num_vars - 1
    }

    /// Adds a clause (the empty clause makes the formula unsatisfiable).
    pub fn add_clause(&mut self, lits: Vec<Lit>) {
        debug_assert!(lits.iter().all(|l| l.var() < self.num_vars));
        self.clauses.push(lits);
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses added so far.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The clauses added so far.
    pub fn clauses(&self) -> &[Vec<Lit>] {
        &self.clauses
    }
}

/// How a SAT solve ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatOutcome {
    /// Satisfiable; the model assigns every variable.
    Sat(Vec<bool>),
    /// Proven unsatisfiable.
    Unsat,
    /// A limit, cancellation, or injected fault stopped the search before
    /// a verdict.
    Unknown,
}

impl SatOutcome {
    /// Stable lower-case name (used in trace events).
    pub fn name(&self) -> &'static str {
        match self {
            SatOutcome::Sat(_) => "sat",
            SatOutcome::Unsat => "unsat",
            SatOutcome::Unknown => "unknown",
        }
    }
}

/// How a SAT solve under assumptions ended.
///
/// The difference from [`SatOutcome`] is the refutation payload: an
/// unsatisfiable answer names the *unsat core* — the subset of assumption
/// literals the refutation actually used — which is the raw material of
/// infeasibility explanations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssumeOutcome {
    /// Satisfiable under all assumptions; the model assigns every variable.
    Sat(Vec<bool>),
    /// Unsatisfiable under the assumptions. The core is the subset of
    /// assumption literals involved in the refutation; an empty core means
    /// the formula is unsatisfiable on its own, regardless of assumptions.
    Unsat(Vec<Lit>),
    /// A limit, cancellation, or injected fault stopped the search before
    /// a verdict.
    Unknown,
}

impl AssumeOutcome {
    /// Stable lower-case name (used in trace events).
    pub fn name(&self) -> &'static str {
        match self {
            AssumeOutcome::Sat(_) => "sat",
            AssumeOutcome::Unsat(_) => "unsat",
            AssumeOutcome::Unknown => "unknown",
        }
    }
}

/// Search-effort counters, the SAT analogue of the ILP's `SolveStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Literal assignments made (decisions plus propagated implications).
    pub propagations: u64,
    /// Conflicts analyzed (equals the number of learned clauses plus
    /// top-level refutations).
    pub conflicts: u64,
    /// Luby restarts performed.
    pub restarts: u64,
    /// Clauses learned by 1-UIP analysis.
    pub learned: u64,
    /// Learned clauses removed by clause-database reduction.
    pub deleted: u64,
    /// Fault-plan injections that tripped inside this solve.
    pub faults_injected: u64,
}

/// Limits and shared machinery for one SAT solve (for an
/// [`IncrementalSolver`], for each call).
#[derive(Debug, Clone)]
pub struct SatLimits {
    /// Wall-clock budget.
    pub time_limit: Duration,
    /// Conflict budget (the SAT analogue of a node limit).
    pub conflict_limit: u64,
    /// Determinism seed (jitters the initial activity order).
    pub seed: u64,
    /// Cooperative cancellation, checked between conflicts.
    pub stop: StopFlag,
    /// Deterministic fault injection (SAT sites; see [`FaultSite::SAT`]).
    pub fault: FaultPlan,
}

impl Default for SatLimits {
    fn default() -> Self {
        SatLimits {
            time_limit: Duration::from_secs(900),
            conflict_limit: u64::MAX,
            seed: 0,
            stop: StopFlag::new(),
            fault: FaultPlan::none(),
        }
    }
}

const UNASSIGNED: i8 = 0;
const VAL_TRUE: i8 = 1;
const VAL_FALSE: i8 = -1;

/// Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,...
fn luby(mut i: u64) -> u64 {
    // Knuth's closed form: find the subsequence containing i.
    let mut k = 1u64;
    while (1u64 << k) < i + 2 {
        k += 1;
    }
    loop {
        if i + 1 == (1u64 << k) - 1 {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
        k = 1;
        while (1u64 << k) < i + 2 {
            k += 1;
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Offset of a clause's header in the [`ClauseArena`].
type CRef = u32;

/// Reason of a decision, an assumption, or a level-0 unit.
const NO_REASON: CRef = CRef::MAX;

/// Header words ahead of each clause's literals: size, then flags.
const HEADER: usize = 2;
const FLAG_LEARNED: u32 = 1;
const FLAG_DELETED: u32 = 2;
const LBD_SHIFT: u32 = 2;

/// Learned clauses with at most this LBD ("glue" clauses) survive every
/// reduction.
const KEEP_LBD: u32 = 2;
/// Conflicts before the first clause-database reduction; each later
/// interval is [`REDUCE_STEP`] longer than the one before.
const REDUCE_FIRST: u64 = 2000;
const REDUCE_STEP: u64 = 300;
/// Conflicts in the first Luby restart segment.
const RESTART_BASE: u64 = 128;

/// Flat clause store: each clause is `[size, flags | lbd << 2, lits...]`
/// in one vector, so a clause is one contiguous run of memory and its
/// reference is a `u32` offset.
#[derive(Debug, Default)]
struct ClauseArena {
    words: Vec<u32>,
}

impl ClauseArena {
    fn alloc(&mut self, lits: &[Lit], learned: bool, lbd: u32) -> CRef {
        let c = CRef::try_from(self.words.len())
            .ok()
            .filter(|&c| c != NO_REASON)
            .expect("clause arena exceeds u32 offsets");
        self.words.push(lits.len() as u32);
        let flags = if learned { FLAG_LEARNED } else { 0 };
        self.words
            .push(flags | (lbd.min(u32::MAX >> LBD_SHIFT) << LBD_SHIFT));
        self.words.extend(lits.iter().map(|l| l.0));
        c
    }

    fn len(&self, c: CRef) -> usize {
        self.words[c as usize] as usize
    }

    fn lit(&self, c: CRef, i: usize) -> Lit {
        Lit(self.words[c as usize + HEADER + i])
    }

    fn swap(&mut self, c: CRef, i: usize, j: usize) {
        let base = c as usize + HEADER;
        self.words.swap(base + i, base + j);
    }

    fn lbd(&self, c: CRef) -> u32 {
        self.words[c as usize + 1] >> LBD_SHIFT
    }

    fn is_deleted(&self, c: CRef) -> bool {
        self.words[c as usize + 1] & FLAG_DELETED != 0
    }

    fn delete(&mut self, c: CRef) {
        debug_assert!(self.words[c as usize + 1] & FLAG_LEARNED != 0);
        self.words[c as usize + 1] |= FLAG_DELETED;
    }

    /// Clause references in arena (= creation) order.
    fn refs(&self) -> impl Iterator<Item = CRef> + '_ {
        let mut c = 0usize;
        std::iter::from_fn(move || {
            (c < self.words.len()).then(|| {
                let at = c;
                c += HEADER + self.words[at] as usize;
                at as CRef
            })
        })
    }

    /// Slides every live clause down over the deleted ones, preserving
    /// order, and returns the `(old, new)` offsets of the clauses that
    /// moved, ascending by old offset.
    fn compact(&mut self) -> Vec<(CRef, CRef)> {
        let mut moved = Vec::new();
        let (mut read, mut write) = (0usize, 0usize);
        while read < self.words.len() {
            let span = HEADER + self.words[read] as usize;
            if self.words[read + 1] & FLAG_DELETED == 0 {
                if read != write {
                    self.words.copy_within(read..read + span, write);
                    moved.push((read as CRef, write as CRef));
                }
                write += span;
            }
            read += span;
        }
        self.words.truncate(write);
        moved
    }
}

/// One watch-list entry: a clause watching the list's literal, plus a
/// *blocker* — another literal of the clause whose truth lets
/// propagation skip the clause without touching the arena.
#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: CRef,
    blocker: Lit,
}

/// Binary max-heap of variables keyed by activity; equal activities put
/// the lower variable index first, so the heap's maximum is unique.
#[derive(Debug)]
struct VarHeap {
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or [`VarHeap::ABSENT`].
    pos: Vec<u32>,
}

impl VarHeap {
    const ABSENT: u32 = u32::MAX;

    fn above(act: &[f64], a: u32, b: u32) -> bool {
        let (x, y) = (act[a as usize], act[b as usize]);
        x > y || (x == y && a < b)
    }

    /// A heap holding every variable.
    fn full(act: &[f64]) -> VarHeap {
        let mut h = VarHeap {
            heap: (0..act.len() as u32).collect(),
            pos: (0..act.len() as u32).collect(),
        };
        h.heapify(act);
        h
    }

    fn heapify(&mut self, act: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, act);
        }
    }

    fn contains(&self, v: usize) -> bool {
        self.pos[v] != Self::ABSENT
    }

    fn insert(&mut self, v: usize, act: &[f64]) {
        if !self.contains(v) {
            self.pos[v] = self.heap.len() as u32;
            self.heap.push(v as u32);
            self.sift_up(self.heap.len() - 1, act);
        }
    }

    /// Restores the heap after `v`'s activity grew.
    fn increased(&mut self, v: usize, act: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.pos[v] as usize, act);
        }
    }

    fn pop(&mut self, act: &[f64]) -> Option<usize> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top as usize] = Self::ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, act);
        }
        Some(top as usize)
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::above(act, v, self.heap[parent]) {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.pos[self.heap[i] as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child =
                if right < self.heap.len() && Self::above(act, self.heap[right], self.heap[left]) {
                    right
                } else {
                    left
                };
            if !Self::above(act, self.heap[child], v) {
                break;
            }
            self.heap[i] = self.heap[child];
            self.pos[self.heap[i] as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}

/// A CDCL solver that answers a sequence of assumption queries over one
/// formula, keeping learned clauses, variable activities and saved phases
/// from call to call.
///
/// Every learned clause is implied by the formula alone (assumptions enter
/// as decisions, never as premises), so what one call learns stays sound
/// for the next. Each [`IncrementalSolver::solve`] call gets the full wall
/// and conflict budget of the [`SatLimits`] the solver was built with,
/// reports the effort of that call only, and ends back at decision
/// level 0. Once a call proves the formula unsatisfiable on its own
/// (`Unsat` with an empty core), every later call returns the same.
#[derive(Debug)]
pub struct IncrementalSolver {
    arena: ClauseArena,
    /// Live learned clauses (length ≥ 2). An offset orders clauses by
    /// age, so reduction needs no other timestamp.
    learnts: Vec<CRef>,
    /// `watches[lit.index()]`: clauses whose first two literals include
    /// `lit`.
    watches: Vec<Vec<Watcher>>,
    /// `vals[lit.index()]`: the literal's current value.
    vals: Vec<i8>,
    level: Vec<u32>,
    /// Meaningful for assigned variables only.
    reason: Vec<CRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    order: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// Conflict-analysis scratch, reused across conflicts.
    learned_buf: Vec<Lit>,
    analyze_stack: Vec<Lit>,
    analyze_toclear: Vec<Lit>,
    level_stamp: Vec<u64>,
    stamp: u64,
    /// Conflicts over the solver's lifetime; drives the reduction schedule.
    total_conflicts: u64,
    next_reduce: u64,
    reduce_interval: u64,
    /// `false` once the formula is refuted without assumptions.
    ok: bool,
    stats: SatStats,
    limits: SatLimits,
    start: Instant,
    interrupted: bool,
}

impl IncrementalSolver {
    /// Loads `cnf`; every later [`IncrementalSolver::solve`] call runs
    /// under `limits` (the stop flag and fault plan are shared with the
    /// caller's copy).
    pub fn new(cnf: &Cnf, limits: &SatLimits) -> IncrementalSolver {
        let n = cnf.num_vars();
        let mut seed = limits.seed ^ 0x5EED_CDC1;
        let activity: Vec<f64> = (0..n)
            .map(|_| (splitmix64(&mut seed) % 1024) as f64 * 1e-9)
            .collect();
        let mut s = IncrementalSolver {
            arena: ClauseArena::default(),
            learnts: Vec::new(),
            watches: vec![Vec::new(); 2 * n],
            vals: vec![UNASSIGNED; 2 * n],
            level: vec![0; n],
            reason: vec![NO_REASON; n],
            trail: Vec::with_capacity(n),
            trail_lim: Vec::new(),
            qhead: 0,
            order: VarHeap::full(&activity),
            activity,
            var_inc: 1.0,
            phase: vec![false; n],
            seen: vec![false; n],
            learned_buf: Vec::new(),
            analyze_stack: Vec::new(),
            analyze_toclear: Vec::new(),
            level_stamp: vec![0; n + 1],
            stamp: 0,
            total_conflicts: 0,
            next_reduce: REDUCE_FIRST,
            reduce_interval: REDUCE_FIRST,
            ok: true,
            stats: SatStats::default(),
            limits: limits.clone(),
            start: Instant::now(),
            interrupted: false,
        };
        let mut scratch = Vec::new();
        for clause in cnf.clauses() {
            if !s.add_clause(clause, &mut scratch) {
                s.ok = false;
                break;
            }
        }
        s
    }

    /// Solves under `assumptions`. An unsatisfiable answer carries the
    /// subset of `assumptions` its refutation used (empty when the formula
    /// is unsatisfiable on its own); `Unknown` means the call's budget,
    /// the stop flag or an injected fault ended it without a verdict.
    /// The returned stats cover this call only.
    pub fn solve(&mut self, assumptions: &[Lit]) -> (AssumeOutcome, SatStats) {
        let outcome = if !self.ok {
            AssumeOutcome::Unsat(Vec::new())
        } else if self.interrupted {
            // A fault tripped while the formula was loading.
            AssumeOutcome::Unknown
        } else {
            self.start = Instant::now();
            let out = self.search(assumptions);
            self.backtrack(0);
            out
        };
        self.interrupted = false;
        (outcome, std::mem::take(&mut self.stats))
    }

    fn value(&self, l: Lit) -> i8 {
        self.vals[l.index()]
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: CRef) {
        debug_assert_eq!(self.value(l), UNASSIGNED);
        self.vals[l.index()] = VAL_TRUE;
        self.vals[l.negated().index()] = VAL_FALSE;
        self.level[l.var()] = self.decision_level();
        self.reason[l.var()] = reason;
        self.trail.push(l);
        self.stats.propagations += 1;
    }

    fn attach(&mut self, c: CRef) {
        let (a, b) = (self.arena.lit(c, 0), self.arena.lit(c, 1));
        self.watches[a.index()].push(Watcher {
            cref: c,
            blocker: b,
        });
        self.watches[b.index()].push(Watcher {
            cref: c,
            blocker: a,
        });
    }

    /// Installs a problem clause at level 0. Returns `false` on an
    /// immediate top-level conflict (empty clause or falsified unit).
    fn add_clause(&mut self, lits: &[Lit], c: &mut Vec<Lit>) -> bool {
        // Simplify: drop falsified-at-level-0 literals, detect tautologies
        // and satisfied clauses, dedup.
        c.clear();
        for &l in lits {
            match self.value(l) {
                VAL_TRUE => return true,
                VAL_FALSE => continue,
                _ => {}
            }
            if c.contains(&l.negated()) {
                return true;
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
                let cref = self.arena.alloc(c, false, 0);
                self.attach(cref);
                true
            }
        }
    }

    /// Unit propagation; returns a conflicting clause, if any.
    fn propagate(&mut self) -> Option<CRef> {
        if let Some(action) = self.fire(FaultSite::SatPropagate) {
            self.apply_fault(action);
            if self.interrupted {
                return None;
            }
        }
        let mut conflict = None;
        while conflict.is_none() && self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = p.negated();
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let (mut i, mut j) = (0, 0);
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.value(w.blocker) == VAL_TRUE {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                // Normalize: the false literal sits at position 1.
                let c = w.cref;
                if self.arena.lit(c, 0) == false_lit {
                    self.arena.swap(c, 0, 1);
                }
                debug_assert_eq!(self.arena.lit(c, 1), false_lit);
                let first = self.arena.lit(c, 0);
                let kept = Watcher {
                    cref: c,
                    blocker: first,
                };
                if first != w.blocker && self.value(first) == VAL_TRUE {
                    ws[j] = kept;
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                if let Some(k) =
                    (2..self.arena.len(c)).find(|&k| self.value(self.arena.lit(c, k)) != VAL_FALSE)
                {
                    self.arena.swap(c, 1, k);
                    self.watches[self.arena.lit(c, 1).index()].push(kept);
                    continue;
                }
                // Unit or conflicting; the clause keeps watching.
                ws[j] = kept;
                j += 1;
                if self.value(first) == VAL_FALSE {
                    conflict = Some(c);
                    self.qhead = self.trail.len();
                    while i < ws.len() {
                        ws[j] = ws[i];
                        i += 1;
                        j += 1;
                    }
                } else {
                    self.enqueue(first, c);
                }
            }
            ws.truncate(j);
            self.watches[false_lit.index()] = ws;
        }
        conflict
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            // Rescaling can round neighbours together; re-establish the
            // tie order.
            self.order.heapify(&self.activity);
        }
        self.order.increased(v, &self.activity);
    }

    fn abstract_level(&self, v: usize) -> u32 {
        1 << (self.level[v] & 31)
    }

    /// First-UIP conflict analysis with recursive clause minimization:
    /// returns the learned clause (asserting literal first, a
    /// backjump-level literal second), the backjump level and the LBD.
    fn analyze(&mut self, conflict: CRef) -> (Vec<Lit>, u32, u32) {
        if let Some(action) = self.fire(FaultSite::SatAnalyze) {
            self.apply_fault(action);
        }
        let mut learned = std::mem::take(&mut self.learned_buf);
        learned.clear();
        learned.push(Lit(0)); // placeholder for the UIP
        let current = self.decision_level();
        let mut counter = 0usize;
        let mut c = conflict;
        let mut skip_first = false;
        let mut trail_idx = self.trail.len();
        loop {
            // A reason's position 0 is the literal it implied.
            for k in usize::from(skip_first)..self.arena.len(c) {
                let q = self.arena.lit(c, k);
                let v = q.var();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] >= current {
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
            c = self.reason[lit.var()];
            debug_assert_ne!(c, NO_REASON, "non-decision must have a reason");
            debug_assert_eq!(self.arena.lit(c, 0), lit, "reason keeps its literal first");
            skip_first = true;
        }

        // Drop every literal implied by the others (MiniSat's
        // `litRedundant`); decisions and assumptions always stay.
        self.analyze_toclear.clear();
        self.analyze_toclear.extend_from_slice(&learned);
        let levels = learned[1..]
            .iter()
            .fold(0u32, |acc, l| acc | self.abstract_level(l.var()));
        let mut kept = 1;
        for i in 1..learned.len() {
            let l = learned[i];
            if self.reason[l.var()] == NO_REASON || !self.lit_redundant(l, levels) {
                learned[kept] = l;
                kept += 1;
            }
        }
        learned.truncate(kept);
        for k in 0..self.analyze_toclear.len() {
            let v = self.analyze_toclear[k].var();
            self.seen[v] = false;
        }

        // Put a maximum-level literal at position 1 so it gets watched.
        let mut back_level = 0;
        if learned.len() > 1 {
            let mut best = 1;
            for i in 2..learned.len() {
                if self.level[learned[i].var()] > self.level[learned[best].var()] {
                    best = i;
                }
            }
            learned.swap(1, best);
            back_level = self.level[learned[1].var()];
        }
        let lbd = self.lbd(&learned);
        self.var_inc /= 0.95;
        (learned, back_level, lbd)
    }

    /// Whether `p` (a marked literal of the clause being learned) is
    /// implied by the other marked literals: a depth-first walk through
    /// reason clauses that may only end at marked literals or at level 0.
    /// `levels` is the abstraction of the clause's decision levels; a
    /// reason literal outside it cannot be implied and fails fast.
    fn lit_redundant(&mut self, p: Lit, levels: u32) -> bool {
        self.analyze_stack.clear();
        self.analyze_stack.push(p);
        let top = self.analyze_toclear.len();
        while let Some(q) = self.analyze_stack.pop() {
            let c = self.reason[q.var()];
            debug_assert_ne!(c, NO_REASON);
            for k in 1..self.arena.len(c) {
                let l = self.arena.lit(c, k);
                let v = l.var();
                if self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                if self.reason[v] != NO_REASON && self.abstract_level(v) & levels != 0 {
                    self.seen[v] = true;
                    self.analyze_stack.push(l);
                    self.analyze_toclear.push(l);
                } else {
                    for &m in &self.analyze_toclear[top..] {
                        self.seen[m.var()] = false;
                    }
                    self.analyze_toclear.truncate(top);
                    return false;
                }
            }
        }
        true
    }

    /// Literal block distance: the number of distinct decision levels
    /// among `lits`.
    fn lbd(&mut self, lits: &[Lit]) -> u32 {
        self.stamp += 1;
        let mut n = 0;
        for l in lits {
            let lv = self.level[l.var()] as usize;
            if lv >= self.level_stamp.len() {
                // Implied assumptions open empty levels, so levels can
                // outnumber variables.
                self.level_stamp.resize(lv + 1, 0);
            }
            if self.level_stamp[lv] != self.stamp {
                self.level_stamp[lv] = self.stamp;
                n += 1;
            }
        }
        n
    }

    fn backtrack(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for k in (lim..self.trail.len()).rev() {
            let l = self.trail[k];
            self.vals[l.index()] = UNASSIGNED;
            self.vals[l.negated().index()] = UNASSIGNED;
            self.phase[l.var()] = !l.is_neg();
            self.order.insert(l.var(), &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = lim;
    }

    fn decide(&mut self) -> bool {
        let next = loop {
            match self.order.pop(&self.activity) {
                Some(v) if self.vals[Lit::pos(v).index()] == UNASSIGNED => break Some(v),
                Some(_) => continue,
                None => break None,
            }
        };
        let Some(v) = next else {
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

    /// A reason clause of a current assignment, which reduction must keep.
    fn locked(&self, c: CRef) -> bool {
        let first = self.arena.lit(c, 0);
        self.value(first) == VAL_TRUE && self.reason[first.var()] == c
    }

    /// Deletes the worse half of the learned clauses — highest LBD first,
    /// oldest first among equals — except glue clauses and current
    /// reasons, then compacts the arena and renumbers every reference.
    fn reduce_db(&mut self) {
        self.reduce_interval += REDUCE_STEP;
        self.next_reduce += self.reduce_interval;
        let mut ranked = std::mem::take(&mut self.learnts);
        ranked.sort_unstable_by(|&a, &b| self.arena.lbd(b).cmp(&self.arena.lbd(a)).then(a.cmp(&b)));
        let half = ranked.len() / 2;
        for &c in &ranked[..half] {
            if self.arena.lbd(c) > KEEP_LBD && !self.locked(c) {
                self.arena.delete(c);
                self.stats.deleted += 1;
            }
        }
        ranked.retain(|&c| !self.arena.is_deleted(c));
        for ws in &mut self.watches {
            ws.retain(|w| !self.arena.is_deleted(w.cref));
        }

        let moved = self.arena.compact();
        let renumber = |c: &mut CRef| {
            if let Ok(i) = moved.binary_search_by_key(c, |m| m.0) {
                *c = moved[i].1;
            }
        };
        ranked.iter_mut().for_each(&renumber);
        for ws in &mut self.watches {
            ws.iter_mut().for_each(|w| renumber(&mut w.cref));
        }
        for l in &self.trail {
            let r = &mut self.reason[l.var()];
            if *r != NO_REASON {
                renumber(r);
            }
        }
        self.learnts = ranked;
        debug_assert!(self.db_consistent());
    }

    /// Clause-database invariants after a reduction: every clause in the
    /// arena is live and watched by exactly its first two literals, no
    /// watcher points anywhere else, and every reason of the trail is a
    /// live clause implying its literal from position 0.
    fn db_consistent(&self) -> bool {
        let mut watched_by: std::collections::HashMap<CRef, Vec<Lit>> = self
            .arena
            .refs()
            .map(|c| (c, Vec::with_capacity(2)))
            .collect();
        for (li, ws) in self.watches.iter().enumerate() {
            for w in ws {
                match watched_by.get_mut(&w.cref) {
                    Some(lits) => lits.push(Lit(li as u32)),
                    None => return false, // dangling watcher
                }
            }
        }
        let clauses_ok = self.arena.refs().all(|c| {
            let mut first_two = [self.arena.lit(c, 0), self.arena.lit(c, 1)];
            first_two.sort_unstable_by_key(|l| l.0);
            let mut seen = watched_by[&c].clone();
            seen.sort_unstable_by_key(|l| l.0);
            !self.arena.is_deleted(c) && seen == first_two
        });
        let reasons_ok = self.trail.iter().all(|&l| {
            let r = self.reason[l.var()];
            r == NO_REASON
                || (watched_by.contains_key(&r)
                    && !self.arena.is_deleted(r)
                    && self.arena.lit(r, 0) == l)
        });
        clauses_ok && reasons_ok && self.learnts.iter().all(|c| watched_by.contains_key(c))
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
            let c = self.reason[v];
            if c == NO_REASON {
                debug_assert!(self.level[v] > 0, "level-0 literals have no core share");
                core.push(self.trail[i]);
            } else {
                for k in 1..self.arena.len(c) {
                    let q = self.arena.lit(c, k).var();
                    if self.level[q] > 0 {
                        self.seen[q] = true;
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[p.var()] = false;
        core
    }

    /// Learns `learned` and asserts its first literal (the caller has
    /// already backjumped).
    fn learn(&mut self, learned: &[Lit], lbd: u32) {
        self.stats.learned += 1;
        if learned.len() == 1 {
            self.enqueue(learned[0], NO_REASON);
        } else {
            let c = self.arena.alloc(learned, true, lbd);
            self.learnts.push(c);
            self.attach(c);
            self.enqueue(learned[0], c);
        }
    }

    fn search(&mut self, assumptions: &[Lit]) -> AssumeOutcome {
        let mut restarts = 0u64;
        loop {
            let conflicts_before_restart = RESTART_BASE * luby(restarts);
            let mut conflicts_here = 0u64;
            loop {
                if let Some(conflict) = self.propagate() {
                    self.stats.conflicts += 1;
                    self.total_conflicts += 1;
                    conflicts_here += 1;
                    if self.decision_level() == 0 {
                        self.ok = false;
                        return AssumeOutcome::Unsat(Vec::new());
                    }
                    let (learned, back_level, lbd) = self.analyze(conflict);
                    self.backtrack(back_level);
                    self.learn(&learned, lbd);
                    self.learned_buf = learned;
                    if self.out_of_budget() {
                        return AssumeOutcome::Unknown;
                    }
                } else {
                    if self.out_of_budget() {
                        return AssumeOutcome::Unknown;
                    }
                    if conflicts_here >= conflicts_before_restart && self.decision_level() > 0 {
                        restarts += 1;
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
                    if self.total_conflicts >= self.next_reduce {
                        self.reduce_db();
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
                            VAL_FALSE => return AssumeOutcome::Unsat(self.analyze_final(a)),
                            _ => {
                                self.trail_lim.push(self.trail.len());
                                self.enqueue(a, NO_REASON);
                            }
                        }
                        continue;
                    }
                    if !self.decide() {
                        let model = (0..self.level.len())
                            .map(|v| self.vals[Lit::pos(v).index()] == VAL_TRUE)
                            .collect();
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

/// Solves `cnf` under the given assumption literals: one call of a fresh
/// [`IncrementalSolver`].
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
    IncrementalSolver::new(cnf, limits).solve(assumptions)
}
#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SatLimits {
        SatLimits::default()
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut cnf = Cnf::new();
        let v = cnf.new_var();
        cnf.add_clause(vec![Lit::pos(v)]);
        let (out, _) = solve(&cnf, &quick());
        assert_eq!(out, SatOutcome::Sat(vec![true]));

        cnf.add_clause(vec![Lit::neg(v)]);
        let (out, _) = solve(&cnf, &quick());
        assert_eq!(out, SatOutcome::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut cnf = Cnf::new();
        let _ = cnf.new_var();
        cnf.add_clause(vec![]);
        assert_eq!(solve(&cnf, &quick()).0, SatOutcome::Unsat);
    }

    #[test]
    fn exactly_one_chain_propagates() {
        // x0..x3 exactly-one, plus x0..x2 forbidden => x3 forced.
        let mut cnf = Cnf::new();
        let vs: Vec<usize> = (0..4).map(|_| cnf.new_var()).collect();
        cnf.add_clause(vs.iter().map(|&v| Lit::pos(v)).collect());
        for i in 0..4 {
            for j in i + 1..4 {
                cnf.add_clause(vec![Lit::neg(vs[i]), Lit::neg(vs[j])]);
            }
        }
        for &v in &vs[..3] {
            cnf.add_clause(vec![Lit::neg(v)]);
        }
        match solve(&cnf, &quick()).0 {
            SatOutcome::Sat(m) => assert_eq!(m, vec![false, false, false, true]),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    /// Pigeonhole PHP(4,3): 4 pigeons, 3 holes — classically hard for
    /// resolution at scale, trivially unsat here, and a good exerciser of
    /// conflict analysis and learning.
    #[test]
    fn pigeonhole_is_unsat() {
        let (pigeons, holes) = (4usize, 3usize);
        let mut cnf = Cnf::new();
        let var = |p: usize, h: usize| p * holes + h;
        for _ in 0..pigeons * holes {
            cnf.new_var();
        }
        for p in 0..pigeons {
            cnf.add_clause((0..holes).map(|h| Lit::pos(var(p, h))).collect());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    cnf.add_clause(vec![Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
                }
            }
        }
        let (out, stats) = solve(&cnf, &quick());
        assert_eq!(out, SatOutcome::Unsat);
        assert!(stats.conflicts > 0, "PHP must require search");
    }

    #[test]
    fn deterministic_given_a_seed() {
        let mut cnf = Cnf::new();
        let vs: Vec<usize> = (0..30).map(|_| cnf.new_var()).collect();
        // Random-ish 3-clauses over 30 vars, fixed construction.
        for i in 0..60 {
            let a = vs[(i * 7) % 30];
            let b = vs[(i * 13 + 5) % 30];
            let c = vs[(i * 29 + 11) % 30];
            let l = |v: usize, neg: bool| if neg { Lit::neg(v) } else { Lit::pos(v) };
            cnf.add_clause(vec![l(a, i % 2 == 0), l(b, i % 3 == 0), l(c, i % 5 == 0)]);
        }
        let limits = SatLimits {
            seed: 42,
            ..Default::default()
        };
        let (out1, stats1) = solve(&cnf, &limits);
        let (out2, stats2) = solve(&cnf, &limits);
        assert_eq!(out1, out2);
        assert_eq!(stats1, stats2);
    }

    #[test]
    fn stop_flag_yields_unknown() {
        let mut cnf = Cnf::new();
        let v = cnf.new_var();
        let w = cnf.new_var();
        cnf.add_clause(vec![Lit::pos(v), Lit::pos(w)]);
        let limits = SatLimits::default();
        limits.stop.stop();
        assert_eq!(solve(&cnf, &limits).0, SatOutcome::Unknown);
    }

    #[test]
    fn assumption_core_names_only_the_culprits() {
        // ¬a ∨ ¬b: assuming {c, a, b} must come back unsat with a core
        // naming a and b — and never the irrelevant c.
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        let c = cnf.new_var();
        cnf.add_clause(vec![Lit::neg(a), Lit::neg(b)]);
        let assumptions = [Lit::pos(c), Lit::pos(a), Lit::pos(b)];
        let (out, _) = solve_with_assumptions(&cnf, &assumptions, &quick());
        let AssumeOutcome::Unsat(core) = out else {
            panic!("expected unsat under contradictory assumptions, got {out:?}");
        };
        assert!(!core.is_empty(), "refutation used assumptions");
        assert!(core.contains(&Lit::pos(a)) && core.contains(&Lit::pos(b)));
        assert!(!core.contains(&Lit::pos(c)), "c plays no part: {core:?}");
    }

    #[test]
    fn assumption_core_through_learned_conflicts() {
        // PHP(4,3) is unsat on its own; per-pigeon "placed" selectors make
        // it satisfiable until all four are assumed. The core must be
        // non-empty and consist of assumption literals only.
        let (pigeons, holes) = (4usize, 3usize);
        let mut cnf = Cnf::new();
        let var = |p: usize, h: usize| p * holes + h;
        for _ in 0..pigeons * holes {
            cnf.new_var();
        }
        let sels: Vec<usize> = (0..pigeons).map(|_| cnf.new_var()).collect();
        for (p, &sel) in sels.iter().enumerate() {
            let mut clause: Vec<Lit> = (0..holes).map(|h| Lit::pos(var(p, h))).collect();
            clause.push(Lit::neg(sel));
            cnf.add_clause(clause);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    cnf.add_clause(vec![Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
                }
            }
        }
        let assumptions: Vec<Lit> = sels.iter().map(|&s| Lit::pos(s)).collect();
        let (out, _) = solve_with_assumptions(&cnf, &assumptions, &quick());
        let AssumeOutcome::Unsat(core) = out else {
            panic!("fully selected PHP must be unsat, got {out:?}");
        };
        assert!(!core.is_empty());
        assert!(core.iter().all(|l| assumptions.contains(l)), "{core:?}");
        // Dropping any one pigeon leaves 3 pigeons in 3 holes: satisfiable.
        for drop in 0..pigeons {
            let partial: Vec<Lit> = assumptions
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != drop)
                .map(|(_, &l)| l)
                .collect();
            let (out, _) = solve_with_assumptions(&cnf, &partial, &quick());
            assert!(
                matches!(out, AssumeOutcome::Sat(_)),
                "dropping pigeon {drop} must satisfy, got {}",
                out.name()
            );
        }
    }

    #[test]
    fn unconditional_unsat_has_an_empty_core() {
        let mut cnf = Cnf::new();
        let v = cnf.new_var();
        let w = cnf.new_var();
        cnf.add_clause(vec![Lit::pos(v)]);
        cnf.add_clause(vec![Lit::neg(v)]);
        let (out, _) = solve_with_assumptions(&cnf, &[Lit::pos(w)], &quick());
        assert_eq!(out, AssumeOutcome::Unsat(Vec::new()));
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }
}
