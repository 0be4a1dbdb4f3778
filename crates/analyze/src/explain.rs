//! Infeasibility explanation: assumption-based unsat cores over source
//! constraint groups, minimized and independently certified.
//!
//! Given a (loop, machine, II) triple the scheduler reported infeasible,
//! the engine re-encodes the feasibility question through the grouped CNF
//! encoder ([`optimod_sat::encode_grouped`]): every *source* constraint
//! group — one dependence edge's implication clauses, one MRT resource
//! row's cardinality counter, one operation's presolve-restricted issue
//! window — is guarded by a fresh assumption selector. Solving under all
//! selectors asks the original question; when the answer is unsat, the
//! CDCL solver's final-conflict analysis returns a subset of selectors
//! whose groups are jointly contradictory.
//!
//! Raw assumption cores are sound but rarely minimal (the falsified
//! selector's propagation chain routes through whatever happened to be on
//! the trail), so the engine shrinks them with **deletion-based MUS
//! minimization**: drop one member, re-solve; if still unsat, the member
//! was redundant (and the returned core refines the set further), if
//! satisfiable the member is provably necessary. The initial solve and
//! every minimization step share one [`IncrementalSolver`], which keeps
//! its learned clauses, activities and phases from one sub-solve to the
//! next. The result is then **certified** by two independent re-encodings
//! that never saw a selector, each solved from scratch: the named subset
//! alone must be unsatisfiable, and every single-member-dropped subset
//! satisfiable — a *minimal unsatisfiable subset* in the literal sense.
//!
//! Minimization and certification are budgeted by a count of sub-solves
//! ([`ExplainOptions::mus_budget`]); running out surfaces as lint `OM203`
//! on an otherwise valid (but possibly non-minimal or uncertified) core.
//! Every sub-solve also has the wall-clock [`ExplainOptions::time_limit`],
//! and one that runs out of it ends minimization the same way. Output
//! therefore replays exactly only when no sub-solve hits its wall limit;
//! the count alone is deterministic.
//!
//! The surviving core maps to source-level findings with stable codes:
//!
//! * `OM200` — the minimal conflicting dependence-edge set, with the
//!   cycle latency/distance arithmetic when the edges close a cycle;
//! * `OM201` — an over-subscribed MRT resource row, with the competing
//!   operations and the capacity;
//! * `OM202` — a presolve-restricted issue window participating in the
//!   conflict;
//! * `OM203` — the budget ran out before minimization or certification.

use std::time::Duration;

use optimod_ddg::Loop;
use optimod_ilp::{Model, RowTag, StopFlag};
use optimod_machine::Machine;
use optimod_sat::{
    encode_grouped, encode_subset, solve, AssumeOutcome, ConstraintGroup, IncrementalSolver,
    SatLimits, SatOutcome, SlotDomains,
};

use crate::lint::{Finding, LintCode};

/// Budgets and machinery for one explanation run.
#[derive(Debug, Clone)]
pub struct ExplainOptions {
    /// Wall-clock budget **per sub-solve** (initial core extraction, each
    /// minimization step, each certification check).
    pub time_limit: Duration,
    /// Conflict budget per sub-solve.
    pub conflict_limit: u64,
    /// Determinism seed threaded into every SAT call.
    pub seed: u64,
    /// Cooperative cancellation (checked between sub-solves and inside
    /// each solve).
    pub stop: StopFlag,
    /// Worker threads for the certification fan-out (`0` = machine
    /// default, `1` = serial). Results are order-deterministic either way.
    pub threads: usize,
    /// Total number of sub-solves minimization + certification may spend,
    /// counted deterministically (no clocks). `OM203` outcomes caused by
    /// this count replay exactly; one caused by a sub-solve running out of
    /// `time_limit` does not. `0` keeps the raw core unminimized and
    /// uncertified.
    pub mus_budget: u64,
}

impl Default for ExplainOptions {
    fn default() -> Self {
        ExplainOptions {
            time_limit: Duration::from_secs(60),
            conflict_limit: u64::MAX,
            seed: 0,
            stop: StopFlag::new(),
            threads: 1,
            mus_budget: 4096,
        }
    }
}

/// What an explanation run concluded.
#[derive(Debug, Clone)]
pub enum ExplainOutcome {
    /// The triple is infeasible and here is why.
    Explained(Explanation),
    /// The triple is satisfiable at this II — nothing to explain (the
    /// caller's infeasibility report disagrees with the re-encoding).
    Satisfiable,
    /// The initial solve hit its time/conflict budget or was stopped
    /// before reaching a verdict.
    Budget,
}

impl ExplainOutcome {
    /// Stable lower-case name of the variant.
    pub fn name(&self) -> &'static str {
        match self {
            ExplainOutcome::Explained(_) => "explained",
            ExplainOutcome::Satisfiable => "satisfiable",
            ExplainOutcome::Budget => "budget",
        }
    }
}

/// A certified source-level diagnosis of one infeasible (loop, machine,
/// II) triple.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The II the infeasibility was explained at.
    pub ii: u32,
    /// Size of the raw assumption core before minimization.
    pub raw_core_size: usize,
    /// The surviving constraint groups, in the encoder's deterministic
    /// group order.
    pub core: Vec<ConstraintGroup>,
    /// Whether deletion-based minimization ran to completion (every
    /// remaining member is provably necessary).
    pub minimized: bool,
    /// Whether two independent selector-free re-encodings confirmed the
    /// core: the subset alone unsatisfiable, every single-member-dropped
    /// subset satisfiable.
    pub certified: bool,
    /// Source-level findings (`OM200`–`OM203`) derived from the core.
    pub findings: Vec<Finding>,
    /// A minimized replayable `.loop` reproduction, when the caller's
    /// layer rendered one (the text format lives above this crate).
    pub repro: Option<String>,
}

impl Explanation {
    /// The dependence-edge indices in the core, ascending.
    pub fn core_edges(&self) -> Vec<usize> {
        self.core
            .iter()
            .filter_map(|g| match g {
                ConstraintGroup::Edge(i) => Some(*i),
                _ => None,
            })
            .collect()
    }

    /// The `(resource, row)` pairs in the core, ascending.
    pub fn core_resource_rows(&self) -> Vec<(usize, usize)> {
        self.core
            .iter()
            .filter_map(|g| match g {
                ConstraintGroup::ResourceRow { resource, row } => Some((*resource, *row)),
                _ => None,
            })
            .collect()
    }

    /// The window-restricted op indices in the core, ascending.
    pub fn core_windows(&self) -> Vec<usize> {
        self.core
            .iter()
            .filter_map(|g| match g {
                ConstraintGroup::Window(i) => Some(*i),
                _ => None,
            })
            .collect()
    }
}

fn sat_limits(opts: &ExplainOptions) -> SatLimits {
    SatLimits {
        time_limit: opts.time_limit,
        conflict_limit: opts.conflict_limit,
        seed: opts.seed,
        stop: opts.stop.clone(),
        ..SatLimits::default()
    }
}

/// Explains why scheduling `l` on `machine` at `ii` under `domains` is
/// infeasible.
///
/// Encodes with one assumption selector per constraint group, extracts an
/// unsat core, minimizes it by deletion (budget permitting), certifies
/// the result with independent selector-free re-encodings, and renders
/// source-level findings. Returns [`ExplainOutcome::Satisfiable`] when
/// the re-encoding finds a schedule instead.
pub fn explain_infeasible(
    l: &Loop,
    machine: &Machine,
    ii: u32,
    domains: &SlotDomains,
    opts: &ExplainOptions,
) -> ExplainOutcome {
    let g = encode_grouped(l, machine, ii, domains);
    let limits = sat_limits(opts);
    // One solver answers the initial query and every minimization step,
    // carrying learned clauses, activities and phases from one sub-solve
    // to the next.
    let mut solver = IncrementalSolver::new(&g.enc.cnf, &limits);
    let raw = match solver.solve(&g.selectors).0 {
        AssumeOutcome::Sat(_) => return ExplainOutcome::Satisfiable,
        AssumeOutcome::Unknown => return ExplainOutcome::Budget,
        AssumeOutcome::Unsat(core) => g.core_groups(&core),
    };
    let raw_core_size = raw.len();
    let mut budget = opts.mus_budget;

    // Deletion-based MUS minimization with core refinement: test the set
    // without member `i`; unsat means the member was redundant *and* the
    // returned core prunes the set further (members already proven
    // necessary always reappear in it, so `i` never restarts); sat means
    // the member is necessary.
    let mut core = raw.clone();
    let mut minimized = true;
    let mut i = 0;
    while i < core.len() {
        if budget == 0 || opts.stop.is_stopped() {
            minimized = false;
            break;
        }
        budget -= 1;
        let assumptions: Vec<_> = core
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &gi)| g.selectors[gi])
            .collect();
        match solver.solve(&assumptions).0 {
            AssumeOutcome::Unsat(ret) => {
                let kept = g.core_groups(&ret);
                core.retain(|gi| kept.binary_search(gi).is_ok());
            }
            AssumeOutcome::Sat(_) => i += 1,
            AssumeOutcome::Unknown => {
                minimized = false;
                break;
            }
        }
    }

    drop(solver);

    // Certification: selector-free re-encodings that never saw the
    // grouped formula, each on a fresh solver. The core subset alone must be unsat; dropping any
    // single member must flip it to sat. Budgeted up front (1 + |core|
    // sub-solves) so the accounting stays deterministic under threading.
    let mut certified = false;
    if minimized && budget > core.len() as u64 && !opts.stop.is_stopped() {
        // Certification is the last budget consumer; its 1 + |core|
        // sub-solves fit by the check above.
        let subset_unsat = {
            let sub = encode_subset(l, machine, ii, domains, &active_mask(g.groups.len(), &core));
            matches!(solve(&sub.enc.cnf, &limits).0, SatOutcome::Unsat)
        };
        if subset_unsat {
            let drops = optimod_par::par_map(opts.threads, &core, |i, _| {
                let rest: Vec<usize> = core
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &gi)| gi)
                    .collect();
                let sub =
                    encode_subset(l, machine, ii, domains, &active_mask(g.groups.len(), &rest));
                matches!(solve(&sub.enc.cnf, &limits).0, SatOutcome::Sat(_))
            });
            certified = drops.iter().all(|&ok| ok);
        }
    }

    let core: Vec<ConstraintGroup> = core.iter().map(|&gi| g.groups[gi]).collect();
    let findings = core_findings(l, machine, ii, &core, raw_core_size, minimized, certified);
    ExplainOutcome::Explained(Explanation {
        ii,
        raw_core_size,
        core,
        minimized,
        certified,
        findings,
        repro: None,
    })
}

fn active_mask(num_groups: usize, active: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; num_groups];
    for &g in active {
        mask[g] = true;
    }
    mask
}

/// Renders the source-level findings for a (possibly unminimized) core.
fn core_findings(
    l: &Loop,
    machine: &Machine,
    ii: u32,
    core: &[ConstraintGroup],
    raw_core_size: usize,
    minimized: bool,
    certified: bool,
) -> Vec<Finding> {
    let mut out = Vec::new();

    // OM200: one finding naming the whole conflicting edge set.
    let edges: Vec<usize> = core
        .iter()
        .filter_map(|g| match g {
            ConstraintGroup::Edge(i) => Some(*i),
            _ => None,
        })
        .collect();
    if !edges.is_empty() {
        let mut parts = Vec::with_capacity(edges.len());
        for &ei in &edges {
            let e = &l.edges()[ei];
            parts.push(format!(
                "{}->{} (latency {}, distance {})",
                l.op(e.from).name,
                l.op(e.to).name,
                e.latency,
                e.distance
            ));
        }
        let mut msg = format!(
            "{} dependence edge(s) cannot all hold at II={ii}: {}",
            edges.len(),
            parts.join(", ")
        );
        if let Some((lat, dist)) = closed_cycle_weight(l, &edges) {
            let need = lat.div_euclid(dist) + i64::from(lat.rem_euclid(dist) != 0);
            msg.push_str(&format!(
                "; the edges close a cycle of latency {lat} over distance {dist}, \
                 forcing II >= ceil({lat}/{dist}) = {need}"
            ));
        }
        out.push(Finding::new(
            LintCode::ConflictingEdges,
            format!("{} edges", edges.len()),
            msg,
        ));
    }

    // OM201: one finding per distinct over-subscribed resource.
    let mut rows: Vec<(usize, usize)> = core
        .iter()
        .filter_map(|g| match g {
            ConstraintGroup::ResourceRow { resource, row } => Some((*resource, *row)),
            _ => None,
        })
        .collect();
    rows.sort_unstable();
    let mut r = 0;
    while r < rows.len() {
        let resource = rows[r].0;
        let mut row_list = Vec::new();
        while r < rows.len() && rows[r].0 == resource {
            row_list.push(rows[r].1.to_string());
            r += 1;
        }
        let q = machine
            .resources()
            .find(|q| q.index() == resource)
            .expect("core resource index comes from this machine");
        let competing: Vec<&str> = l
            .ops()
            .iter()
            .filter(|op| machine.usages(op.class).iter().any(|&(u, _)| u == q))
            .map(|op| op.name.as_str())
            .collect();
        out.push(Finding::new(
            LintCode::ResourceOverSubscription,
            machine.resource_name(q).to_string(),
            format!(
                "resource '{}' (capacity {}) is over-subscribed in MRT row(s) {} at II={ii}; \
                 competing ops: {}",
                machine.resource_name(q),
                machine.resource_count(q),
                row_list.join(", "),
                competing.join(", ")
            ),
        ));
    }

    // OM202: one finding per presolve-restricted window in the core.
    for g in core {
        let ConstraintGroup::Window(op) = g else {
            continue;
        };
        out.push(Finding::new(
            LintCode::WindowConflict,
            l.ops()[*op].name.clone(),
            format!(
                "the presolve-restricted issue window of '{}' participates in the \
                 infeasibility at II={ii}; relaxing it alone would admit a schedule \
                 only together with the other core members",
                l.ops()[*op].name
            ),
        ));
    }

    // OM203: the budget ran out before the core was minimized/certified.
    if !minimized || !certified {
        let phase = if !minimized {
            "minimization"
        } else {
            "certification"
        };
        out.push(Finding::new(
            LintCode::CoreNotMinimized,
            l.name().to_string(),
            format!(
                "unsat core at II={ii} was not {phase}-complete within the explanation \
                 budget (raw core {raw_core_size} group(s), reported {} group(s)); \
                 the groups above are implicated but not proven minimal",
                core.len()
            ),
        ));
    }
    out
}

/// When the edge set forms one closed simple cycle, returns its total
/// `(latency, distance)` with positive distance — the classic RecMII
/// certificate `II >= ceil(latency/distance)`.
fn closed_cycle_weight(l: &Loop, edges: &[usize]) -> Option<(i64, i64)> {
    let es: Vec<_> = edges.iter().map(|&ei| &l.edges()[ei]).collect();
    let mut next = std::collections::BTreeMap::new();
    for e in &es {
        // A simple cycle visits each vertex once: duplicate sources or
        // sinks disqualify the set.
        if next.insert(e.from.index(), e.to.index()).is_some() {
            return None;
        }
    }
    let mut seen = 0usize;
    let start = es[0].from.index();
    let mut at = start;
    loop {
        at = *next.get(&at)?;
        seen += 1;
        if at == start {
            break;
        }
        if seen > es.len() {
            return None;
        }
    }
    if seen != es.len() {
        return None;
    }
    let lat: i64 = es.iter().map(|e| e.latency).sum();
    let dist: i64 = es.iter().map(|e| e.distance as i64).sum();
    (lat > 0 && dist > 0).then_some((lat, dist))
}

/// Rewrites presolve `OM104` conflict-clique findings that duplicate an
/// explanation's `OM201` resource diagnosis into cross-references.
///
/// A capacity-1 MRT resource row surfaces both as a presolve clique
/// (`OM104`, informational) and — when it participates in an
/// infeasibility — as an `OM201` error. With an explanation in hand the
/// clique finding adds nothing, so its message becomes a pointer to the
/// `OM201` entry. Matching is by row provenance ([`RowTag::Resource`])
/// looked up through the row name the clique finding carries as its
/// subject; findings are left untouched when no tag matches, so lint
/// output without `--explain` is byte-stable.
pub fn cross_link_conflicts(findings: &mut [Finding], model: &Model, explanation: &Explanation) {
    let core_rows = explanation.core_resource_rows();
    if core_rows.is_empty() {
        return;
    }
    for f in findings.iter_mut() {
        if f.code != LintCode::ConflictClique {
            continue;
        }
        let tag = (0..model.num_constraints())
            .find(|&i| model.row(i).name == f.subject)
            .map(|i| model.row_tag(i));
        let Some(RowTag::Resource { resource, row }) = tag else {
            continue;
        };
        if core_rows.contains(&(resource as usize, row as usize)) {
            f.message = format!(
                "see OM201: this clique is MRT row {row} of resource #{resource}, \
                 which the infeasibility core at II={} names as over-subscribed",
                explanation.ii
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimod_ddg::{kernels, DepKind, LoopBuilder};
    use optimod_machine::{example_3fu, OpClass};

    fn unrestricted(l: &Loop, ii: u32) -> SlotDomains {
        SlotDomains::unrestricted(l.num_ops(), ii, 16 / ii as i64 + 4)
    }

    #[test]
    fn resource_infeasibility_yields_certified_om201() {
        // figure1 at II=1: 5 ops on 3 identical FUs cannot pack.
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let out = explain_infeasible(&l, &m, 1, &unrestricted(&l, 1), &ExplainOptions::default());
        let ExplainOutcome::Explained(ex) = out else {
            panic!("figure1 at II=1 must be explained, got {}", out.name());
        };
        assert!(ex.minimized && ex.certified);
        assert!(ex.core.len() <= ex.raw_core_size);
        assert!(!ex.core_resource_rows().is_empty());
        assert!(ex
            .findings
            .iter()
            .any(|f| f.code == LintCode::ResourceOverSubscription));
        assert!(!ex
            .findings
            .iter()
            .any(|f| f.code == LintCode::CoreNotMinimized));
    }

    #[test]
    fn recurrence_below_recmii_yields_om200_with_cycle_arithmetic() {
        // A two-op cycle of latency 4 over distance 1 needs II >= 4.
        let m = example_3fu();
        let mut b = LoopBuilder::new("cycle");
        let a = b.op(OpClass::FAdd, "a");
        let c = b.op(OpClass::FMul, "c");
        b.dep(a, c, 2, 0, DepKind::Flow);
        b.dep(c, a, 2, 1, DepKind::Flow);
        let l = b.build(&m);
        let out = explain_infeasible(&l, &m, 2, &unrestricted(&l, 2), &ExplainOptions::default());
        let ExplainOutcome::Explained(ex) = out else {
            panic!("cycle at II=2 must be explained, got {}", out.name());
        };
        assert!(ex.certified);
        assert_eq!(ex.core_edges().len(), 2);
        let om200 = ex
            .findings
            .iter()
            .find(|f| f.code == LintCode::ConflictingEdges)
            .expect("OM200 fires");
        assert!(om200.message.contains("ceil(4/1) = 4"), "{}", om200.message);
    }

    #[test]
    fn zero_budget_keeps_the_raw_core_and_flags_om203() {
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let opts = ExplainOptions {
            mus_budget: 0,
            ..ExplainOptions::default()
        };
        let out = explain_infeasible(&l, &m, 1, &unrestricted(&l, 1), &opts);
        let ExplainOutcome::Explained(ex) = out else {
            panic!("still explained, got {}", out.name());
        };
        assert!(!ex.minimized && !ex.certified);
        assert_eq!(ex.core.len(), ex.raw_core_size);
        assert!(ex
            .findings
            .iter()
            .any(|f| f.code == LintCode::CoreNotMinimized));
    }

    #[test]
    fn feasible_ii_reports_satisfiable() {
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let out = explain_infeasible(&l, &m, 2, &unrestricted(&l, 2), &ExplainOptions::default());
        assert!(matches!(out, ExplainOutcome::Satisfiable));
    }

    #[test]
    fn forbidden_window_yields_om202() {
        let m = example_3fu();
        let l = kernels::figure1(&m);
        let mut domains = unrestricted(&l, 2);
        domains.row_allowed[0] = vec![false; 2];
        domains.stage_bounds[0] = (0, 0);
        let out = explain_infeasible(&l, &m, 2, &domains, &ExplainOptions::default());
        let ExplainOutcome::Explained(ex) = out else {
            panic!("forbidden op must be explained, got {}", out.name());
        };
        assert!(ex.certified);
        assert_eq!(ex.core_windows(), vec![0]);
        assert!(ex
            .findings
            .iter()
            .any(|f| f.code == LintCode::WindowConflict && f.subject == l.ops()[0].name));
    }
}
