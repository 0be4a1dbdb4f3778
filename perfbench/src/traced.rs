//! The traced run: re-drives units through the crates' public calls with a
//! span around each call, checks that every re-driven unit reproduces the
//! untraced result, and derives the per-layer metrics.
//!
//! Per unit, in the scheduler's own order: `textfmt::parse`, `compute_mii`,
//! then per tentative II `build_model`, `presolve`, `Solver::solve`,
//! `try_extract_schedule` and `certify`; on `synth-explain` the unit ends
//! with `explain_at(II* - 1)`. Probes run after the unit span closes and
//! are not part of the pipeline: a root LP solve of the final model, a
//! deadline probe, a SAT encode + solve at II* - 1, and (where the unit
//! does not explain) an explanation at II* - 1.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use optimod::formulation::BuiltModel;
use optimod::{
    build_model, certify, compute_mii, explain_at, explain_options, Claim, ExplainOutcome,
    FormulationConfig, IlpContext, Objective, OptimalScheduler, SchedulerConfig,
};
use optimod_ddg::{textfmt, Loop};
use optimod_ilp::{Model, Simplex, SimplexOptions, SolveLimits, SolveStats, SolveStatus, Solver};
use optimod_machine::Machine;
use optimod_sat::{encode, EncodeOptions, SatLimits, SatOutcome, SlotDomains};

use crate::batch::{Config, Outcome, Phase};
use crate::inputs::{style_name, Unit};
use crate::spans::{self, Recorder, Span};
use crate::stats::{median, median_count, percentile, ratio, Metrics};
use crate::Args;

/// Wall budget of each probe solve.
const PROBE_BUDGET: Duration = Duration::from_secs(1);
/// Limit of the deadline probe: how late after it does the solver stop?
const PROBE_DEADLINE: Duration = Duration::from_millis(1);
/// Conflict budget of the SAT probe: a count, not a clock, so its
/// conflicts repeat exactly (the wall limit is only a safety net).
const PROBE_SAT_CONFLICTS: u64 = 20_000;
const PROBE_SAT_WALL: Duration = Duration::from_secs(10);
/// The traced re-drive must end within this many seconds, or the run
/// fails.
const REDRIVE_LIMIT: f64 = 100.0;

/// Counters of one re-driven unit.
#[derive(Clone, Debug, Default)]
pub struct Redrive {
    pub unit: usize,
    pub style: &'static str,
    pub ii: Option<u32>,
    pub objective: Option<i64>,
    /// The re-drive stopped on a budget.
    pub limited: bool,
    pub stats: SolveStats,
    pub ii_attempts: u64,
    pub rows: usize,
    pub nnz: usize,
    pub rows_removed: u64,
    pub vars_fixed: u64,
    pub overrun_ms: Option<f64>,
    /// The unit's own explanation (`synth-explain`): raw and minimized
    /// core sizes.
    pub core: Option<(usize, usize)>,
    pub root_lp_ms: Option<f64>,
    pub probe_overrun_ms: Option<f64>,
    /// SAT probe at II* - 1: variables, clauses, conflicts.
    pub sat: Option<(usize, usize, u64)>,
    /// The explanation probe at II* - 1: raw and minimized core sizes.
    pub probe_core: Option<(usize, usize)>,
}

/// Re-drives one unit under `rec`, then runs its probes.
fn redrive(
    unit: &Unit,
    idx: usize,
    cfg: &Config,
    rec: &mut Recorder,
    probe_explain: bool,
) -> Result<Redrive, String> {
    let root = rec.begin("unit", idx);
    let parsed = rec
        .span("ddg.parse", idx, || textfmt::parse(&unit.text))
        .map_err(|e| format!("{}: {e}", unit.name))?;
    let (l, m) = (&parsed.l, &parsed.machine);
    let sc = cfg.scheduler(unit);
    let start = Instant::now();
    let mii = rec.span("core.mii", idx, || compute_mii(l, m));
    let fcfg = FormulationConfig {
        dep_style: sc.dep_style,
        objective: sc.objective,
        sched_len_slack: sc.sched_len_slack,
        max_live_limit: sc.register_limit,
    };
    let first_only = sc.objective == Objective::FirstFeasible;
    let mut r = Redrive {
        unit: idx,
        style: style_name(unit.style),
        ..Default::default()
    };
    let mut last: Option<BuiltModel> = None;
    let mut ii = mii.value();
    while ii <= mii.value() + sc.max_ii_span {
        let elapsed = start.elapsed();
        if elapsed >= sc.limits.time_limit || r.stats.bb_nodes >= sc.limits.node_limit {
            r.limited = true;
            break;
        }
        r.ii_attempts += 1;
        let Some(mut built) = rec.span("core.formulation", idx, || build_model(l, m, ii, &fcfg))
        else {
            ii += 1;
            continue;
        };
        r.rows = built.model.num_constraints();
        r.nnz = built.model.rows().map(|row| row.coeffs.len()).sum();
        if sc.presolve {
            let s = rec.span("analyze.presolve", idx, || presolve(&mut built, l, &sc));
            r.rows_removed += s.rows_eliminated;
            r.vars_fixed += s.binaries_fixed;
        }
        let limits = SolveLimits {
            time_limit: sc.limits.time_limit.saturating_sub(elapsed),
            node_limit: sc.limits.node_limit.saturating_sub(r.stats.bb_nodes),
            first_solution_only: first_only,
            ..sc.limits.clone()
        };
        let time_limit = limits.time_limit;
        let t = Instant::now();
        let out = rec.span("ilp.search", idx, || {
            Solver::new(limits).solve(&built.model)
        });
        r.stats.absorb(&out.stats);
        match out.status {
            SolveStatus::Optimal | SolveStatus::Feasible => {
                let schedule = rec
                    .span("core.extract", idx, || built.try_extract_schedule(&out))
                    .map_err(|e| format!("{}: re-driven extraction failed: {e}", unit.name))?;
                let sched = OptimalScheduler::new(sc.clone());
                let objective = sched.exact_objective(l, &schedule);
                let claimed = (!first_only).then(|| out.objective.round());
                rec.span("verify.certify", idx, || {
                    certify(&Claim {
                        graph: l,
                        machine: m,
                        ii,
                        times: schedule.times(),
                        claimed_optimal: out.status == SolveStatus::Optimal,
                        claimed_objective: claimed,
                        exact_objective: objective,
                        claimed_bound: None,
                    })
                })
                .map_err(|e| format!("{}: re-driven certificate refused: {e}", unit.name))?;
                if out.status == SolveStatus::Optimal {
                    r.ii = Some(ii);
                    r.objective = objective;
                } else {
                    r.limited = true;
                }
                last = Some(built);
                break;
            }
            SolveStatus::Infeasible => ii += 1,
            SolveStatus::LimitReached => {
                r.overrun_ms = Some((t.elapsed().as_secs_f64() - time_limit.as_secs_f64()) * 1e3);
                r.limited = true;
                break;
            }
        }
    }
    if let (true, Some(star)) = (cfg.explain, r.ii) {
        if star > 1 {
            let out = rec.span("analyze.explain", idx, || {
                explain_at(l, m, star - 1, &sc, &explain_options(&sc))
            });
            match out {
                ExplainOutcome::Explained(ex) => {
                    // An uncertified core is the explain budget's doing.
                    r.limited |= !ex.certified;
                    r.core = Some((ex.raw_core_size, ex.core.len()))
                }
                ExplainOutcome::Satisfiable => {
                    return Err(format!(
                        "{}: II {} explained as feasible",
                        unit.name,
                        star - 1
                    ))
                }
                ExplainOutcome::Budget => r.limited = true,
            }
        }
    }
    rec.end(root);

    if let (Some(star), Some(built)) = (r.ii, &last) {
        probe_lp(&mut r, &built.model, rec, idx);
        probe_sat(&mut r, l, m, star, &sc, rec, idx)?;
        if probe_explain && star > 1 {
            let mut opts = explain_options(&sc);
            opts.time_limit = PROBE_BUDGET;
            let out = rec.span("probe.explain", idx, || {
                explain_at(l, m, star - 1, &sc, &opts)
            });
            if let ExplainOutcome::Explained(ex) = out {
                r.probe_core = Some((ex.raw_core_size, ex.core.len()));
            }
        }
    }
    Ok(r)
}

fn presolve(
    built: &mut BuiltModel,
    l: &Loop,
    sc: &SchedulerConfig,
) -> optimod_analyze::PresolveSummary {
    optimod_analyze::presolve(
        &mut built.model,
        l,
        &IlpContext {
            ii: built.ii,
            num_stages: built.num_stages,
            a: &built.a,
            k: &built.k,
        },
        &sc.presolve_options,
    )
}

/// Root LP of the final (presolved) model, and a solve under a 1 ms limit
/// to see how far past its deadline the search stops.
fn probe_lp(r: &mut Redrive, model: &Model, rec: &mut Recorder, idx: usize) {
    let lb: Vec<f64> = model.var_ids().map(|v| model.lb(v)).collect();
    let ub: Vec<f64> = model.var_ids().map(|v| model.ub(v)).collect();
    let t = Instant::now();
    rec.span("probe.root_lp", idx, || {
        let opts = SimplexOptions {
            deadline: Some(Instant::now() + PROBE_BUDGET),
            ..SimplexOptions::default()
        };
        Simplex::new(model).solve(&lb, &ub, &opts)
    });
    r.root_lp_ms = Some(t.elapsed().as_secs_f64() * 1e3);
    let limits = SolveLimits {
        time_limit: PROBE_DEADLINE,
        threads: 1,
        ..SolveLimits::default()
    };
    let t = Instant::now();
    let out = rec.span("probe.deadline", idx, || Solver::new(limits).solve(model));
    if out.status == SolveStatus::LimitReached {
        r.probe_overrun_ms = Some((t.elapsed().as_secs_f64() - PROBE_DEADLINE.as_secs_f64()) * 1e3);
    }
}

/// The slot domains the search used at `ii` (as the explanation engine
/// derives them), encoded to CNF and solved. A satisfying assignment that
/// certifies would mean the scheduler's II* was not minimal.
fn probe_sat(
    r: &mut Redrive,
    l: &Loop,
    m: &Machine,
    star: u32,
    sc: &SchedulerConfig,
    rec: &mut Recorder,
    idx: usize,
) -> Result<(), String> {
    if star <= 1 {
        return Ok(());
    }
    let ii = star - 1;
    let fcfg = FormulationConfig {
        dep_style: sc.dep_style,
        objective: Objective::FirstFeasible,
        sched_len_slack: sc.sched_len_slack,
        max_live_limit: sc.register_limit,
    };
    let probe = rec.begin("probe.sat", idx);
    let domains = match build_model(l, m, ii, &fcfg) {
        Some(mut built) => {
            if sc.presolve {
                presolve(&mut built, l, sc);
            }
            slot_domains(&built)
        }
        None => {
            let latency: i64 = l.edges().iter().map(|e| e.latency.max(0)).sum();
            let stages =
                (latency + i64::from(sc.sched_len_slack) + 1).div_euclid(i64::from(ii)) + 1;
            SlotDomains::unrestricted(l.num_ops(), ii, stages)
        }
    };
    let enc = rec.span("sat.encode", idx, || {
        encode(l, m, ii, &domains, &EncodeOptions::default())
    });
    let limits = SatLimits {
        time_limit: PROBE_SAT_WALL,
        conflict_limit: PROBE_SAT_CONFLICTS,
        ..SatLimits::default()
    };
    let (out, stats) = rec.span("sat.solve", idx, || optimod_sat::solve(&enc.cnf, &limits));
    rec.end(probe);
    if let SatOutcome::Sat(model) = &out {
        if let Ok(times) = enc.decode(model) {
            if certify(&Claim::feasibility(l, m, ii, &times, false)).is_ok() {
                return Err(format!(
                    "unit {idx}: a certified schedule exists at II {ii} < II* {star}"
                ));
            }
        }
    }
    r.sat = Some((enc.cnf.num_vars(), enc.cnf.num_clauses(), stats.conflicts));
    Ok(())
}

/// Stage bounds and MRT-row availability read off a (presolved) model.
fn slot_domains(built: &BuiltModel) -> SlotDomains {
    let model = &built.model;
    let mut stage_bounds = Vec::new();
    let mut row_allowed = Vec::new();
    for (op, rows) in built.a.iter().enumerate() {
        let k = built.k[op];
        stage_bounds.push((model.lb(k).ceil() as i64, model.ub(k).floor() as i64));
        let forced = rows.iter().position(|&v| model.lb(v) > 0.5);
        row_allowed.push(
            rows.iter()
                .enumerate()
                .map(|(r, &v)| forced.map_or(model.ub(v) > 0.5, |f| f == r))
                .collect(),
        );
    }
    SlotDomains {
        num_stages: built.num_stages,
        stage_bounds,
        row_allowed,
    }
}

/// The traced re-drive of every unit in `order` (each once) on `workers`
/// threads. Not finishing within `limit_seconds` fails the run: the set
/// re-driven never depends on how fast the host is. Returns the re-drives
/// with their spans.
fn run(
    units: &[Unit],
    order: &[usize],
    cfg: &Config,
    limit_seconds: f64,
    workers: usize,
    probe_explain: bool,
) -> Result<(Vec<Redrive>, Vec<Span>), String> {
    let origin = Instant::now();
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let error: Mutex<Option<String>> = Mutex::new(None);
    let ids: Vec<usize> = (0..workers).collect();
    let per_worker = optimod_par::par_map(workers, &ids, |_, _| {
        let mut rec = Recorder::new(origin);
        let mut done = Vec::new();
        while !abort.load(Ordering::Relaxed) {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= order.len() {
                break;
            }
            if origin.elapsed().as_secs_f64() >= limit_seconds {
                abort.store(true, Ordering::Relaxed);
                error.lock().expect("error slot").get_or_insert(format!(
                    "traced re-drive of {} units did not finish within {limit_seconds}s",
                    order.len()
                ));
                break;
            }
            match redrive(&units[order[k]], order[k], cfg, &mut rec, probe_explain) {
                Ok(r) => done.push(r),
                Err(e) => {
                    abort.store(true, Ordering::Relaxed);
                    error.lock().expect("error slot").get_or_insert(e);
                }
            }
        }
        (done, rec)
    });
    if let Some(e) = error.into_inner().expect("error slot") {
        return Err(e);
    }
    let mut redrives = Vec::new();
    let mut recs = Vec::new();
    for (d, r) in per_worker {
        redrives.extend(d);
        recs.push(r);
    }
    Ok((redrives, spans::merge(recs)))
}

/// Every re-driven unit that finished in both runs must reproduce the
/// untraced II, objective and counters. A unit that hit a budget in one
/// run only is counted, not failed: budgets are wall-clock.
fn check_against_plain(
    units: &[Unit],
    redrives: &[Redrive],
    plain: &[Outcome],
) -> Result<usize, String> {
    let mut flips = 0;
    for r in redrives {
        let Some(p) = plain.iter().find(|o| o.unit == r.unit) else {
            continue;
        };
        let done_traced = r.ii.is_some() && !r.limited;
        if !(p.ok() && done_traced) {
            if p.ok() != done_traced {
                flips += 1;
            }
            continue;
        }
        if (p.ii, p.objective, p.nodes, p.iters, p.core)
            != (
                r.ii,
                r.objective,
                r.stats.bb_nodes,
                r.stats.simplex_iterations,
                r.core,
            )
        {
            return Err(format!(
                "{}: traced re-drive differs from the untraced run: II {:?}/{:?}, objective \
                 {:?}/{:?}, nodes {}/{}, iterations {}/{}, core {:?}/{:?}",
                units[r.unit].name,
                p.ii,
                r.ii,
                p.objective,
                r.objective,
                p.nodes,
                r.stats.bb_nodes,
                p.iters,
                r.stats.simplex_iterations,
                p.core,
                r.core
            ));
        }
    }
    Ok(flips)
}

impl Redrive {
    /// Reached a certified result without hitting any budget, so its
    /// counters are exact.
    fn finished(&self) -> bool {
        self.ii.is_some() && !self.limited
    }
}

/// Layer metrics that come from re-drives and spans (every workload).
/// Times sum over every re-driven unit; counts, and the rates derived
/// from them, over the units that finished, whose counters do not depend
/// on how far a wall-clock budget let the search get.
fn layer_metrics(m: &mut Metrics, redrives: &[Redrive], spans: &[Span], plain: &[Outcome]) {
    let us = |name: &str| -> Vec<f64> {
        spans::durations(spans, name)
            .iter()
            .map(|ms| ms * 1e3)
            .collect()
    };
    let finished: Vec<&Redrive> = redrives.iter().filter(|r| r.finished()).collect();
    let sum_u = |f: &dyn Fn(&Redrive) -> u64| finished.iter().map(|r| f(r)).sum::<u64>() as f64;
    m.put("ddg.parse_us_p50", median(&us("ddg.parse")), "us");
    m.put("mii.compute_us_p50", median(&us("core.mii")), "us");
    m.put(
        "formulation.build_ms_total",
        spans::total_ms(spans, "core.formulation"),
        "ms",
    );
    let rows: Vec<f64> = finished.iter().map(|r| r.rows as f64).collect();
    let nnz: Vec<f64> = finished.iter().map(|r| r.nnz as f64).collect();
    m.put("formulation.rows_p50", median_count(&rows), "count");
    m.put("formulation.nnz_p50", median_count(&nnz), "count");
    m.put(
        "formulation.ii_attempts",
        sum_u(&|r| r.ii_attempts),
        "count",
    );
    m.put("extract.us_total", us("core.extract").iter().sum(), "us");
    m.put(
        "presolve.ms_total",
        spans::total_ms(spans, "analyze.presolve"),
        "ms",
    );
    m.put("presolve.rows_removed", sum_u(&|r| r.rows_removed), "count");
    m.put("presolve.vars_fixed", sum_u(&|r| r.vars_fixed), "count");

    let search_ms = spans::total_ms(spans, "ilp.search");
    let finished_search_ms: f64 = spans
        .iter()
        .filter(|s| s.name == "ilp.search" && finished.iter().any(|r| r.unit == s.unit))
        .map(Span::ms)
        .sum();
    let nodes = sum_u(&|r| r.stats.bb_nodes);
    let iters = sum_u(&|r| r.stats.simplex_iterations);
    let warm = sum_u(&|r| r.stats.warm_starts);
    let abandoned = sum_u(&|r| r.stats.warm_abandoned);
    m.put("ilp.search_ms_total", search_ms, "ms");
    m.put("ilp.bb_nodes", nodes, "count");
    m.put("ilp.simplex_iters", iters, "count");
    m.put(
        "ilp.us_per_iter",
        ratio(finished_search_ms * 1e3, iters),
        "us",
    );
    m.put(
        "ilp.nodes_per_s",
        ratio(nodes, finished_search_ms / 1e3),
        "1/s",
    );
    m.put("ilp.refactors", sum_u(&|r| r.stats.refactors), "count");
    m.put("ilp.warm_hit_frac", ratio(warm, warm + abandoned), "ratio");
    let root: Vec<f64> = redrives.iter().filter_map(|r| r.root_lp_ms).collect();
    m.put("ilp.root_lp_ms_p90", percentile(&root, 0.9), "ms");
    let overrun = redrives
        .iter()
        .flat_map(|r| [r.overrun_ms, r.probe_overrun_ms])
        .flatten()
        .fold(0.0, f64::max);
    m.put("ilp.deadline_overrun_ms_max", overrun, "ms");

    let cert = us("verify.certify");
    m.put("verify.certify_us_p50", median(&cert), "us");
    m.put(
        "verify.certify_ms_total",
        cert.iter().sum::<f64>() / 1e3,
        "ms",
    );

    let sat: Vec<(usize, usize, u64)> = finished.iter().filter_map(|r| r.sat).collect();
    m.put(
        "sat.encode_ms_total",
        spans::total_ms(spans, "sat.encode"),
        "ms",
    );
    m.put(
        "sat.vars_p50",
        median_count(&sat.iter().map(|s| s.0 as f64).collect::<Vec<_>>()),
        "count",
    );
    m.put(
        "sat.clauses_p50",
        median_count(&sat.iter().map(|s| s.1 as f64).collect::<Vec<_>>()),
        "count",
    );
    m.put(
        "sat.solve_ms_total",
        spans::total_ms(spans, "sat.solve"),
        "ms",
    );
    m.put(
        "sat.conflicts",
        sat.iter().map(|s| s.2).sum::<u64>() as f64,
        "count",
    );

    let mut explain_ms = spans::durations(spans, "analyze.explain");
    explain_ms.extend(spans::durations(spans, "probe.explain"));
    let cores: Vec<(usize, usize)> = redrives
        .iter()
        .filter_map(|r| r.core.or(r.probe_core))
        .collect();
    let raw: Vec<f64> = cores.iter().map(|c| c.0 as f64).collect();
    let min: Vec<f64> = cores.iter().map(|c| c.1 as f64).collect();
    m.put("explain.ms_total", explain_ms.iter().sum(), "ms");
    m.put("explain.ms_p90", percentile(&explain_ms, 0.9), "ms");
    m.put("explain.raw_core_p50", median_count(&raw), "count");
    m.put("explain.min_core_p50", median_count(&min), "count");
    m.put(
        "explain.shrink_ratio",
        ratio(min.iter().sum(), raw.iter().sum()),
        "ratio",
    );

    m.put(
        "bench.unattributed_frac",
        spans::unattributed_frac(spans),
        "ratio",
    );
    let mut traced_ms = 0.0;
    let mut plain_ms = 0.0;
    for s in spans.iter().filter(|s| s.name == "unit") {
        let runs: Vec<f64> = plain
            .iter()
            .filter(|o| o.unit == s.unit)
            .map(|o| o.ms)
            .collect();
        if !runs.is_empty() {
            traced_ms += s.ms();
            plain_ms += median(&runs);
        }
    }
    m.put(
        "bench.traced_over_plain",
        ratio(traced_ms, plain_ms),
        "ratio",
    );
}

/// `par.busy_frac` and `par.tail_ms` of an across-loop fan-out.
fn par_metrics(m: &mut Metrics, phase: &Phase, workers: usize) {
    let busy: f64 = phase.outcomes.iter().map(|o| o.end - o.start).sum();
    let idle_from = (0..workers)
        .map(|w| {
            phase
                .outcomes
                .iter()
                .filter(|o| o.worker == w)
                .map(|o| o.end)
                .fold(0.0, f64::max)
        })
        .fold(f64::INFINITY, f64::min);
    m.put(
        "par.busy_frac",
        ratio(busy, workers as f64 * phase.wall),
        "ratio",
    );
    m.put("par.tail_ms", (phase.wall - idle_from).max(0.0) * 1e3, "ms");
}

/// Closed-loop dispatch lag: the gap between a worker finishing one unit
/// and starting the next (p99, ms).
fn dispatch_lag_ms_p99(phase: &Phase) -> f64 {
    let mut gaps = Vec::new();
    for w in 0..phase
        .outcomes
        .iter()
        .map(|o| o.worker + 1)
        .max()
        .unwrap_or(0)
    {
        let mut mine: Vec<&Outcome> = phase.outcomes.iter().filter(|o| o.worker == w).collect();
        mine.sort_by(|a, b| a.start.total_cmp(&b.start));
        gaps.extend(
            mine.windows(2)
                .map(|p| (p[1].start - p[0].end).max(0.0) * 1e3),
        );
    }
    percentile(&gaps, 0.99)
}

/// The paper's headline on the golden kernels: traditional over structured
/// B&B nodes and search time, and the per-iteration LP cost of each.
fn print_headline(redrives: &[Redrive], spans: &[Span]) {
    let search_ms = |style: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == "ilp.search")
            .filter(|s| {
                redrives
                    .iter()
                    .any(|r| r.unit == s.unit && r.style == style)
            })
            .map(Span::ms)
            .sum()
    };
    let sum = |style: &str, f: &dyn Fn(&Redrive) -> u64| -> f64 {
        redrives
            .iter()
            .filter(|r| r.style == style)
            .map(f)
            .sum::<u64>() as f64
    };
    let nodes = |s: &str| sum(s, &|r| r.stats.bb_nodes);
    let iters = |s: &str| sum(s, &|r| r.stats.simplex_iterations);
    let (t, s) = ("traditional", "structured");
    println!("paper headline (traditional / structured, MinReg, golden kernels):");
    println!(
        "  ilp.bb_nodes        {:>10} / {:<10} = {:>7.1}x   (paper: ~100x)",
        nodes(t),
        nodes(s),
        ratio(nodes(t), nodes(s))
    );
    println!(
        "  ilp.search_ms_total {:>10.2} / {:<10.2} = {:>7.2}x   (paper: 8.6x)",
        search_ms(t),
        search_ms(s),
        ratio(search_ms(t), search_ms(s))
    );
    println!(
        "  ilp.us_per_iter     traditional {:.3} us, structured {:.3} us",
        ratio(search_ms(t) * 1e3, iters(t)),
        ratio(search_ms(s) * 1e3, iters(s))
    );
}

/// Per-layer metrics of a traced batch run, over the fixed set of units
/// `redrive` (positions in `units`).
pub fn batch_layers(
    args: &Args,
    units: &[Unit],
    redrive: &[usize],
    cfg: &Config,
    phase: &Phase,
    workers: usize,
) -> Result<Metrics, String> {
    let (redrives, spans) = run(units, redrive, cfg, REDRIVE_LIMIT, workers, !cfg.explain)?;
    let flips = check_against_plain(units, &redrives, &phase.outcomes)?;
    write_outputs(args, units, &redrives, &spans)?;
    let finished = redrives.iter().filter(|r| r.finished()).count();
    println!(
        "traced re-drive: {} units, {} finished (counters sum over these), {} budget-bound, \
         {} budget flip(s), {} spans",
        redrives.len(),
        finished,
        redrives.len() - finished,
        flips,
        spans.len()
    );
    if args.workload == "golden-minreg" {
        print_headline(&redrives, &spans);
    }
    let mut m = Metrics::default();
    layer_metrics(&mut m, &redrives, &spans, &phase.outcomes);
    par_metrics(&mut m, phase, workers);
    m.put("gen.lag_ms_p99", dispatch_lag_ms_p99(phase), "ms");
    let failed = phase.outcomes.iter().filter(|o| !o.ok()).count() as f64;
    m.put(
        "failed_frac",
        ratio(failed, phase.outcomes.len() as f64),
        "ratio",
    );
    m.put("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    let probed: Vec<(&Unit, &Outcome)> = redrive
        .iter()
        .filter_map(|&u| phase.outcomes.iter().find(|o| o.unit == u && o.ok()))
        .map(|o| (&units[o.unit], o))
        .take(crate::daemon::PROBE_UNITS)
        .collect();
    crate::daemon::probe(&probed, cfg, args, &mut m)?;
    m.print_table("per-layer");
    Ok(m)
}

/// Writes the spans and the per-unit counters of the traced run to
/// `<out>/<workload>-seed<n>.{spans,counters}.tsv`.
fn write_outputs(
    args: &Args,
    units: &[Unit],
    redrives: &[Redrive],
    spans: &[Span],
) -> Result<(), String> {
    let mut counters = String::from("unit\tii\tobjective\tnodes\titers\tsat_conflicts\tstate\n");
    for r in redrives {
        let show = |v: Option<String>| v.unwrap_or_else(|| "-".to_string());
        counters.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            units[r.unit].name,
            show(r.ii.map(|v| v.to_string())),
            show(r.objective.map(|v| v.to_string())),
            r.stats.bb_nodes,
            r.stats.simplex_iterations,
            show(r.sat.map(|s| s.2.to_string())),
            if r.limited || r.ii.is_none() {
                "limited"
            } else {
                "done"
            }
        ));
    }
    for (kind, text) in [("spans", spans::to_tsv(spans)), ("counters", counters)] {
        let path = args
            .out
            .join(format!("{}-seed{}.{kind}.tsv", args.workload, args.seed));
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}
